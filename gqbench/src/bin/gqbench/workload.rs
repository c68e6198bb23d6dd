//! The four closed-loop workloads: data generation from the seed, the
//! reference result, one query per substrate, and the timed loop.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridq_adapt::{AdaptivityConfig, AssessmentPolicy, ResponsePolicy};
use gridq_common::{DetRng, NodeId, Tuple};
use gridq_engine::distributed::DistributedPlan;
use gridq_engine::evaluator::StreamTag;
use gridq_engine::physical::Catalog;
use gridq_engine::AdmissionConfig;
use gridq_exec::socket::{ServiceResolver, SocketConfig, SocketExecutor, WireStageSpec};
use gridq_exec::{
    QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig, ThreadedConfig,
    ThreadedExecutor,
};
use gridq_grid::Perturbation;
use gridq_obs::{TimelineEvent, TimelineKind};
use gridq_recovery::LogAudit;
use gridq_workload::{protein_interactions, protein_sequences, EntropyAnalyser};
use gridq_workload::{Q1Experiment, Q2Experiment};

use crate::reference::{entropy_reference, join_reference, Fingerprint};
use crate::stats::Outcome;
use crate::trace::Tracer;

/// Engine-only cost mode: the smallest positive normal `f64`.
/// `ThreadedConfig::validate` rejects 0, and a subnormal scale would send
/// every cost multiplication down the processor's slow subnormal path.
/// [`check_engine_only`] proves that no modelled sleep survives it.
pub const ENGINE_ONLY_SCALE: f64 = f64::MIN_POSITIVE;

/// `skewed_recall`'s model-to-wall-clock scale.
pub const RECALL_SCALE: f64 = 0.002;

/// `skewed_recall` slows evaluator 2 (node 2, partition index 1) tenfold.
pub const PERTURBED_NODE: NodeId = NodeId::new(2);
/// Partition index of [`PERTURBED_NODE`].
pub const PERTURBED_PARTITION: usize = 1;
const PERTURBATION_FACTOR: f64 = 10.0;

/// `small_queries`: every fifth query of a session runs on sockets.
const SOCKET_EVERY: u64 = 5;
/// `small_queries`: sessions and run slots.
const SESSIONS: usize = 2;

/// A run never measures past this, whatever its minimum query count.
const HARD_CAP: Duration = Duration::from_secs(150);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Q2 at 10x paper scale on threads, engine-only cost, one client.
    BulkThreaded,
    /// The same query and data on in-process socket workers.
    BulkSockets,
    /// Paper-scale Q2 with modelled costs, one evaluator slowed 10x, A1/R1.
    SkewedRecall,
    /// Tiny Q1 queries through the service plane, two sessions.
    SmallQueries,
}

impl Workload {
    /// Every workload the command accepts: `BENCHMARK.json` declares the
    /// first three, in this order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkThreaded,
        Workload::BulkSockets,
        Workload::SkewedRecall,
        Workload::SmallQueries,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkThreaded => "bulk_threaded",
            Workload::BulkSockets => "bulk_sockets",
            Workload::SkewedRecall => "skewed_recall",
            Workload::SmallQueries => "small_queries",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::SmallQueries => SESSIONS,
            _ => 1,
        }
    }

    /// Warm-up queries per client in each set-up: enough to fault in the
    /// allocator's arenas and, for `small_queries`, one socket query per
    /// session.
    pub fn warmup_per_client(self) -> u64 {
        match self {
            Workload::SmallQueries => SOCKET_EVERY,
            _ => 2,
        }
    }

    /// Modelled slowdown per partition.
    pub fn factors(self) -> [f64; 2] {
        match self {
            Workload::SkewedRecall => [1.0, PERTURBATION_FACTOR],
            _ => [1.0, 1.0],
        }
    }

    /// Model-to-wall-clock cost scale.
    pub fn cost_scale(self) -> f64 {
        match self {
            Workload::SkewedRecall => RECALL_SCALE,
            _ => ENGINE_ONLY_SCALE,
        }
    }

    /// The query each workload runs, generated from `seed`.
    pub fn shape(self, scale: Scale, seed: u64) -> Shape {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::BulkThreaded | Workload::BulkSockets => Shape::Join(Q2Experiment {
                sequences: if tiny { 600 } else { 30_000 },
                interactions: if tiny { 940 } else { 47_000 },
                bucket_count: 64,
                seed,
                ..Q2Experiment::default()
            }),
            Workload::SkewedRecall => Shape::Join(Q2Experiment {
                sequences: if tiny { 300 } else { 3_000 },
                interactions: if tiny { 470 } else { 4_700 },
                seed,
                ..Q2Experiment::default()
            }),
            Workload::SmallQueries => Shape::Entropy(Q1Experiment {
                tuples: if tiny { 8 } else { 40 },
                seed,
                ..Q1Experiment::default()
            }),
        }
    }
}

/// Full size, or a tiny size for the benchmark's own smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Full,
    /// Small enough for a test to run every workload in seconds.
    Tiny,
}

/// The query of a workload: Q2's hash join or Q1's entropy service call.
#[derive(Debug, Clone)]
pub enum Shape {
    /// `protein_sequences ⋈ protein_interactions`.
    Join(Q2Experiment),
    /// `EntropyAnalyser(sequence)` over `protein_sequences`.
    Entropy(Q1Experiment),
}

/// One source's modelled per-tuple costs, in model milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct SourceCost {
    /// Rows the source scans.
    pub rows: u64,
    /// Scan cost at the data node.
    pub scan_ms: f64,
    /// Operator cost at the evaluator (perturbed by the node's factor).
    pub op_ms: f64,
}

impl Shape {
    /// Generates the tables.
    pub fn catalog(&self) -> Catalog {
        match self {
            Shape::Join(q) => q.catalog(),
            Shape::Entropy(q) => q.catalog(),
        }
    }

    /// A fresh plan (plans are not `Clone`).
    pub fn plan(&self) -> DistributedPlan {
        match self {
            Shape::Join(q) => q.plan(),
            Shape::Entropy(q) => q.plan(),
        }
    }

    /// The same stage, as shipped to socket workers.
    pub fn wire_spec(&self) -> WireStageSpec {
        match self {
            Shape::Join(q) => WireStageSpec::HashJoin {
                build_schema: protein_sequences(1, q.seq_len, q.seed).schema().clone(),
                probe_schema: protein_interactions(1, 1, q.seed).schema().clone(),
                build_key: 0,
                probe_key: 0,
                build_cost_ms: q.build_cost_ms,
                probe_cost_ms: q.probe_cost_ms,
            },
            Shape::Entropy(q) => WireStageSpec::ServiceCall {
                input_schema: protein_sequences(1, q.seq_len, q.seed).schema().clone(),
                service: "EntropyAnalyser".into(),
                service_cost_ms: q.ws_cost_ms,
                arg_cols: vec![1],
                output_name: "entropy".into(),
                keep_input: false,
            },
        }
    }

    /// Per-tuple receive cost at the evaluators, model milliseconds.
    pub fn receive_cost_ms(&self) -> f64 {
        match self {
            Shape::Join(q) => q.receive_cost_ms,
            Shape::Entropy(q) => q.receive_cost_ms,
        }
    }

    /// Modelled costs of each source, in plan order.
    pub fn source_costs(&self) -> Vec<SourceCost> {
        match self {
            Shape::Join(q) => vec![
                SourceCost {
                    rows: q.sequences as u64,
                    scan_ms: q.scan_cost_ms,
                    op_ms: q.build_cost_ms,
                },
                SourceCost {
                    rows: q.interactions as u64,
                    scan_ms: q.scan_cost_ms,
                    op_ms: q.probe_cost_ms,
                },
            ],
            Shape::Entropy(q) => vec![SourceCost {
                rows: q.tuples as u64,
                scan_ms: q.scan_cost_ms,
                op_ms: q.ws_cost_ms,
            }],
        }
    }

    /// Input tuples per query.
    pub fn input_tuples(&self) -> u64 {
        self.source_costs().iter().map(|s| s.rows).sum()
    }

    /// The reference result, computed from the tables by the benchmark.
    pub fn reference(&self, catalog: &Catalog) -> Result<Fingerprint, String> {
        let rows = |name: &str| {
            catalog
                .get(name)
                .map_err(|e| format!("generated catalog lacks {name}: {e}"))
        };
        Ok(match self {
            Shape::Join(_) => join_reference(
                rows("protein_sequences")?.rows(),
                rows("protein_interactions")?.rows(),
            ),
            Shape::Entropy(_) => entropy_reference(rows("protein_sequences")?.rows()),
        })
    }

    /// The tuple stream in scan order: every source's rows with its stream
    /// tag, build before probe (the order an evaluator consumes them).
    pub fn stream(&self, catalog: &Catalog) -> Result<Vec<(StreamTag, Tuple)>, String> {
        let plan = self.plan();
        let mut out = Vec::with_capacity(self.input_tuples() as usize);
        let mut sources: Vec<_> = plan.sources.iter().collect();
        sources.sort_by_key(|s| s.stream != StreamTag::Build);
        for source in sources {
            let table = catalog
                .get(&source.table)
                .map_err(|e| format!("stream source {}: {e}", source.table))?;
            out.extend(table.rows().iter().map(|t| (source.stream, t.clone())));
        }
        Ok(out)
    }
}

/// Proves that `scale` turns every modelled delay of `shape` into a zero
/// `Duration`: the largest per-tuple delay with the perturbation factor
/// applied, and the whole query's modelled work (producers batch their
/// sleeps per block, so the sum is the largest sleep any thread could
/// take). Errors name the first delay that would remain.
pub fn check_engine_only(shape: &Shape, scale: f64, factors: &[f64]) -> Result<(), String> {
    let factor = factors.iter().copied().fold(1.0, f64::max);
    let receive = shape.receive_cost_ms();
    let costs = shape.source_costs();
    let per_tuple = costs
        .iter()
        .map(|c| c.scan_ms.max(c.op_ms * factor + receive))
        .fold(0.0, f64::max);
    let total: f64 = costs
        .iter()
        .map(|c| c.rows as f64 * (c.scan_ms + c.op_ms * factor + receive))
        .sum();
    for (what, model_ms) in [("per-tuple", per_tuple), ("whole-query", total)] {
        let sleep = Duration::from_secs_f64(model_ms * scale / 1000.0);
        if !sleep.is_zero() {
            return Err(format!(
                "engine-only mode leaks a modelled sleep: {what} delay {model_ms} model ms \
                 × cost_scale {scale:e} = {sleep:?}"
            ));
        }
    }
    Ok(())
}

/// The modelled lower bound on a query's wall time with perfectly
/// balanced routing: evaluator `i` alone would take `W_i` (its op cost
/// times its factor, plus receive, over every tuple); splitting every
/// stream in the same proportions finishes all evaluators together at
/// `1 / Σ 1/W_i`. Producers scan in parallel, so the scan bound is the
/// slowest source. Returned in wall-clock milliseconds.
pub fn modelled_floor_ms(shape: &Shape, scale: f64, factors: &[f64]) -> f64 {
    let receive = shape.receive_cost_ms();
    let costs = shape.source_costs();
    let inverse: f64 = factors
        .iter()
        .map(|f| {
            let w: f64 = costs
                .iter()
                .map(|c| c.rows as f64 * (c.op_ms * f + receive))
                .sum();
            if w > 0.0 {
                1.0 / w
            } else {
                0.0
            }
        })
        .sum();
    let evaluators = if inverse > 0.0 { 1.0 / inverse } else { 0.0 };
    let scan = costs
        .iter()
        .map(|c| c.rows as f64 * c.scan_ms)
        .fold(0.0, f64::max);
    evaluators.max(scan) * scale
}

/// Counters one completed query reported, kept after its result is dropped.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// The report's own wall time, ms.
    pub wall_ms: f64,
    /// Input tuples processed per partition.
    pub per_partition: Vec<u64>,
    /// Raw M1 events.
    pub m1: u64,
    /// Adaptations deployed.
    pub deployed: u64,
    /// Recalls completed.
    pub recalls_completed: u64,
    /// Recalls aborted.
    pub recalls_aborted: u64,
    /// Operator-state tuples migrated by recalls.
    pub state_migrated: u64,
    /// In-flight tuples re-routed by recalls.
    pub tuples_recalled: u64,
    /// Tuples retransmitted from recovery logs.
    pub retransmitted: u64,
    /// Socket reconnects.
    pub reconnects: u64,
    /// Recovery-log entries still held when the query finished.
    pub unacked: u64,
    /// Timeline events recorded.
    pub timeline_events: u64,
    /// Wall ms from query start to the first `Deploy` on the timeline.
    pub first_deploy_ms: Option<f64>,
    /// Wall ms of each `RecallStart` → `RecallFinish`.
    pub recall_pauses_ms: Vec<f64>,
}

/// One attempted query. Kept small: a run stores one per query, and the
/// benchmark's own bookkeeping counts toward the heap it reports.
#[derive(Debug)]
pub struct QueryRecord {
    /// What became of it.
    pub outcome: Outcome,
    /// Whether spans were recorded for it.
    pub traced: bool,
    /// Whether it went through the service plane.
    pub via_service: bool,
    /// Submit to complete result, ms.
    pub latency_ms: f64,
    /// What the program reported; kept for traced runs and for queries
    /// that did not return the reference result.
    pub detail: Option<Box<Detail>>,
}

/// The per-query detail a traced run replays and reports.
#[derive(Debug, Default)]
pub struct Detail {
    /// Counters the program reported.
    pub counters: Counters,
    /// The query's timeline (threaded substrate).
    pub events: Option<Vec<TimelineEvent>>,
    /// The error or mismatch, when not correct.
    pub error: Option<String>,
}

impl QueryRecord {
    /// The error or mismatch, if one was recorded.
    pub fn error(&self) -> Option<&str> {
        self.detail.as_ref().and_then(|d| d.error.as_deref())
    }
}

fn verdict(
    results: &[Tuple],
    audits: &[LogAudit],
    gaps: usize,
    reference: &Fingerprint,
) -> Result<(), String> {
    let got = Fingerprint::of(results);
    if got != *reference {
        return Err(format!(
            "result multiset differs from the reference: {} rows, expected {}",
            got.rows(),
            reference.rows()
        ));
    }
    if let Some(a) = audits.iter().find(|a| !a.conserved()) {
        return Err(format!("recovery-log audit not conserved: {a:?}"));
    }
    if gaps > 0 {
        return Err(format!("{gaps} delivery gap(s)"));
    }
    Ok(())
}

fn timeline_counters(events: &[TimelineEvent], c: &mut Counters) {
    c.timeline_events = events.len() as u64;
    c.first_deploy_ms = events
        .iter()
        .find(|e| matches!(e.kind, TimelineKind::Deploy { .. }))
        .and_then(|e| e.wall_ms);
    let starts: HashMap<u64, f64> = events
        .iter()
        .filter(|e| matches!(e.kind, TimelineKind::RecallStart { .. }))
        .filter_map(|e| Some((e.seq, e.wall_ms?)))
        .collect();
    c.recall_pauses_ms = events
        .iter()
        .filter_map(|e| match e.kind {
            TimelineKind::RecallFinish { start_seq, .. } => {
                Some(e.wall_ms? - starts.get(&start_seq)?)
            }
            _ => None,
        })
        .collect();
}

/// Generated data, its reference result, and everything a query needs.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// Its query.
    pub shape: Shape,
    /// The generated tables.
    pub catalog: Catalog,
    /// The reference result multiset.
    pub reference: Fingerprint,
    service: Option<QueryService>,
    resolver: ServiceResolver,
    /// Per session, the query index offset of its socket schedule.
    socket_offsets: Vec<u64>,
    /// Whether `small_queries` sends every fifth query to sockets.
    mixed_sockets: bool,
}

impl Prepared {
    /// Generates the data, computes the reference, and builds the service
    /// plane where the workload uses one. Returns the times of the first
    /// two steps in ms.
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Result<(Self, f64, f64), String> {
        Prepared::with_shape(workload, workload.shape(scale, seed), seed)
    }

    /// [`Prepared::new`] for a given query in place of the workload's own.
    pub fn with_shape(
        workload: Workload,
        shape: Shape,
        seed: u64,
    ) -> Result<(Self, f64, f64), String> {
        if workload.cost_scale() == ENGINE_ONLY_SCALE {
            check_engine_only(&shape, ENGINE_ONLY_SCALE, &workload.factors())?;
        }
        let t = Instant::now();
        let catalog = shape.catalog();
        let datagen_ms = ms(t.elapsed());
        let t = Instant::now();
        let reference = shape.reference(&catalog)?;
        let reference_ms = ms(t.elapsed());
        if reference.rows() == 0 {
            return Err("the reference result is empty".into());
        }
        let service = match workload {
            Workload::SmallQueries => Some(
                QueryService::new(ServiceConfig {
                    admission: AdmissionConfig {
                        max_concurrent: SESSIONS,
                        queue_depth: SESSIONS,
                    },
                    ..ServiceConfig::default()
                })
                .map_err(|e| format!("service plane: {e}"))?,
            ),
            _ => None,
        };
        let mut rng = DetRng::seeded(seed ^ 0x5e55_1015);
        let socket_offsets = (0..workload.clients())
            .map(|_| rng.below(SOCKET_EVERY))
            .collect();
        let resolver: ServiceResolver = Arc::new(|name: &str, cost_ms: f64| {
            (name == "EntropyAnalyser").then(|| {
                Arc::new(EntropyAnalyser::new(cost_ms)) as Arc<dyn gridq_engine::service::Service>
            })
        });
        Ok((
            Prepared {
                workload,
                shape,
                catalog,
                reference,
                service,
                resolver,
                socket_offsets,
                mixed_sockets: true,
            },
            datagen_ms,
            reference_ms,
        ))
    }

    /// The same workload with every query on the threaded substrate.
    pub fn threaded_only(mut self) -> Self {
        self.mixed_sockets = false;
        self
    }

    /// The threaded substrate's configuration for this workload.
    pub fn threaded_config(&self) -> ThreadedConfig {
        let mut cfg = ThreadedConfig {
            adaptivity: AdaptivityConfig::disabled(),
            cost_scale: self.workload.cost_scale(),
            receive_cost_ms: self.shape.receive_cost_ms(),
            ..ThreadedConfig::default()
        };
        if self.workload == Workload::SkewedRecall {
            cfg.adaptivity =
                AdaptivityConfig::with_policies(AssessmentPolicy::A1, ResponsePolicy::R1);
            cfg.perturbations = HashMap::from([(
                PERTURBED_NODE,
                Perturbation::CostFactor(PERTURBATION_FACTOR),
            )]);
        }
        cfg
    }

    /// The socket substrate's configuration for this workload (in-process
    /// workers over Unix-domain sockets).
    pub fn socket_config(&self) -> SocketConfig {
        let mut cfg = SocketConfig::new(self.shape.wire_spec(), Arc::clone(&self.resolver));
        cfg.cost_scale = self.workload.cost_scale();
        cfg.receive_cost_ms = self.shape.receive_cost_ms();
        cfg
    }

    /// Whether query `k` of `session` runs on sockets.
    pub fn on_sockets(&self, session: usize, k: u64) -> bool {
        match self.workload {
            Workload::BulkSockets => true,
            Workload::SmallQueries => {
                self.mixed_sockets
                    && (k + self.socket_offsets[session]).is_multiple_of(SOCKET_EVERY)
            }
            _ => false,
        }
    }

    /// The service plane, for workloads that use one.
    pub fn service(&self) -> Option<&QueryService> {
        self.service.as_ref()
    }

    /// Runs one query and checks its result against the reference.
    /// `keep_detail` keeps the program's counters and timeline.
    pub fn run_query(
        &self,
        session: usize,
        k: u64,
        tracer: &mut Tracer,
        keep_detail: bool,
    ) -> QueryRecord {
        let socket = self.on_sockets(session, k);
        let qid = ((session as u64) << 32) | k;
        let root = tracer.begin("query", Tracer::root(), qid);
        let span = tracer.begin("plan", root, qid);
        let plan = self.shape.plan();
        tracer.end(span);

        let mut outcome = Outcome::Failed;
        let mut detail = Detail::default();
        let latency_ms;
        // (results, audits, gaps) of a completed query.
        let mut completed: Option<(Vec<Tuple>, Vec<LogAudit>, usize)> = None;

        if let Some(service) = &self.service {
            let run = if socket {
                QueryRun::Socket(Box::new(self.socket_config()))
            } else {
                QueryRun::threaded(self.threaded_config())
            };
            let submission = QuerySubmission {
                catalog: self.catalog.clone(),
                plan,
                run,
            };
            let span = tracer.begin("service.submit_and_wait", root, qid);
            let t = Instant::now();
            let (_id, result) = service.submit_and_wait(submission);
            latency_ms = ms(t.elapsed());
            tracer.end(span);
            match result {
                QueryOutcome::Threaded(r) => {
                    fill_threaded(&mut detail, &r, keep_detail);
                    completed = Some((r.results, r.log_audits, r.delivery_gaps.len()));
                }
                QueryOutcome::Socket(r) => {
                    fill_socket(&mut detail.counters, &r);
                    completed = Some((r.results, r.log_audits, r.delivery_gaps.len()));
                }
                QueryOutcome::Rejected { reason } => {
                    outcome = Outcome::Rejected;
                    detail.error = Some(reason);
                }
                QueryOutcome::Failed { error } => detail.error = Some(error),
            }
        } else if socket {
            let exec = SocketExecutor::new(self.catalog.clone(), self.socket_config());
            let span = tracer.begin("sockets.run", root, qid);
            let t = Instant::now();
            let result = exec.run(&plan);
            latency_ms = ms(t.elapsed());
            tracer.end(span);
            match result {
                Ok(r) => {
                    fill_socket(&mut detail.counters, &r);
                    completed = Some((r.results, r.log_audits, r.delivery_gaps.len()));
                }
                Err(e) => detail.error = Some(e.to_string()),
            }
        } else {
            let exec = ThreadedExecutor::new(self.catalog.clone(), self.threaded_config());
            let span = tracer.begin("exec.run", root, qid);
            let t = Instant::now();
            let result = exec.run(&plan);
            latency_ms = ms(t.elapsed());
            tracer.end(span);
            match result {
                Ok(r) => {
                    fill_threaded(&mut detail, &r, keep_detail);
                    completed = Some((r.results, r.log_audits, r.delivery_gaps.len()));
                }
                Err(e) => detail.error = Some(e.to_string()),
            }
        }

        if let Some((results, audits, gaps)) = completed {
            let span = tracer.begin("check", root, qid);
            match verdict(&results, &audits, gaps, &self.reference) {
                Ok(()) => outcome = Outcome::Correct,
                Err(e) => {
                    outcome = Outcome::Wrong;
                    detail.error = Some(e);
                }
            }
            tracer.end(span);
        }
        tracer.end(root);
        QueryRecord {
            outcome,
            traced: tracer.enabled(),
            via_service: self.service.is_some(),
            latency_ms,
            detail: (keep_detail || outcome != Outcome::Correct).then(|| Box::new(detail)),
        }
    }
}

fn fill_threaded(d: &mut Detail, r: &gridq_exec::ThreadedReport, keep_events: bool) {
    let c = &mut d.counters;
    c.wall_ms = r.wall_ms;
    c.per_partition = r.per_partition_processed.clone();
    c.m1 = r.raw_m1_events;
    c.deployed = r.adaptations_deployed;
    c.recalls_completed = r.recalls_completed;
    c.recalls_aborted = r.recalls_aborted;
    c.state_migrated = r.state_tuples_migrated;
    c.tuples_recalled = r.tuples_recalled;
    c.retransmitted = r.tuples_retransmitted;
    c.unacked = r.log_audits.iter().map(|a| a.unacked).sum();
    if let Some(obs) = &r.obs {
        timeline_counters(&obs.events, c);
        if keep_events {
            d.events = Some(obs.events.clone());
        }
    }
}

fn fill_socket(c: &mut Counters, r: &gridq_exec::socket::SocketReport) {
    c.wall_ms = r.wall_ms;
    c.per_partition = r.per_partition_processed.clone();
    c.deployed = r.adaptations_deployed;
    c.recalls_completed = r.recalls_completed;
    c.recalls_aborted = r.recalls_aborted;
    c.state_migrated = r.state_tuples_migrated;
    c.tuples_recalled = r.tuples_recalled;
    c.retransmitted = r.tuples_retransmitted;
    c.reconnects = r.reconnects;
    c.unacked = r.log_audits.iter().map(|a| a.unacked).sum();
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// Records a session keeps per allocation: storage grows in fixed steps,
/// so the benchmark's own bookkeeping adds to the heap peak in proportion
/// to the queries run, never by a doubling reallocation.
const RECORD_CHUNK: usize = 4096;

/// What the timed loop produced.
pub struct RunLog {
    /// Every attempted query, in chunks of [`RECORD_CHUNK`], session by
    /// session.
    pub chunks: Vec<Vec<QueryRecord>>,
    /// Wall-clock length of the loop, seconds.
    pub wall_s: f64,
}

impl RunLog {
    /// Every attempted query.
    pub fn records(&self) -> impl Iterator<Item = &QueryRecord> {
        self.chunks.iter().flatten()
    }

    /// Queries attempted.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// Runs the closed loop: each client submits its next query only after
/// the previous one completes, until `seconds` have passed and at least
/// `min_queries` were attempted. With `trace`, every second query of a
/// client records spans into `spans` (the others measure the untraced
/// baseline), and every query keeps its detail.
pub fn measure(
    prepared: &Prepared,
    seconds: f64,
    min_queries: usize,
    trace: bool,
    spans: &mut Tracer,
) -> RunLog {
    let origin = spans.origin();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let attempted = AtomicU64::new(0);
    let session = |s: usize| {
        let mut tracer = Tracer::new(false, origin);
        let mut chunks: Vec<Vec<QueryRecord>> = Vec::new();
        let mut k = 0u64;
        loop {
            let elapsed = start.elapsed();
            let enough = attempted.load(Ordering::Relaxed) >= min_queries as u64;
            if (elapsed >= budget && enough) || elapsed >= HARD_CAP {
                break;
            }
            tracer.set_enabled(trace && k % 2 == 1);
            let record = prepared.run_query(s, k, &mut tracer, trace);
            match chunks.last_mut() {
                Some(c) if c.len() < RECORD_CHUNK => c.push(record),
                _ => {
                    let mut c = Vec::with_capacity(RECORD_CHUNK);
                    c.push(record);
                    chunks.push(c);
                }
            }
            attempted.fetch_add(1, Ordering::Relaxed);
            k += 1;
        }
        (chunks, tracer)
    };
    let per_session: Vec<(Vec<Vec<QueryRecord>>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..prepared.workload.clients())
            .map(|s| scope.spawn(move || session(s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut chunks = Vec::new();
    for (c, t) in per_session {
        chunks.extend(c);
        spans.absorb(t);
    }
    RunLog { chunks, wall_s }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_only_scale_leaves_no_modelled_sleep() {
        for w in Workload::ALL {
            let shape = w.shape(Scale::Full, 1);
            let check = check_engine_only(&shape, ENGINE_ONLY_SCALE, &w.factors());
            assert!(check.is_ok(), "{}: {check:?}", w.name());
        }
        // The recall workload's real scale does leave sleeps, and the
        // check says so loudly.
        let shape = Workload::SkewedRecall.shape(Scale::Full, 1);
        let err = check_engine_only(&shape, RECALL_SCALE, &[1.0, 10.0]).unwrap_err();
        assert!(err.contains("modelled sleep"), "{err}");
    }

    #[test]
    fn modelled_floor_balances_work_by_node_speed() {
        let shape = Workload::SkewedRecall.shape(Scale::Full, 1);
        // Unperturbed: half the work each.
        let even = modelled_floor_ms(&shape, 1.0, &[1.0, 1.0]);
        let w: f64 = 3000.0 * (2.0 + 10.0) + 4700.0 * (4.0 + 10.0);
        assert!((even - w / 2.0).abs() < 1e-6, "{even}");
        // Perturbed: strictly between the even split and one node alone.
        let skewed = modelled_floor_ms(&shape, 1.0, &[1.0, 10.0]);
        assert!(skewed > even && skewed < w, "{skewed}");
    }

    #[test]
    fn socket_schedule_is_one_in_five_per_session_and_seeded() {
        let (p, _, _) = Prepared::new(Workload::SmallQueries, Scale::Tiny, 7).unwrap();
        for s in 0..SESSIONS {
            let n = (0..100).filter(|&k| p.on_sockets(s, k)).count();
            assert_eq!(n, 20);
        }
        let (q, _, _) = Prepared::new(Workload::SmallQueries, Scale::Tiny, 7).unwrap();
        assert_eq!(p.socket_offsets, q.socket_offsets);
        let q = q.threaded_only();
        assert!((0..100).all(|k| (0..SESSIONS).all(|s| !q.on_sockets(s, k))));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
