#![warn(missing_docs)]

//! A real multi-threaded executor for partitioned plans.
//!
//! The simulator (`gridq-sim`) reproduces the paper's *measurements* in
//! virtual time; this crate demonstrates that the adaptivity architecture
//! is substrate-independent by running the same [`DistributedPlan`]s over
//! OS threads and mpsc channels against the wall clock:
//!
//! - one producer thread per source scan, routing tuples through the
//!   shared exchange [`Router`] and sending buffers over channels;
//! - one consumer thread per stage partition, evaluating the same
//!   [`gridq_engine::evaluator::PartitionEvaluator`] clones and *actually spending CPU/sleep time*
//!   proportional to the cost model (scaled down by `cost_scale` to keep
//!   tests fast);
//! - an adaptivity thread hosting the MonitoringEventDetector, Diagnoser,
//!   and Responder, fed by real M1/M2 notifications and deploying new
//!   distribution vectors into the shared router while the query runs.
//!
//! Prospective (R2) adaptations swap the routing table in place and only
//! affect future tuples, so they are restricted to stateless stages.
//! Retrospective (R1) adaptations run the full recall protocol (see
//! the `recall` module docs): producers log outgoing tuples into
//! checkpointed recovery logs, consumers acknowledge checkpoint markers,
//! and on deploy the adaptivity thread pauses the producers behind a
//! drain barrier, migrates the surrendered hash-bucket state between
//! consumers, and restages the producers' unsent buffers under the new
//! distribution — so stateful hash-partitioned stages repartition
//! mid-flight without losing or duplicating a tuple.

mod dedup;
mod failover;
mod recall;
pub mod service;
pub mod socket;

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gridq_adapt::{
    AdaptationCommand, AdaptivityConfig, DetectorOutput, Diagnoser, MonitoringEventDetector,
    ProducerId, Responder, ResponsePolicy, M1, M2,
};
use gridq_common::cast;
use gridq_common::sync::ring::{ring, RingReceiver, RingSender, Waker};
use gridq_common::sync::Mutex;
use gridq_common::{
    ChaosHook, DistributionVector, GridError, NetAction, NodeId, NotifyKind, PartitionId,
    RecallPhase, Result, SimTime, StallSite, SubplanId, Tuple,
};
use gridq_engine::distributed::{DistributedPlan, Router};
use gridq_engine::evaluator::{PartitionEvaluator, StreamTag};
use gridq_engine::physical::Catalog;
use gridq_grid::Perturbation;
use gridq_obs::{Counter, Obs, ObsConfig, ObsReport, TimelineKind};
use gridq_recovery::{AckOutcome, Checkpoint, LogAudit, SharedRecoveryLog};

use dedup::DedupFilter;
pub use failover::{DeliveryGap, FailoverConfig, RetryPolicy};
use failover::{HeartbeatMonitor, RetryBackoff};
use recall::{Ctrl, ProducerGuard, RecallGate};
pub use service::{
    ContentionLedger, QueryOutcome, QueryRun, QueryService, QuerySubmission, ServiceConfig,
    ServiceReport, TenancyHandle,
};

type LogItem = (StreamTag, Tuple);
type SharedLogs = Arc<Vec<SharedRecoveryLog<LogItem>>>;

/// Configuration of a threaded execution.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Adaptivity configuration. R2 deploys on stateless stages; R1
    /// deploys run the recall protocol and also cover stateful stages.
    pub adaptivity: AdaptivityConfig,
    /// Multiplier from model milliseconds to real milliseconds
    /// (e.g. `0.02` runs a 3000-tuple query in a couple of seconds).
    pub cost_scale: f64,
    /// Per-node perturbations, applied as real extra work.
    pub perturbations: HashMap<NodeId, Perturbation>,
    /// Per-tuple receive cost in model milliseconds.
    pub receive_cost_ms: f64,
    /// Producers emit a recovery-log checkpoint marker after this many
    /// tuples per destination (R1 runs only). Build streams are never
    /// checkpointed: their tuples *are* the downstream operator state
    /// and must stay recallable for the whole run.
    pub checkpoint_interval: usize,
    /// Observability layer configuration (metrics registry and
    /// adaptivity timeline).
    pub obs: ObsConfig,
    /// How long the recall coordinator waits for producers to park and
    /// for each round of consumer replies before abandoning a recall, in
    /// wall-clock milliseconds. The default is generous: on a healthy run
    /// the barrier fills in microseconds, and an abort here only delays
    /// (never corrupts) the query. Chaos tests shrink it so an injected
    /// control-reply loss aborts in milliseconds instead of seconds.
    pub recall_timeout_ms: u64,
    /// Fault-injection hook consulted at the chaos seams (exchange
    /// sends, checkpoint acks, monitoring notifications, recall control
    /// replies, per-tuple work, worker crashes). `None` injects nothing
    /// and leaves behavior identical to an uninstrumented run.
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Delivery-retry policy: how producers back off and retransmit
    /// unacknowledged recovery-log windows. Consulted only in resilient
    /// mode (a chaos hook installed, or failover enabled).
    pub delivery_retry: RetryPolicy,
    /// Heartbeat/lease failure detection and the failover recall.
    /// Requires R1 adaptivity: failover rides the recall machinery.
    pub failover: FailoverConfig,
    /// Service-plane tenancy handle, injected by [`QueryService`] when
    /// this query shares evaluator nodes with co-resident queries: the
    /// contention ledger inflates consumers' modelled costs, and the
    /// adaptivity thread feeds the shared cross-query diagnoser /
    /// deploys its tenant rebalances. `None` (the default) runs the
    /// query exactly as before the service plane existed.
    pub tenancy: Option<TenancyHandle>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            adaptivity: AdaptivityConfig::default(),
            cost_scale: 0.02,
            perturbations: HashMap::new(),
            receive_cost_ms: 1.0,
            checkpoint_interval: 50,
            obs: ObsConfig::default(),
            recall_timeout_ms: 30_000,
            chaos: None,
            delivery_retry: RetryPolicy::default(),
            failover: FailoverConfig::default(),
            tenancy: None,
        }
    }
}

impl ThreadedConfig {
    /// Rejects configurations that would hang or corrupt a run before any
    /// thread is spawned: non-positive or non-finite cost scales (which
    /// would turn every modelled cost into zero or infinite sleeps),
    /// negative or non-finite receive costs, a zero checkpoint interval
    /// (no window could ever close), plus anything
    /// [`AdaptivityConfig::validate`] rejects.
    pub fn validate(&self) -> Result<()> {
        if !self.cost_scale.is_finite() || self.cost_scale <= 0.0 {
            return Err(GridError::Config(format!(
                "cost_scale must be finite and positive, got {}",
                self.cost_scale
            )));
        }
        if !self.receive_cost_ms.is_finite() || self.receive_cost_ms < 0.0 {
            return Err(GridError::Config(format!(
                "receive_cost_ms must be finite and non-negative, got {}",
                self.receive_cost_ms
            )));
        }
        if self.checkpoint_interval == 0 {
            return Err(GridError::Config(
                "checkpoint_interval must be positive".into(),
            ));
        }
        if self.recall_timeout_ms == 0 {
            return Err(GridError::Config(
                "recall_timeout_ms must be positive".into(),
            ));
        }
        self.delivery_retry.validate()?;
        self.failover.validate()?;
        if self.failover.enabled
            && !(self.adaptivity.enabled && self.adaptivity.response == ResponsePolicy::R1)
        {
            return Err(GridError::Config(
                "failover requires retrospective (R1) adaptivity: declaring a \
                 node dead is only useful if the recall machinery can drain, \
                 redistribute, and replay its state"
                    .into(),
            ));
        }
        self.obs.validate()?;
        self.adaptivity.validate()
    }
}

/// What a threaded execution measured.
#[derive(Debug, Clone, Default)]
pub struct ThreadedReport {
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Result tuples collected.
    pub results: Vec<Tuple>,
    /// Input tuples processed per partition (replayed/migrated tuples
    /// count at every partition that processed them).
    pub per_partition_processed: Vec<u64>,
    /// Raw M1 events emitted.
    pub raw_m1_events: u64,
    /// Raw M2 events emitted.
    pub raw_m2_events: u64,
    /// Adaptations deployed into the router.
    pub adaptations_deployed: u64,
    /// Of those, deploys proposed by the *cross-query* diagnoser: weight
    /// shifts away from a node contended by a co-resident query
    /// (service-plane runs only; always 0 without a tenancy handle).
    pub tenant_rebalances: u64,
    /// Retrospective recalls that ran the full drain-migrate-resume
    /// protocol.
    pub recalls_completed: u64,
    /// Retrospective recalls abandoned before deploying (producers
    /// already finished, or a barrier timed out). An aborted recall
    /// leaves the routing untouched.
    pub recalls_aborted: u64,
    /// Operator-state tuples shipped between partitions by recalls.
    pub state_tuples_migrated: u64,
    /// In-flight tuples re-routed by recalls: held tuples recalled from
    /// consumers plus staged buffers re-routed by producers.
    pub tuples_recalled: u64,
    /// Consumers declared dead by the heartbeat detector.
    pub nodes_failed: u64,
    /// Failover recalls that drained, redistributed, and replayed a dead
    /// partition's log entries to the survivors.
    pub failovers_completed: u64,
    /// Tuples retransmitted from recovery logs by the delivery-retry
    /// epilogue (resilient runs only).
    pub tuples_retransmitted: u64,
    /// Windows left undelivered after the retry budget ran out, one
    /// entry per (source, dest) edge that gave up. Empty on a healthy
    /// run; the query completes either way.
    pub delivery_gaps: Vec<DeliveryGap>,
    /// Data-plane block pushes that failed because the destination
    /// consumer was already gone (its ring closed), counted in tuples.
    /// Surfaced immediately at send time — not discarded, and not
    /// deferred until a heartbeat lease expires.
    pub send_failures: u64,
    /// Conservation audit of each source's recovery log (logging runs
    /// only: R1 adaptivity, chaos, or failover; indexed like
    /// `DistributedPlan::sources`).
    pub log_audits: Vec<LogAudit>,
    /// High-water mark of live consumer dedup-filter entries (tuple keys
    /// plus block keys), maximised over partitions. Bounded by the
    /// unacknowledged recovery-log windows, not by the input size — the
    /// regression oracle for the at-least-once filter's memory.
    pub dedup_peak_entries: u64,
    /// The final routing distribution.
    pub final_distribution: Vec<f64>,
    /// Observability snapshot (metrics registry and adaptivity timeline);
    /// `None` when the obs layer is disabled.
    pub obs: Option<ObsReport>,
}

enum Msg {
    /// End of one source's stream; carries the stream tag so consumers
    /// can tell when the build phase is complete, and the producer index
    /// so the consumer can drain that producer's data ring first (every
    /// push precedes the Eos send, but the ring and the control channel
    /// carry no cross-plane ordering of their own).
    Eos { stream: StreamTag, source: usize },
    /// Recall barrier marker: the consumer replies `Ctrl::Drained` once
    /// it sees this, proving the channel holds no pre-pause tuples.
    Drain { token: u64 },
    /// Recall migration command: hand over the state of `outgoing`
    /// buckets and re-route held tuples under the (already swapped)
    /// router, then reply `Ctrl::MigrateDone`.
    Migrate {
        token: u64,
        bucket_count: Option<u32>,
        outgoing: Vec<u32>,
    },
    /// A tuple re-delivered by the recall protocol (migrated operator
    /// state or a recalled held tuple). Not logged again: the barrier
    /// plus direct channel carry the exactly-once guarantee.
    Migrated {
        stream: StreamTag,
        source: usize,
        tuple: Tuple,
    },
}

/// A producer's per-destination staging buffer entry: either a routed
/// tuple or a checkpoint marker riding in sequence behind the tuple that
/// closed its window.
#[derive(Clone)]
enum Staged {
    Tuple(StreamTag, Tuple),
    Marker(Checkpoint, u64),
}

/// The data-plane unit: one producer's staged batch for one destination,
/// shipped over a bounded SPSC ring in a single push. Routing was paid
/// once per item when the block was staged; checkpoint markers ride
/// in-order behind the tuples that closed their windows, so delivering a
/// block delivers whole windows atomically.
struct Block {
    /// Index into `DistributedPlan::sources`, so consumers can attribute
    /// tuples and markers to the right recovery log.
    source: usize,
    items: Vec<Staged>,
    /// Set on retry-epilogue retransmissions. A retransmitted window
    /// targets its *original* destination, and a recall may have moved a
    /// tuple's bucket elsewhere in the meantime — the consumer re-checks
    /// ownership of fresh tuples from such blocks and forwards strays to
    /// the current owner. Ordinary blocks skip the check: their routing
    /// was computed against the live distribution when they were staged.
    retransmit: bool,
}

impl Block {
    /// The resilient-mode dedup key: `(first_seq, last_seq, count)` over
    /// the block's tuples (markers excluded), or `None` for marker-only
    /// blocks. Within one source a window's identity is pinned by its
    /// extremes plus cardinality: windows only ever *shrink* after
    /// closing (entries migrate out to other destinations' open windows,
    /// never in), so two same-key deliveries of a source's window at the
    /// same consumer carry the same tuple set and the second can be
    /// skipped wholesale.
    fn range_key(&self) -> Option<(u64, u64, usize)> {
        let mut first = None;
        let mut last = 0;
        let mut count = 0usize;
        for item in &self.items {
            if let Staged::Tuple(_, t) = item {
                let seq = t.seq();
                first.get_or_insert(seq);
                last = seq;
                count += 1;
            }
        }
        first.map(|f| (f, last, count))
    }
}

/// A consumer's control-plane address: the mpsc sender plus the waker
/// that pulls the consumer out of its idle park. Every control send
/// wakes, so a consumer parked between ring polls reacts to `Eos`,
/// `Drain`, `Migrate`, and replayed `Migrated` traffic immediately.
#[derive(Clone)]
struct CtrlTx {
    tx: Sender<Msg>,
    waker: Arc<Waker>,
}

impl CtrlTx {
    /// Sends a control message and wakes the consumer. Returns whether
    /// the consumer's receiver still exists.
    fn send(&self, msg: Msg) -> bool {
        let ok = self.tx.send(msg).is_ok();
        self.waker.wake();
        ok
    }

    /// Wakes the consumer without sending (used by producers after a
    /// ring push).
    fn wake(&self) {
        self.waker.wake();
    }
}

enum Raw {
    M1(M1),
    M2(M2),
    /// A consumer liveness beat (failover runs only): sent once per
    /// receive-loop iteration, renews the worker's lease.
    Beat(usize),
    /// A consumer finished cleanly; its lease no longer applies.
    Done(usize),
    ProducersDone,
}

/// What the adaptivity thread hands back at teardown.
#[derive(Default)]
struct AdaptStats {
    m1: u64,
    m2: u64,
    deployed: u64,
    tenant_rebalances: u64,
    recalls_completed: u64,
    recalls_aborted: u64,
    state_tuples_migrated: u64,
    tuples_recalled: u64,
    nodes_failed: u64,
    failovers_completed: u64,
}

fn spin_for(model_ms: f64, scale: f64) {
    let dur = Duration::from_secs_f64((model_ms * scale / 1000.0).max(0.0));
    if !dur.is_zero() {
        thread::sleep(dur);
    }
}

/// What a producer or consumer thread owes the run between blocks: the
/// modelled milliseconds it has not slept yet, and the tuples it counted
/// (routed or processed) but has not yet added to the shared total and
/// the obs counter. Settled once per block instead of once per tuple.
struct Owed {
    /// Modelled milliseconds not yet slept.
    due: f64,
    /// Tuples this thread has counted so far.
    count: u64,
    published: u64,
    total: Arc<AtomicU64>,
    counter: Option<Arc<Counter>>,
}

impl Owed {
    fn new(total: Arc<AtomicU64>, counter: Option<Arc<Counter>>) -> Self {
        Owed {
            due: 0.0,
            count: 0,
            published: 0,
            total,
            counter,
        }
    }

    /// Publishes the count, then pays the due time as one sleep.
    /// Publishing first means the totals the adaptivity thread's
    /// progress gate reads during the sleep are what per-tuple adds
    /// would have made them.
    fn settle(&mut self, scale: f64) {
        let delta = self.count - self.published;
        if delta > 0 {
            self.total.fetch_add(delta, Ordering::Relaxed);
            if let Some(c) = &self.counter {
                c.add(delta);
            }
            self.published = self.count;
        }
        if self.due > 0.0 {
            spin_for(self.due, scale);
            self.due = 0.0;
        }
    }
}

fn perturbed(base_ms: f64, perturbation: Option<&Perturbation>) -> f64 {
    let out = match perturbation {
        None | Some(Perturbation::None) => base_ms,
        Some(Perturbation::CostFactor(k)) => base_ms * k,
        Some(Perturbation::SleepMs(extra)) => base_ms + extra,
        Some(Perturbation::NormalFactor { mean, .. }) => base_ms * mean,
    };
    // A non-finite delay/factor is a rejected sample (see
    // Perturbation::apply): fall back to the unperturbed cost instead of
    // poisoning downstream wall-clock arithmetic.
    if out.is_finite() {
        out
    } else {
        base_ms
    }
}

/// Collects one reply per consumer for recall attempt `token`, dropping
/// stale replies from aborted attempts. Returns the summed
/// `(state_moved, recalled)` counts (zero for `Drained` replies), or
/// `None` on timeout.
fn collect_replies(
    rx: &Receiver<Ctrl>,
    token: u64,
    expected: usize,
    want_migrate: bool,
    timeout: Duration,
) -> Option<(u64, u64)> {
    let deadline = Instant::now() + timeout;
    let mut got = 0usize;
    let mut moved = 0u64;
    let mut recalled_total = 0u64;
    while got < expected {
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        match rx.recv_timeout(deadline - now) {
            Ok(Ctrl::Drained { token: t }) if !want_migrate && t == token => got += 1,
            Ok(Ctrl::MigrateDone {
                token: t,
                state_moved,
                recalled,
            }) if want_migrate && t == token => {
                got += 1;
                moved += state_moved;
                recalled_total += recalled;
            }
            Ok(_) => {} // stale reply from an aborted attempt
            Err(_) => return None,
        }
    }
    Some((moved, recalled_total))
}

/// How many times a failover recall is retried after an aborted attempt
/// (lost control reply, barrier timeout) before the dead worker is left
/// to the producers' delivery-gap path.
const FAILOVER_ATTEMPTS: u32 = 3;

/// Everything one failover recall attempt borrows from the adaptivity
/// thread's state.
struct FailoverRun<'a, R, N>
where
    R: Fn(SimTime, TimelineKind) -> u64,
    N: Fn() -> SimTime,
{
    dead: usize,
    down_seq: u64,
    gate: Option<&'a RecallGate>,
    monitor: Option<&'a HeartbeatMonitor>,
    logs: Option<&'a Vec<SharedRecoveryLog<LogItem>>>,
    adapt_senders: &'a [CtrlTx],
    ctrl_rx: &'a Receiver<Ctrl>,
    router: &'a Mutex<Router>,
    diagnoser: &'a mut Diagnoser,
    responder: &'a mut Responder,
    obs: Option<&'a Obs>,
    record: &'a R,
    now_model: &'a N,
    stage_id: SubplanId,
    build_source: Option<usize>,
    recall_timeout: Duration,
    recall_token: &'a mut u64,
    stats: &'a mut AdaptStats,
}

/// Runs one failover recall attempt for a dead consumer: drain barrier
/// over the survivors, redistribution away from the dead partition,
/// replay of that partition's surviving recovery-log entries to their
/// new owners, epoch-bumped resume. Returns `false` when the attempt had
/// to abort; the caller retries up to [`FAILOVER_ATTEMPTS`] times.
///
/// Deliberately records no `Deploy`/`RecallStart`/`RecallFinish`
/// timeline events — those carry diagnosis back-references and a
/// failover has no diagnosis. `NodeDown -> Failover` is this path's
/// causal pair.
fn run_failover<R, N>(run: FailoverRun<'_, R, N>) -> bool
where
    R: Fn(SimTime, TimelineKind) -> u64,
    N: Fn() -> SimTime,
{
    let FailoverRun {
        dead,
        down_seq,
        gate,
        monitor,
        logs,
        adapt_senders,
        ctrl_rx,
        router,
        diagnoser,
        responder,
        obs,
        record,
        now_model,
        stage_id,
        build_source,
        recall_timeout,
        recall_token,
        stats,
    } = run;
    // Config validation ties failover to R1 adaptivity, so the gate and
    // logs always exist here; degrade to "handled" rather than spin if
    // that invariant ever breaks.
    let (Some(gate), Some(m), Some(logs)) = (gate, monitor, logs) else {
        return true;
    };
    *recall_token += 1;
    let token = *recall_token;
    match gate.begin_pause(recall_timeout) {
        None => return false,
        Some(0) => {
            // No producer is parked, so none can be trusted to hold its
            // buffers still across the barrier; retry on a later
            // iteration once the retry epilogues reach a pause point.
            gate.abort_pause();
            return false;
        }
        Some(_) => {}
    }
    let targets: Vec<usize> = (0..adapt_senders.len())
        .filter(|&p| !m.is_dead(p) && !m.is_done(p))
        .collect();
    let drained = !targets.is_empty()
        && targets
            .iter()
            .all(|&p| adapt_senders[p].send(Msg::Drain { token }))
        && collect_replies(ctrl_rx, token, targets.len(), false, recall_timeout).is_some();
    if !drained {
        gate.abort_pause();
        return false;
    }
    // Route nothing more at the dead partition: zero its weight (and any
    // previously declared dead peer's) and renormalize over survivors.
    let target = {
        let current = router.lock().current_distribution();
        let w: Vec<f64> = current
            .weights()
            .iter()
            .enumerate()
            .map(|(p, &w)| if p == dead || m.is_dead(p) { 0.0 } else { w })
            .collect();
        DistributionVector::new(&w)
    };
    let Ok(target) = target else {
        // Every partition is dead or weightless; nothing to deploy.
        gate.abort_pause();
        return false;
    };
    let moves = {
        let mut r = router.lock();
        r.apply_retrospective(&target)
    };
    let Ok(moves) = moves else {
        gate.abort_pause();
        return false;
    };
    diagnoser.set_distribution(target);
    let bucket_count = router.lock().bucket_count();
    for &p in &targets {
        let outgoing = moves.outgoing.get(p).cloned().unwrap_or_default();
        adapt_senders[p].send(Msg::Migrate {
            token,
            bucket_count,
            outgoing,
        });
    }
    let Some((moved, recalled)) =
        collect_replies(ctrl_rx, token, targets.len(), true, recall_timeout)
    else {
        gate.abort_pause();
        return false;
    };
    stats.state_tuples_migrated += moved;
    stats.tuples_recalled += recalled;
    // Replay the dead partition's surviving log entries, build stream
    // first so reconstructed operator state is in place before any
    // replayed probe tuple can reach it.
    let mut order: Vec<usize> = (0..logs.len()).collect();
    order.sort_by_key(|&s| usize::from(Some(s) != build_source));
    let fallback = targets.first().copied().unwrap_or(0);
    let mut replayed = 0u64;
    for s in order {
        let entries = logs[s].drain_dest(dead as u32).unwrap_or_default();
        for (stream, tuple) in entries {
            let routed = {
                let mut r = router.lock();
                r.route(stream, &tuple)
            };
            let dest = match routed {
                Ok(d) if targets.contains(&(d as usize)) => d as usize,
                _ => fallback,
            };
            replayed += 1;
            adapt_senders[dest].send(Msg::Migrated {
                stream,
                source: s,
                tuple: tuple.clone(),
            });
            // Re-record under the new owner, but send no checkpoint
            // markers from here: a coordinator-sent marker could close a
            // window whose tail is still staged unsent at the producer,
            // acknowledging tuples that were never delivered. The
            // producers' per-attempt forced checkpoints close these
            // windows instead, and retransmissions of already-replayed
            // tuples collapse in the consumers' dedup filter.
            let _ = logs[s].record_replayed(dest as u32, (stream, tuple));
        }
    }
    stats.failovers_completed += 1;
    if let Some(o) = obs {
        o.metrics().counter("exec.failovers").add(1);
        o.metrics().counter("exec.tuples_replayed").add(replayed);
    }
    record(
        now_model(),
        TimelineKind::Failover {
            partition: PartitionId::new(stage_id, dead as u32).to_string(),
            replayed,
            down_seq,
        },
    );
    responder.on_deploy_acknowledged(now_model());
    gate.resume(gate.epoch() + 1);
    true
}

/// Executes a single-stage distributed plan over real threads.
pub struct ThreadedExecutor {
    catalog: Catalog,
    config: ThreadedConfig,
}

impl ThreadedExecutor {
    /// Creates an executor over the catalog.
    pub fn new(catalog: Catalog, config: ThreadedConfig) -> Self {
        ThreadedExecutor { catalog, config }
    }

    /// Runs the plan to completion.
    pub fn run(&self, plan: &DistributedPlan) -> Result<ThreadedReport> {
        self.config.validate()?;
        plan.validate()?;
        if plan.stages.len() != 1 {
            return Err(GridError::Execution(
                "the threaded executor runs single-stage plans".into(),
            ));
        }
        let stage = &plan.stages[0];
        let response = self.config.adaptivity.response;
        if self.config.adaptivity.enabled
            && stage.factory.stateful()
            && response == ResponsePolicy::R2
        {
            return Err(GridError::Config(
                "stateful stages require the retrospective (R1) response policy; \
                 a prospective routing change would strand operator state on the \
                 old owners"
                    .into(),
            ));
        }
        let recall_on = self.config.adaptivity.enabled && response == ResponsePolicy::R1;
        if recall_on
            && plan
                .sources
                .iter()
                .filter(|s| s.stream == StreamTag::Build)
                .count()
                > 1
        {
            return Err(GridError::Config(
                "the recall protocol supports at most one build source per stage".into(),
            ));
        }
        let monitoring = self.config.adaptivity.monitoring_active();
        let partitions = stage.nodes.len();
        let router = Arc::new(Mutex::new(Router::from_policy(
            &stage.exchange.routing,
            cast::index_to_u32(partitions)?,
        )?));

        // Channels. The hot data plane is a bounded SPSC ring per
        // (producer, consumer) edge carrying whole tuple blocks; the ring
        // is the backpressure (a slow consumer parks its producers at
        // `RING_BLOCKS` staged blocks). The control plane (Eos, recall
        // commands, migrated re-deliveries, backstops) stays on one mpsc
        // channel per consumer, paired with the waker that interrupts the
        // consumer's idle park.
        const RING_BLOCKS: usize = 8;
        let producers_n = plan.sources.len();
        let mut to_consumer: Vec<CtrlTx> = Vec::new();
        let mut consumer_rx: Vec<Receiver<Msg>> = Vec::new();
        let mut consumer_wakers: Vec<Arc<Waker>> = Vec::new();
        for _ in 0..partitions {
            let (tx, rx) = channel();
            let waker = Arc::new(Waker::new());
            to_consumer.push(CtrlTx {
                tx,
                waker: Arc::clone(&waker),
            });
            consumer_rx.push(rx);
            consumer_wakers.push(waker);
        }
        // ring_txs[producer][consumer] / ring_rxs[consumer][producer].
        let mut ring_txs: Vec<Vec<RingSender<Block>>> =
            (0..producers_n).map(|_| Vec::new()).collect();
        let mut ring_rxs: Vec<Vec<RingReceiver<Block>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for ring_tx_row in ring_txs.iter_mut() {
            for ring_rx_row in ring_rxs.iter_mut() {
                let (tx, rx) = ring::<Block>(RING_BLOCKS);
                ring_tx_row.push(tx);
                ring_rx_row.push(rx);
            }
        }
        let (result_tx, result_rx) = channel::<Vec<Tuple>>();
        let (raw_tx, raw_rx) = channel::<Raw>();
        let (ctrl_tx, ctrl_rx) = channel::<Ctrl>();

        let started = Instant::now();
        let obs = if self.config.obs.enabled {
            Some(Obs::new(self.config.obs.timeline_capacity))
        } else {
            None
        };
        let (routed_ctr, processed_ctr) = match &obs {
            Some(o) => (
                Some(o.metrics().counter("exec.tuples_routed")),
                Some(o.metrics().counter("exec.tuples_processed")),
            ),
            None => (None, None),
        };
        let routed_total = Arc::new(AtomicU64::new(0));
        let processed_total = Arc::new(AtomicU64::new(0));
        let restaged_total = Arc::new(AtomicU64::new(0));
        let total_rows: u64 = {
            let mut sum = 0;
            for s in &plan.sources {
                sum += self.catalog.get(&s.table)?.len() as u64;
            }
            sum
        };

        // Resilient mode hardens the data plane: recovery logs always on,
        // whole windows flushed atomically, producers retransmitting
        // unacknowledged windows, consumers deduplicating. It is what
        // makes injected drops/duplicates and node crashes survivable.
        let resilient = self.config.chaos.is_some() || self.config.failover.enabled;
        let logging_on = recall_on || resilient;

        // Recall-protocol state: one recovery log per source and the
        // gate producers park behind during a recall.
        let logs: Option<SharedLogs> = if logging_on {
            let mut v = Vec::with_capacity(plan.sources.len());
            // In resilient mode a whole window must fit one exchange
            // buffer, so a dropped or duplicated batch hits tuples and
            // marker atomically: marker delivery implies content delivery.
            let effective = self
                .config
                .checkpoint_interval
                .min(stage.exchange.buffer_tuples.max(1));
            for s in &plan.sources {
                let log = if s.stream == StreamTag::Build {
                    if resilient {
                        // Build tuples are downstream operator state: keep
                        // the entries replayable after delivery so node
                        // failure can reconstruct a dead partition, while
                        // markers still flow as delivery receipts.
                        SharedRecoveryLog::retained(partitions, effective)?
                    } else {
                        // Effectively no checkpointing (mirrors the
                        // simulator): entries stay recallable all run.
                        SharedRecoveryLog::new(partitions, usize::MAX / 2)?
                    }
                } else if resilient {
                    SharedRecoveryLog::new(partitions, effective)?
                } else {
                    SharedRecoveryLog::new(partitions, self.config.checkpoint_interval)?
                };
                v.push(log);
            }
            Some(Arc::new(v))
        } else {
            None
        };
        let delivery_gaps: Arc<Mutex<Vec<DeliveryGap>>> = Arc::new(Mutex::new(Vec::new()));
        let retransmitted_total = Arc::new(AtomicU64::new(0));
        let send_failures_total = Arc::new(AtomicU64::new(0));
        let gate = recall_on.then(|| Arc::new(RecallGate::new(plan.sources.len())));
        let build_source = plan
            .sources
            .iter()
            .position(|s| s.stream == StreamTag::Build);

        // Producer threads.
        let mut producer_handles = Vec::new();
        for (sidx, source) in plan.sources.iter().enumerate() {
            let table = self.catalog.get(&source.table)?;
            let router = Arc::clone(&router);
            let rings = std::mem::take(&mut ring_txs[sidx]);
            let ctrl = to_consumer.clone();
            let raw = raw_tx.clone();
            let routed_total = Arc::clone(&routed_total);
            let restaged_total = Arc::clone(&restaged_total);
            let logs = logs.clone();
            let gate = gate.clone();
            let scan_cost = source.scan_cost_ms;
            let stream = source.stream;
            let scale = self.config.cost_scale;
            let buffer_tuples = stage.exchange.buffer_tuples;
            let stage_id = stage.id;
            let query = plan.query;
            let routed_ctr = routed_ctr.clone();
            let chaos = self.config.chaos.clone();
            let retry_policy = self.config.delivery_retry.clone();
            let gaps = Arc::clone(&delivery_gaps);
            let retransmitted = Arc::clone(&retransmitted_total);
            let send_failures = Arc::clone(&send_failures_total);
            let failover_on = self.config.failover.enabled;
            producer_handles.push(thread::spawn(move || {
                // Counts this producer as done even if it panics, so the
                // recall barrier can never wait on a dead thread.
                let _guard = gate.as_ref().map(|g| ProducerGuard::new(Arc::clone(g)));
                let mut buffers: Vec<Vec<Staged>> = (0..rings.len()).map(|_| Vec::new()).collect();
                // Ships one staged block to `dest`. Settles what the scan
                // owes first: the routed count, and the modelled scan time
                // in a single sleep. Batching the per-row sleeps at block
                // boundaries is what lifts the data plane above the OS
                // timer granularity.
                let flush = |dest: usize,
                             buffers: &mut Vec<Vec<Staged>>,
                             disconnected: &mut Vec<bool>,
                             owed: &mut Owed,
                             started: &Instant,
                             retransmit: bool| {
                    owed.settle(scale);
                    let items = std::mem::take(&mut buffers[dest]);
                    if items.is_empty() {
                        return;
                    }
                    let tuples = items
                        .iter()
                        .filter(|s| matches!(s, Staged::Tuple(..)))
                        .count();
                    let fate = chaos
                        .as_ref()
                        .map_or(NetAction::Deliver, |c| c.on_data(sidx, dest));
                    if fate == NetAction::Drop {
                        // The whole block vanishes — tuples and the
                        // markers that would acknowledge them, together.
                        // In resilient mode the windows' acks never
                        // arrive, so the retry epilogue retransmits them
                        // from the recovery log.
                        return;
                    }
                    if let NetAction::DelayMs(extra) = fate {
                        if extra.is_finite() && extra > 0.0 {
                            spin_for(extra, scale);
                        }
                    }
                    let send_started = Instant::now();
                    let mut count = 0usize;
                    let mut failed = 0usize;
                    if fate == NetAction::Duplicate {
                        // At-least-once transport: the cloned block is
                        // absorbed by the consumer's block-range dedup.
                        count += tuples;
                        if rings[dest]
                            .push(Block {
                                source: sidx,
                                items: items.clone(),
                                retransmit,
                            })
                            .is_err()
                        {
                            failed += tuples;
                        }
                    }
                    count += tuples;
                    if rings[dest]
                        .push(Block {
                            source: sidx,
                            items,
                            retransmit,
                        })
                        .is_err()
                    {
                        failed += tuples;
                    }
                    ctrl[dest].wake();
                    if failed > 0 {
                        // The consumer is gone: its ring rejected the
                        // block. Count the loss *now* instead of
                        // discarding the error — the report surfaces it
                        // even before any heartbeat lease expires.
                        disconnected[dest] = true;
                        send_failures.fetch_add(failed as u64, Ordering::Relaxed);
                    }
                    let m2_kept = chaos
                        .as_ref()
                        .is_none_or(|c| c.on_notification(NotifyKind::M2, sidx));
                    if monitoring && count > 0 && m2_kept {
                        let send_cost =
                            send_started.elapsed().as_secs_f64() * 1000.0 / scale.max(1e-9);
                        let _ = raw.send(Raw::M2(M2 {
                            query,
                            producer: ProducerId::Source(sidx as u32),
                            recipient: PartitionId::new(stage_id, dest as u32),
                            send_cost_ms: send_cost,
                            tuples_in_buffer: count,
                            // Wall-clock -> model milliseconds, so the
                            // Responder's cooldown compares like units.
                            at: SimTime::from_millis(
                                started.elapsed().as_secs_f64() * 1000.0 / scale.max(1e-9),
                            ),
                        }));
                    }
                };
                // After a recall, unsent staged tuples are re-routed
                // under the new distribution (their log entries follow);
                // markers stay with their original destination so the
                // windows they close remain intact.
                let restage = |buffers: &mut Vec<Vec<Staged>>| -> u64 {
                    let mut moved = 0u64;
                    let taken: Vec<Vec<Staged>> = buffers.iter_mut().map(std::mem::take).collect();
                    for (old_dest, items) in taken.into_iter().enumerate() {
                        for item in items {
                            match item {
                                Staged::Tuple(tag, tuple) => {
                                    let dest = {
                                        let mut r = router.lock();
                                        r.route(tag, &tuple).unwrap_or(old_dest as u32)
                                    } as usize;
                                    if dest != old_dest {
                                        moved += 1;
                                        if let Some(logs) = &logs {
                                            let seq = tuple.seq();
                                            let _ = logs[sidx].migrate_matching(
                                                old_dest as u32,
                                                dest as u32,
                                                |(s, t)| *s == tag && t.seq() == seq,
                                            );
                                        }
                                    }
                                    buffers[dest].push(Staged::Tuple(tag, tuple));
                                }
                                marker => buffers[old_dest].push(marker),
                            }
                        }
                    }
                    moved
                };
                let started_local = Instant::now();
                let mut epoch = gate.as_ref().map(|g| g.epoch()).unwrap_or(0);
                // Modelled scan milliseconds and routed rows, settled in
                // one batch at the next flush.
                let mut owed = Owed::new(routed_total, routed_ctr);
                let mut disconnected = vec![false; rings.len()];
                for row in table.rows() {
                    if let Some(g) = &gate {
                        let now_epoch = g.pause_point();
                        if now_epoch != epoch {
                            epoch = now_epoch;
                            restaged_total.fetch_add(restage(&mut buffers), Ordering::Relaxed);
                        }
                    }
                    let stall = chaos
                        .as_ref()
                        .map_or(0.0, |c| c.stall_ms(StallSite::Producer, sidx));
                    owed.due += scan_cost
                        + if stall.is_finite() {
                            stall.max(0.0)
                        } else {
                            0.0
                        };
                    let dest = {
                        let mut r = router.lock();
                        r.route(stream, row).unwrap_or(0)
                    } as usize;
                    buffers[dest].push(Staged::Tuple(stream, row.clone()));
                    let mut window_closed = false;
                    if let Some(logs) = &logs {
                        if let Ok(Some(cp)) = logs[sidx].record(dest as u32, (stream, row.clone()))
                        {
                            buffers[dest].push(Staged::Marker(cp, logs[sidx].epoch()));
                            window_closed = true;
                        }
                    }
                    owed.count += 1;
                    if resilient {
                        // Flush at window boundaries only: the interval is
                        // clamped to the buffer size, so a whole window
                        // (tuples plus marker) always travels in one
                        // block and a chaos drop or duplicate hits it
                        // atomically.
                        if window_closed {
                            flush(
                                dest,
                                &mut buffers,
                                &mut disconnected,
                                &mut owed,
                                &started_local,
                                false,
                            );
                        }
                    } else if buffers[dest].len() >= buffer_tuples {
                        flush(
                            dest,
                            &mut buffers,
                            &mut disconnected,
                            &mut owed,
                            &started_local,
                            false,
                        );
                    }
                }
                // A recall in flight must complete (and the buffers
                // restage) before the final flush: finishing mid-pause
                // would send tuples routed under the old distribution
                // after the consumers already drained.
                if let Some(g) = &gate {
                    let now_epoch = g.pause_point();
                    if now_epoch != epoch {
                        restaged_total.fetch_add(restage(&mut buffers), Ordering::Relaxed);
                    }
                }
                for dest in 0..rings.len() {
                    // Resilient runs checkpoint build streams too: the
                    // markers are delivery receipts, and retained build
                    // logs keep the entries replayable regardless.
                    if stream != StreamTag::Build || resilient {
                        if let Some(logs) = &logs {
                            if let Ok(Some(cp)) = logs[sidx].force_checkpoint(dest as u32) {
                                buffers[dest].push(Staged::Marker(cp, logs[sidx].epoch()));
                            }
                        }
                    }
                    flush(
                        dest,
                        &mut buffers,
                        &mut disconnected,
                        &mut owed,
                        &started_local,
                        false,
                    );
                    if !resilient {
                        ctrl[dest].send(Msg::Eos {
                            stream,
                            source: sidx,
                        });
                    }
                }
                if resilient {
                    // Delivery-retry epilogue: wait out a deterministic
                    // jittered backoff for in-flight acks, retransmit any
                    // window still unacknowledged, and repeat within the
                    // retry budget. A destination that never acks becomes
                    // an explicit DeliveryGap — the query completes with
                    // a loud record of what is missing instead of
                    // hanging. Only then does Eos go out, so consumers
                    // cannot exit while redelivery is still possible.
                    if let Some(log_vec) = &logs {
                        let mut backoff = RetryBackoff::new(&retry_policy, sidx as u64);
                        let mut gapped = vec![false; rings.len()];
                        'retry: for attempt in 0..=retry_policy.max_retries {
                            // A destination whose ring closed can never
                            // ack again, and with failover disabled
                            // nothing can revive delivery there: record
                            // its gap immediately instead of sleeping out
                            // the whole backoff budget against a dead
                            // consumer. With failover enabled the budget
                            // is exactly what keeps this producer alive
                            // until the lease expires and the coordinator
                            // replays the dead partition's log onto the
                            // survivors, so the fast path stays off.
                            if !failover_on {
                                for dest in 0..rings.len() {
                                    if !disconnected[dest] || gapped[dest] {
                                        continue;
                                    }
                                    gapped[dest] = true;
                                    buffers[dest].clear();
                                    let _ = log_vec[sidx].force_checkpoint(dest as u32);
                                    let windows = log_vec[sidx].undelivered_windows(dest as u32);
                                    if !windows.is_empty() {
                                        let tuples: u64 =
                                            windows.iter().map(|(_, w)| w.len() as u64).sum();
                                        gaps.lock().push(DeliveryGap {
                                            source: sidx,
                                            dest,
                                            windows: windows.len() as u64,
                                            tuples,
                                        });
                                    }
                                }
                                // Nothing pending at any live destination:
                                // skip the remaining backoff outright.
                                if (0..rings.len()).all(|d| {
                                    gapped[d]
                                        || log_vec[sidx].undelivered_windows(d as u32).is_empty()
                                }) {
                                    break 'retry;
                                }
                            }
                            // Sleep in short slices with a pause-point in
                            // each, so a concurrent (failover) recall can
                            // still park this producer.
                            let mut remaining = backoff.delay_ms(attempt);
                            while remaining > 0.0 {
                                if let Some(g) = &gate {
                                    let now_epoch = g.pause_point();
                                    if now_epoch != epoch {
                                        epoch = now_epoch;
                                        restaged_total
                                            .fetch_add(restage(&mut buffers), Ordering::Relaxed);
                                        for dest in 0..rings.len() {
                                            flush(
                                                dest,
                                                &mut buffers,
                                                &mut disconnected,
                                                &mut owed,
                                                &started_local,
                                                false,
                                            );
                                        }
                                    }
                                }
                                let slice = remaining.min(5.0);
                                thread::sleep(Duration::from_secs_f64(slice / 1000.0));
                                remaining -= slice;
                            }
                            // Close any window the run left open since the
                            // final scan flush (recalls and failover
                            // replay append to open windows) and push its
                            // marker out with whatever the buffer holds —
                            // one block, so marker delivery still implies
                            // content delivery.
                            for dest in 0..rings.len() {
                                if gapped[dest] {
                                    continue;
                                }
                                if let Ok(Some(cp)) = log_vec[sidx].force_checkpoint(dest as u32) {
                                    buffers[dest].push(Staged::Marker(cp, log_vec[sidx].epoch()));
                                    flush(
                                        dest,
                                        &mut buffers,
                                        &mut disconnected,
                                        &mut owed,
                                        &started_local,
                                        false,
                                    );
                                }
                            }
                            let mut undelivered_any = false;
                            for dest in 0..rings.len() {
                                if gapped[dest] {
                                    continue;
                                }
                                let windows = log_vec[sidx].undelivered_windows(dest as u32);
                                if windows.is_empty() {
                                    continue;
                                }
                                undelivered_any = true;
                                if attempt == retry_policy.max_retries {
                                    let tuples: u64 =
                                        windows.iter().map(|(_, w)| w.len() as u64).sum();
                                    gaps.lock().push(DeliveryGap {
                                        source: sidx,
                                        dest,
                                        windows: windows.len() as u64,
                                        tuples,
                                    });
                                } else {
                                    let epoch_now = log_vec[sidx].epoch();
                                    for (cp, items) in windows {
                                        retransmitted
                                            .fetch_add(items.len() as u64, Ordering::Relaxed);
                                        for (tag, t) in items {
                                            buffers[dest].push(Staged::Tuple(tag, t));
                                        }
                                        buffers[dest].push(Staged::Marker(cp, epoch_now));
                                        flush(
                                            dest,
                                            &mut buffers,
                                            &mut disconnected,
                                            &mut owed,
                                            &started_local,
                                            true,
                                        );
                                    }
                                }
                            }
                            if !undelivered_any {
                                break 'retry;
                            }
                        }
                    }
                    for c in &ctrl {
                        c.send(Msg::Eos {
                            stream,
                            source: sidx,
                        });
                    }
                }
            }));
        }
        let peers = to_consumer.clone();
        let adapt_senders = to_consumer.clone();
        let backstop = to_consumer.clone();
        drop(to_consumer);

        // Consumer threads.
        let eos_needed = plan.sources.len();
        let build_eos_needed = plan
            .sources
            .iter()
            .filter(|s| s.stream == StreamTag::Build)
            .count();
        let mut consumer_handles = Vec::new();
        for (i, rx) in consumer_rx.into_iter().enumerate() {
            let rings = std::mem::take(&mut ring_rxs[i]);
            let waker = Arc::clone(&consumer_wakers[i]);
            let mut evaluator = stage.factory.create(i as u32);
            let node = stage.nodes[i];
            let perturbation = self.config.perturbations.get(&node).cloned();
            let results = result_tx.clone();
            let raw = raw_tx.clone();
            let ctrl = ctrl_tx.clone();
            let peers = peers.clone();
            let router = Arc::clone(&router);
            let logs = logs.clone();
            let processed_total = Arc::clone(&processed_total);
            let scale = self.config.cost_scale;
            let receive_cost = self.config.receive_cost_ms;
            let interval = self.config.adaptivity.monitoring_interval_tuples.max(1);
            let stage_id = stage.id;
            let query = plan.query;
            let processed_ctr = processed_ctr.clone();
            let chaos = self.config.chaos.clone();
            // Service-plane contention: co-resident queries on this node
            // inflate the modelled per-tuple cost. The counter is read
            // lock-free per tuple; the slope is fixed for the run.
            let contention = self
                .config
                .tenancy
                .as_ref()
                .map(|t| (t.ledger().counter(node), t.ledger().alpha()));
            let failover_on = self.config.failover.enabled;
            let recv_slice_ms = if failover_on {
                self.config.failover.heartbeat_ms.min(50)
            } else {
                50
            };
            consumer_handles.push(thread::spawn(move || -> (u64, u64) {
                let started = Instant::now();
                let mut outputs_total = 0u64;
                let mut batch = 0u32;
                let mut batch_cost = 0.0;
                let mut batch_wait = 0.0;
                let mut out: Vec<Tuple> = Vec::new();
                let mut eos_seen = 0usize;
                let mut build_eos_seen = 0usize;
                // Probe tuples that arrived before the build phase
                // completed, with the source that logged them; replayed
                // once every build source is done (the iterator model
                // consumes the build input first), or recalled to their
                // new owner by a retrospective redistribution.
                let mut held_probes: Vec<(usize, Tuple)> = Vec::new();
                // Resilient-mode dedup: the transport is at-least-once
                // (retransmission, chaos duplication), processing must be
                // effectively-once. The filter works at two granularities
                // — whole-block range keys and `(source, seq)` tuple keys
                // — and evicts both when the covering recovery-log window
                // is acknowledged, keeping it O(unacked windows) instead
                // of O(tuples ever delivered).
                let mut dedup = DedupFilter::new();
                // Modelled processing cost accrued but not yet spent in
                // real time, and the processed count not yet published;
                // settled once per block (or control message) instead of
                // once per tuple, which is where batching wins its
                // throughput back from the sleep granularity floor.
                let mut owed = Owed::new(processed_total, processed_ctr);
                // Probe-window acks deferred while the build phase is
                // incomplete: an ack is a *processing* receipt here, and
                // held probes are unprocessed — a crash before the build
                // completes must find their windows still replayable.
                let mut pending_acks: Vec<(usize, Checkpoint, u64)> = Vec::new();
                // Applies one checkpoint ack through the chaos seam. In
                // resilient mode the pending outputs are handed to the
                // collector *first*: once a window is acknowledged its
                // outputs are owned downstream, so a later crash of this
                // consumer can never lose them (replay covers exactly the
                // unacknowledged windows).
                let apply_ack = |source: usize,
                                 cp: Checkpoint,
                                 epoch: u64,
                                 out: &mut Vec<Tuple>,
                                 dedup: &mut DedupFilter| {
                    let Some(logs) = &logs else { return };
                    if resilient && !out.is_empty() {
                        let _ = results.send(std::mem::take(out));
                    }
                    let outcome = match chaos
                        .as_ref()
                        .map_or(NetAction::Deliver, |c| c.on_ack(source, i))
                    {
                        NetAction::Drop => None,
                        NetAction::Duplicate => {
                            let first = logs[source].acknowledge(cp.dest, cp.id, epoch);
                            let _ = logs[source].acknowledge(cp.dest, cp.id, epoch);
                            Some(first)
                        }
                        NetAction::DelayMs(extra) => {
                            if extra.is_finite() && extra > 0.0 {
                                spin_for(extra, scale);
                            }
                            Some(logs[source].acknowledge(cp.dest, cp.id, epoch))
                        }
                        NetAction::Deliver => Some(logs[source].acknowledge(cp.dest, cp.id, epoch)),
                    };
                    // Once the log accepts the ack the window can never be
                    // retransmitted again, so its dedup entries are dead
                    // weight — evict them. (`Duplicate` means somebody
                    // already acked it, same conclusion.)
                    if matches!(
                        outcome,
                        Some(AckOutcome::Accepted(_)) | Some(AckOutcome::Duplicate)
                    ) {
                        dedup.window_acked(source, cp.id);
                    }
                };
                // Evaluates one tuple into `out`, accruing the modelled
                // (and perturbed) cost and the count into `owed` for the
                // caller to settle once. Shared by the streaming path, the
                // held-probe replay, and migrated re-delivery, so every
                // processed tuple feeds the same M1 batch. The M1 cost estimate
                // stays per-tuple exact because it reads the model, not
                // the wall clock.
                let process_one = |evaluator: &mut Box<dyn PartitionEvaluator>,
                                   stream: StreamTag,
                                   tuple: &Tuple,
                                   out: &mut Vec<Tuple>,
                                   outputs_total: &mut u64,
                                   batch: &mut u32,
                                   batch_cost: &mut f64,
                                   owed: &mut Owed| {
                    let before = out.len();
                    let Ok(base_cost_ms) = evaluator.process_into(stream, tuple, out) else {
                        return;
                    };
                    let stall = chaos
                        .as_ref()
                        .map_or(0.0, |c| c.stall_ms(StallSite::Consumer, i));
                    let tenants_factor = contention.as_ref().map_or(1.0, |(ctr, alpha)| {
                        let extra = ctr.load(Ordering::Relaxed).saturating_sub(1);
                        1.0 + alpha * cast::count_to_f64(u64::from(extra))
                    });
                    let model_cost = (perturbed(base_cost_ms, perturbation.as_ref())
                        + receive_cost
                        + if stall.is_finite() {
                            stall.max(0.0)
                        } else {
                            0.0
                        })
                        * tenants_factor;
                    owed.due += model_cost;
                    owed.count += 1;
                    *batch += 1;
                    *batch_cost += model_cost;
                    *outputs_total += (out.len() - before) as u64;
                };
                // Emits the M1 for the current batch. `force` flushes a
                // partial tail batch (end of stream); without it the
                // last `processed % interval` tuples would vanish from
                // the monitoring record.
                let emit_m1 = |batch: &mut u32,
                               batch_cost: &mut f64,
                               batch_wait: &mut f64,
                               processed: u64,
                               outputs_total: u64,
                               force: bool| {
                    if !monitoring || *batch == 0 || (!force && *batch < interval) {
                        return;
                    }
                    if chaos
                        .as_ref()
                        .is_some_and(|c| !c.on_notification(NotifyKind::M1, i))
                    {
                        // The notification is lost in flight: the batch
                        // counters still reset, exactly as if it had been
                        // sent and dropped by the network.
                        *batch = 0;
                        *batch_cost = 0.0;
                        *batch_wait = 0.0;
                        return;
                    }
                    let _ = raw.send(Raw::M1(M1 {
                        query,
                        partition: PartitionId::new(stage_id, i as u32),
                        node,
                        cost_per_tuple_ms: *batch_cost / f64::from(*batch),
                        leaf_wait_ms: *batch_wait / f64::from(*batch) / scale,
                        selectivity: if processed == 0 {
                            1.0
                        } else {
                            cast::ratio(outputs_total, processed)
                        },
                        tuples_produced: outputs_total,
                        at: SimTime::from_millis(
                            started.elapsed().as_secs_f64() * 1000.0 / scale.max(1e-9),
                        ),
                    }));
                    *batch = 0;
                    *batch_cost = 0.0;
                    *batch_wait = 0.0;
                };
                // Consumes one tuple block off a ring. Resilient-mode
                // dedup runs at two granularities: a whole-block range
                // hit skips every tuple in one set probe (markers still
                // apply — acks are idempotent, and the duplicate may be
                // the only copy whose ack survives the chaos plan), and
                // the per-tuple `seen` filter catches redelivery that is
                // not block-identical (a window retransmitted into a
                // differently-packed block).
                let handle_block = |block: Block,
                                    evaluator: &mut Box<dyn PartitionEvaluator>,
                                    out: &mut Vec<Tuple>,
                                    outputs_total: &mut u64,
                                    batch: &mut u32,
                                    batch_cost: &mut f64,
                                    batch_wait: &mut f64,
                                    owed: &mut Owed,
                                    held_probes: &mut Vec<(usize, Tuple)>,
                                    pending_acks: &mut Vec<(usize, Checkpoint, u64)>,
                                    dedup: &mut DedupFilter,
                                    build_eos_seen: usize| {
                    let source = block.source;
                    let retransmit = block.retransmit;
                    let dup = resilient
                        && block.range_key().is_some_and(|(first, last, count)| {
                            dedup.block_is_dup(source, (first, last, count as u64))
                        });
                    let building = build_eos_needed > 0 && build_eos_seen < build_eos_needed;
                    // The covering marker for each tuple is the next one
                    // at a higher index in the block: retransmissions
                    // always repack a window's tuples with its marker, so
                    // an already-acked marker id shadows every tuple ahead
                    // of it even after their per-tuple keys were evicted.
                    let marker_ids: Vec<(usize, u64)> = block
                        .items
                        .iter()
                        .enumerate()
                        .filter_map(|(idx, item)| match item {
                            Staged::Marker(cp, _) => Some((idx, cp.id)),
                            Staged::Tuple(..) => None,
                        })
                        .collect();
                    let mut next_marker = 0usize;
                    for (idx, staged) in block.items.into_iter().enumerate() {
                        while next_marker < marker_ids.len() && marker_ids[next_marker].0 < idx {
                            next_marker += 1;
                        }
                        match staged {
                            Staged::Tuple(stream, tuple) => {
                                if dup {
                                    continue;
                                }
                                if resilient {
                                    if marker_ids
                                        .get(next_marker)
                                        .is_some_and(|&(_, id)| dedup.is_acked(source, id))
                                    {
                                        continue;
                                    }
                                    if dedup.tuple_is_dup(source, tuple.seq()) {
                                        continue;
                                    }
                                }
                                if retransmit {
                                    // A retransmitted window was addressed
                                    // before any bucket moves since it
                                    // closed: under hash routing a fresh
                                    // tuple whose bucket migrated away must
                                    // be processed by the current owner.
                                    // Forwarding here — behind the dedup
                                    // filter, log entry riding along — is
                                    // the sound direction: re-routing at
                                    // the producer would let an ack-loss
                                    // redelivery reach a partition that
                                    // never saw the original and duplicate
                                    // its output.
                                    let owner = {
                                        let mut r = router.lock();
                                        r.bucket_count()
                                            .map(|_| r.route(stream, &tuple).unwrap_or(i as u32))
                                    };
                                    if let Some(owner) = owner {
                                        if owner as usize != i {
                                            if let Some(logs) = &logs {
                                                let seq = tuple.seq();
                                                let _ = logs[source].migrate_matching(
                                                    i as u32,
                                                    owner,
                                                    |(s, t)| *s == stream && t.seq() == seq,
                                                );
                                            }
                                            peers[owner as usize].send(Msg::Migrated {
                                                stream,
                                                source,
                                                tuple,
                                            });
                                            continue;
                                        }
                                    }
                                }
                                if stream == StreamTag::Probe && building {
                                    held_probes.push((source, tuple));
                                } else {
                                    process_one(
                                        evaluator,
                                        stream,
                                        &tuple,
                                        out,
                                        outputs_total,
                                        batch,
                                        batch_cost,
                                        owed,
                                    );
                                    emit_m1(
                                        batch,
                                        batch_cost,
                                        batch_wait,
                                        owed.count,
                                        *outputs_total,
                                        false,
                                    );
                                }
                            }
                            Staged::Marker(cp, epoch) => {
                                debug_assert_eq!(cp.dest as usize, i);
                                // Acks are best-effort control traffic: a
                                // lost one keeps the window in the log
                                // until a retransmission's ack supersedes
                                // it, a duplicate is absorbed by the log
                                // itself. Probe-window acks are deferred
                                // while the build phase is incomplete. The
                                // window closes at the *marker*, not the
                                // ack: entries delivered since the last
                                // marker are now covered by this id and
                                // will be evicted when its ack lands.
                                if resilient {
                                    dedup.close_window(source, cp.id);
                                }
                                if resilient && building && Some(source) != build_source {
                                    pending_acks.push((source, cp, epoch));
                                } else {
                                    apply_ack(source, cp, epoch, out, dedup);
                                }
                            }
                        }
                    }
                    // Settle the block: publish its processed count and pay
                    // its accumulated modelled cost as one sleep instead of
                    // one per tuple.
                    owed.settle(scale);
                };
                // Drains one ring, consulting the crash seam once per
                // block. A macro rather than a closure: it needs the
                // enclosing `return` (a crash is the whole thread dying).
                macro_rules! drain_ring {
                    ($r:expr) => {
                        while let Some(block) = $r.pop() {
                            if chaos.as_ref().is_some_and(|c| c.crash_worker(i)) {
                                return (owed.count, dedup.peak());
                            }
                            handle_block(
                                block,
                                &mut evaluator,
                                &mut out,
                                &mut outputs_total,
                                &mut batch,
                                &mut batch_cost,
                                &mut batch_wait,
                                &mut owed,
                                &mut held_probes,
                                &mut pending_acks,
                                &mut dedup,
                                build_eos_seen,
                            );
                        }
                    };
                }
                // Set once the control channel disconnects (every
                // producer and the coordinator are gone); the loop makes
                // one final pass over the rings before exiting.
                let mut ctrl_gone = false;
                // A control message pulled out of order by the data
                // plane's preemption check, handled first next cycle.
                let mut stashed: Option<Msg> = None;
                // Set by the final Eos: exit once the cycle unwinds.
                let mut done = false;
                // The two planes carry no ordering between them, so the
                // loop re-establishes the old single-FIFO guarantees by
                // construction. Control drains first and completely: a
                // recall re-delivery (`Migrated`) is enqueued before the
                // coordinator resumes the producers, hence before any
                // post-recall block is pushed — handling all visible
                // control before any data keeps migrated state ahead of
                // the tuples that probe it. The data drain re-checks the
                // control channel before every block for the same reason.
                // The inverse direction (a block pushed before Eos/Drain
                // was sent) is handled inside those arms, which drain the
                // rings the guarantee covers before acting.
                loop {
                    // Beat per cycle: an idle consumer renews its lease
                    // once per park slice, a busy one once per pass.
                    if failover_on {
                        let _ = raw.send(Raw::Beat(i));
                    }
                    let mut progressed = false;
                    // Control plane, exhaustively and in FIFO order.
                    loop {
                        let msg = match stashed.take() {
                            Some(m) => m,
                            None => match rx.try_recv() {
                                Ok(m) => m,
                                Err(TryRecvError::Disconnected) => {
                                    ctrl_gone = true;
                                    break;
                                }
                                Err(TryRecvError::Empty) => break,
                            },
                        };
                        progressed = true;
                        // The crash seam: consulted once per control
                        // message (and once per block in the drains).
                        // Dying here means no flush, no acks, no control
                        // replies — exactly a vanished node.
                        if chaos.as_ref().is_some_and(|c| c.crash_worker(i)) {
                            return (owed.count, dedup.peak());
                        }
                        match msg {
                            Msg::Eos {
                                stream: tag,
                                source,
                            } => {
                                // Every push from this producer precedes
                                // its Eos: consume its ring before acting,
                                // so the held-probe replay and the final
                                // exit observe all of its blocks.
                                drain_ring!(rings[source]);
                                eos_seen += 1;
                                if tag == StreamTag::Build {
                                    build_eos_seen += 1;
                                }
                                if build_eos_needed > 0 && build_eos_seen == build_eos_needed {
                                    for (n, (_, tuple)) in
                                        std::mem::take(&mut held_probes).into_iter().enumerate()
                                    {
                                        // Replaying a large backlog takes real
                                        // time; pay the accrued cost in
                                        // slices and keep the lease renewed.
                                        if n % 16 == 0 {
                                            if failover_on {
                                                let _ = raw.send(Raw::Beat(i));
                                            }
                                            owed.settle(scale);
                                        }
                                        process_one(
                                            &mut evaluator,
                                            StreamTag::Probe,
                                            &tuple,
                                            &mut out,
                                            &mut outputs_total,
                                            &mut batch,
                                            &mut batch_cost,
                                            &mut owed,
                                        );
                                        emit_m1(
                                            &mut batch,
                                            &mut batch_cost,
                                            &mut batch_wait,
                                            owed.count,
                                            outputs_total,
                                            false,
                                        );
                                    }
                                    owed.settle(scale);
                                    // The held probes are processed: their
                                    // deferred window acks are now true
                                    // processing receipts, so release them.
                                    for (source, cp, epoch) in std::mem::take(&mut pending_acks) {
                                        apply_ack(source, cp, epoch, &mut out, &mut dedup);
                                    }
                                }
                                if eos_seen == eos_needed {
                                    // Flush the partial tail batch before the
                                    // monitoring record goes quiet.
                                    emit_m1(
                                        &mut batch,
                                        &mut batch_cost,
                                        &mut batch_wait,
                                        owed.count,
                                        outputs_total,
                                        true,
                                    );
                                    done = true;
                                }
                            }
                            Msg::Drain { token } => {
                                // The producers are parked behind the recall
                                // gate, so the rings hold everything sent
                                // before the pause: consume it all before
                                // replying, which is exactly what `Drained`
                                // promises the coordinator.
                                for r in &rings {
                                    drain_ring!(r);
                                }
                                if chaos
                                    .as_ref()
                                    .is_none_or(|c| c.on_recall_ctrl(RecallPhase::Drain, i))
                                {
                                    let _ = ctrl.send(Ctrl::Drained { token });
                                }
                                // A swallowed reply models a crashed worker
                                // mid-recall: the coordinator's barrier times
                                // out and the recall aborts pre-swap, leaving
                                // router and state untouched.
                            }
                            Msg::Migrate {
                                token,
                                bucket_count,
                                outgoing,
                            } => {
                                let mut state_moved = 0u64;
                                let mut recalled = 0u64;
                                // Hand the surrendered buckets' operator
                                // state to the new owners. The entries leave
                                // this consumer's slice of the build log: the
                                // migration traffic now carries them.
                                if let Some(bc) = bucket_count {
                                    if !outgoing.is_empty() {
                                        let extracted = evaluator.extract_state(bc, &outgoing);
                                        if !resilient {
                                            if let (Some(logs), Some(b)) = (&logs, build_source) {
                                                let moved: HashSet<u64> = extracted
                                                    .iter()
                                                    .map(|(_, t)| t.seq())
                                                    .collect();
                                                let _ =
                                                    logs[b].retire_matching(i as u32, |(s, t)| {
                                                        *s == StreamTag::Build
                                                            && moved.contains(&t.seq())
                                                    });
                                            }
                                        }
                                        for (stream, tuple) in extracted {
                                            let dest = {
                                                let mut r = router.lock();
                                                r.route(stream, &tuple).unwrap_or(i as u32)
                                            }
                                                as usize;
                                            state_moved += 1;
                                            if dest == i {
                                                // Outgoing buckets route away
                                                // by construction; re-insert
                                                // defensively if not. State is
                                                // build tuples: no output.
                                                let _ = evaluator
                                                    .process_into(stream, &tuple, &mut out);
                                            } else {
                                                if resilient {
                                                    // The log entry follows its
                                                    // tuple to the new owner's
                                                    // open window instead of
                                                    // retiring: a later crash
                                                    // there must still find it
                                                    // replayable.
                                                    if let (Some(logs), Some(b)) =
                                                        (&logs, build_source)
                                                    {
                                                        let seq = tuple.seq();
                                                        let _ = logs[b].migrate_matching(
                                                            i as u32,
                                                            dest as u32,
                                                            |(s, t)| {
                                                                *s == StreamTag::Build
                                                                    && t.seq() == seq
                                                            },
                                                        );
                                                    }
                                                }
                                                peers[dest].send(Msg::Migrated {
                                                    stream,
                                                    source: build_source.unwrap_or(0),
                                                    tuple,
                                                });
                                            }
                                        }
                                    }
                                }
                                // Recall held probe tuples whose bucket moved.
                                if !held_probes.is_empty() {
                                    let mut retire: HashMap<usize, HashSet<u64>> = HashMap::new();
                                    for (source, tuple) in std::mem::take(&mut held_probes) {
                                        let dest = {
                                            let mut r = router.lock();
                                            r.route(StreamTag::Probe, &tuple).unwrap_or(i as u32)
                                        }
                                            as usize;
                                        if dest == i {
                                            held_probes.push((source, tuple));
                                        } else {
                                            if resilient {
                                                // As with build state: the
                                                // entry rides along, staying
                                                // replayable at the new owner.
                                                if let Some(logs) = &logs {
                                                    let seq = tuple.seq();
                                                    let _ = logs[source].migrate_matching(
                                                        i as u32,
                                                        dest as u32,
                                                        |(s, t)| {
                                                            *s == StreamTag::Probe && t.seq() == seq
                                                        },
                                                    );
                                                }
                                            } else {
                                                retire
                                                    .entry(source)
                                                    .or_default()
                                                    .insert(tuple.seq());
                                            }
                                            recalled += 1;
                                            peers[dest].send(Msg::Migrated {
                                                stream: StreamTag::Probe,
                                                source,
                                                tuple,
                                            });
                                        }
                                    }
                                    if let Some(logs) = &logs {
                                        for (source, seqs) in retire {
                                            let _ =
                                                logs[source].retire_matching(i as u32, |(s, t)| {
                                                    *s == StreamTag::Probe
                                                        && seqs.contains(&t.seq())
                                                });
                                        }
                                    }
                                }
                                if chaos
                                    .as_ref()
                                    .is_none_or(|c| c.on_recall_ctrl(RecallPhase::Migrate, i))
                                {
                                    let _ = ctrl.send(Ctrl::MigrateDone {
                                        token,
                                        state_moved,
                                        recalled,
                                    });
                                }
                            }
                            Msg::Migrated {
                                stream,
                                source,
                                tuple,
                            } => {
                                // Recorded but always processed: bucket
                                // ping-pong legitimately re-delivers a seq,
                                // and the recall barrier already guarantees
                                // exactly-once for this path.
                                if resilient {
                                    dedup.note_delivered(source, tuple.seq());
                                }
                                if stream == StreamTag::Probe
                                    && build_eos_needed > 0
                                    && build_eos_seen < build_eos_needed
                                {
                                    held_probes.push((source, tuple));
                                } else {
                                    process_one(
                                        &mut evaluator,
                                        stream,
                                        &tuple,
                                        &mut out,
                                        &mut outputs_total,
                                        &mut batch,
                                        &mut batch_cost,
                                        &mut owed,
                                    );
                                    emit_m1(
                                        &mut batch,
                                        &mut batch_cost,
                                        &mut batch_wait,
                                        owed.count,
                                        outputs_total,
                                        false,
                                    );
                                    owed.settle(scale);
                                }
                            }
                        }
                        if done {
                            break;
                        }
                    }
                    if done {
                        break;
                    }
                    // Data plane: drain every ring, re-checking the
                    // control channel before each block — a `Migrated`
                    // that arrives mid-drain precedes any block pushed
                    // after it, so control preempts.
                    'drain: for r in &rings {
                        loop {
                            if !ctrl_gone {
                                match rx.try_recv() {
                                    Ok(m) => {
                                        stashed = Some(m);
                                        break 'drain;
                                    }
                                    Err(TryRecvError::Disconnected) => ctrl_gone = true,
                                    Err(TryRecvError::Empty) => {}
                                }
                            }
                            let Some(block) = r.pop() else { break };
                            progressed = true;
                            if chaos.as_ref().is_some_and(|c| c.crash_worker(i)) {
                                return (owed.count, dedup.peak());
                            }
                            handle_block(
                                block,
                                &mut evaluator,
                                &mut out,
                                &mut outputs_total,
                                &mut batch,
                                &mut batch_cost,
                                &mut batch_wait,
                                &mut owed,
                                &mut held_probes,
                                &mut pending_acks,
                                &mut dedup,
                                build_eos_seen,
                            );
                        }
                    }
                    if stashed.is_some() {
                        continue;
                    }
                    if ctrl_gone {
                        // Every sender is gone and the rings were just
                        // drained dry: nothing more can arrive.
                        break;
                    }
                    if progressed {
                        continue;
                    }
                    // Idle. Register on the waker, then re-poll both
                    // planes: a push or send that landed between the
                    // polls above and the registration would wake nobody,
                    // and the park would eat a full slice against input
                    // already waiting.
                    waker.register();
                    if rings.iter().any(|r| !r.is_empty()) {
                        waker.clear();
                        continue;
                    }
                    match rx.try_recv() {
                        Ok(m) => {
                            waker.clear();
                            stashed = Some(m);
                        }
                        Err(TryRecvError::Disconnected) => {
                            waker.clear();
                            ctrl_gone = true;
                        }
                        Err(TryRecvError::Empty) => {
                            // The partition spends this slice waiting for
                            // input. Dropping the wait (as this arm once
                            // did) understated the leaf-wait signal the
                            // A2 diagnoser keys on.
                            let wait_started = Instant::now();
                            thread::park_timeout(Duration::from_millis(recv_slice_ms));
                            waker.clear();
                            batch_wait += wait_started.elapsed().as_secs_f64() * 1000.0;
                        }
                    }
                }
                if failover_on {
                    // A clean exit is not a death: retire the lease.
                    let _ = raw.send(Raw::Done(i));
                }
                owed.settle(scale);
                let _ = results.send(std::mem::take(&mut out));
                (owed.count, dedup.peak())
            }));
        }
        drop(result_tx);
        drop(ctrl_tx);
        drop(peers);

        // Adaptivity thread: detector -> diagnoser -> responder ->
        // shared router; for retrospective commands it additionally acts
        // as the recall coordinator.
        let adapt_handle = {
            let adapt = self.config.adaptivity.clone();
            let router = Arc::clone(&router);
            let routed_total = Arc::clone(&routed_total);
            let processed_total = Arc::clone(&processed_total);
            let gate = gate.clone();
            let initial = router.lock().current_distribution();
            let stage_id = stage.id;
            let partitions_u32 = cast::index_to_u32(partitions)?;
            let scale = self.config.cost_scale;
            let recall_timeout = Duration::from_millis(self.config.recall_timeout_ms);
            let obs = obs.clone();
            let failover_cfg = self.config.failover.clone();
            let flogs = logs.clone();
            let query = plan.query;
            let tenancy = self.config.tenancy.clone();
            thread::spawn(move || -> AdaptStats {
                let mut detector = MonitoringEventDetector::new(&adapt);
                let mut diagnoser = Diagnoser::new(stage_id, partitions_u32, initial, &adapt);
                let mut responder = Responder::new(&adapt);
                if let Some(o) = &obs {
                    detector.set_metric_sink(o.sink());
                    diagnoser.set_metric_sink(o.sink());
                    responder.set_metric_sink(o.sink());
                }
                // Timeline events carry both clocks: `at` is the model
                // time stamped on the raw event by its producer thread,
                // `wall_ms` is the real elapsed time at recording.
                let record = |at: SimTime, kind: TimelineKind| -> u64 {
                    match &obs {
                        Some(o) => o.record(
                            at.as_millis(),
                            Some(started.elapsed().as_secs_f64() * 1000.0),
                            kind,
                        ),
                        None => 0,
                    }
                };
                let now_model = || {
                    SimTime::from_millis(started.elapsed().as_secs_f64() * 1000.0 / scale.max(1e-9))
                };
                let mut stats = AdaptStats::default();
                let mut recall_token = 0u64;
                let mut monitor = failover_cfg
                    .enabled
                    .then(|| HeartbeatMonitor::new(partitions, failover_cfg.lease_ms));
                // Dead workers awaiting a failover recall, with per-worker
                // attempt counts: an aborted attempt (lost control reply,
                // barrier timeout) is retried a few times before the worker
                // is left to the producers' delivery-gap path.
                let mut failover_queue: Vec<(usize, u64, u32)> = Vec::new();
                loop {
                    // With a monitor installed the loop must keep checking
                    // leases even when no monitoring events arrive, so the
                    // blocking receive becomes a heartbeat-paced timeout.
                    let received = if monitor.is_some() {
                        match raw_rx
                            .recv_timeout(Duration::from_millis(failover_cfg.heartbeat_ms.max(1)))
                        {
                            Ok(r) => Some(r),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => break,
                        }
                    } else {
                        match raw_rx.recv() {
                            Ok(r) => Some(r),
                            Err(_) => break,
                        }
                    };
                    if let Some(m) = &mut monitor {
                        match received {
                            Some(Raw::Beat(w)) => m.beat(w),
                            Some(Raw::Done(w)) => m.mark_done(w),
                            _ => {}
                        }
                        while let Some(dead) = m.expired() {
                            stats.nodes_failed += 1;
                            let at = now_model();
                            let down_seq = record(
                                at,
                                TimelineKind::NodeDown {
                                    partition: PartitionId::new(stage_id, dead as u32).to_string(),
                                },
                            );
                            responder.on_node_failure(at);
                            failover_queue.push((dead, down_seq, 0));
                        }
                    }
                    if !failover_queue.is_empty() {
                        let (dead, down_seq, attempts) = failover_queue[0];
                        let completed = run_failover(FailoverRun {
                            dead,
                            down_seq,
                            gate: gate.as_deref(),
                            monitor: monitor.as_ref(),
                            logs: flogs.as_deref(),
                            adapt_senders: &adapt_senders,
                            ctrl_rx: &ctrl_rx,
                            router: &router,
                            diagnoser: &mut diagnoser,
                            responder: &mut responder,
                            obs: obs.as_ref(),
                            record: &record,
                            now_model: &now_model,
                            stage_id,
                            build_source,
                            recall_timeout,
                            recall_token: &mut recall_token,
                            stats: &mut stats,
                        });
                        if completed {
                            failover_queue.remove(0);
                        } else if attempts + 1 >= FAILOVER_ATTEMPTS {
                            // Give up: the producers' retry budget will
                            // exhaust against the dead partition and record
                            // an explicit delivery gap instead of hanging.
                            failover_queue.remove(0);
                        } else {
                            failover_queue[0].2 = attempts + 1;
                        }
                    }
                    let Some(raw) = received else { continue };
                    let (output, at, raw_seq) = match raw {
                        Raw::M1(event) => {
                            stats.m1 += 1;
                            let output = detector.on_m1(&event);
                            let raw_seq = record(
                                event.at,
                                TimelineKind::RawM1 {
                                    partition: event.partition.to_string(),
                                    node: event.node.to_string(),
                                    cost_per_tuple_ms: event.cost_per_tuple_ms,
                                    leaf_wait_ms: event.leaf_wait_ms,
                                    gate_fired: !matches!(output, DetectorOutput::Quiet),
                                },
                            );
                            (output, event.at, raw_seq)
                        }
                        Raw::M2(event) => {
                            stats.m2 += 1;
                            let output = detector.on_m2(&event);
                            let raw_seq = record(
                                event.at,
                                TimelineKind::RawM2 {
                                    producer: event.producer.to_string(),
                                    recipient: event.recipient.to_string(),
                                    cost_per_tuple_ms: event.cost_per_tuple_ms(),
                                    gate_fired: !matches!(output, DetectorOutput::Quiet),
                                },
                            );
                            (output, event.at, raw_seq)
                        }
                        // Liveness traffic was consumed by the monitor
                        // above; it never feeds the detector.
                        Raw::Beat(_) | Raw::Done(_) => continue,
                        Raw::ProducersDone => break,
                    };
                    // Commands to deploy this round, each with the seq of
                    // its diagnosis-level timeline event and whether it
                    // came from the cross-query (tenant) diagnoser.
                    let mut pending: Vec<(AdaptationCommand, u64, bool)> = Vec::new();
                    let imbalance = match output {
                        DetectorOutput::Quiet => None,
                        DetectorOutput::Cost(update) => {
                            let notify_seq = record(
                                at,
                                TimelineKind::DetectorNotify {
                                    scope: update.partition.to_string(),
                                    avg_cost_ms: update.avg_cost_ms,
                                    window_len: update.window_len,
                                    raw_seq,
                                },
                            );
                            // Service plane: the same smoothed cost feeds
                            // the shared cross-query diagnoser, which sees
                            // *all* tenants' placements and may attribute
                            // the shift to a co-resident query.
                            if let Some(t) = &tenancy {
                                if let Some(r) = t.observe_cost(
                                    query,
                                    update.partition,
                                    update.avg_cost_ms,
                                    update.at,
                                ) {
                                    let tenant_seq = record(
                                        update.at,
                                        TimelineKind::TenantRebalance {
                                            query: r.query.to_string(),
                                            induced_by: r.induced_by.to_string(),
                                            node: r.node.to_string(),
                                            proposed: r.proposed.weights().to_vec(),
                                            notify_seq,
                                        },
                                    );
                                    t.deployed(query, r.proposed.clone());
                                    pending.push((
                                        AdaptationCommand {
                                            stage: stage_id,
                                            new_distribution: r.proposed,
                                            retrospective: adapt.response == ResponsePolicy::R1,
                                            at: r.at,
                                        },
                                        tenant_seq,
                                        true,
                                    ));
                                }
                            }
                            diagnoser
                                .on_cost_update(&update)
                                .map(|imb| (imb, notify_seq))
                        }
                        DetectorOutput::Comm(update) => {
                            let notify_seq = record(
                                at,
                                TimelineKind::DetectorNotify {
                                    scope: format!("{}->{}", update.producer, update.recipient),
                                    avg_cost_ms: update.avg_cost_per_tuple_ms,
                                    window_len: update.window_len,
                                    raw_seq,
                                },
                            );
                            diagnoser
                                .on_comm_update(&update)
                                .map(|imb| (imb, notify_seq))
                        }
                    };
                    if let Some((imbalance, notify_seq)) = imbalance {
                        let diagnosis_seq = record(
                            imbalance.at,
                            TimelineKind::Diagnosis {
                                stage: imbalance.stage.to_string(),
                                proposed: imbalance.proposed.weights().to_vec(),
                                costs: imbalance.costs.clone(),
                                notify_seq,
                            },
                        );
                        // R1 estimates progress from tuples *processed*
                        // (what a recall would have to preserve), R2 from
                        // tuples routed — mirroring the simulator.
                        let done = if adapt.response == ResponsePolicy::R1 {
                            processed_total.load(Ordering::Relaxed)
                        } else {
                            routed_total.load(Ordering::Relaxed)
                        };
                        let progress = cast::ratio(done, total_rows.max(1));
                        let (decision, cmd) = responder.on_imbalance(&imbalance, progress);
                        record(
                            imbalance.at,
                            TimelineKind::ResponderDecision {
                                decision: decision.as_str().to_string(),
                                diagnosis_seq,
                            },
                        );
                        if let Some(cmd) = cmd {
                            pending.push((cmd, diagnosis_seq, false));
                        }
                    }
                    for (mut cmd, diagnosis_seq, tenant) in pending {
                        // A diagnosis computed from pre-failure observations
                        // may still weight a dead partition; zero it so no
                        // adaptation resurrects routing to a lost worker.
                        if let Some(m) = &monitor {
                            let weights = cmd.new_distribution.weights();
                            let stale = weights
                                .iter()
                                .enumerate()
                                .any(|(p, &w)| m.is_dead(p) && w > 0.0);
                            if stale {
                                let w: Vec<f64> = weights
                                    .iter()
                                    .enumerate()
                                    .map(|(p, &w)| if m.is_dead(p) { 0.0 } else { w })
                                    .collect();
                                match DistributionVector::new(&w) {
                                    Ok(d) => cmd.new_distribution = d,
                                    // All surviving weight vanished: nothing
                                    // sane to deploy.
                                    Err(_) => continue,
                                }
                            }
                        }
                        diagnoser.set_distribution(cmd.new_distribution.clone());
                        if !cmd.retrospective {
                            // Prospective: swap the routing table; only
                            // future tuples are affected.
                            if router
                                .lock()
                                .apply_distribution(&cmd.new_distribution)
                                .is_ok()
                            {
                                stats.deployed += 1;
                                if tenant {
                                    stats.tenant_rebalances += 1;
                                }
                                record(
                                    cmd.at,
                                    TimelineKind::Deploy {
                                        stage: cmd.stage.to_string(),
                                        weights: cmd.new_distribution.weights().to_vec(),
                                        retrospective: false,
                                        diagnosis_seq,
                                    },
                                );
                                responder.on_deploy_acknowledged(now_model());
                            }
                            continue;
                        }
                        let Some(gate) = gate.as_ref() else { continue };
                        // Retrospective: run the drain-barrier recall.
                        recall_token += 1;
                        let token = recall_token;
                        match gate.begin_pause(recall_timeout) {
                            None => {
                                stats.recalls_aborted += 1;
                            }
                            Some(0) => {
                                // Every producer already finished; the
                                // consumers may exit at any moment, so
                                // the barrier cannot be trusted. The
                                // remaining work drains under the old
                                // distribution.
                                gate.abort_pause();
                                stats.recalls_aborted += 1;
                            }
                            Some(_) => {
                                // Dead workers can never answer the barrier;
                                // address the recall to the survivors only.
                                let targets: Vec<usize> = (0..adapt_senders.len())
                                    .filter(|&p| {
                                        monitor
                                            .as_ref()
                                            .is_none_or(|m| !m.is_dead(p) && !m.is_done(p))
                                    })
                                    .collect();
                                let drained = !targets.is_empty()
                                    && targets
                                        .iter()
                                        .all(|&p| adapt_senders[p].send(Msg::Drain { token }))
                                    && collect_replies(
                                        &ctrl_rx,
                                        token,
                                        targets.len(),
                                        false,
                                        recall_timeout,
                                    )
                                    .is_some();
                                if !drained {
                                    gate.abort_pause();
                                    stats.recalls_aborted += 1;
                                    continue;
                                }
                                let moves = {
                                    let mut r = router.lock();
                                    r.apply_retrospective(&cmd.new_distribution)
                                };
                                let Ok(moves) = moves else {
                                    gate.abort_pause();
                                    stats.recalls_aborted += 1;
                                    continue;
                                };
                                stats.deployed += 1;
                                if tenant {
                                    stats.tenant_rebalances += 1;
                                }
                                let deploy_seq = record(
                                    cmd.at,
                                    TimelineKind::Deploy {
                                        stage: cmd.stage.to_string(),
                                        weights: cmd.new_distribution.weights().to_vec(),
                                        retrospective: true,
                                        diagnosis_seq,
                                    },
                                );
                                let epoch = gate.epoch() + 1;
                                let start_seq = record(
                                    cmd.at,
                                    TimelineKind::RecallStart {
                                        stage: cmd.stage.to_string(),
                                        epoch,
                                        deploy_seq,
                                    },
                                );
                                let bucket_count = router.lock().bucket_count();
                                for &p in &targets {
                                    let outgoing =
                                        moves.outgoing.get(p).cloned().unwrap_or_default();
                                    adapt_senders[p].send(Msg::Migrate {
                                        token,
                                        bucket_count,
                                        outgoing,
                                    });
                                }
                                let replies = collect_replies(
                                    &ctrl_rx,
                                    token,
                                    targets.len(),
                                    true,
                                    recall_timeout,
                                );
                                let (moved, recalled) = replies.unwrap_or((0, 0));
                                stats.state_tuples_migrated += moved;
                                stats.tuples_recalled += recalled;
                                let now = now_model();
                                record(
                                    now,
                                    TimelineKind::RecallFinish {
                                        epoch,
                                        state_tuples_migrated: moved,
                                        tuples_recalled: recalled,
                                        start_seq,
                                    },
                                );
                                responder.on_deploy_acknowledged(now);
                                if replies.is_some() {
                                    stats.recalls_completed += 1;
                                } else {
                                    stats.recalls_aborted += 1;
                                }
                                // Resume the producers even if a reply
                                // timed out: leaving them parked would
                                // deadlock the run instead of surfacing
                                // the failure at join time.
                                gate.resume(epoch);
                            }
                        }
                    }
                }
                // Teardown: surface how much per-stream state the loop
                // accumulated, then evict it so detector/diagnoser maps
                // never outlive the query they monitored.
                if let Some(o) = &obs {
                    o.metrics()
                        .gauge("adapt.tracked_streams_at_teardown")
                        .set(cast::usize_to_f64(
                            detector.tracked_streams() + diagnoser.tracked_cost_entries(),
                        ));
                }
                detector.reset_for_query(query);
                diagnoser.reset_for_query();
                let after = detector.tracked_streams() + diagnoser.tracked_cost_entries();
                debug_assert_eq!(after, 0);
                // Surfaced separately from the pre-eviction gauge so the
                // chaos oracles can assert a chaos-killed worker's streams
                // were actually retired, not merely counted.
                if let Some(o) = &obs {
                    o.metrics()
                        .gauge("adapt.tracked_streams_after_teardown")
                        .set(cast::usize_to_f64(after));
                }
                stats
            })
        };

        // Wait for producers, then consumers, then the adaptivity thread.
        // Every handle is joined even when an earlier one panicked, so a
        // single failed worker cannot leave stray threads running behind
        // an early error return; the first failure is reported after all
        // threads have stopped.
        let mut panicked: Vec<String> = Vec::new();
        for (i, h) in producer_handles.into_iter().enumerate() {
            if h.join().is_err() {
                panicked.push(format!("producer {i}"));
                // A dead producer never sent its end-of-stream markers;
                // without them the consumers would wait forever, because
                // the recall coordinator keeps the channels open.
                for tx in &backstop {
                    tx.send(Msg::Eos {
                        stream: plan.sources[i].stream,
                        source: i,
                    });
                }
            }
        }
        drop(backstop);
        let mut per_partition = Vec::with_capacity(partitions);
        let mut dedup_peak_entries = 0u64;
        for (i, h) in consumer_handles.into_iter().enumerate() {
            match h.join() {
                Ok((processed, peak)) => {
                    per_partition.push(processed);
                    dedup_peak_entries = dedup_peak_entries.max(peak);
                }
                Err(_) => panicked.push(format!("consumer {i}")),
            }
        }
        let _ = raw_tx.send(Raw::ProducersDone);
        drop(raw_tx);
        let stats = match adapt_handle.join() {
            Ok(stats) => stats,
            Err(_) => {
                panicked.push("adaptivity thread".into());
                AdaptStats::default()
            }
        };
        if !panicked.is_empty() {
            return Err(GridError::Execution(format!(
                "worker thread(s) panicked: {}",
                panicked.join(", ")
            )));
        }

        let mut results = Vec::new();
        while let Ok(batch) = result_rx.try_recv() {
            results.extend(batch);
        }
        if resilient {
            // At-least-once transport can double-deliver across a crash
            // seam (a worker flushed results, died before acking, and the
            // retransmission was processed by its successor). Collapse
            // exact duplicates here so the report is effectively-once.
            let mut seen = HashSet::new();
            results.retain(|t: &Tuple| seen.insert((t.seq(), format!("{:?}", t.values()))));
        }
        let final_distribution = router.lock().current_distribution().weights().to_vec();
        let delivery_gaps = std::mem::take(&mut *delivery_gaps.lock());
        Ok(ThreadedReport {
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
            results,
            per_partition_processed: per_partition,
            raw_m1_events: stats.m1,
            raw_m2_events: stats.m2,
            adaptations_deployed: stats.deployed,
            tenant_rebalances: stats.tenant_rebalances,
            recalls_completed: stats.recalls_completed,
            recalls_aborted: stats.recalls_aborted,
            state_tuples_migrated: stats.state_tuples_migrated,
            tuples_recalled: stats.tuples_recalled + restaged_total.load(Ordering::Relaxed),
            nodes_failed: stats.nodes_failed,
            failovers_completed: stats.failovers_completed,
            tuples_retransmitted: retransmitted_total.load(Ordering::Relaxed),
            send_failures: send_failures_total.load(Ordering::Relaxed),
            delivery_gaps,
            log_audits: logs
                .map(|logs| logs.iter().map(SharedRecoveryLog::audit).collect())
                .unwrap_or_default(),
            dedup_peak_entries,
            final_distribution,
            obs: obs.as_ref().map(Obs::report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::{DataType, DistributionVector, Field, QueryId, Schema, SubplanId, Value};
    use gridq_engine::distributed::{
        ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec, StreamKeys,
    };
    use gridq_engine::evaluator::{HashJoinFactory, ServiceCallFactory};
    use gridq_engine::service::{FnService, Service, ServiceRegistry};
    use gridq_engine::table::Table;
    use gridq_engine::Expr;

    fn int_table(name: &str, n: usize) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
            .collect();
        Arc::new(Table::new(name, schema, rows).unwrap())
    }

    fn square() -> Arc<dyn Service> {
        Arc::new(FnService::new(
            "Square",
            vec![DataType::Int],
            DataType::Int,
            1.0,
            |args| Ok(Value::Int(args[0].as_int().unwrap().pow(2))),
        ))
    }

    fn call_plan(table: &Arc<Table>, partitions: usize) -> DistributedPlan {
        let factory = ServiceCallFactory::new(
            table.schema(),
            square(),
            vec![Expr::col(0)],
            "sq",
            false,
            ServiceRegistry::new(),
        );
        DistributedPlan {
            query: QueryId::new(1),
            sources: vec![SourceSpec {
                table: table.name().to_string(),
                node: NodeId::new(0),
                stream: StreamTag::Single,
                scan_cost_ms: 0.4,
            }],
            stages: vec![ParallelStageSpec {
                id: SubplanId::new(1),
                factory: Arc::new(factory),
                nodes: (0..partitions).map(|i| NodeId::new(i as u32 + 1)).collect(),
                exchange: ExchangeSpec {
                    routing: RoutingPolicy::Weighted {
                        initial: DistributionVector::uniform(partitions),
                    },
                    buffer_tuples: 10,
                },
            }],
            collect_node: NodeId::new(0),
        }
    }

    /// A Q2-shaped stateful hash-join plan: build and probe streams hash
    /// partitioned over `bucket_count` buckets on two nodes.
    fn join_plan(
        build: &Arc<Table>,
        probe: &Arc<Table>,
        build_scan_cost_ms: f64,
        probe_scan_cost_ms: f64,
    ) -> DistributedPlan {
        let factory = HashJoinFactory::new(build.schema(), probe.schema(), 0, 0, 0.1, 0.5);
        DistributedPlan {
            query: QueryId::new(2),
            sources: vec![
                SourceSpec {
                    table: build.name().to_string(),
                    node: NodeId::new(0),
                    stream: StreamTag::Build,
                    scan_cost_ms: build_scan_cost_ms,
                },
                SourceSpec {
                    table: probe.name().to_string(),
                    node: NodeId::new(0),
                    stream: StreamTag::Probe,
                    scan_cost_ms: probe_scan_cost_ms,
                },
            ],
            stages: vec![ParallelStageSpec {
                id: SubplanId::new(1),
                factory: Arc::new(factory),
                nodes: vec![NodeId::new(1), NodeId::new(2)],
                exchange: ExchangeSpec {
                    routing: RoutingPolicy::HashBuckets {
                        bucket_count: 16,
                        initial: DistributionVector::uniform(2),
                        keys: StreamKeys {
                            build: Some(0),
                            probe: Some(0),
                            single: None,
                        },
                    },
                    buffer_tuples: 10,
                },
            }],
            collect_node: NodeId::new(0),
        }
    }

    fn catalog(tables: &[&Arc<Table>]) -> Catalog {
        let mut c = Catalog::new();
        for t in tables {
            c.register(Arc::clone(t));
        }
        c
    }

    /// Result tuples as a sorted multiset of value rows (sequence numbers
    /// are renumbered by operators and not comparable across runs).
    fn multiset(tuples: &[Tuple]) -> Vec<String> {
        let mut rows: Vec<String> = tuples.iter().map(|t| format!("{:?}", t.values())).collect();
        rows.sort_unstable();
        rows
    }

    /// The per-block counter publication loses nothing: the processed
    /// counter equals the per-partition totals, and the routed counter
    /// equals the input rows.
    fn assert_counters_balance(report: &ThreadedReport, input_rows: u64) {
        let counters = &report
            .obs
            .as_ref()
            .expect("obs enabled by default")
            .metrics
            .counters;
        let processed: u64 = report.per_partition_processed.iter().sum();
        assert_eq!(counters.get("exec.tuples_processed"), Some(&processed));
        assert_eq!(counters.get("exec.tuples_routed"), Some(&input_rows));
    }

    #[test]
    fn counters_balance_with_held_probes() {
        let build = int_table("b", 60);
        let probe = int_table("p", 300);
        // The build scan is 50x slower per row than the probe scan, so
        // probes reach the consumers before the build phase ends and are
        // held, then replayed, in slices, once it does.
        let report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.01,
                ..Default::default()
            },
        )
        .run(&join_plan(&build, &probe, 5.0, 0.1))
        .unwrap();
        assert_eq!(report.results.len(), 60);
        assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 360);
        assert_counters_balance(&report, 360);
    }

    #[test]
    fn static_run_produces_all_results() {
        let table = int_table("t", 200);
        let plan = call_plan(&table, 2);
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 200);
        assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 200);
        assert_counters_balance(&report, 200);
        assert_eq!(report.adaptations_deployed, 0);
        assert_eq!(report.recalls_completed, 0);
        assert!(report.log_audits.is_empty(), "no recovery logs when off");
        // Spot-check a value.
        let mut values: Vec<i64> = report
            .results
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        values.sort_unstable();
        assert_eq!(values[0], 0);
        assert_eq!(values[199], 199 * 199);
    }

    #[test]
    fn adaptive_run_shifts_load_away_from_perturbed_node() {
        let table = int_table("t", 400);
        let plan = call_plan(&table, 2);
        let mut perturbations = HashMap::new();
        perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::default(),
                cost_scale: 0.01,
                perturbations,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 400);
        assert!(report.adaptations_deployed >= 1, "must adapt: {report:?}");
        // The obs layer must have witnessed every deployed adaptation,
        // with a causal chain back to a detector notification and a raw
        // event, stamped with wall-clock time.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let deploys: Vec<_> = obs
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::Deploy { .. }))
            .collect();
        assert_eq!(deploys.len() as u64, report.adaptations_deployed);
        for deploy in deploys {
            assert!(deploy.wall_ms.is_some(), "threaded events carry wall time");
            let TimelineKind::Deploy { diagnosis_seq, .. } = &deploy.kind else {
                unreachable!()
            };
            let diagnosis = obs
                .events
                .iter()
                .find(|e| e.seq == *diagnosis_seq)
                .expect("diagnosis in timeline");
            let TimelineKind::Diagnosis { notify_seq, .. } = &diagnosis.kind else {
                panic!("deploy must link a diagnosis, got {:?}", diagnosis.kind)
            };
            let notify = obs
                .events
                .iter()
                .find(|e| e.seq == *notify_seq)
                .expect("notification in timeline");
            assert!(matches!(notify.kind, TimelineKind::DetectorNotify { .. }));
        }
        assert_eq!(
            obs.metrics.counters.get("exec.tuples_processed"),
            Some(&400),
            "consumer threads record into the shared registry"
        );
        let tracked = obs
            .metrics
            .gauges
            .get("adapt.tracked_streams_at_teardown")
            .expect("teardown gauge recorded");
        assert!(
            *tracked > 0.0,
            "an adaptive run tracks at least one stream before eviction"
        );
        assert!(
            report.final_distribution[0] > 0.6,
            "router must favour the fast node: {:?}",
            report.final_distribution
        );
        assert!(
            report.per_partition_processed[0] > report.per_partition_processed[1],
            "fast node should process more: {:?}",
            report.per_partition_processed
        );
        assert!(report.raw_m1_events > 0);
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let table = int_table("t", 10);
        let plan = call_plan(&table, 2);
        let bad_configs = [
            ThreadedConfig {
                cost_scale: 0.0,
                ..Default::default()
            },
            ThreadedConfig {
                cost_scale: f64::NAN,
                ..Default::default()
            },
            ThreadedConfig {
                receive_cost_ms: -1.0,
                ..Default::default()
            },
            ThreadedConfig {
                checkpoint_interval: 0,
                ..Default::default()
            },
            ThreadedConfig {
                adaptivity: AdaptivityConfig {
                    detector_window: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
            ThreadedConfig {
                obs: ObsConfig {
                    enabled: true,
                    timeline_capacity: 0,
                },
                ..Default::default()
            },
        ];
        for bad in bad_configs {
            let exec = ThreadedExecutor::new(catalog(&[&table]), bad);
            assert!(
                matches!(exec.run(&plan), Err(GridError::Config(_))),
                "invalid config must be rejected"
            );
        }
    }

    #[test]
    fn panicking_service_yields_error_not_deadlock() {
        let table = int_table("t", 50);
        let factory = ServiceCallFactory::new(
            table.schema(),
            Arc::new(FnService::new(
                "Boom",
                vec![DataType::Int],
                DataType::Int,
                1.0,
                |_| panic!("service crashed"),
            )),
            vec![Expr::col(0)],
            "boom",
            false,
            ServiceRegistry::new(),
        );
        let plan = DistributedPlan {
            query: QueryId::new(3),
            sources: vec![SourceSpec {
                table: table.name().to_string(),
                node: NodeId::new(0),
                stream: StreamTag::Single,
                scan_cost_ms: 0.1,
            }],
            stages: vec![ParallelStageSpec {
                id: SubplanId::new(1),
                factory: Arc::new(factory),
                nodes: vec![NodeId::new(1), NodeId::new(2)],
                exchange: ExchangeSpec {
                    routing: RoutingPolicy::Weighted {
                        initial: DistributionVector::uniform(2),
                    },
                    buffer_tuples: 10,
                },
            }],
            collect_node: NodeId::new(0),
        };
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        // Both consumers die on their first tuple; the run must still
        // join every thread and surface a typed error instead of hanging
        // or poisoning the shared router.
        match exec.run(&plan) {
            Err(GridError::Execution(msg)) => {
                assert!(msg.contains("panicked"), "unexpected message: {msg}")
            }
            other => panic!("expected execution error, got {other:?}"),
        }
    }

    #[test]
    fn stateful_plan_with_r2_is_rejected_but_runs_statically() {
        let build = int_table("b", 20);
        let probe = int_table("p", 20);
        let plan = join_plan(&build, &probe, 0.1, 0.1);
        // Prospective adaptivity on a stateful stage would strand the
        // hash table on the old owners: rejected, like the simulator.
        let exec = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::default(), // R2
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        assert!(matches!(exec.run(&plan), Err(GridError::Config(_))));
        // But the same stateful plan runs fine statically.
        let static_exec = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = static_exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 20);
    }

    #[test]
    fn stateful_r1_run_recalls_and_matches_static() {
        let build = int_table("b", 60);
        let probe = int_table("p", 300);
        // Static baseline for the result multiset.
        let static_report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&join_plan(&build, &probe, 0.1, 0.1))
        .unwrap();
        assert_eq!(static_report.results.len(), 60);

        // Adaptive R1 run with one node perturbed. The probe scan is the
        // bottleneck so producers are still alive when the imbalance is
        // diagnosed, giving the recall something to pause.
        let plan = join_plan(&build, &probe, 1.0, 10.0);
        let mut perturbations = HashMap::new();
        perturbations.insert(NodeId::new(2), Perturbation::CostFactor(10.0));
        let adapt = AdaptivityConfig {
            response: ResponsePolicy::R1,
            ..Default::default()
        };
        let report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.01,
                perturbations,
                checkpoint_interval: 8,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();

        // The run adapted retrospectively at least once and the result
        // multiset is exactly the static one: the recall lost nothing
        // and duplicated nothing.
        assert!(
            report.adaptations_deployed >= 1 && report.recalls_completed >= 1,
            "expected at least one completed recall: {report:?}"
        );
        assert_eq!(multiset(&static_report.results), multiset(&report.results));
        assert!(
            report.state_tuples_migrated > 0,
            "a bucket-map change must migrate hash-table state: {report:?}"
        );
        assert_counters_balance(&report, 360);

        // Ack-log conservation: every recorded tuple is accounted for as
        // pruned (acknowledged), retired (re-delivered by the recall), or
        // still unacknowledged — and the probe log fully drains because
        // the probe producer force-checkpoints at end of stream.
        assert_eq!(report.log_audits.len(), 2);
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert_eq!(
            report.log_audits[1].unacked, 0,
            "probe log must drain: {:?}",
            report.log_audits[1]
        );
        assert!(report.log_audits[0].recorded >= 60);

        // Timeline: every completed recall is bracketed by RecallStart /
        // RecallFinish, and chains RecallFinish -> RecallStart ->
        // Deploy -> Diagnosis -> DetectorNotify -> raw event.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let finishes: Vec<_> = obs
            .events
            .iter()
            .filter(|e| matches!(e.kind, TimelineKind::RecallFinish { .. }))
            .collect();
        assert!(!finishes.is_empty());
        for finish in finishes {
            let TimelineKind::RecallFinish { start_seq, .. } = &finish.kind else {
                unreachable!()
            };
            let start = obs.events.iter().find(|e| e.seq == *start_seq).unwrap();
            let TimelineKind::RecallStart { deploy_seq, .. } = &start.kind else {
                panic!("finish must link a RecallStart, got {:?}", start.kind)
            };
            let deploy = obs.events.iter().find(|e| e.seq == *deploy_seq).unwrap();
            let TimelineKind::Deploy {
                retrospective,
                diagnosis_seq,
                ..
            } = &deploy.kind
            else {
                panic!("start must link a Deploy, got {:?}", deploy.kind)
            };
            assert!(retrospective, "recalled deploys are retrospective");
            let diagnosis = obs.events.iter().find(|e| e.seq == *diagnosis_seq).unwrap();
            let TimelineKind::Diagnosis { notify_seq, .. } = &diagnosis.kind else {
                panic!("deploy must link a Diagnosis, got {:?}", diagnosis.kind)
            };
            let notify = obs.events.iter().find(|e| e.seq == *notify_seq).unwrap();
            let TimelineKind::DetectorNotify { raw_seq, .. } = &notify.kind else {
                panic!("diagnosis must link a notify, got {:?}", notify.kind)
            };
            let raw = obs.events.iter().find(|e| e.seq == *raw_seq).unwrap();
            assert!(matches!(
                raw.kind,
                TimelineKind::RawM1 { .. } | TimelineKind::RawM2 { .. }
            ));
        }
    }

    #[test]
    fn leaf_wait_includes_receive_timeout_slices() {
        // One slow producer (60 model-ms per scan at scale 1.0 = 60 real
        // ms, longer than the consumer's 50 ms receive timeout) and one
        // cheap consumer: almost all of the consumer's life is waiting.
        // Each wait spans a full Timeout slice, which the old code
        // silently discarded — reported leaf-wait was ~10 ms/tuple
        // instead of ~60.
        let table = int_table("t", 8);
        let mut plan = call_plan(&table, 1);
        plan.sources[0].scan_cost_ms = 60.0;
        plan.stages[0].exchange.buffer_tuples = 1;
        let adapt = AdaptivityConfig {
            monitoring_interval_tuples: 4,
            ..Default::default()
        };
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 1.0,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 8);
        assert!(report.raw_m1_events >= 1);
        let obs = report.obs.as_ref().unwrap();
        let max_leaf_wait = obs
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TimelineKind::RawM1 { leaf_wait_ms, .. } => Some(leaf_wait_ms),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(
            max_leaf_wait > 25.0,
            "leaf wait must include timed-out receive slices, got {max_leaf_wait}"
        );
    }

    #[test]
    fn tail_batch_m1_is_flushed_at_eos() {
        // 25 tuples on one partition with an interval of 10: two full
        // batches plus a 5-tuple tail. The old code dropped the tail on
        // the floor, leaving the last tuples unmonitored.
        let table = int_table("t", 25);
        let plan = call_plan(&table, 1);
        let adapt = AdaptivityConfig {
            monitoring_interval_tuples: 10,
            ..Default::default()
        };
        let exec = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.002,
                ..Default::default()
            },
        );
        let report = exec.run(&plan).unwrap();
        assert_eq!(report.results.len(), 25);
        assert_eq!(
            report.raw_m1_events, 3,
            "10 + 10 + tail(5) batches must all be reported"
        );
    }

    /// Drops the first `drops` data batches and duplicates the next
    /// `dups`, then delivers faithfully — a lossy start with a clean
    /// tail, so the retry budget always converges.
    #[derive(Debug)]
    struct FlakyStart {
        drops: u64,
        dups: u64,
        data_calls: AtomicU64,
        ack_calls: AtomicU64,
    }

    impl FlakyStart {
        fn new(drops: u64, dups: u64) -> Self {
            FlakyStart {
                drops,
                dups,
                data_calls: AtomicU64::new(0),
                ack_calls: AtomicU64::new(0),
            }
        }
    }

    impl ChaosHook for FlakyStart {
        fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
            let n = self.data_calls.fetch_add(1, Ordering::Relaxed);
            if n < self.drops {
                NetAction::Drop
            } else if n < self.drops + self.dups {
                NetAction::Duplicate
            } else {
                NetAction::Deliver
            }
        }

        fn on_ack(&self, _source: usize, _worker: usize) -> NetAction {
            // Duplicate the first ack too: the log must absorb it.
            if self.ack_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                NetAction::Duplicate
            } else {
                NetAction::Deliver
            }
        }
    }

    #[test]
    fn dropped_and_duplicated_batches_are_healed_by_retransmission() {
        let table = int_table("t", 200);
        let plan = call_plan(&table, 2);
        let clean = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(FlakyStart::new(4, 4))),
                delivery_retry: RetryPolicy {
                    base_ms: 5.0,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(
            multiset(&clean.results),
            multiset(&report.results),
            "retransmission and dedup must restore the clean multiset"
        );
        assert!(
            report.tuples_retransmitted > 0,
            "dropped windows must be retransmitted: {report:?}"
        );
        assert!(report.delivery_gaps.is_empty(), "nothing was undeliverable");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
            assert_eq!(audit.unacked, 0, "all windows eventually acked: {audit:?}");
        }
        assert!(
            report.log_audits.iter().any(|a| a.acks_duplicate > 0),
            "the duplicated ack must be counted: {:?}",
            report.log_audits
        );
    }

    /// Duplicates every data batch, forever: sustained at-least-once
    /// pressure on the consumer dedup filter.
    #[derive(Debug)]
    struct AlwaysDuplicate;

    impl ChaosHook for AlwaysDuplicate {
        fn on_data(&self, _source: usize, _dest: usize) -> NetAction {
            NetAction::Duplicate
        }
    }

    #[test]
    fn consumer_dedup_memory_is_bounded_by_unacked_windows() {
        let total = 2000usize;
        let table = int_table("t", total);
        let plan = call_plan(&table, 2);
        let clean = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                checkpoint_interval: 8,
                chaos: Some(Arc::new(AlwaysDuplicate)),
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(
            multiset(&clean.results),
            multiset(&report.results),
            "every duplicate must be absorbed"
        );
        assert!(
            report.dedup_peak_entries > 0,
            "resilient runs must track the filter's high-water mark"
        );
        // The filter must stay O(unacked windows), not O(history): each
        // of the 2000 input tuples is delivered twice, so an unbounded
        // filter would end the run holding well over `total` entries.
        // Acks are applied inline at marker processing here, so the live
        // set is a handful of in-flight windows plus block range keys.
        assert!(
            report.dedup_peak_entries < (total / 8) as u64,
            "dedup peak {} must stay far below the {} tuples delivered",
            report.dedup_peak_entries,
            total
        );
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
            assert_eq!(audit.unacked, 0, "all windows eventually acked: {audit:?}");
        }
    }

    /// Drops every data batch to one destination, forever: a dead link.
    #[derive(Debug)]
    struct DeadLinkTo(usize);

    impl ChaosHook for DeadLinkTo {
        fn on_data(&self, _source: usize, dest: usize) -> NetAction {
            if dest == self.0 {
                NetAction::Drop
            } else {
                NetAction::Deliver
            }
        }
    }

    #[test]
    fn exhausted_retries_record_delivery_gaps_instead_of_hanging() {
        let table = int_table("t", 100);
        let plan = call_plan(&table, 2);
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(DeadLinkTo(1))),
                delivery_retry: RetryPolicy {
                    base_ms: 2.0,
                    max_retries: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        // The query completed — degraded, not hung — and says exactly
        // what is missing.
        assert!(
            !report.delivery_gaps.is_empty(),
            "a dead link must surface as a gap: {report:?}"
        );
        assert!(report.delivery_gaps.iter().all(|g| g.dest == 1));
        let gapped: u64 = report.delivery_gaps.iter().map(|g| g.tuples).sum();
        assert!(gapped > 0);
        assert!(report.results.len() < 100, "partition 1's share is missing");
        assert!(!report.results.is_empty(), "partition 0 still answered");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert!(
            report.log_audits.iter().any(|a| a.unacked > 0),
            "the gapped windows stay visibly unacknowledged"
        );
    }

    #[test]
    fn dead_consumer_surfaces_gaps_before_failover_would_fire() {
        // A consumer that dies with failover disabled used to have its
        // push errors silently discarded (`let _ = send(...)`) and the
        // producer then slept out the entire retry/backoff budget against
        // the closed channel before any gap surfaced. Closed-ring pushes
        // are now counted into `send_failures` and the retry loop gaps
        // the destination out immediately.
        let table = int_table("t", 200);
        let plan = call_plan(&table, 2);
        let started = Instant::now();
        let report = ThreadedExecutor::new(
            catalog(&[&table]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                chaos: Some(Arc::new(CrashOnNth {
                    worker: 1,
                    after: 2,
                    calls: AtomicU64::new(0),
                })),
                delivery_retry: RetryPolicy {
                    base_ms: 500.0,
                    max_retries: 6,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        let wall = started.elapsed();
        assert!(
            report.send_failures > 0,
            "pushes into the dead consumer's closed ring are counted: {report:?}"
        );
        assert!(
            !report.delivery_gaps.is_empty(),
            "the dead consumer surfaces as delivery gaps: {report:?}"
        );
        assert!(report.delivery_gaps.iter().all(|g| g.dest == 1));
        assert!(report.results.len() < 200, "partition 1's share is missing");
        assert!(!report.results.is_empty(), "partition 0 still answered");
        // The full budget would be ~30s of backoff (500ms doubling over
        // 6 retries); the fast path must settle in roughly one attempt.
        assert!(
            wall < Duration::from_secs(10),
            "the gap fast path must not sleep out the backoff budget: {wall:?}"
        );
    }

    /// Crashes one worker after it has received `after` messages.
    #[derive(Debug)]
    struct CrashOnNth {
        worker: usize,
        after: u64,
        calls: AtomicU64,
    }

    impl ChaosHook for CrashOnNth {
        fn crash_worker(&self, worker: usize) -> bool {
            worker == self.worker && self.calls.fetch_add(1, Ordering::Relaxed) + 1 == self.after
        }
    }

    #[test]
    // The failover recall assigns the dead partition the literal weight
    // 0.0 (not a computed residue), so bit-exact equality is the
    // property under test.
    #[allow(clippy::float_cmp)]
    fn consumer_crash_fails_over_and_matches_static() {
        let build = int_table("b", 60);
        let probe = int_table("p", 300);
        let plan = join_plan(&build, &probe, 0.1, 0.1);
        let static_report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: AdaptivityConfig::disabled(),
                cost_scale: 0.002,
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();
        assert_eq!(static_report.results.len(), 60);

        // Kill partition 1 on its 10th message — mid-build, while it
        // holds operator state and deferred probe windows.
        let adapt = AdaptivityConfig {
            response: ResponsePolicy::R1,
            ..Default::default()
        };
        let report = ThreadedExecutor::new(
            catalog(&[&build, &probe]),
            ThreadedConfig {
                adaptivity: adapt,
                cost_scale: 0.002,
                checkpoint_interval: 8,
                chaos: Some(Arc::new(CrashOnNth {
                    worker: 1,
                    after: 10,
                    calls: AtomicU64::new(0),
                })),
                delivery_retry: RetryPolicy {
                    base_ms: 20.0,
                    max_retries: 8,
                    ..Default::default()
                },
                failover: FailoverConfig {
                    enabled: true,
                    heartbeat_ms: 20,
                    lease_ms: 300,
                },
                ..Default::default()
            },
        )
        .run(&plan)
        .unwrap();

        assert_eq!(report.nodes_failed, 1, "one death detected: {report:?}");
        assert!(
            report.failovers_completed >= 1,
            "the failover recall must complete: {report:?}"
        );
        assert!(
            report.delivery_gaps.is_empty(),
            "replay + retransmission means nothing is lost: {report:?}"
        );
        assert_eq!(
            multiset(&static_report.results),
            multiset(&report.results),
            "a crashed consumer must not change the result multiset"
        );
        assert_counters_balance(&report, 360);
        for audit in &report.log_audits {
            assert!(audit.conserved(), "log audit must balance: {audit:?}");
        }
        assert_eq!(
            report.final_distribution[1], 0.0,
            "the dead partition keeps zero weight: {:?}",
            report.final_distribution
        );
        // Timeline: the failover links back to the death that caused it.
        let obs = report.obs.as_ref().expect("obs enabled by default");
        let failover = obs
            .events
            .iter()
            .find(|e| matches!(e.kind, TimelineKind::Failover { .. }))
            .expect("a Failover event is recorded");
        let TimelineKind::Failover {
            down_seq, replayed, ..
        } = &failover.kind
        else {
            unreachable!()
        };
        assert!(*replayed > 0, "the dead partition's log entries replay");
        let down = obs
            .events
            .iter()
            .find(|e| e.seq == *down_seq)
            .expect("NodeDown in timeline");
        assert!(matches!(down.kind, TimelineKind::NodeDown { .. }));
    }
}
