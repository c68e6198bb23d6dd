//! The third execution substrate: process-per-node execution over real
//! sockets.
//!
//! The simulator proves the adaptivity architecture in virtual time and
//! the threaded executor proves it against the wall clock inside one
//! address space; this module proves it across an actual network edge.
//! One coordinator process hosts the producers, the shared exchange
//! [`Router`], the recovery logs, and the scripted adaptation driver;
//! `N` evaluator workers — in-process threads or spawned `gridq-node`
//! processes — connect back over loopback TCP or Unix domain sockets
//! and speak the `gridq-net` frame protocol. Everything the threaded
//! executor guarantees (at-least-once delivery with consumer dedup,
//! checkpointed recovery logs, retry/backoff retransmission, the
//! drain–migrate–resume recall) holds here with the mpsc channels
//! replaced by length-prefixed frames on a byte stream.
//!
//! Topology is a star: workers connect to the coordinator's listener
//! and identify themselves with a `Hello` carrying their index and the
//! highest link sequence number they received, so a reconnection after
//! `conn_drop` chaos resumes exactly where the connection died — each
//! side retransmits the outbox suffix the other missed, and the link
//! layer's sequence dedup absorbs the overlap. Within the coordinator,
//! one writer thread per worker drains that worker's per-producer SPSC
//! rings onto the socket (the rings bound producer memory and park
//! producers when a `slow_peer` stops reading), and one reader thread
//! per connection dispatches worker frames (acks, results, recall
//! replies, stray forwards) under the link lock so reconnections can
//! never reorder delivery.
//!
//! The worker side is deliberately single-threaded: read frames, apply
//! link dedup, evaluate tuples, stamp replies into the link outbox, and
//! write them best-effort — a failed write never aborts frame
//! processing, because the outbox retransmits everything the
//! coordinator has not acknowledged once the worker reconnects.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gridq_common::sync::ring::{ring, RingReceiver, RingSender, Waker};
use gridq_common::sync::Mutex;
use gridq_common::wire::{self, put_varint, Reader};
use gridq_common::{
    ChaosHook, DataType, DistributionVector, Field, GridError, NetAction, NodeId, RecallPhase,
    Result, Schema, StallSite, Tuple, Value,
};
use gridq_engine::distributed::{DistributedPlan, Router};
use gridq_engine::evaluator::{
    EvaluatorFactory, HashJoinFactory, PartitionEvaluator, ServiceCallFactory, StreamTag,
};
use gridq_engine::physical::Catalog;
use gridq_engine::service::{FnService, Service, ServiceRegistry};
use gridq_engine::Expr;
use gridq_grid::Perturbation;
use gridq_net::frame::kind;
use gridq_net::link::{self, LinkState, Receive};
use gridq_net::{Addr, Decoder, Frame, Listener, Stream};
use gridq_recovery::{Checkpoint, LogAudit, SharedRecoveryLog};

use crate::dedup::DedupFilter;
use crate::failover::RetryBackoff;
use crate::recall::{ProducerGuard, RecallGate};
use crate::{perturbed, spin_for, DeliveryGap, RetryPolicy, SharedLogs, Staged};

/// Application-level message tags, the first payload byte of every
/// sequenced (`kind::MSG`) frame.
mod tag {
    /// Coordinator -> worker: the worker's whole static configuration.
    pub const CONFIG: u8 = 0;
    /// Coordinator -> worker: one staged tuple block (tuples + markers).
    pub const DATA: u8 = 1;
    /// Coordinator -> worker: one source's end of stream.
    pub const EOS: u8 = 2;
    /// Coordinator -> worker: recall drain barrier.
    pub const DRAIN: u8 = 3;
    /// Coordinator -> worker: recall migration command.
    pub const MIGRATE: u8 = 4;
    /// Coordinator -> worker: a tuple re-delivered by the recall
    /// protocol (migrated state or a recalled held probe).
    pub const MIGRATED: u8 = 5;
    /// Worker -> coordinator: result tuples, back to back to the end of
    /// the payload (encoded one by one as the evaluator emits them).
    pub const RESULTS: u8 = 6;
    /// Worker -> coordinator: a checkpoint acknowledgement.
    pub const ACK: u8 = 7;
    /// Worker -> coordinator: drain barrier reached.
    pub const DRAINED: u8 = 8;
    /// Worker -> coordinator: surrendered operator state and held
    /// probes, for the coordinator to re-route.
    pub const STATE_OUT: u8 = 9;
    /// Worker -> coordinator: migration handled.
    pub const MIGRATE_DONE: u8 = 10;
    /// Worker -> coordinator: all streams exhausted; carries the final
    /// processed count and dedup peak.
    pub const DONE: u8 = 11;
    /// Worker -> coordinator: a retransmitted tuple whose ownership the
    /// worker cannot verify (it has no router); the coordinator routes
    /// it to the current owner.
    pub const STRAY: u8 = 12;
    /// Coordinator -> worker: the run is over, exit cleanly.
    pub const SHUTDOWN: u8 = 13;
    /// Coordinator -> worker: re-insert a state tuple raw (a recall
    /// routed it back to the worker that extracted it).
    pub const REINSERT: u8 = 14;
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

fn put_stream(out: &mut Vec<u8>, s: StreamTag) {
    out.push(match s {
        StreamTag::Single => 0,
        StreamTag::Build => 1,
        StreamTag::Probe => 2,
    });
}

fn get_stream(r: &mut Reader<'_>) -> Result<StreamTag> {
    match r.u8()? {
        0 => Ok(StreamTag::Single),
        1 => Ok(StreamTag::Build),
        2 => Ok(StreamTag::Probe),
        other => Err(GridError::Execution(format!(
            "socket: unknown stream tag {other}"
        ))),
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn get_f64(r: &mut Reader<'_>) -> Result<f64> {
    let b = r.bytes(8)?;
    let arr: [u8; 8] = b
        .try_into()
        .map_err(|_| GridError::Execution("socket: truncated f64".into()))?;
    Ok(f64::from_bits(u64::from_le_bytes(arr)))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    let n = r.varint()? as usize;
    let b = r.bytes(n)?;
    String::from_utf8(b.to_vec())
        .map_err(|_| GridError::Execution("socket: non-utf8 string".into()))
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_varint(out, schema.len() as u64);
    for f in schema.fields() {
        put_str(out, &f.name);
        out.push(match f.data_type {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Str => 2,
            DataType::Bool => 3,
        });
    }
}

fn get_schema(r: &mut Reader<'_>) -> Result<Schema> {
    let n = r.varint()? as usize;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(r)?;
        let dt = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            3 => DataType::Bool,
            other => {
                return Err(GridError::Execution(format!(
                    "socket: unknown data type {other}"
                )))
            }
        };
        fields.push(Field::new(name, dt));
    }
    Ok(Schema::new(fields))
}

fn enc_data(source: usize, retransmit: bool, items: &[Staged]) -> Vec<u8> {
    let mut out = vec![tag::DATA];
    put_varint(&mut out, source as u64);
    out.push(u8::from(retransmit));
    put_varint(&mut out, items.len() as u64);
    for item in items {
        match item {
            Staged::Tuple(stream, tuple) => {
                out.push(0);
                put_stream(&mut out, *stream);
                wire::put_tuple(&mut out, tuple);
            }
            Staged::Marker(cp, epoch) => {
                out.push(1);
                put_varint(&mut out, u64::from(cp.dest));
                put_varint(&mut out, cp.id);
                put_varint(&mut out, *epoch);
            }
        }
    }
    out
}

fn enc_eos(stream: StreamTag, source: usize) -> Vec<u8> {
    let mut out = vec![tag::EOS];
    put_stream(&mut out, stream);
    put_varint(&mut out, source as u64);
    out
}

fn enc_token(t: u8, token: u64) -> Vec<u8> {
    let mut out = vec![t];
    put_varint(&mut out, token);
    out
}

fn enc_migrate(token: u64, bucket_count: Option<u32>, outgoing: &[u32]) -> Vec<u8> {
    let mut out = vec![tag::MIGRATE];
    put_varint(&mut out, token);
    put_varint(&mut out, bucket_count.map_or(0, |b| u64::from(b) + 1));
    put_varint(&mut out, outgoing.len() as u64);
    for b in outgoing {
        put_varint(&mut out, u64::from(*b));
    }
    out
}

/// Encodes `MIGRATED`, `STRAY`, and `REINSERT` payloads: one routed
/// tuple with its stream and originating source.
fn enc_forward(t: u8, stream: StreamTag, source: usize, tuple: &Tuple) -> Vec<u8> {
    let mut out = vec![t];
    put_stream(&mut out, stream);
    put_varint(&mut out, source as u64);
    wire::put_tuple(&mut out, tuple);
    out
}

fn dec_forward(r: &mut Reader<'_>) -> Result<(StreamTag, usize, Tuple)> {
    let stream = get_stream(r)?;
    let source = r.varint()? as usize;
    let tuple = wire::get_tuple(r)?;
    Ok((stream, source, tuple))
}

fn enc_ack(source: usize, cp: Checkpoint, epoch: u64) -> Vec<u8> {
    let mut out = vec![tag::ACK];
    put_varint(&mut out, source as u64);
    put_varint(&mut out, u64::from(cp.dest));
    put_varint(&mut out, cp.id);
    put_varint(&mut out, epoch);
    out
}

fn enc_state_out(entries: &[(StreamTag, usize, Tuple)]) -> Vec<u8> {
    let mut out = vec![tag::STATE_OUT];
    put_varint(&mut out, entries.len() as u64);
    for (stream, source, tuple) in entries {
        put_stream(&mut out, *stream);
        put_varint(&mut out, *source as u64);
        wire::put_tuple(&mut out, tuple);
    }
    out
}

fn enc_done(processed: u64, dedup_peak: u64) -> Vec<u8> {
    let mut out = vec![tag::DONE];
    put_varint(&mut out, processed);
    put_varint(&mut out, dedup_peak);
    out
}

// ---------------------------------------------------------------------------
// Stage specification that crosses the process boundary.
// ---------------------------------------------------------------------------

/// Resolves a service name (plus its modelled per-call cost) to a
/// [`Service`] implementation. Service *code* cannot cross a process
/// boundary, so the stage spec carries the name and each worker — the
/// coordinator's in-process threads and the `gridq-node` binary alike —
/// reconstructs the implementation locally.
pub type ServiceResolver = Arc<dyn Fn(&str, f64) -> Option<Arc<dyn Service>> + Send + Sync>;

/// The resolver for the repo's standard benchmark workload: the
/// `Square` analysis service every substrate's Q1 plan invokes. The
/// `gridq-node` binary, the chaos harness, and the parity tests all
/// resolve through this one function so a spawned process computes
/// byte-identical results to an in-process thread.
pub fn standard_resolver() -> ServiceResolver {
    Arc::new(|name: &str, cost_ms: f64| -> Option<Arc<dyn Service>> {
        if name != "Square" {
            return None;
        }
        Some(Arc::new(FnService::new(
            "Square",
            vec![DataType::Int],
            DataType::Int,
            cost_ms,
            |args| {
                let v = args[0]
                    .as_int()
                    .ok_or_else(|| GridError::Execution("Square expects an Int".into()))?;
                Ok(Value::Int(v.saturating_mul(v)))
            },
        )))
    })
}

/// A serializable description of the single parallel stage, shipped to
/// every worker in its `CONFIG` frame. The two variants cover the
/// workloads the repo's plans use: Q1's per-tuple service call and Q2's
/// partitioned hash join.
#[derive(Debug, Clone)]
pub enum WireStageSpec {
    /// One service invocation per tuple (stateless).
    ServiceCall {
        /// Schema of the stage input.
        input_schema: Schema,
        /// Service name, resolved by each worker's [`ServiceResolver`].
        service: String,
        /// Modelled per-call cost in milliseconds.
        service_cost_ms: f64,
        /// Input columns passed as service arguments.
        arg_cols: Vec<usize>,
        /// Name of the output column holding the service result.
        output_name: String,
        /// Whether input columns are kept alongside the result.
        keep_input: bool,
    },
    /// A partitioned hash join (stateful).
    HashJoin {
        /// Schema of the build input.
        build_schema: Schema,
        /// Schema of the probe input.
        probe_schema: Schema,
        /// Join key column in the build schema.
        build_key: usize,
        /// Join key column in the probe schema.
        probe_key: usize,
        /// Modelled per-build-tuple cost in milliseconds.
        build_cost_ms: f64,
        /// Modelled per-probe-tuple cost in milliseconds.
        probe_cost_ms: f64,
    },
}

impl WireStageSpec {
    /// Whether the stage accumulates operator state (mirrors
    /// [`EvaluatorFactory::stateful`]).
    pub fn stateful(&self) -> bool {
        matches!(self, WireStageSpec::HashJoin { .. })
    }

    /// Serializes the spec into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireStageSpec::ServiceCall {
                input_schema,
                service,
                service_cost_ms,
                arg_cols,
                output_name,
                keep_input,
            } => {
                out.push(0);
                put_schema(out, input_schema);
                put_str(out, service);
                put_f64(out, *service_cost_ms);
                put_varint(out, arg_cols.len() as u64);
                for c in arg_cols {
                    put_varint(out, *c as u64);
                }
                put_str(out, output_name);
                out.push(u8::from(*keep_input));
            }
            WireStageSpec::HashJoin {
                build_schema,
                probe_schema,
                build_key,
                probe_key,
                build_cost_ms,
                probe_cost_ms,
            } => {
                out.push(1);
                put_schema(out, build_schema);
                put_schema(out, probe_schema);
                put_varint(out, *build_key as u64);
                put_varint(out, *probe_key as u64);
                put_f64(out, *build_cost_ms);
                put_f64(out, *probe_cost_ms);
            }
        }
    }

    /// Deserializes a spec from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<WireStageSpec> {
        match r.u8()? {
            0 => {
                let input_schema = get_schema(r)?;
                let service = get_str(r)?;
                let service_cost_ms = get_f64(r)?;
                let n = r.varint()? as usize;
                let mut arg_cols = Vec::with_capacity(n);
                for _ in 0..n {
                    arg_cols.push(r.varint()? as usize);
                }
                let output_name = get_str(r)?;
                let keep_input = r.u8()? != 0;
                Ok(WireStageSpec::ServiceCall {
                    input_schema,
                    service,
                    service_cost_ms,
                    arg_cols,
                    output_name,
                    keep_input,
                })
            }
            1 => Ok(WireStageSpec::HashJoin {
                build_schema: get_schema(r)?,
                probe_schema: get_schema(r)?,
                build_key: r.varint()? as usize,
                probe_key: r.varint()? as usize,
                build_cost_ms: get_f64(r)?,
                probe_cost_ms: get_f64(r)?,
            }),
            other => Err(GridError::Execution(format!(
                "socket: unknown stage spec variant {other}"
            ))),
        }
    }

    /// Builds the partition evaluator for worker `index`.
    pub fn build(
        &self,
        index: u32,
        services: &ServiceResolver,
    ) -> Result<Box<dyn PartitionEvaluator>> {
        match self {
            WireStageSpec::ServiceCall {
                input_schema,
                service,
                service_cost_ms,
                arg_cols,
                output_name,
                keep_input,
            } => {
                let svc = services(service, *service_cost_ms).ok_or_else(|| {
                    GridError::Config(format!("socket: worker cannot resolve service {service:?}"))
                })?;
                let args = arg_cols.iter().map(|&c| Expr::col(c)).collect();
                Ok(ServiceCallFactory::new(
                    input_schema,
                    svc,
                    args,
                    output_name,
                    *keep_input,
                    ServiceRegistry::new(),
                )
                .create(index))
            }
            WireStageSpec::HashJoin {
                build_schema,
                probe_schema,
                build_key,
                probe_key,
                build_cost_ms,
                probe_cost_ms,
            } => Ok(HashJoinFactory::new(
                build_schema,
                probe_schema,
                *build_key,
                *probe_key,
                *build_cost_ms,
                *probe_cost_ms,
            )
            .create(index)),
        }
    }
}

// ---------------------------------------------------------------------------
// Public configuration.
// ---------------------------------------------------------------------------

/// Which socket family carries the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketTransport {
    /// Unix domain sockets under the temp dir (no ports; CI default).
    Unix,
    /// Loopback TCP with an ephemeral port.
    Tcp,
}

/// How evaluator workers are launched.
#[derive(Debug, Clone)]
pub enum WorkerLaunch {
    /// Threads inside the coordinator process, speaking the same socket
    /// protocol as external processes (the protocol is what is under
    /// test; the address space is incidental).
    InProcess,
    /// One spawned OS process per worker, started as
    /// `<program> --addr <addr> --index <i>`.
    Spawn {
        /// Path to the worker binary (typically `gridq-node`).
        program: PathBuf,
    },
}

/// One scripted adaptation: once `after_routed` tuples have been routed,
/// deploy `weights` — prospectively (R2) or via the full retrospective
/// recall (R1). The socket substrate scripts its adaptations instead of
/// running the monitoring/diagnosis loop: the adaptivity *decision*
/// stack is already exercised by the other substrates, and a scripted
/// trigger makes the cross-substrate parity tests deterministic.
#[derive(Debug, Clone)]
pub struct ScriptedAdaptation {
    /// Routed-tuple threshold that triggers the deployment.
    pub after_routed: u64,
    /// The distribution weights to deploy.
    pub weights: Vec<f64>,
    /// `true` runs the drain–migrate–resume recall (required for
    /// stateful stages); `false` swaps the routing prospectively.
    pub retrospective: bool,
}

/// Configuration of a socket-substrate execution.
pub struct SocketConfig {
    /// Socket family (Unix domain by default where available).
    pub transport: SocketTransport,
    /// Worker launch mode.
    pub launch: WorkerLaunch,
    /// The stage specification shipped to workers.
    pub stage: WireStageSpec,
    /// Service resolver used by in-process workers (and by the
    /// coordinator to validate the spec).
    pub services: ServiceResolver,
    /// Multiplier from model milliseconds to real milliseconds.
    pub cost_scale: f64,
    /// Per-tuple receive cost in model milliseconds.
    pub receive_cost_ms: f64,
    /// Producers emit a recovery-log checkpoint marker after this many
    /// tuples per destination (logging runs only).
    pub checkpoint_interval: usize,
    /// Recall barrier/reply timeout in wall-clock milliseconds.
    pub recall_timeout_ms: u64,
    /// Delivery retry/backoff policy for unacknowledged windows.
    pub delivery_retry: RetryPolicy,
    /// Fault-injection hook. Installing one switches the run into
    /// resilient mode (recovery logs, window-atomic flushes, dedup).
    pub chaos: Option<Arc<dyn ChaosHook>>,
    /// Scripted adaptations, deployed in `after_routed` order.
    pub adaptations: Vec<ScriptedAdaptation>,
    /// Per-node perturbations, applied as real extra work on workers.
    pub perturbations: HashMap<NodeId, Perturbation>,
}

impl SocketConfig {
    /// A default configuration over the given stage spec and resolver:
    /// Unix sockets (TCP where Unix sockets are unavailable),
    /// in-process workers, and the threaded executor's cost defaults.
    pub fn new(stage: WireStageSpec, services: ServiceResolver) -> Self {
        SocketConfig {
            transport: if cfg!(unix) {
                SocketTransport::Unix
            } else {
                SocketTransport::Tcp
            },
            launch: WorkerLaunch::InProcess,
            stage,
            services,
            cost_scale: 0.02,
            receive_cost_ms: 1.0,
            checkpoint_interval: 50,
            recall_timeout_ms: 30_000,
            delivery_retry: RetryPolicy::default(),
            chaos: None,
            adaptations: Vec::new(),
            perturbations: HashMap::new(),
        }
    }

    /// Rejects configurations that would hang or corrupt a run.
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
        for a in &self.adaptations {
            if a.weights.is_empty() {
                return Err(GridError::Config(
                    "scripted adaptation has no weights".into(),
                ));
            }
            if a.weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
                return Err(GridError::Config(
                    "scripted adaptation weights must be finite and non-negative".into(),
                ));
            }
            if a.weights.iter().sum::<f64>() <= 0.0 {
                return Err(GridError::Config(
                    "scripted adaptation weights must have positive sum".into(),
                ));
            }
        }
        Ok(())
    }
}

/// What a socket-substrate execution measured. Field-for-field
/// comparable with `ThreadedReport` where the substrates share
/// semantics; socket-only telemetry (reconnects) is additive.
#[derive(Debug, Clone, Default)]
pub struct SocketReport {
    /// Wall-clock duration of the run, milliseconds.
    pub wall_ms: f64,
    /// Result tuples collected.
    pub results: Vec<Tuple>,
    /// Input tuples processed per partition.
    pub per_partition_processed: Vec<u64>,
    /// Adaptations deployed into the router.
    pub adaptations_deployed: u64,
    /// Retrospective recalls that ran the full protocol.
    pub recalls_completed: u64,
    /// Retrospective recalls abandoned before deploying.
    pub recalls_aborted: u64,
    /// Operator-state tuples shipped between partitions by recalls.
    pub state_tuples_migrated: u64,
    /// In-flight tuples re-routed by recalls (held tuples recalled from
    /// workers plus staged buffers re-routed by producers).
    pub tuples_recalled: u64,
    /// Tuples retransmitted from recovery logs by the retry epilogue.
    pub tuples_retransmitted: u64,
    /// Windows left undelivered after the retry budget ran out.
    pub delivery_gaps: Vec<DeliveryGap>,
    /// Data-plane pushes that failed because a worker's ring closed,
    /// counted in tuples.
    pub send_failures: u64,
    /// Conservation audit of each source's recovery log (logging runs
    /// only; indexed like `DistributedPlan::sources`).
    pub log_audits: Vec<LogAudit>,
    /// High-water mark of live worker dedup-filter entries, maximised
    /// over workers — bounded by unacknowledged windows, not input size.
    pub dedup_peak_entries: u64,
    /// The final routing distribution.
    pub final_distribution: Vec<f64>,
    /// Worker connections re-established after a drop (0 on a healthy
    /// run; `conn_drop` chaos drives it up).
    pub reconnects: u64,
}

/// Parses an `Addr` from its `Display` form (`tcp:HOST:PORT` or
/// `unix:PATH`), the format `gridq-node` receives on its command line.
pub fn parse_addr(s: &str) -> Result<Addr> {
    if let Some(rest) = s.strip_prefix("tcp:") {
        return Ok(Addr::Tcp(rest.to_string()));
    }
    if let Some(rest) = s.strip_prefix("unix:") {
        return Ok(Addr::Unix(PathBuf::from(rest)));
    }
    Err(GridError::Config(format!(
        "socket: address {s:?} is neither tcp:HOST:PORT nor unix:PATH"
    )))
}

fn write_frame(conn: &mut Stream, frame: &Frame) -> std::io::Result<()> {
    conn.write_all(&frame.encode())?;
    conn.flush()
}

// ---------------------------------------------------------------------------
// Coordinator: per-worker writer thread.
// ---------------------------------------------------------------------------

/// Blocks each producer may stage per worker before it parks.
const RING_BLOCKS: usize = 8;

/// Safety-net park bound: every push and command wakes an idle writer.
const WRITER_PARK: Duration = Duration::from_millis(2);

/// Control commands for one worker's writer thread.
enum WCtl {
    /// A (re)established connection, plus the worker's advertised
    /// `last_received` from its hello: retransmit past it and adopt the
    /// stream.
    Conn { stream: Stream, peer_last: u64 },
    /// Send one control payload (sequenced, outbox-backed).
    Msg(Vec<u8>),
    /// Send the worker's CONFIG payload like `Msg`, then confirm on the
    /// channel that it holds its sequence number.
    Config(Vec<u8>, Sender<()>),
    /// Drain the data rings completely, then send the payload — used
    /// for the recall barrier (and the final shutdown), which must
    /// trail every data block staged before it.
    Barrier(Vec<u8>),
    /// The reader owes the worker a pure ack (outbox relief).
    AckNow,
    /// Stop the writer.
    Shutdown,
}

/// A writer's control address. Every send wakes the writer.
#[derive(Clone)]
struct WriterTx {
    tx: Sender<WCtl>,
    waker: Arc<Waker>,
}

impl WriterTx {
    /// Sends a command; returns whether the writer still exists.
    fn send(&self, ctl: WCtl) -> bool {
        let ok = self.tx.send(ctl).is_ok();
        self.waker.wake();
        ok
    }
}

/// A producer's data edge to one writer. Every push wakes the writer.
struct DataTx {
    ring: RingSender<Vec<u8>>,
    waker: Arc<Waker>,
}

impl DataTx {
    /// Pushes one block, parking while the ring is full; `Err` returns
    /// it once the writer is gone.
    fn push(&self, payload: Vec<u8>) -> std::result::Result<(), Vec<u8>> {
        let res = self.ring.push(payload);
        self.waker.wake();
        res
    }
}

/// A chaos seam that fired on one data frame: `conn_drop` or
/// `partial_write`.
#[derive(Clone, Copy)]
enum Seam {
    Drop,
    Chunk,
}

struct WriterState {
    worker: usize,
    link: Arc<Mutex<LinkState>>,
    chaos: Option<Arc<dyn ChaosHook>>,
    /// One data ring per producer, drained round-robin.
    rings: Vec<RingReceiver<Vec<u8>>>,
    waker: Arc<Waker>,
    conn: Option<Stream>,
    /// Encoded frames of the batch being written, reused across sweeps.
    out: Vec<u8>,
}

impl WriterState {
    /// Stamps `payloads` into the link outbox under one lock and, if a
    /// connection is live, writes their frames with one `write_all` +
    /// `flush`. The stamps happen unconditionally: a failed or skipped
    /// write leaves the frames in the outbox, and the next
    /// reconnection's `retransmit_after` delivers them. `data` gates the
    /// chaos seams (data frames only, like the threaded executor's
    /// injection), consulted once per frame while connected. A seam ends
    /// the batch: the frames before it are written, then it applies.
    fn send(&mut self, payloads: impl IntoIterator<Item = Vec<u8>>, data: bool) {
        let mut payloads = payloads.into_iter().peekable();
        while payloads.peek().is_some() {
            let mut seam = None;
            let mut link = self.link.lock();
            for payload in payloads.by_ref() {
                let at = self.out.len();
                if data && self.conn.is_some() {
                    if let Some(c) = &self.chaos {
                        if c.conn_drop(self.worker) {
                            seam = Some((at, Seam::Drop));
                        } else if c.partial_write(self.worker) {
                            seam = Some((at, Seam::Chunk));
                        }
                    }
                }
                let frame = link.stamp_retained(kind::MSG, payload);
                if self.conn.is_some() {
                    frame.encode_into(&mut self.out);
                }
                if seam.is_some() {
                    break;
                }
            }
            drop(link);
            self.write_out(seam);
        }
    }

    /// Writes the batch in `out` outside the link lock, so a stalled peer
    /// never blocks the reader, applying a seam at its offset.
    fn write_out(&mut self, seam: Option<(usize, Seam)>) {
        if let Some(conn) = &mut self.conn {
            let cut = seam.map_or(self.out.len(), |(at, _)| at);
            let mut res = conn.write_all(&self.out[..cut]);
            match seam {
                // Tear the connection down mid-stream: the worker sees
                // EOF, reconnects, and the handshake retransmits this
                // frame and everything unacknowledged before it.
                Some((_, Seam::Drop)) => {
                    let _ = conn.shutdown_both();
                    res = Err(std::io::ErrorKind::ConnectionAborted.into());
                }
                // Deliberately tiny writes with a flush after each: the
                // worker's incremental decoder must reassemble headers
                // and payloads split at arbitrary byte boundaries.
                Some((_, Seam::Chunk)) => {
                    for chunk in self.out[cut..].chunks(7) {
                        res = res.and_then(|()| conn.write_all(chunk).and_then(|()| conn.flush()));
                    }
                }
                None => {}
            }
            if res.and_then(|()| conn.flush()).is_err() {
                self.conn = None;
            }
        }
        self.out.clear();
    }

    /// Ships every ready ring block as one coalesced write; returns
    /// whether anything was sent. Round-robin passes, at most one ring's
    /// capacity, keep the writer responsive to control commands.
    fn sweep_rings(&mut self) -> bool {
        let mut blocks = Vec::new();
        for _ in 0..RING_BLOCKS {
            let before = blocks.len();
            blocks.extend(self.rings.iter().filter_map(RingReceiver::pop));
            if blocks.len() == before {
                break;
            }
        }
        let wrote = !blocks.is_empty();
        self.send(blocks, true);
        wrote
    }

    /// Handles one control command; returns `false` to stop.
    fn handle(&mut self, ctl: WCtl) -> bool {
        match ctl {
            WCtl::Conn { stream, peer_last } => {
                for f in self.link.lock().retransmit_after(peer_last) {
                    f.encode_into(&mut self.out);
                }
                self.conn = Some(stream);
                self.write_out(None);
            }
            WCtl::Msg(payload) => self.send([payload], false),
            WCtl::Config(payload, stamped) => {
                self.send([payload], false);
                let _ = stamped.send(());
            }
            WCtl::Barrier(payload) => {
                // The barrier must trail every staged block. Producers
                // are parked (recall) or finished (shutdown) when a
                // barrier is issued, so the rings are quiescent and this
                // drain terminates.
                while self.sweep_rings() {}
                self.send([payload], false);
            }
            WCtl::AckNow => {
                // Only send when a connection is live: the ack frame is
                // unsequenced and would otherwise silently reset the
                // received-since-ack debt without relieving the peer.
                if self.conn.is_some() {
                    self.link.lock().ack_frame().encode_into(&mut self.out);
                    self.write_out(None);
                }
            }
            WCtl::Shutdown => return false,
        }
        true
    }
}

/// Queues each worker's CONFIG on its writer and waits until every
/// writer has stamped it. Producers must not start before this returns:
/// the writer drains control, then sweeps the data rings, so a block
/// pushed between the two would be stamped ahead of CONFIG, and the
/// worker exits on any frame that precedes its CONFIG.
fn send_configs(wctls: &[WriterTx], configs: Vec<Vec<u8>>) -> Result<()> {
    let exited = || GridError::Execution("socket: a writer exited before stamping CONFIG".into());
    let (stamped_tx, stamped_rx) = channel();
    for (wctl, cfg) in wctls.iter().zip(configs) {
        if !wctl.send(WCtl::Config(cfg, stamped_tx.clone())) {
            return Err(exited());
        }
    }
    drop(stamped_tx);
    for _ in wctls {
        stamped_rx.recv().map_err(|_| exited())?;
    }
    Ok(())
}

fn writer_loop(mut st: WriterState, ctl: Receiver<WCtl>) {
    // An idle pass registers the writer on its waker and polls both
    // planes once more; only a second idle pass parks. A push or command
    // that lands between a poll and the park therefore still wakes it.
    let mut registered = false;
    loop {
        // Control first, exhaustively: a reconnection or barrier must
        // not wait behind a long data backlog.
        let busy = match ctl.try_recv() {
            Ok(c) => {
                if !st.handle(c) {
                    return;
                }
                true
            }
            Err(TryRecvError::Empty) => st.sweep_rings(),
            Err(TryRecvError::Disconnected) => return,
        };
        if !busy && !registered {
            st.waker.register();
        } else if registered {
            if !busy {
                thread::park_timeout(WRITER_PARK);
            }
            st.waker.clear();
        }
        registered = !busy && !registered;
    }
}

// ---------------------------------------------------------------------------
// Coordinator: per-connection reader thread.
// ---------------------------------------------------------------------------

/// What the coordinator's main loop consumes.
enum Event {
    Results(Vec<Tuple>),
    Done {
        worker: usize,
        processed: u64,
        dedup_peak: u64,
    },
}

/// Recall-protocol replies routed to the scripted-adaptation driver.
enum Reply {
    Drained {
        token: u64,
    },
    MigrateDone {
        token: u64,
    },
    StateOut {
        worker: usize,
        entries: Vec<(StreamTag, usize, Tuple)>,
    },
}

/// Everything a reader thread needs to dispatch worker frames. Cloned
/// per connection life; the `link` is shared with the worker's writer
/// and with successor readers, so frame processing under its lock is
/// totally ordered across reconnections.
#[derive(Clone)]
struct ReaderCtx {
    worker: usize,
    link: Arc<Mutex<LinkState>>,
    logs: Option<SharedLogs>,
    router: Arc<Mutex<Router>>,
    chaos: Option<Arc<dyn ChaosHook>>,
    writers: Vec<WriterTx>,
    events: Sender<Event>,
    replies: Sender<Reply>,
    shutdown: Arc<AtomicBool>,
    scale: f64,
}

/// Dispatches one fresh application payload from worker `ctx.worker`.
/// Called with the link lock held, which orders dispatch across
/// reconnections; the lock order is strictly link -> router/logs, and
/// no thread takes them in the other order.
fn dispatch(ctx: &ReaderCtx, payload: &[u8]) -> Result<()> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        tag::RESULTS => {
            let mut tuples = Vec::new();
            while !r.is_empty() {
                tuples.push(wire::get_tuple(&mut r)?);
            }
            let _ = ctx.events.send(Event::Results(tuples));
        }
        tag::ACK => {
            let source = r.varint()? as usize;
            let dest = u32::try_from(r.varint()?)
                .map_err(|_| GridError::Execution("socket: ack dest overflow".into()))?;
            let id = r.varint()?;
            let epoch = r.varint()?;
            if let Some(logs) = &ctx.logs {
                if source < logs.len() {
                    match ctx
                        .chaos
                        .as_ref()
                        .map_or(NetAction::Deliver, |c| c.on_ack(source, ctx.worker))
                    {
                        NetAction::Drop => {}
                        NetAction::Duplicate => {
                            let _ = logs[source].acknowledge(dest, id, epoch);
                            let _ = logs[source].acknowledge(dest, id, epoch);
                        }
                        NetAction::DelayMs(extra) => {
                            if extra.is_finite() && extra > 0.0 {
                                spin_for(extra, ctx.scale);
                            }
                            let _ = logs[source].acknowledge(dest, id, epoch);
                        }
                        NetAction::Deliver => {
                            let _ = logs[source].acknowledge(dest, id, epoch);
                        }
                    }
                }
            }
        }
        tag::DRAINED => {
            let token = r.varint()?;
            // A swallowed reply models a worker crashed mid-recall: the
            // driver's barrier times out and the recall aborts pre-swap.
            if ctx
                .chaos
                .as_ref()
                .is_none_or(|c| c.on_recall_ctrl(RecallPhase::Drain, ctx.worker))
            {
                let _ = ctx.replies.send(Reply::Drained { token });
            }
        }
        tag::MIGRATE_DONE => {
            let token = r.varint()?;
            if ctx
                .chaos
                .as_ref()
                .is_none_or(|c| c.on_recall_ctrl(RecallPhase::Migrate, ctx.worker))
            {
                let _ = ctx.replies.send(Reply::MigrateDone { token });
            }
        }
        tag::STATE_OUT => {
            let n = r.varint()? as usize;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let stream = get_stream(&mut r)?;
                let source = r.varint()? as usize;
                let tuple = wire::get_tuple(&mut r)?;
                entries.push((stream, source, tuple));
            }
            let _ = ctx.replies.send(Reply::StateOut {
                worker: ctx.worker,
                entries,
            });
        }
        tag::STRAY => {
            // A retransmitted tuple the worker cannot verify ownership
            // of. Route it under the live distribution; the log entry
            // follows its tuple so a later crash still finds it
            // replayable at the owner.
            let (stream, source, tuple) = dec_forward(&mut r)?;
            let owner = {
                let mut router = ctx.router.lock();
                router.route(stream, &tuple).unwrap_or(ctx.worker as u32)
            } as usize;
            if owner != ctx.worker {
                if let Some(logs) = &ctx.logs {
                    if source < logs.len() {
                        let seq = tuple.seq();
                        let _ = logs[source].migrate_matching(
                            ctx.worker as u32,
                            owner as u32,
                            |(s, t)| *s == stream && t.seq() == seq,
                        );
                    }
                }
            }
            let _ = ctx.writers[owner].send(WCtl::Msg(enc_forward(
                tag::MIGRATED,
                stream,
                source,
                &tuple,
            )));
        }
        tag::DONE => {
            let processed = r.varint()?;
            let dedup_peak = r.varint()?;
            let _ = ctx.events.send(Event::Done {
                worker: ctx.worker,
                processed,
                dedup_peak,
            });
        }
        other => {
            return Err(GridError::Execution(format!(
                "socket: unknown worker frame tag {other}"
            )))
        }
    }
    Ok(())
}

/// Reads one connection life: feed the decoder, apply link dedup, and
/// dispatch fresh frames under the link lock. Exits on EOF, a socket
/// error, a framing error, or the shutdown flag; the worker reconnects
/// and a successor reader takes over with the same link state.
fn reader_loop(ctx: ReaderCtx, mut conn: Stream, mut dec: Decoder, leftovers: Vec<Frame>) {
    let process = |ctx: &ReaderCtx, frames: &[Frame]| -> bool {
        if frames.is_empty() {
            return true;
        }
        let mut link = ctx.link.lock();
        for f in frames {
            if link.on_receive(f) == Receive::Fresh && dispatch(ctx, &f.payload).is_err() {
                return false;
            }
        }
        if link.owes_ack() {
            let _ = ctx.writers[ctx.worker].send(WCtl::AckNow);
        }
        true
    };
    if !process(&ctx, &leftovers) {
        return;
    }
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let n = match conn.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let frames = match dec.feed(&buf[..n]) {
            Ok(f) => f,
            Err(_) => return,
        };
        if !process(&ctx, &frames) {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// The CONFIG payload: everything a worker needs before the first block.
// ---------------------------------------------------------------------------

/// The static per-worker configuration, sent as the first sequenced
/// frame on every worker's link (command FIFO guarantees it precedes all
/// data). Carried by value across the process boundary so a spawned
/// `gridq-node` needs nothing but its command line and this frame.
struct WireConfig {
    worker: usize,
    resilient: bool,
    logging: bool,
    hash_routing: bool,
    cost_scale: f64,
    receive_cost_ms: f64,
    /// Pre-read stall injected by `slow_peer` chaos, resolved on the
    /// coordinator so spawned processes need no chaos hook of their own.
    read_stall_ms: f64,
    /// Perturbation resolved to a linear form (`base * factor + extra`):
    /// every [`Perturbation`] variant is linear in the base cost, so the
    /// worker reproduces `perturbed()` exactly without carrying the enum.
    cost_factor: f64,
    cost_extra_ms: f64,
    eos_needed: usize,
    build_eos_needed: usize,
    build_source: Option<usize>,
    /// The plan's exchange block size: the held-probe replay ships a
    /// RESULTS frame whenever this many rows are pending.
    block_tuples: usize,
    stage: WireStageSpec,
}

impl WireConfig {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![tag::CONFIG];
        put_varint(&mut out, self.worker as u64);
        out.push(u8::from(self.resilient));
        out.push(u8::from(self.logging));
        out.push(u8::from(self.hash_routing));
        put_f64(&mut out, self.cost_scale);
        put_f64(&mut out, self.receive_cost_ms);
        put_f64(&mut out, self.read_stall_ms);
        put_f64(&mut out, self.cost_factor);
        put_f64(&mut out, self.cost_extra_ms);
        put_varint(&mut out, self.eos_needed as u64);
        put_varint(&mut out, self.build_eos_needed as u64);
        put_varint(&mut out, self.build_source.map_or(0, |b| b as u64 + 1));
        put_varint(&mut out, self.block_tuples as u64);
        self.stage.encode(&mut out);
        out
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireConfig> {
        let worker = r.varint()? as usize;
        let resilient = r.u8()? != 0;
        let logging = r.u8()? != 0;
        let hash_routing = r.u8()? != 0;
        let cost_scale = get_f64(r)?;
        let receive_cost_ms = get_f64(r)?;
        let read_stall_ms = get_f64(r)?;
        let cost_factor = get_f64(r)?;
        let cost_extra_ms = get_f64(r)?;
        let eos_needed = r.varint()? as usize;
        let build_eos_needed = r.varint()? as usize;
        let build_source = match r.varint()? {
            0 => None,
            b => Some(b as usize - 1),
        };
        let block_tuples = r.varint()? as usize;
        let stage = WireStageSpec::decode(r)?;
        Ok(WireConfig {
            worker,
            resilient,
            logging,
            hash_routing,
            cost_scale,
            receive_cost_ms,
            read_stall_ms,
            cost_factor,
            cost_extra_ms,
            eos_needed,
            build_eos_needed,
            build_source,
            block_tuples,
            stage,
        })
    }
}

// ---------------------------------------------------------------------------
// The scripted-adaptation driver.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct DriverStats {
    deployed: u64,
    recalls_completed: u64,
    recalls_aborted: u64,
    state_moved: u64,
    recalled: u64,
}

/// Coordinator-side recall state: routes surrendered worker state under
/// the post-recall distribution and keeps the recovery-log accounting
/// the threaded consumer does locally. Workers have no router, so the
/// routing decisions all happen here.
struct Driver {
    router: Arc<Mutex<Router>>,
    logs: Option<SharedLogs>,
    writers: Vec<WriterTx>,
    resilient: bool,
    build_source: Option<usize>,
    stats: DriverStats,
}

impl Driver {
    /// Routes one worker's `STATE_OUT` batch — migrated operator state
    /// and recalled held probes — to the new owners, mirroring the
    /// threaded consumer's `Migrate` handling (upfront retire of moved
    /// build entries without resilience; entries follow their tuples
    /// with it).
    fn route_state_out(&mut self, worker: usize, entries: Vec<(StreamTag, usize, Tuple)>) {
        if !self.resilient {
            if let (Some(logs), Some(b)) = (&self.logs, self.build_source) {
                let moved: HashSet<u64> = entries
                    .iter()
                    .filter(|(s, _, _)| *s == StreamTag::Build)
                    .map(|(_, _, t)| t.seq())
                    .collect();
                if !moved.is_empty() {
                    let _ = logs[b].retire_matching(worker as u32, |(s, t)| {
                        *s == StreamTag::Build && moved.contains(&t.seq())
                    });
                }
            }
        }
        let mut retire: HashMap<usize, HashSet<u64>> = HashMap::new();
        for (stream, source, tuple) in entries {
            let dest = {
                let mut r = self.router.lock();
                r.route(stream, &tuple).unwrap_or(worker as u32)
            } as usize;
            if stream == StreamTag::Probe {
                // A held probe whose bucket stayed goes straight back
                // (the worker re-holds it); one that moved is recalled
                // to its new owner.
                if dest == worker {
                    let _ = self.writers[worker].send(WCtl::Msg(enc_forward(
                        tag::MIGRATED,
                        stream,
                        source,
                        &tuple,
                    )));
                    continue;
                }
                if self.resilient {
                    if let Some(logs) = &self.logs {
                        if source < logs.len() {
                            let seq = tuple.seq();
                            let _ = logs[source].migrate_matching(
                                worker as u32,
                                dest as u32,
                                |(s, t)| *s == StreamTag::Probe && t.seq() == seq,
                            );
                        }
                    }
                } else {
                    retire.entry(source).or_default().insert(tuple.seq());
                }
                self.stats.recalled += 1;
                let _ = self.writers[dest].send(WCtl::Msg(enc_forward(
                    tag::MIGRATED,
                    stream,
                    source,
                    &tuple,
                )));
            } else {
                // Operator state. Outgoing buckets route away by
                // construction; re-insert defensively (raw, uncounted)
                // if one does not.
                self.stats.state_moved += 1;
                if dest == worker {
                    let _ = self.writers[worker].send(WCtl::Msg(enc_forward(
                        tag::REINSERT,
                        stream,
                        source,
                        &tuple,
                    )));
                } else {
                    if self.resilient {
                        if let (Some(logs), Some(b)) = (&self.logs, self.build_source) {
                            let seq = tuple.seq();
                            let _ =
                                logs[b].migrate_matching(worker as u32, dest as u32, |(s, t)| {
                                    *s == StreamTag::Build && t.seq() == seq
                                });
                        }
                    }
                    let _ = self.writers[dest].send(WCtl::Msg(enc_forward(
                        tag::MIGRATED,
                        stream,
                        source,
                        &tuple,
                    )));
                }
            }
        }
        if let Some(logs) = &self.logs {
            for (source, seqs) in retire {
                if source < logs.len() {
                    let _ = logs[source].retire_matching(worker as u32, |(s, t)| {
                        *s == StreamTag::Probe && seqs.contains(&t.seq())
                    });
                }
            }
        }
    }

    /// Collects `need` matching barrier replies within `timeout`,
    /// routing any `STATE_OUT` batches inline (each worker sends its
    /// state before its `MIGRATE_DONE` on the same FIFO reply channel,
    /// so barrier completion implies all state was routed).
    fn collect(
        &mut self,
        replies: &Receiver<Reply>,
        token: u64,
        need: usize,
        migrate: bool,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut got = 0usize;
        while got < need {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            match replies.recv_timeout(deadline - now) {
                Ok(Reply::Drained { token: t }) => {
                    if !migrate && t == token {
                        got += 1;
                    }
                }
                Ok(Reply::MigrateDone { token: t }) => {
                    if migrate && t == token {
                        got += 1;
                    }
                }
                Ok(Reply::StateOut { worker, entries }) => {
                    self.route_state_out(worker, entries);
                }
                Err(_) => return false,
            }
        }
        true
    }
}

/// Runs the scripted adaptations in `after_routed` order, then drains
/// stray replies until teardown. Mirrors the threaded adaptivity
/// thread's recall coordination with the monitoring/diagnosis loop
/// replaced by the script.
#[allow(clippy::too_many_arguments)]
fn run_driver(
    mut driver: Driver,
    adaptations: Vec<ScriptedAdaptation>,
    gate: Option<Arc<RecallGate>>,
    routed_total: Arc<AtomicU64>,
    producers_live: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    replies: Receiver<Reply>,
    recall_timeout: Duration,
) -> DriverStats {
    let mut token = 0u64;
    'script: for a in adaptations {
        // Wait for the routed-tuple threshold; a finished scan releases
        // the wait too (R2 still applies; R1 aborts at the gate because
        // no producer can park).
        loop {
            if stop.load(Ordering::SeqCst) {
                break 'script;
            }
            if routed_total.load(Ordering::Relaxed) >= a.after_routed
                || producers_live.load(Ordering::SeqCst) == 0
            {
                break;
            }
            thread::sleep(Duration::from_micros(500));
        }
        let Ok(dist) = DistributionVector::new(&a.weights) else {
            continue;
        };
        if !a.retrospective {
            // Prospective (R2): swap the routing table; only future
            // tuples are affected.
            if driver.router.lock().apply_distribution(&dist).is_ok() {
                driver.stats.deployed += 1;
            }
            continue;
        }
        let Some(gate) = gate.as_ref() else { continue };
        token += 1;
        match gate.begin_pause(recall_timeout) {
            None => {
                driver.stats.recalls_aborted += 1;
            }
            Some(0) => {
                // Every producer already finished; the workers may send
                // DONE at any moment, so the barrier cannot be trusted.
                gate.abort_pause();
                driver.stats.recalls_aborted += 1;
            }
            Some(_) => {
                // Drain barrier: the producers are parked, so each
                // writer's ring drain (WCtl::Barrier) puts the DRAIN
                // frame after everything staged before the pause.
                for w in &driver.writers {
                    let _ = w.send(WCtl::Barrier(enc_token(tag::DRAIN, token)));
                }
                let need = driver.writers.len();
                if !driver.collect(&replies, token, need, false, recall_timeout) {
                    gate.abort_pause();
                    driver.stats.recalls_aborted += 1;
                    continue;
                }
                let moves = {
                    let mut r = driver.router.lock();
                    r.apply_retrospective(&dist)
                };
                let Ok(moves) = moves else {
                    gate.abort_pause();
                    driver.stats.recalls_aborted += 1;
                    continue;
                };
                driver.stats.deployed += 1;
                let epoch = gate.epoch() + 1;
                let bucket_count = driver.router.lock().bucket_count();
                for (p, w) in driver.writers.iter().enumerate() {
                    let outgoing = moves.outgoing.get(p).cloned().unwrap_or_default();
                    let _ = w.send(WCtl::Msg(enc_migrate(token, bucket_count, &outgoing)));
                }
                if driver.collect(&replies, token, need, true, recall_timeout) {
                    driver.stats.recalls_completed += 1;
                } else {
                    driver.stats.recalls_aborted += 1;
                }
                // Resume the producers even if a reply timed out:
                // leaving them parked would deadlock the run instead of
                // surfacing the failure at join time.
                gate.resume(epoch);
            }
        }
    }
    // Keep routing stray state until teardown: a barrier that timed out
    // may still deliver its STATE_OUT batches, and dropping them here
    // would lose real tuples.
    while !stop.load(Ordering::SeqCst) {
        match replies.recv_timeout(Duration::from_millis(25)) {
            Ok(Reply::StateOut { worker, entries }) => driver.route_state_out(worker, entries),
            Ok(_) => {}
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    driver.stats
}

// ---------------------------------------------------------------------------
// The executor.
// ---------------------------------------------------------------------------

/// How often the coordinator checks that workers it awaits are alive.
const WORKER_POLL: Duration = Duration::from_millis(20);

/// A launched worker awaiting teardown.
enum WorkerJoin {
    /// An in-process worker thread.
    Thread(thread::JoinHandle<Result<()>>),
    /// A spawned `gridq-node` process.
    Process(Child),
}

impl WorkerJoin {
    /// Whether the worker has exited. Before SHUTDOWN that means it
    /// failed.
    fn exited(&mut self) -> bool {
        match self {
            WorkerJoin::Thread(h) => h.is_finished(),
            WorkerJoin::Process(c) => matches!(c.try_wait(), Ok(Some(_))),
        }
    }

    /// Waits for worker `i` to exit and describes its failure, if any.
    fn wait(self, i: usize) -> Option<String> {
        match self {
            WorkerJoin::Thread(h) => match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(format!("worker {i}: {e}")),
                Err(_) => Some(format!("worker {i}")),
            },
            WorkerJoin::Process(mut c) => match c.wait() {
                Ok(status) if status.success() => None,
                Ok(status) => Some(format!("worker process {i}: {status}")),
                Err(e) => Some(format!("worker process {i}: {e}")),
            },
        }
    }
}

/// Decrements a shared counter on drop, so a panicking producer still
/// counts as finished.
struct Decrement(Arc<AtomicU64>);

impl Drop for Decrement {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Forced teardown for error paths: close everything down without
/// waiting on worker cooperation, and return `err` with the in-process
/// workers' own errors appended. Spawned children are killed;
/// in-process worker threads are joined, which is prompt: once the
/// listener dies their reconnect attempts fail fast.
#[allow(clippy::too_many_arguments)]
fn force_teardown(
    err: GridError,
    shutdown: &AtomicBool,
    addr: &Addr,
    wctls: Vec<WriterTx>,
    writer_handles: Vec<thread::JoinHandle<()>>,
    accept_handle: thread::JoinHandle<()>,
    reader_handles: &Mutex<Vec<thread::JoinHandle<()>>>,
    workers: Vec<WorkerJoin>,
) -> GridError {
    for w in &wctls {
        let _ = w.send(WCtl::Shutdown);
    }
    drop(wctls);
    for h in writer_handles {
        let _ = h.join();
    }
    shutdown.store(true, Ordering::SeqCst);
    let _ = Stream::connect(addr);
    let _ = accept_handle.join();
    for h in std::mem::take(&mut *reader_handles.lock()) {
        let _ = h.join();
    }
    let mut failures = Vec::new();
    for (i, w) in workers.into_iter().enumerate() {
        match w {
            WorkerJoin::Process(mut c) => {
                let _ = c.kill();
                let _ = c.wait();
            }
            thread => failures.extend(thread.wait(i)),
        }
    }
    if let Addr::Unix(p) = addr {
        let _ = std::fs::remove_file(p);
    }
    match err {
        GridError::Execution(m) if !failures.is_empty() => {
            GridError::Execution(format!("{m}; {}", failures.join(", ")))
        }
        err => err,
    }
}

/// Executes a single-stage distributed plan over socket-connected
/// evaluator workers (in-process threads or spawned processes).
pub struct SocketExecutor {
    catalog: Catalog,
    config: SocketConfig,
}

impl SocketExecutor {
    /// Creates an executor over the catalog.
    pub fn new(catalog: Catalog, config: SocketConfig) -> Self {
        SocketExecutor { catalog, config }
    }

    /// Runs the plan to completion.
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, plan: &DistributedPlan) -> Result<SocketReport> {
        self.config.validate()?;
        plan.validate()?;
        if plan.stages.len() != 1 {
            return Err(GridError::Execution(
                "the socket executor runs single-stage plans".into(),
            ));
        }
        let stage = &plan.stages[0];
        if stage.factory.stateful() != self.config.stage.stateful() {
            return Err(GridError::Config(
                "the wire stage spec's statefulness must match the plan's stage factory".into(),
            ));
        }
        if self.config.stage.stateful() && self.config.adaptations.iter().any(|a| !a.retrospective)
        {
            return Err(GridError::Config(
                "stateful stages require retrospective adaptations; a prospective \
                 routing change would strand operator state on the old owners"
                    .into(),
            ));
        }
        let recall_on = self.config.adaptations.iter().any(|a| a.retrospective);
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
        let partitions = stage.nodes.len();
        for a in &self.config.adaptations {
            if a.weights.len() != partitions {
                return Err(GridError::Config(format!(
                    "scripted adaptation has {} weights for {partitions} partitions",
                    a.weights.len()
                )));
            }
        }
        let partitions_u32 = u32::try_from(partitions)
            .map_err(|_| GridError::Config("too many partitions".into()))?;
        let router = Arc::new(Mutex::new(Router::from_policy(
            &stage.exchange.routing,
            partitions_u32,
        )?));
        let hash_routing = router.lock().bucket_count().is_some();
        let resilient = self.config.chaos.is_some();
        let logging_on = recall_on || resilient;
        let logs: Option<SharedLogs> = if logging_on {
            let mut v = Vec::with_capacity(plan.sources.len());
            // In resilient mode a whole window must fit one data block,
            // so a chaos drop or duplicate hits tuples and marker
            // atomically: marker delivery implies content delivery.
            let effective = self
                .config
                .checkpoint_interval
                .min(stage.exchange.buffer_tuples.max(1));
            for s in &plan.sources {
                let log = if s.stream == StreamTag::Build {
                    if resilient {
                        SharedRecoveryLog::retained(partitions, effective)?
                    } else {
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
        let gate = recall_on.then(|| Arc::new(RecallGate::new(plan.sources.len())));
        let build_source = plan
            .sources
            .iter()
            .position(|s| s.stream == StreamTag::Build);
        let build_eos_needed = plan
            .sources
            .iter()
            .filter(|s| s.stream == StreamTag::Build)
            .count();
        let eos_needed = plan.sources.len();

        let started = Instant::now();
        let addr_hint = match self.config.transport {
            SocketTransport::Unix => Addr::scratch_unix(),
            SocketTransport::Tcp => Addr::loopback_tcp(),
        };
        let listener = Listener::bind(&addr_hint)?;
        let addr = listener.local_addr()?;

        // Per-worker link state, writer threads, and data rings.
        let producers_n = plan.sources.len();
        let links: Vec<Arc<Mutex<LinkState>>> = (0..partitions)
            .map(|_| Arc::new(Mutex::new(LinkState::new())))
            .collect();
        let wakers: Vec<Arc<Waker>> = (0..partitions).map(|_| Arc::new(Waker::new())).collect();
        let mut ring_txs: Vec<Vec<DataTx>> = (0..producers_n).map(|_| Vec::new()).collect();
        let mut ring_rxs: Vec<Vec<RingReceiver<Vec<u8>>>> =
            (0..partitions).map(|_| Vec::new()).collect();
        for ring_tx_row in ring_txs.iter_mut() {
            for (ring_rx_row, waker) in ring_rxs.iter_mut().zip(&wakers) {
                let (tx, rx) = ring::<Vec<u8>>(RING_BLOCKS);
                ring_tx_row.push(DataTx {
                    ring: tx,
                    waker: Arc::clone(waker),
                });
                ring_rx_row.push(rx);
            }
        }
        let mut wctls: Vec<WriterTx> = Vec::with_capacity(partitions);
        let mut writer_handles = Vec::with_capacity(partitions);
        for (w, (rings, waker)) in ring_rxs.into_iter().zip(wakers).enumerate() {
            let (tx, rx) = channel::<WCtl>();
            wctls.push(WriterTx {
                tx,
                waker: Arc::clone(&waker),
            });
            let st = WriterState {
                worker: w,
                link: Arc::clone(&links[w]),
                chaos: self.config.chaos.clone(),
                rings,
                waker,
                conn: None,
                out: Vec::new(),
            };
            writer_handles.push(thread::spawn(move || writer_loop(st, rx)));
        }

        let (event_tx, event_rx) = channel::<Event>();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let (handshake_tx, handshake_rx) = channel::<usize>();
        let shutdown = Arc::new(AtomicBool::new(false));
        let reconnects = Arc::new(AtomicU64::new(0));
        let reader_handles: Arc<Mutex<Vec<thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        // The accept loop: handshake each connection, hand the stream's
        // read half to a fresh reader thread and its write half to the
        // worker's writer, which first retransmits whatever the worker
        // missed.
        let accept_handle = {
            let links = links.clone();
            let wctls = wctls.clone();
            let shutdown = Arc::clone(&shutdown);
            let reconnects = Arc::clone(&reconnects);
            let reader_handles = Arc::clone(&reader_handles);
            let chaos = self.config.chaos.clone();
            let logs = logs.clone();
            let router = Arc::clone(&router);
            let event_tx = event_tx.clone();
            let reply_tx = reply_tx.clone();
            let scale = self.config.cost_scale;
            thread::spawn(move || {
                let mut lives = vec![0u64; links.len()];
                loop {
                    let conn = match listener.accept() {
                        Ok(c) => c,
                        Err(_) => {
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            continue;
                        }
                    };
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    // Handshake: the first frame must be a Hello naming
                    // the worker and its link high-water mark.
                    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
                    let mut dec = Decoder::new();
                    let mut frames: Vec<Frame> = Vec::new();
                    let deadline = Instant::now() + Duration::from_secs(5);
                    let mut buf = vec![0u8; 64 * 1024];
                    let mut conn = conn;
                    while frames.is_empty() && Instant::now() < deadline {
                        let n = match conn.read(&mut buf) {
                            Ok(0) => break,
                            Ok(n) => n,
                            Err(e)
                                if e.kind() == std::io::ErrorKind::WouldBlock
                                    || e.kind() == std::io::ErrorKind::TimedOut =>
                            {
                                continue
                            }
                            Err(_) => break,
                        };
                        match dec.feed(&buf[..n]) {
                            Ok(f) => frames.extend(f),
                            Err(_) => break,
                        }
                    }
                    let Some((index, peer_last)) = frames.first().and_then(link::parse_hello)
                    else {
                        continue;
                    };
                    let index = index as usize;
                    if index >= links.len() {
                        continue;
                    }
                    let leftovers: Vec<Frame> = frames.split_off(1);
                    lives[index] += 1;
                    if lives[index] > 1 {
                        reconnects.fetch_add(1, Ordering::Relaxed);
                    }
                    // Tell the worker what we already received so it can
                    // retransmit just the missing suffix.
                    let ack = link::hello_ack(links[index].lock().last_received());
                    if write_frame(&mut conn, &ack).is_err() {
                        continue;
                    }
                    let Ok(read_half) = conn.try_clone() else {
                        continue;
                    };
                    let ctx = ReaderCtx {
                        worker: index,
                        link: Arc::clone(&links[index]),
                        logs: logs.clone(),
                        router: Arc::clone(&router),
                        chaos: chaos.clone(),
                        writers: wctls.clone(),
                        events: event_tx.clone(),
                        replies: reply_tx.clone(),
                        shutdown: Arc::clone(&shutdown),
                        scale,
                    };
                    reader_handles.lock().push(thread::spawn(move || {
                        reader_loop(ctx, read_half, dec, leftovers)
                    }));
                    let _ = wctls[index].send(WCtl::Conn {
                        stream: conn,
                        peer_last,
                    });
                    let _ = handshake_tx.send(index);
                }
            })
        };

        // Launch the workers.
        let mut workers: Vec<WorkerJoin> = Vec::with_capacity(partitions);
        for i in 0..partitions {
            match &self.config.launch {
                WorkerLaunch::InProcess => {
                    let addr = addr.clone();
                    let services = Arc::clone(&self.config.services);
                    workers.push(WorkerJoin::Thread(thread::spawn(move || {
                        worker_main(&addr, i, &services)
                    })));
                }
                WorkerLaunch::Spawn { program } => {
                    let child = Command::new(program)
                        .arg("--addr")
                        .arg(addr.to_string())
                        .arg("--index")
                        .arg(i.to_string())
                        .stdin(Stdio::null())
                        .spawn()
                        .map_err(|e| {
                            GridError::Execution(format!(
                                "socket: spawning worker {i} ({}): {e}",
                                program.display()
                            ))
                        });
                    match child {
                        Ok(c) => workers.push(WorkerJoin::Process(c)),
                        Err(e) => {
                            return Err(force_teardown(
                                e,
                                &shutdown,
                                &addr,
                                wctls,
                                writer_handles,
                                accept_handle,
                                &reader_handles,
                                workers,
                            ));
                        }
                    }
                }
            }
        }

        // Wait until every worker has completed its first handshake.
        {
            let mut connected = vec![false; partitions];
            let mut seen = 0usize;
            let deadline = Instant::now() + Duration::from_secs(15);
            while seen < partitions {
                let now = Instant::now();
                if now >= deadline {
                    return Err(force_teardown(
                        GridError::Execution(
                            "socket: timed out waiting for workers to connect".into(),
                        ),
                        &shutdown,
                        &addr,
                        wctls,
                        writer_handles,
                        accept_handle,
                        &reader_handles,
                        workers,
                    ));
                }
                match handshake_rx.recv_timeout(deadline - now) {
                    Ok(i) => {
                        if i < partitions && !connected[i] {
                            connected[i] = true;
                            seen += 1;
                        }
                    }
                    Err(_) => continue,
                }
            }
        }

        // Ship each worker its configuration: the first sequenced frame
        // on the link, stamped before any producer starts, so it precedes
        // every data block.
        let mut configs = Vec::with_capacity(partitions);
        for w in 0..partitions {
            let pert = self.config.perturbations.get(&stage.nodes[w]);
            let raw_stall = self
                .config
                .chaos
                .as_ref()
                .map_or(0.0, |c| c.slow_peer_stall_ms(w));
            let cfg = WireConfig {
                worker: w,
                resilient,
                logging: logging_on,
                hash_routing,
                cost_scale: self.config.cost_scale,
                receive_cost_ms: self.config.receive_cost_ms,
                read_stall_ms: if raw_stall.is_finite() {
                    raw_stall.max(0.0)
                } else {
                    0.0
                },
                cost_factor: perturbed(1.0, pert) - perturbed(0.0, pert),
                cost_extra_ms: perturbed(0.0, pert),
                eos_needed,
                build_eos_needed,
                build_source,
                block_tuples: stage.exchange.buffer_tuples,
                stage: self.config.stage.clone(),
            };
            configs.push(cfg.encode());
        }
        if let Err(e) = send_configs(&wctls, configs) {
            return Err(force_teardown(
                e,
                &shutdown,
                &addr,
                wctls,
                writer_handles,
                accept_handle,
                &reader_handles,
                workers,
            ));
        }

        // Shared run counters.
        let routed_total = Arc::new(AtomicU64::new(0));
        let restaged_total = Arc::new(AtomicU64::new(0));
        let retransmitted_total = Arc::new(AtomicU64::new(0));
        let send_failures_total = Arc::new(AtomicU64::new(0));
        let delivery_gaps: Arc<Mutex<Vec<DeliveryGap>>> = Arc::new(Mutex::new(Vec::new()));
        let producers_live = Arc::new(AtomicU64::new(producers_n as u64));

        // Producer threads: scan, route, stage, and flush encoded
        // blocks into the per-worker rings. A direct port of the
        // threaded producers with ring payloads pre-encoded.
        let mut producer_handles = Vec::new();
        for (sidx, source) in plan.sources.iter().enumerate() {
            let table = self.catalog.get(&source.table)?;
            let router = Arc::clone(&router);
            let rings = std::mem::take(&mut ring_txs[sidx]);
            let logs = logs.clone();
            let gate = gate.clone();
            let scan_cost = source.scan_cost_ms;
            let stream = source.stream;
            let scale = self.config.cost_scale;
            let buffer_tuples = stage.exchange.buffer_tuples;
            let chaos = self.config.chaos.clone();
            let retry_policy = self.config.delivery_retry.clone();
            let gaps = Arc::clone(&delivery_gaps);
            let retransmitted = Arc::clone(&retransmitted_total);
            let send_failures = Arc::clone(&send_failures_total);
            let routed_total = Arc::clone(&routed_total);
            let restaged_total = Arc::clone(&restaged_total);
            let live = Arc::clone(&producers_live);
            producer_handles.push(thread::spawn(move || {
                let _live = Decrement(live);
                // Counts this producer as done even if it panics, so the
                // recall barrier can never wait on a dead thread.
                let _guard = gate.as_ref().map(|g| ProducerGuard::new(Arc::clone(g)));
                let mut buffers: Vec<Vec<Staged>> = (0..rings.len()).map(|_| Vec::new()).collect();
                // Ships one staged block to `dest`, paying the modelled
                // scan time accumulated in `due` first.
                let flush = |dest: usize,
                             buffers: &mut Vec<Vec<Staged>>,
                             disconnected: &mut Vec<bool>,
                             due: &mut f64,
                             retransmit: bool| {
                    if *due > 0.0 {
                        spin_for(*due, scale);
                        *due = 0.0;
                    }
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
                    if matches!(fate, NetAction::Drop) {
                        // The whole block vanishes — tuples and markers
                        // together; the retry epilogue retransmits the
                        // unacknowledged windows.
                        return;
                    }
                    if let NetAction::DelayMs(extra) = fate {
                        if extra.is_finite() && extra > 0.0 {
                            spin_for(extra, scale);
                        }
                    }
                    let payload = enc_data(sidx, retransmit, &items);
                    let mut failed = 0usize;
                    if matches!(fate, NetAction::Duplicate) {
                        // At-least-once transport: the cloned block is
                        // absorbed by the worker's block-range dedup.
                        if rings[dest].push(payload.clone()).is_err() {
                            failed += tuples;
                        }
                    }
                    if rings[dest].push(payload).is_err() {
                        failed += tuples;
                    }
                    if failed > 0 {
                        disconnected[dest] = true;
                        send_failures.fetch_add(failed as u64, Ordering::Relaxed);
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
                let mut epoch = gate.as_ref().map(|g| g.epoch()).unwrap_or(0);
                let mut due = 0.0f64;
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
                    due += scan_cost
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
                    routed_total.fetch_add(1, Ordering::Relaxed);
                    if resilient {
                        // Flush at window boundaries only, so a whole
                        // window (tuples plus marker) always travels in
                        // one block.
                        if window_closed {
                            flush(dest, &mut buffers, &mut disconnected, &mut due, false);
                        }
                    } else if buffers[dest].len() >= buffer_tuples {
                        flush(dest, &mut buffers, &mut disconnected, &mut due, false);
                    }
                }
                // A recall in flight must complete (and the buffers
                // restage) before the final flush.
                if let Some(g) = &gate {
                    let now_epoch = g.pause_point();
                    if now_epoch != epoch {
                        epoch = now_epoch;
                        restaged_total.fetch_add(restage(&mut buffers), Ordering::Relaxed);
                    }
                }
                for dest in 0..rings.len() {
                    if stream != StreamTag::Build || resilient {
                        if let Some(logs) = &logs {
                            if let Ok(Some(cp)) = logs[sidx].force_checkpoint(dest as u32) {
                                buffers[dest].push(Staged::Marker(cp, logs[sidx].epoch()));
                            }
                        }
                    }
                    flush(dest, &mut buffers, &mut disconnected, &mut due, false);
                    if !resilient {
                        // Eos rides the data ring so it trails every
                        // block in FIFO order.
                        let _ = rings[dest].push(enc_eos(stream, sidx));
                    }
                }
                if resilient {
                    // Delivery-retry epilogue: wait out a deterministic
                    // jittered backoff for in-flight acks, retransmit
                    // any window still unacknowledged, and repeat within
                    // the retry budget; a destination that never acks
                    // becomes an explicit DeliveryGap. Only then does
                    // Eos go out.
                    if let Some(log_vec) = &logs {
                        let mut backoff = RetryBackoff::new(&retry_policy, sidx as u64);
                        let mut gapped = vec![false; rings.len()];
                        'retry: for attempt in 0..=retry_policy.max_retries {
                            // A destination whose ring closed can never
                            // ack again (there is no failover on this
                            // substrate): record its gap immediately
                            // instead of sleeping out the budget.
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
                            if (0..rings.len()).all(|d| {
                                gapped[d] || log_vec[sidx].undelivered_windows(d as u32).is_empty()
                            }) {
                                break 'retry;
                            }
                            // Sleep in short slices with a pause-point
                            // in each, so a concurrent recall can still
                            // park this producer.
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
                                                &mut due,
                                                false,
                                            );
                                        }
                                    }
                                }
                                let slice = remaining.min(5.0);
                                thread::sleep(Duration::from_secs_f64(slice / 1000.0));
                                remaining -= slice;
                            }
                            // Close any window left open since the final
                            // scan flush and push its marker out with
                            // whatever the buffer holds.
                            for dest in 0..rings.len() {
                                if gapped[dest] {
                                    continue;
                                }
                                if let Ok(Some(cp)) = log_vec[sidx].force_checkpoint(dest as u32) {
                                    buffers[dest].push(Staged::Marker(cp, log_vec[sidx].epoch()));
                                    flush(dest, &mut buffers, &mut disconnected, &mut due, false);
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
                                            &mut due,
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
                    for ring_tx in &rings {
                        let _ = ring_tx.push(enc_eos(stream, sidx));
                    }
                }
            }));
        }

        // The scripted-adaptation driver.
        let driver_stop = Arc::new(AtomicBool::new(false));
        let driver_handle = if self.config.adaptations.is_empty() {
            drop(reply_rx);
            None
        } else {
            let mut adaptations = self.config.adaptations.clone();
            adaptations.sort_by_key(|a| a.after_routed);
            let driver = Driver {
                router: Arc::clone(&router),
                logs: logs.clone(),
                writers: wctls.clone(),
                resilient,
                build_source,
                stats: DriverStats::default(),
            };
            let gate = gate.clone();
            let routed_total = Arc::clone(&routed_total);
            let producers_live = Arc::clone(&producers_live);
            let stop = Arc::clone(&driver_stop);
            let recall_timeout = Duration::from_millis(self.config.recall_timeout_ms);
            Some(thread::spawn(move || {
                run_driver(
                    driver,
                    adaptations,
                    gate,
                    routed_total,
                    producers_live,
                    stop,
                    reply_rx,
                    recall_timeout,
                )
            }))
        };

        // Join producers first; a panicked producer never pushed its
        // end-of-stream frames, and without them the workers wait
        // forever.
        let mut panicked: Vec<String> = Vec::new();
        for (i, h) in producer_handles.into_iter().enumerate() {
            if h.join().is_err() {
                panicked.push(format!("producer {i}"));
                for w in &wctls {
                    let _ = w.send(WCtl::Barrier(enc_eos(plan.sources[i].stream, i)));
                }
            }
        }

        // Collect results and per-worker completions.
        let mut results: Vec<Tuple> = Vec::new();
        let mut per_partition = vec![0u64; partitions];
        let mut seen_done = vec![false; partitions];
        let mut dedup_peak_entries = 0u64;
        let mut done = 0usize;
        let mut run_error: Option<GridError> = None;
        let deadline = Instant::now() + Duration::from_secs(120);
        while done < partitions {
            let now = Instant::now();
            if now >= deadline {
                run_error = Some(GridError::Execution(
                    "socket: timed out waiting for workers to finish".into(),
                ));
                break;
            }
            match event_rx.recv_timeout((deadline - now).min(WORKER_POLL)) {
                Ok(Event::Results(batch)) => results.extend(batch),
                Ok(Event::Done {
                    worker,
                    processed,
                    dedup_peak,
                }) => {
                    if worker < partitions && !seen_done[worker] {
                        seen_done[worker] = true;
                        per_partition[worker] = processed;
                        dedup_peak_entries = dedup_peak_entries.max(dedup_peak);
                        done += 1;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    // A worker exits before SHUTDOWN only when it failed:
                    // stop waiting for its DONE and report its error.
                    if let Some(i) = (0..partitions).find(|&i| !seen_done[i] && workers[i].exited())
                    {
                        run_error = Some(GridError::Execution(format!(
                            "socket: worker {i} exited before finishing"
                        )));
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    run_error = Some(GridError::Execution(
                        "socket: event channel closed before completion".into(),
                    ));
                    break;
                }
            }
        }

        // Stop the driver (it also exits promptly on the stop flag when
        // an adaptation threshold was never reached).
        driver_stop.store(true, Ordering::SeqCst);
        let stats = match driver_handle {
            Some(h) => match h.join() {
                Ok(s) => s,
                Err(_) => {
                    panicked.push("adaptation driver".into());
                    DriverStats::default()
                }
            },
            None => DriverStats::default(),
        };

        if let Some(err) = run_error {
            return Err(force_teardown(
                err,
                &shutdown,
                &addr,
                wctls,
                writer_handles,
                accept_handle,
                &reader_handles,
                workers,
            ));
        }

        // Graceful teardown. SHUTDOWN rides a ring barrier so it trails
        // any residual data; writers and the accept loop stay alive
        // while workers exit, so a worker whose connection died at the
        // wrong moment can still reconnect and receive it.
        for w in &wctls {
            let _ = w.send(WCtl::Barrier(vec![tag::SHUTDOWN]));
        }
        for (i, w) in workers.into_iter().enumerate() {
            panicked.extend(w.wait(i));
        }
        for w in &wctls {
            let _ = w.send(WCtl::Shutdown);
        }
        drop(wctls);
        for h in writer_handles {
            if h.join().is_err() {
                panicked.push("writer".into());
            }
        }
        shutdown.store(true, Ordering::SeqCst);
        let _ = Stream::connect(&addr);
        if accept_handle.join().is_err() {
            panicked.push("accept loop".into());
        }
        for h in std::mem::take(&mut *reader_handles.lock()) {
            if h.join().is_err() {
                panicked.push("reader".into());
            }
        }
        if let Addr::Unix(p) = &addr {
            let _ = std::fs::remove_file(p);
        }
        if !panicked.is_empty() {
            return Err(GridError::Execution(format!(
                "socket thread(s)/worker(s) failed: {}",
                panicked.join(", ")
            )));
        }

        if resilient {
            // At-least-once transport can double-deliver results across
            // a reconnect seam; collapse exact duplicates so the report
            // is effectively-once.
            let mut seen = HashSet::new();
            results.retain(|t: &Tuple| seen.insert((t.seq(), format!("{:?}", t.values()))));
        }
        let final_distribution = router.lock().current_distribution().weights().to_vec();
        let delivery_gaps = std::mem::take(&mut *delivery_gaps.lock());
        Ok(SocketReport {
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
            results,
            per_partition_processed: per_partition,
            adaptations_deployed: stats.deployed,
            recalls_completed: stats.recalls_completed,
            recalls_aborted: stats.recalls_aborted,
            state_tuples_migrated: stats.state_moved,
            tuples_recalled: stats.recalled + restaged_total.load(Ordering::Relaxed),
            tuples_retransmitted: retransmitted_total.load(Ordering::Relaxed),
            delivery_gaps,
            send_failures: send_failures_total.load(Ordering::Relaxed),
            log_audits: logs
                .map(|logs| logs.iter().map(SharedRecoveryLog::audit).collect())
                .unwrap_or_default(),
            dedup_peak_entries,
            final_distribution,
            reconnects: reconnects.load(Ordering::Relaxed),
        })
    }
}

// ---------------------------------------------------------------------------
// The worker side.
// ---------------------------------------------------------------------------

/// The worker's write half: every outgoing payload is stamped into the
/// link outbox *unconditionally* and written best-effort. A failed
/// write flips `io_ok`; the read loop then reconnects and the handshake
/// retransmits everything the coordinator has not acknowledged.
struct WireOut<'a> {
    link: &'a mut LinkState,
    conn: &'a mut Stream,
    io_ok: &'a mut bool,
}

impl WireOut<'_> {
    fn send(&mut self, payload: Vec<u8>) {
        let frame = self.link.stamp_retained(kind::MSG, payload);
        if *self.io_ok && write_frame(self.conn, frame).is_err() {
            *self.io_ok = false;
        }
    }
}

/// What `handle_msg` tells the read loop to do next.
enum Flow {
    Continue,
    Done,
}

/// Everything a worker accumulates over the run. Lives *outside* the
/// per-connection loop so a reconnection resumes mid-query.
struct WorkerState {
    cfg: WireConfig,
    evaluator: Box<dyn PartitionEvaluator>,
    /// The evaluator's output buffer; emptied after every tuple.
    rows: Vec<Tuple>,
    /// The pending RESULTS payload: outputs encoded as they are emitted.
    results: Vec<u8>,
    /// Rows encoded into `results` since it was last shipped.
    results_rows: usize,
    processed: u64,
    due: f64,
    eos_seen: usize,
    build_eos_seen: usize,
    /// Probe tuples that arrived before the build phase completed, with
    /// the source that logged them.
    held_probes: Vec<(usize, Tuple)>,
    /// Probe-window acks deferred while the build phase is incomplete:
    /// an ack is a processing receipt, and held probes are unprocessed.
    pending_acks: Vec<(usize, Checkpoint, u64)>,
    dedup: DedupFilter,
    done_sent: bool,
}

impl WorkerState {
    fn new(cfg: WireConfig, evaluator: Box<dyn PartitionEvaluator>) -> Self {
        WorkerState {
            cfg,
            evaluator,
            rows: Vec::new(),
            results: vec![tag::RESULTS],
            results_rows: 0,
            processed: 0,
            due: 0.0,
            eos_seen: 0,
            build_eos_seen: 0,
            held_probes: Vec::new(),
            pending_acks: Vec::new(),
            dedup: DedupFilter::new(),
            done_sent: false,
        }
    }

    fn building(&self) -> bool {
        self.cfg.build_eos_needed > 0 && self.build_eos_seen < self.cfg.build_eos_needed
    }

    /// Pays the accrued modelled cost as one sleep.
    fn pay_due(&mut self) {
        if self.due > 0.0 {
            spin_for(self.due, self.cfg.cost_scale);
            self.due = 0.0;
        }
    }

    /// Evaluates one tuple, accruing its (perturbed, linearized) cost.
    /// Its outputs are encoded into the pending RESULTS payload while
    /// they are hot, and dropped.
    fn process_tuple(&mut self, stream: StreamTag, tuple: &Tuple) {
        let Ok(base_cost_ms) = self.evaluator.process_into(stream, tuple, &mut self.rows) else {
            return;
        };
        self.results_rows += self.rows.len();
        for row in self.rows.drain(..) {
            wire::put_tuple(&mut self.results, &row);
        }
        self.due +=
            base_cost_ms * self.cfg.cost_factor + self.cfg.cost_extra_ms + self.cfg.receive_cost_ms;
        self.processed += 1;
    }

    /// Ships the pending outputs as one RESULTS frame, if there are any.
    fn ship_results(&mut self, wire: &mut WireOut<'_>) {
        if self.results_rows == 0 {
            return;
        }
        self.results_rows = 0;
        let mut next = Vec::with_capacity(self.results.capacity());
        next.push(tag::RESULTS);
        wire.send(std::mem::replace(&mut self.results, next));
    }

    /// Ships a checkpoint ack. The pending outputs go first: once the
    /// coordinator applies the ack the window can never replay, so its
    /// outputs must already be owned downstream. The dedup eviction is
    /// optimistic (the worker cannot see the log's verdict); if the ack
    /// is dropped at the coordinator's chaos seam the window
    /// retransmits, and the already-acked marker id shadows its tuples
    /// via `is_acked` — the filter converges either way.
    fn ack_out(&mut self, wire: &mut WireOut<'_>, source: usize, cp: Checkpoint, epoch: u64) {
        if !self.cfg.logging {
            return;
        }
        self.ship_results(wire);
        wire.send(enc_ack(source, cp, epoch));
        if self.cfg.resilient {
            self.dedup.window_acked(source, cp.id);
        }
    }

    /// Consumes one DATA block: the socket-side port of the threaded
    /// consumer's `handle_block`, with the ownership check for
    /// retransmitted tuples replaced by a `STRAY` forward (the worker
    /// has no router).
    fn handle_data(&mut self, r: &mut Reader<'_>, wire: &mut WireOut<'_>) -> Result<()> {
        let source = r.varint()? as usize;
        let retransmit = r.u8()? != 0;
        let count = r.varint()? as usize;
        let mut items: Vec<Staged> = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            match r.u8()? {
                0 => {
                    let stream = get_stream(r)?;
                    let tuple = wire::get_tuple(r)?;
                    items.push(Staged::Tuple(stream, tuple));
                }
                1 => {
                    let dest = u32::try_from(r.varint()?)
                        .map_err(|_| GridError::Execution("socket: marker dest overflow".into()))?;
                    let id = r.varint()?;
                    let epoch = r.varint()?;
                    items.push(Staged::Marker(Checkpoint { dest, id }, epoch));
                }
                other => {
                    return Err(GridError::Execution(format!(
                        "socket: unknown staged item kind {other}"
                    )))
                }
            }
        }
        // Whole-block range key over the tuples, mirroring
        // `Block::range_key`: one set probe skips an identically packed
        // duplicate block.
        let mut first = None;
        let mut last = 0u64;
        let mut tuples = 0u64;
        for it in &items {
            if let Staged::Tuple(_, t) = it {
                let s = t.seq();
                if first.is_none() {
                    first = Some(s);
                }
                last = s;
                tuples += 1;
            }
        }
        let dup = self.cfg.resilient
            && first.is_some_and(|f| self.dedup.block_is_dup(source, (f, last, tuples)));
        let building = self.building();
        // The covering marker for each tuple is the next one at a
        // higher index: an already-acked marker id shadows every tuple
        // ahead of it even after their per-tuple keys were evicted.
        let marker_ids: Vec<(usize, u64)> = items
            .iter()
            .enumerate()
            .filter_map(|(idx, item)| match item {
                Staged::Marker(cp, _) => Some((idx, cp.id)),
                Staged::Tuple(..) => None,
            })
            .collect();
        let mut next_marker = 0usize;
        for (idx, staged) in items.into_iter().enumerate() {
            while next_marker < marker_ids.len() && marker_ids[next_marker].0 < idx {
                next_marker += 1;
            }
            match staged {
                Staged::Tuple(stream, tuple) => {
                    if dup {
                        continue;
                    }
                    if self.cfg.resilient {
                        if marker_ids
                            .get(next_marker)
                            .is_some_and(|&(_, id)| self.dedup.is_acked(source, id))
                        {
                            continue;
                        }
                        if self.dedup.tuple_is_dup(source, tuple.seq()) {
                            continue;
                        }
                    }
                    if retransmit && self.cfg.hash_routing {
                        // A retransmitted window was addressed before any
                        // bucket moves since it closed. The worker cannot
                        // verify ownership, so it ships the tuple back and
                        // the coordinator routes it to the current owner
                        // (the dedup record above makes the forward
                        // single-shot).
                        wire.send(enc_forward(tag::STRAY, stream, source, &tuple));
                        continue;
                    }
                    if stream == StreamTag::Probe && building {
                        self.held_probes.push((source, tuple));
                    } else {
                        self.process_tuple(stream, &tuple);
                    }
                }
                Staged::Marker(cp, epoch) => {
                    if self.cfg.resilient {
                        self.dedup.close_window(source, cp.id);
                    }
                    if self.cfg.resilient && building && Some(source) != self.cfg.build_source {
                        self.pending_acks.push((source, cp, epoch));
                    } else {
                        self.ack_out(wire, source, cp, epoch);
                    }
                }
            }
        }
        self.pay_due();
        self.ship_results(wire);
        Ok(())
    }

    fn handle_eos(&mut self, r: &mut Reader<'_>, wire: &mut WireOut<'_>) -> Result<()> {
        let stream = get_stream(r)?;
        let _source = r.varint()? as usize;
        self.eos_seen += 1;
        if stream == StreamTag::Build {
            self.build_eos_seen += 1;
        }
        if self.cfg.build_eos_needed > 0 && self.build_eos_seen == self.cfg.build_eos_needed {
            // The build phase is complete: replay the held probes,
            // paying the accrued cost in slices and shipping each
            // block's worth of outputs as it fills.
            for (n, (_source, tuple)) in std::mem::take(&mut self.held_probes)
                .into_iter()
                .enumerate()
            {
                if n % 16 == 0 {
                    self.pay_due();
                }
                self.process_tuple(StreamTag::Probe, &tuple);
                if self.results_rows >= self.cfg.block_tuples {
                    self.ship_results(wire);
                }
            }
            self.pay_due();
            self.ship_results(wire);
            // The held probes are processed: their deferred window acks
            // are now true processing receipts.
            for (source, cp, epoch) in std::mem::take(&mut self.pending_acks) {
                self.ack_out(wire, source, cp, epoch);
            }
        }
        if self.eos_seen == self.cfg.eos_needed && !self.done_sent {
            self.done_sent = true;
            self.pay_due();
            self.ship_results(wire);
            wire.send(enc_done(self.processed, self.dedup.peak()));
            // Keep reading: late recalls and the SHUTDOWN frame still
            // arrive after DONE.
        }
        Ok(())
    }

    fn handle_migrate(&mut self, r: &mut Reader<'_>, wire: &mut WireOut<'_>) -> Result<()> {
        let token = r.varint()?;
        let bucket_count = match r.varint()? {
            0 => None,
            b => Some(
                u32::try_from(b - 1)
                    .map_err(|_| GridError::Execution("socket: bucket count overflow".into()))?,
            ),
        };
        let n = r.varint()? as usize;
        let mut outgoing = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            outgoing.push(
                u32::try_from(r.varint()?)
                    .map_err(|_| GridError::Execution("socket: bucket index overflow".into()))?,
            );
        }
        // Surrender the outgoing buckets' operator state and every held
        // probe; the coordinator routes them (keepers come straight
        // back as MIGRATED and are re-held).
        let mut entries: Vec<(StreamTag, usize, Tuple)> = Vec::new();
        if let Some(bc) = bucket_count {
            if !outgoing.is_empty() {
                let b = self.cfg.build_source.unwrap_or(0);
                for (stream, tuple) in self.evaluator.extract_state(bc, &outgoing) {
                    entries.push((stream, b, tuple));
                }
            }
        }
        for (source, tuple) in std::mem::take(&mut self.held_probes) {
            entries.push((StreamTag::Probe, source, tuple));
        }
        if !entries.is_empty() {
            wire.send(enc_state_out(&entries));
        }
        wire.send(enc_token(tag::MIGRATE_DONE, token));
        Ok(())
    }
}

/// Dispatches one fresh application frame from the coordinator.
fn handle_msg(
    state: &mut Option<WorkerState>,
    wire: &mut WireOut<'_>,
    payload: &[u8],
    services: &ServiceResolver,
    index: usize,
) -> Result<Flow> {
    let mut r = Reader::new(payload);
    let t = r.u8()?;
    if t == tag::SHUTDOWN {
        return Ok(Flow::Done);
    }
    if t == tag::CONFIG {
        // A duplicate CONFIG after a mid-handshake reconnect is
        // harmless; the first one wins.
        if state.is_none() {
            let cfg = WireConfig::decode(&mut r)?;
            if cfg.worker != index {
                return Err(GridError::Execution(format!(
                    "socket: worker {index} received config addressed to worker {}",
                    cfg.worker
                )));
            }
            let evaluator = cfg.stage.build(index as u32, services)?;
            *state = Some(WorkerState::new(cfg, evaluator));
        }
        return Ok(Flow::Continue);
    }
    let Some(st) = state.as_mut() else {
        return Err(GridError::Execution(format!(
            "socket: worker {index} received message tag {t} before CONFIG"
        )));
    };
    match t {
        tag::DATA => st.handle_data(&mut r, wire)?,
        tag::EOS => st.handle_eos(&mut r, wire)?,
        tag::DRAIN => {
            // Link FIFO means everything sent before the barrier is
            // already processed, which is exactly what Drained promises.
            let token = r.varint()?;
            wire.send(enc_token(tag::DRAINED, token));
        }
        tag::MIGRATE => st.handle_migrate(&mut r, wire)?,
        tag::MIGRATED => {
            // Recorded but always processed: bucket ping-pong
            // legitimately re-delivers a seq, and the recall barrier
            // already guarantees exactly-once for this path.
            let (stream, source, tuple) = dec_forward(&mut r)?;
            if st.cfg.resilient {
                st.dedup.note_delivered(source, tuple.seq());
            }
            if stream == StreamTag::Probe && st.building() {
                st.held_probes.push((source, tuple));
            } else {
                st.process_tuple(stream, &tuple);
                st.pay_due();
            }
        }
        tag::REINSERT => {
            // A recall routed state back to the worker that extracted
            // it: re-insert raw, uncounted. Extracted state is build
            // tuples, which produce no output.
            let (stream, _source, tuple) = dec_forward(&mut r)?;
            let _ = st.evaluator.process_into(stream, &tuple, &mut st.rows);
            st.rows.clear();
        }
        other => {
            return Err(GridError::Execution(format!(
                "socket: unknown coordinator frame tag {other}"
            )))
        }
    }
    Ok(Flow::Continue)
}

/// Runs one evaluator worker to completion: connect (and reconnect) to
/// the coordinator at `addr`, identify as worker `index`, and process
/// frames until SHUTDOWN. This is the entry point for both in-process
/// worker threads and the `gridq-node` binary.
pub fn worker_main(addr: &Addr, index: usize, services: &ServiceResolver) -> Result<()> {
    let mut link = LinkState::new();
    let mut state: Option<WorkerState> = None;
    'life: loop {
        let mut conn = {
            let mut attempt = 0u32;
            loop {
                match Stream::connect(addr) {
                    Ok(c) => break c,
                    Err(e) => {
                        attempt += 1;
                        if attempt >= 100 {
                            return Err(GridError::Execution(format!(
                                "socket: worker {index} cannot reach the coordinator: {e}"
                            )));
                        }
                        thread::sleep(Duration::from_millis(3));
                    }
                }
            }
        };
        let hello = link::hello(index as u64, link.last_received());
        if write_frame(&mut conn, &hello).is_err() {
            continue 'life;
        }
        let mut dec = Decoder::new();
        let mut io_ok = true;
        let mut handshook = false;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            if let Some(st) = &state {
                // The slow-peer seam: stall before draining the socket,
                // so the kernel buffers fill and flow control pushes
                // back on the coordinator's writer.
                if st.cfg.read_stall_ms > 0.0 {
                    spin_for(st.cfg.read_stall_ms, st.cfg.cost_scale);
                }
            }
            let n = match conn.read(&mut buf) {
                Ok(0) => continue 'life,
                Ok(n) => n,
                Err(_) => continue 'life,
            };
            let frames = dec.feed(&buf[..n])?;
            for f in frames {
                match link.on_receive(&f) {
                    Receive::Control => {
                        if !handshook {
                            if let Some(peer_last) = link::parse_hello_ack(&f) {
                                handshook = true;
                                for rf in link.retransmit_after(peer_last) {
                                    if write_frame(&mut conn, &rf).is_err() {
                                        io_ok = false;
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    Receive::Duplicate => {}
                    Receive::Fresh => {
                        let mut wire = WireOut {
                            link: &mut link,
                            conn: &mut conn,
                            io_ok: &mut io_ok,
                        };
                        match handle_msg(&mut state, &mut wire, &f.payload, services, index)? {
                            Flow::Done => return Ok(()),
                            Flow::Continue => {}
                        }
                    }
                }
            }
            if io_ok && link.owes_ack() {
                let af = link.ack_frame();
                if write_frame(&mut conn, &af).is_err() {
                    io_ok = false;
                }
            }
            if !io_ok {
                continue 'life;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::check::{Check, Gen};
    use gridq_common::{DetRng, QueryId, SubplanId, Value};
    use gridq_engine::distributed::{
        ExchangeSpec, ParallelStageSpec, RoutingPolicy, SourceSpec, StreamKeys,
    };
    use gridq_engine::table::Table;
    use std::ops::Range;

    fn int_table(name: &str, n: usize) -> Arc<Table> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let rows = (0..n)
            .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
            .collect();
        Arc::new(Table::new(name, schema, rows).unwrap())
    }

    /// Resolves the test workload's only service; both the in-process
    /// workers and the coordinator-side validation use it.
    fn resolver() -> ServiceResolver {
        standard_resolver()
    }

    fn wire_call_spec(table: &Arc<Table>) -> WireStageSpec {
        WireStageSpec::ServiceCall {
            input_schema: table.schema().clone(),
            service: "Square".into(),
            service_cost_ms: 1.0,
            arg_cols: vec![0],
            output_name: "sq".into(),
            keep_input: false,
        }
    }

    fn wire_join_spec(build: &Arc<Table>, probe: &Arc<Table>) -> WireStageSpec {
        WireStageSpec::HashJoin {
            build_schema: build.schema().clone(),
            probe_schema: probe.schema().clone(),
            build_key: 0,
            probe_key: 0,
            build_cost_ms: 0.1,
            probe_cost_ms: 0.5,
        }
    }

    fn call_plan(table: &Arc<Table>, partitions: usize) -> DistributedPlan {
        let factory = ServiceCallFactory::new(
            table.schema(),
            resolver()("Square", 1.0).unwrap(),
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

    /// Asserts the results are exactly the squares of `0..n`, in any
    /// order (sequence numbers are renumbered by operators).
    fn assert_squares(results: &[Tuple], n: usize) {
        let mut values: Vec<i64> = results
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .collect();
        values.sort_unstable();
        let expected: Vec<i64> = (0..n as i64).map(|i| i * i).collect();
        assert_eq!(values, expected);
    }

    fn run_call(
        table: &Arc<Table>,
        partitions: usize,
        configure: impl FnOnce(&mut SocketConfig),
    ) -> SocketReport {
        let plan = call_plan(table, partitions);
        let mut config = SocketConfig::new(wire_call_spec(table), resolver());
        config.cost_scale = 0.002;
        configure(&mut config);
        SocketExecutor::new(catalog(&[table]), config)
            .run(&plan)
            .unwrap()
    }

    #[test]
    fn static_run_squares_every_tuple_over_unix_sockets() {
        let table = int_table("t", 200);
        let report = run_call(&table, 2, |_| {});
        assert_squares(&report.results, 200);
        assert_eq!(report.per_partition_processed.iter().sum::<u64>(), 200);
        assert_eq!(report.reconnects, 0);
        assert_eq!(report.dedup_peak_entries, 0);
        assert!(report.log_audits.is_empty(), "no recovery logs when off");
        assert!(report.delivery_gaps.is_empty());
    }

    #[test]
    fn tcp_transport_smoke() {
        let table = int_table("t", 60);
        let report = run_call(&table, 2, |c| c.transport = SocketTransport::Tcp);
        assert_squares(&report.results, 60);
    }

    #[test]
    fn scripted_prospective_adaptation_deploys() {
        let table = int_table("t", 400);
        let report = run_call(&table, 2, |c| {
            c.adaptations = vec![ScriptedAdaptation {
                after_routed: 50,
                weights: vec![0.9, 0.1],
                retrospective: false,
            }];
        });
        assert_squares(&report.results, 400);
        assert_eq!(report.adaptations_deployed, 1);
        assert!(
            (report.final_distribution[0] - 0.9).abs() < 1e-9
                && (report.final_distribution[1] - 0.1).abs() < 1e-9,
            "distribution swapped: {:?}",
            report.final_distribution
        );
    }

    #[test]
    fn retrospective_recall_migrates_join_state() {
        let build = int_table("build", 100);
        let probe = int_table("probe", 600);
        let plan = join_plan(&build, &probe, 0.2, 1.0);
        let mut config = SocketConfig::new(wire_join_spec(&build, &probe), resolver());
        config.cost_scale = 0.05;
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 150,
            weights: vec![0.25, 0.75],
            retrospective: true,
        }];
        let report = SocketExecutor::new(catalog(&[&build, &probe]), config)
            .run(&plan)
            .unwrap();
        // Every probe key under 100 joins exactly one build tuple.
        assert_eq!(report.results.len(), 100, "{report:?}");
        assert_eq!(report.adaptations_deployed, 1, "{report:?}");
        assert_eq!(report.recalls_completed, 1, "{report:?}");
        assert!(report.state_tuples_migrated >= 1, "{report:?}");
        assert!(!report.log_audits.is_empty());
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[derive(Debug)]
    struct DropConn {
        remaining: AtomicU64,
    }

    impl ChaosHook for DropConn {
        fn conn_drop(&self, worker: usize) -> bool {
            worker == 0
                && self
                    .remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
        }
    }

    #[test]
    fn conn_drop_reconnects_and_loses_nothing() {
        let table = int_table("t", 200);
        let report = run_call(&table, 2, |c| {
            c.chaos = Some(Arc::new(DropConn {
                remaining: AtomicU64::new(3),
            }));
        });
        assert_squares(&report.results, 200);
        assert!(report.reconnects >= 1, "{report:?}");
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[derive(Debug)]
    struct ChunkWrites;

    impl ChaosHook for ChunkWrites {
        fn partial_write(&self, worker: usize) -> bool {
            worker == 1
        }
    }

    #[test]
    fn partial_writes_are_reassembled_by_the_decoder() {
        let table = int_table("t", 200);
        let report = run_call(&table, 2, |c| c.chaos = Some(Arc::new(ChunkWrites)));
        assert_squares(&report.results, 200);
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[derive(Debug)]
    struct SlowPeer;

    impl ChaosHook for SlowPeer {
        fn slow_peer_stall_ms(&self, worker: usize) -> f64 {
            if worker == 0 {
                2.0
            } else {
                0.0
            }
        }
    }

    #[test]
    fn slow_peer_backpressure_completes() {
        let table = int_table("t", 200);
        let report = run_call(&table, 2, |c| c.chaos = Some(Arc::new(SlowPeer)));
        assert_squares(&report.results, 200);
        assert!(report.delivery_gaps.is_empty(), "{report:?}");
        for audit in &report.log_audits {
            assert!(audit.conserved(), "{audit:?}");
        }
    }

    #[test]
    fn stage_specs_round_trip_over_the_wire() {
        let table = int_table("t", 1);
        let call = wire_call_spec(&table);
        let mut buf = Vec::new();
        call.encode(&mut buf);
        let back = WireStageSpec::decode(&mut Reader::new(&buf)).unwrap();
        assert!(!back.stateful());
        let WireStageSpec::ServiceCall {
            service,
            arg_cols,
            keep_input,
            ..
        } = back
        else {
            panic!("decoded the wrong variant");
        };
        assert_eq!(service, "Square");
        assert_eq!(arg_cols, vec![0]);
        assert!(!keep_input);

        let join = wire_join_spec(&table, &table);
        let mut buf = Vec::new();
        join.encode(&mut buf);
        let back = WireStageSpec::decode(&mut Reader::new(&buf)).unwrap();
        assert!(back.stateful());
    }

    #[test]
    fn addresses_parse_from_their_display_form() {
        assert!(matches!(parse_addr("tcp:127.0.0.1:9000"), Ok(Addr::Tcp(_))));
        assert!(matches!(parse_addr("unix:/tmp/x.sock"), Ok(Addr::Unix(_))));
        assert!(parse_addr("carrier-pigeon:coop").is_err());
    }

    #[test]
    fn stateful_stages_reject_prospective_adaptations() {
        let build = int_table("build", 10);
        let probe = int_table("probe", 10);
        let plan = join_plan(&build, &probe, 0.1, 0.1);
        let mut config = SocketConfig::new(wire_join_spec(&build, &probe), resolver());
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 5,
            weights: vec![0.5, 0.5],
            retrospective: false,
        }];
        let err = SocketExecutor::new(catalog(&[&build, &probe]), config)
            .run(&plan)
            .unwrap_err();
        assert!(matches!(err, GridError::Config(_)), "{err:?}");
    }

    #[test]
    fn adaptation_weight_arity_must_match_partitions() {
        let table = int_table("t", 10);
        let plan = call_plan(&table, 2);
        let mut config = SocketConfig::new(wire_call_spec(&table), resolver());
        config.adaptations = vec![ScriptedAdaptation {
            after_routed: 5,
            weights: vec![1.0],
            retrospective: false,
        }];
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&plan)
            .unwrap_err();
        assert!(matches!(err, GridError::Config(_)), "{err:?}");
    }

    /// A writer over one fresh ring per producer, not yet connected,
    /// with the producers' data edges and its control address.
    fn test_writer(
        producers: usize,
        chaos: Option<Arc<dyn ChaosHook>>,
    ) -> (WriterState, Vec<DataTx>, WriterTx, Receiver<WCtl>) {
        let waker = Arc::new(Waker::new());
        let (data_txs, rings) = (0..producers)
            .map(|_| {
                let (tx, rx) = ring::<Vec<u8>>(RING_BLOCKS);
                let waker = Arc::clone(&waker);
                (DataTx { ring: tx, waker }, rx)
            })
            .unzip();
        let (tx, ctl_rx) = channel::<WCtl>();
        let wctl = WriterTx {
            tx,
            waker: Arc::clone(&waker),
        };
        let st = WriterState {
            worker: 0,
            link: Arc::new(Mutex::new(LinkState::new())),
            chaos,
            rings,
            waker,
            conn: None,
            out: Vec::new(),
        };
        (st, data_txs, wctl, ctl_rx)
    }

    /// A connected stream pair over a Unix-domain socket.
    fn stream_pair() -> (Stream, Stream) {
        let listener = Listener::bind(&Addr::scratch_unix()).unwrap();
        let near = Stream::connect(&listener.local_addr().unwrap()).unwrap();
        let far = listener.accept().unwrap();
        (near, far)
    }

    fn read_to_end(mut s: Stream) -> Vec<u8> {
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes).unwrap();
        bytes
    }

    /// CONFIG must hold the lowest sequence number on every link. The
    /// writer here starts only when the test releases it, so a
    /// configuration step that returned before its writers stamped
    /// CONFIG (and let producers start) is caught deterministically.
    #[test]
    fn config_is_stamped_before_producers_may_start() {
        let (st, data_txs, wctl, ctl_rx) = test_writer(1, None);
        let link = Arc::clone(&st.link);
        let (go_tx, go_rx) = channel::<()>();
        let writer = thread::spawn(move || {
            if go_rx.recv().is_ok() {
                writer_loop(st, ctl_rx);
            }
        });
        let (configured_tx, configured_rx) = channel();
        let coordinator = {
            let wctls = vec![wctl.clone()];
            thread::spawn(move || {
                let res = send_configs(&wctls, vec![vec![tag::CONFIG]]);
                let _ = configured_tx.send(res);
            })
        };
        assert!(
            configured_rx
                .recv_timeout(Duration::from_millis(100))
                .is_err(),
            "configuration returned before the writer stamped CONFIG"
        );
        go_tx.send(()).unwrap();
        configured_rx.recv().unwrap().unwrap();
        assert_eq!(link.lock().unacked(), 1);
        // A producer starting now can only be stamped after CONFIG.
        data_txs[0].push(vec![tag::DATA]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while link.lock().unacked() < 2 {
            assert!(Instant::now() < deadline, "data block never stamped");
            thread::yield_now();
        }
        let frames = link.lock().retransmit_after(0);
        let tags: Vec<u8> = frames.iter().map(|f| f.payload[0]).collect();
        assert_eq!(tags, vec![tag::CONFIG, tag::DATA]);
        assert!(wctl.send(WCtl::Shutdown));
        writer.join().unwrap();
        coordinator.join().unwrap();
    }

    /// Fires `conn_drop` on exactly the `k`-th consultation.
    #[derive(Debug)]
    struct DropKth {
        seen: AtomicU64,
        k: u64,
    }

    impl ChaosHook for DropKth {
        fn conn_drop(&self, _worker: usize) -> bool {
            self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.k
        }
    }

    /// One sweep coalesces blocks from two rings; `conn_drop` fires on
    /// its 4th data frame. Frames 1–3 reach the peer, frames 4–6 come
    /// back through `retransmit_after` on reconnect, and the receiving
    /// link hands every sequence number to the application exactly
    /// once, in order, however the byte stream is split.
    #[test]
    fn coalesced_sweep_survives_a_mid_batch_conn_drop() {
        let chaos = DropKth {
            seen: AtomicU64::new(0),
            k: 4,
        };
        let (mut st, data_txs, _wctl, _ctl_rx) = test_writer(2, Some(Arc::new(chaos)));
        for i in 0..3u8 {
            for (p, tx) in data_txs.iter().enumerate() {
                tx.push(vec![tag::DATA, p as u8, i]).unwrap();
            }
        }
        // Round-robin passes: the sweep stamps ring 0 then ring 1, block
        // by block.
        let sent: Vec<Vec<u8>> = (0..3u8)
            .flat_map(|i| (0..2u8).map(move |p| vec![tag::DATA, p, i]))
            .collect();
        let (near, far) = stream_pair();
        st.conn = Some(near);
        assert!(st.sweep_rings());
        assert!(st.conn.is_none(), "the seam tears the connection down");
        assert_eq!(st.link.lock().unacked(), 6, "every block is stamped");
        let delivered = read_to_end(far);
        let frames = Decoder::new().feed(&delivered).unwrap();
        let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "the frames before the seam arrive");
        // Reconnect with a conservative hello (the peer confirms only
        // seq 1), so the retransmission overlaps what was delivered.
        let (near, far) = stream_pair();
        assert!(st.handle(WCtl::Conn {
            stream: near,
            peer_last: 1,
        }));
        drop(st);
        let resent = read_to_end(far);
        let seqs: Vec<u64> = Decoder::new()
            .feed(&resent)
            .unwrap()
            .iter()
            .map(|f| f.seq)
            .collect();
        assert_eq!(seqs, vec![2, 3, 4, 5, 6]);
        let stream: Vec<u8> = delivered.into_iter().chain(resent).collect();
        Check::new("coalesced_reconnect").cases(64).run(
            |g: &mut DetRng| g.vec_of(0, 8, |g| g.usize_in(0, stream.len() + 1)),
            |cuts: &Vec<usize>| {
                let mut cuts = cuts.clone();
                cuts.sort_unstable();
                let mut dec = Decoder::new();
                let mut receiver = LinkState::new();
                let mut fresh = Vec::new();
                let mut prev = 0;
                for cut in cuts.into_iter().chain(std::iter::once(stream.len())) {
                    for f in dec.feed(&stream[prev..cut]).map_err(|e| e.to_string())? {
                        if receiver.on_receive(&f) == Receive::Fresh {
                            fresh.push(f.payload);
                        }
                    }
                    prev = cut;
                }
                if fresh != sent {
                    return Err(format!("application saw {fresh:?}"));
                }
                Ok(())
            },
        );
    }

    /// Drives one worker's `WorkerState` through `handle_msg` without a
    /// coordinator: writes are off, so everything it sends stays in its
    /// link outbox for inspection.
    struct TestWorker {
        state: Option<WorkerState>,
        link: LinkState,
        conn: Stream,
        _peer: Stream,
    }

    impl TestWorker {
        /// A join worker: source 0 builds, source 1 probes, and the
        /// exchange block is 10 tuples.
        fn join(resilient: bool) -> TestWorker {
            let (conn, peer) = stream_pair();
            let keys = int_table("k", 1);
            let cfg = WireConfig {
                worker: 0,
                resilient,
                logging: resilient,
                hash_routing: true,
                cost_scale: 1e-9,
                receive_cost_ms: 0.0,
                read_stall_ms: 0.0,
                cost_factor: 1.0,
                cost_extra_ms: 0.0,
                eos_needed: 2,
                build_eos_needed: 1,
                build_source: Some(0),
                block_tuples: 10,
                stage: wire_join_spec(&keys, &keys),
            };
            let mut w = TestWorker {
                state: None,
                link: LinkState::new(),
                conn,
                _peer: peer,
            };
            w.feed(&cfg.encode());
            w
        }

        fn feed(&mut self, payload: &[u8]) {
            let mut io_ok = false;
            let mut wire = WireOut {
                link: &mut self.link,
                conn: &mut self.conn,
                io_ok: &mut io_ok,
            };
            handle_msg(&mut self.state, &mut wire, payload, &resolver(), 0).unwrap();
        }

        /// A DATA block from `source`: one tuple per key (its seq is the
        /// key), then the given window markers.
        fn data(&mut self, source: usize, stream: StreamTag, keys: Range<i64>, markers: &[u64]) {
            let mut items: Vec<Staged> = keys
                .map(|k| Staged::Tuple(stream, Tuple::with_seq(vec![Value::Int(k)], k as u64)))
                .collect();
            for &id in markers {
                items.push(Staged::Marker(Checkpoint { dest: 0, id }, 0));
            }
            self.feed(&enc_data(source, false, &items));
        }

        /// Every payload the worker has sent so far, oldest first.
        fn sent(&mut self) -> Vec<Vec<u8>> {
            let frames = self.link.retransmit_after(0);
            frames.into_iter().map(|f| f.payload).collect()
        }

        /// The join keys of each RESULTS frame sent so far.
        fn results(&mut self) -> Vec<Vec<i64>> {
            let mut batches = Vec::new();
            for p in self.sent().iter().filter(|p| p[0] == tag::RESULTS) {
                let mut r = Reader::new(&p[1..]);
                let mut keys = Vec::new();
                while !r.is_empty() {
                    keys.push(wire::get_tuple(&mut r).unwrap().value(0).as_int().unwrap());
                }
                batches.push(keys);
            }
            batches
        }
    }

    #[test]
    fn probe_block_results_ship_with_the_block() {
        let mut w = TestWorker::join(false);
        w.data(0, StreamTag::Build, 0..20, &[]);
        w.feed(&enc_eos(StreamTag::Build, 0));
        assert!(w.results().is_empty(), "build tuples produce no output");
        w.data(1, StreamTag::Probe, 15..25, &[]);
        assert_eq!(w.results(), vec![(15..20).collect::<Vec<i64>>()]);
        let tags: Vec<u8> = w.sent().iter().map(|p| p[0]).collect();
        assert!(!tags.contains(&tag::DONE), "the probe stream has not ended");
    }

    #[test]
    fn resilient_results_precede_the_ack_for_their_window() {
        let mut w = TestWorker::join(true);
        w.data(0, StreamTag::Build, 0..20, &[]);
        w.feed(&enc_eos(StreamTag::Build, 0));
        w.data(1, StreamTag::Probe, 15..25, &[1]);
        let tags: Vec<u8> = w.sent().iter().map(|p| p[0]).collect();
        assert_eq!(tags, vec![tag::RESULTS, tag::ACK], "{tags:?}");
        assert_eq!(w.results(), vec![(15..20).collect::<Vec<i64>>()]);
    }

    #[test]
    fn held_probe_replay_ships_a_frame_per_block() {
        let mut w = TestWorker::join(false);
        w.data(0, StreamTag::Build, 0..30, &[]);
        w.data(1, StreamTag::Probe, 0..25, &[]);
        assert!(w.results().is_empty(), "probes are held while building");
        w.feed(&enc_eos(StreamTag::Build, 0));
        let batches = w.results();
        assert_eq!(
            batches.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![10, 10, 5]
        );
        assert_eq!(batches.concat(), (0..25).collect::<Vec<i64>>());
    }

    /// A worker that cannot build its stage exits at CONFIG. The run
    /// must fail promptly with that worker's own error instead of
    /// waiting out the collect deadline.
    #[test]
    fn a_failed_worker_fails_the_run_with_its_own_error() {
        let table = int_table("t", 200);
        let plan = call_plan(&table, 2);
        let unresolvable: ServiceResolver = Arc::new(|_: &str, _: f64| None);
        let mut config = SocketConfig::new(wire_call_spec(&table), unresolvable);
        config.cost_scale = 0.002;
        let started = Instant::now();
        let err = SocketExecutor::new(catalog(&[&table]), config)
            .run(&plan)
            .unwrap_err();
        assert!(err.to_string().contains("cannot resolve service"), "{err}");
        assert!(started.elapsed() < Duration::from_secs(30), "{err}");
    }
}
