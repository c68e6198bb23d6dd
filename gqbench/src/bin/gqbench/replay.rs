//! Single-threaded replays of a workload's own tuple and M1 streams
//! through each layer's public functions, timed from outside the crates.
//! Every replay repeats [`REPS`] times and reports the median, and checks
//! what the layer returned, so a replay that silently does less work
//! cannot read as a faster layer.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use gridq_adapt::{
    AdaptivityConfig, DetectorOutput, Diagnoser, MonitoringEventDetector, Responder, M1,
};
use gridq_common::sync::ring::ring;
use gridq_common::wire::{self, Reader};
use gridq_common::{DistributionVector, NodeId, PartitionId, QueryId, SimTime, SubplanId, Tuple};
use gridq_engine::distributed::{DistributedPlan, Router};
use gridq_engine::evaluator::{PartitionEvaluator, StreamTag};
use gridq_engine::{AdmissionConfig, AdmissionController, AdmissionDecision};
use gridq_net::frame::kind;
use gridq_net::{Addr, Decoder, Frame, Listener, Stream};
use gridq_obs::{MetricsRegistry, Obs, TimelineEvent, TimelineKind};
use gridq_recovery::SharedRecoveryLog;

use crate::reference::Fingerprint;
use crate::stats::median;

/// Repetitions of each replay; the median is reported.
pub const REPS: usize = 5;

/// Bytes per `Decoder::feed` call: frames span several feeds, as they do
/// when a socket read returns part of a frame.
const FEED_BYTES: usize = 1460;

fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

fn per(total_ns: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total_ns / count as f64
    }
}

fn median_of(mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        v.push(f()?);
    }
    Ok(median(&v))
}

fn router(plan: &DistributedPlan) -> Result<Router, String> {
    let stage = &plan.stages[0];
    Router::from_policy(&stage.exchange.routing, stage.nodes.len() as u32)
        .map_err(|e| format!("router: {e}"))
}

fn evaluators(plan: &DistributedPlan) -> Vec<Box<dyn PartitionEvaluator>> {
    let stage = &plan.stages[0];
    (0..stage.nodes.len() as u32)
        .map(|i| stage.factory.create(i))
        .collect()
}

/// `Router::route` over the stream: ns per tuple, and each tuple's
/// destination.
pub fn route(
    plan: &DistributedPlan,
    stream: &[(StreamTag, Tuple)],
) -> Result<(f64, Vec<u32>), String> {
    let mut dests = Vec::new();
    let per_tuple = median_of(|| {
        let mut r = router(plan)?;
        dests.clear();
        dests.reserve(stream.len());
        let t = Instant::now();
        for (tag, tuple) in stream {
            dests.push(r.route(*tag, tuple).map_err(|e| format!("route: {e}"))?);
        }
        Ok(per(ns(t.elapsed()), stream.len()))
    })?;
    Ok((per_tuple, black_box(dests)))
}

/// The evaluator replay's results.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalReplay {
    /// ns per build-stream tuple through `PartitionEvaluator::process`.
    pub build_ns: f64,
    /// ns per probe-stream tuple.
    pub probe_ns: f64,
    /// ns per single-stream tuple (the entropy service call).
    pub single_ns: f64,
    /// Operator state held after the build phase, summed over partitions.
    pub state_tuples: usize,
    /// The whole query, routed and evaluated serially on one thread, ms.
    pub serial_ms: f64,
}

/// Replays the evaluators, checking their output against the reference.
pub fn evaluate(
    plan: &DistributedPlan,
    stream: &[(StreamTag, Tuple)],
    dests: &[u32],
    reference: &Fingerprint,
) -> Result<EvalReplay, String> {
    let mut out = EvalReplay::default();
    let count = |tag| stream.iter().filter(|(t, _)| *t == tag).count();
    let (n_build, n_probe, n_single) = (
        count(StreamTag::Build),
        count(StreamTag::Probe),
        count(StreamTag::Single),
    );
    let mut phase = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..REPS {
        let mut evs = evaluators(plan);
        let mut outputs = Vec::new();
        let mut t = Instant::now();
        let mut current = stream.first().map(|(tag, _)| *tag);
        for ((tag, tuple), &d) in stream.iter().zip(dests) {
            if Some(*tag) != current {
                phase[phase_index(current)].push(ns(t.elapsed()));
                if current == Some(StreamTag::Build) {
                    out.state_tuples = evs.iter().map(|e| e.state_size()).sum();
                }
                current = Some(*tag);
                t = Instant::now();
            }
            let o = evs[d as usize]
                .process(*tag, tuple)
                .map_err(|e| format!("evaluate: {e}"))?;
            outputs.extend(o.outputs);
        }
        phase[phase_index(current)].push(ns(t.elapsed()));
        check_outputs(&outputs, reference, "evaluator replay")?;
    }
    out.build_ns = per(median(&phase[0]), n_build);
    out.probe_ns = per(median(&phase[1]), n_probe);
    out.single_ns = per(median(&phase[2]), n_single);
    out.serial_ms = median_of(|| {
        let mut r = router(plan)?;
        let mut evs = evaluators(plan);
        let mut outputs = Vec::new();
        let t = Instant::now();
        for (tag, tuple) in stream {
            let d = r.route(*tag, tuple).map_err(|e| format!("route: {e}"))?;
            let o = evs[d as usize]
                .process(*tag, tuple)
                .map_err(|e| format!("evaluate: {e}"))?;
            outputs.extend(o.outputs);
        }
        let elapsed = t.elapsed();
        check_outputs(&outputs, reference, "serial replay")?;
        Ok(elapsed.as_secs_f64() * 1000.0)
    })?;
    Ok(out)
}

fn phase_index(tag: Option<StreamTag>) -> usize {
    match tag {
        Some(StreamTag::Build) => 0,
        Some(StreamTag::Probe) => 1,
        _ => 2,
    }
}

fn check_outputs(outputs: &[Tuple], reference: &Fingerprint, what: &str) -> Result<(), String> {
    if Fingerprint::of(outputs) == *reference {
        Ok(())
    } else {
        Err(format!(
            "{what} produced {} rows that differ from the reference",
            outputs.len()
        ))
    }
}

/// Stages the routed stream into per-destination blocks of `block`
/// tuples, flushing each destination when its block fills, as producers do.
pub fn blocks(
    stream: &[(StreamTag, Tuple)],
    dests: &[u32],
    partitions: usize,
    block: usize,
) -> Vec<Vec<Tuple>> {
    let block = block.max(1);
    let mut staging: Vec<Vec<Tuple>> = vec![Vec::new(); partitions];
    let mut out = Vec::new();
    for ((_, tuple), &d) in stream.iter().zip(dests) {
        let buf = &mut staging[d as usize];
        buf.push(tuple.clone());
        if buf.len() == block {
            out.push(std::mem::take(buf));
        }
    }
    out.extend(staging.into_iter().filter(|b| !b.is_empty()));
    out
}

/// The wire-codec replay's results.
#[derive(Debug, Default, Clone, Copy)]
pub struct WireReplay {
    /// ns per tuple through `wire::put_tuples`.
    pub encode_ns: f64,
    /// ns per tuple through `wire::get_tuples`.
    pub decode_ns: f64,
    /// Encoded bytes per tuple.
    pub bytes_per_tuple: f64,
}

/// `put_tuples`/`get_tuples` over every block; returns the encoded
/// payloads for the frame replay.
pub fn wire_codec(blocks: &[Vec<Tuple>]) -> Result<(WireReplay, Vec<Vec<u8>>), String> {
    let tuples: usize = blocks.iter().map(Vec::len).sum();
    let expected = Fingerprint::of(&blocks.concat());
    let mut payloads = Vec::new();
    let encode = median_of(|| {
        payloads.clear();
        let t = Instant::now();
        for b in blocks {
            let mut out = Vec::new();
            wire::put_tuples(&mut out, b);
            payloads.push(out);
        }
        Ok(per(ns(t.elapsed()), tuples))
    })?;
    let decode = median_of(|| {
        let mut decoded = Vec::with_capacity(tuples);
        let t = Instant::now();
        for p in &payloads {
            let got = wire::get_tuples(&mut Reader::new(p)).map_err(|e| format!("decode: {e}"))?;
            decoded.extend(got);
        }
        let elapsed = t.elapsed();
        if Fingerprint::of(&decoded) != expected {
            return Err("wire round trip changed the tuples".into());
        }
        Ok(per(ns(elapsed), tuples))
    })?;
    let bytes: usize = payloads.iter().map(Vec::len).sum();
    Ok((
        WireReplay {
            encode_ns: encode,
            decode_ns: decode,
            bytes_per_tuple: per(bytes as f64, tuples),
        },
        payloads,
    ))
}

/// `Frame::encode` and fragmented `Decoder::feed` over every payload:
/// ns per block each way.
pub fn frames(payloads: &[Vec<u8>]) -> Result<(f64, f64), String> {
    let frames: Vec<Frame> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| Frame {
            kind: kind::MSG,
            seq: i as u64 + 1,
            ack: 0,
            payload: p.clone(),
        })
        .collect();
    let mut bytes = Vec::new();
    let encode = median_of(|| {
        bytes.clear();
        let t = Instant::now();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        Ok(per(ns(t.elapsed()), frames.len()))
    })?;
    let decode = median_of(|| {
        let mut decoder = Decoder::new();
        let mut got = 0usize;
        let mut last_seq = 0u64;
        let t = Instant::now();
        for chunk in bytes.chunks(FEED_BYTES) {
            for f in decoder
                .feed(chunk)
                .map_err(|e| format!("frame decode: {e}"))?
            {
                got += 1;
                last_seq = f.seq;
            }
        }
        let elapsed = t.elapsed();
        if got != frames.len() || last_seq != frames.len() as u64 || decoder.pending() != 0 {
            return Err(format!("decoded {got} of {} frames", frames.len()));
        }
        Ok(per(ns(elapsed), frames.len()))
    })?;
    Ok((encode, decode))
}

/// Blocks the executor's ring holds per edge before the producer parks.
const RING_BLOCKS: usize = 8;

/// Moves every block through an SPSC ring from a producer thread to a
/// consumer thread: ns per block, from both threads passing a barrier to
/// the consumer popping the last block.
pub fn ring_transfer(blocks: &[Vec<Tuple>]) -> Result<f64, String> {
    let tuples: usize = blocks.iter().map(Vec::len).sum();
    median_of(|| {
        let owned: Vec<Vec<Tuple>> = blocks.to_vec();
        let (tx, rx) = ring::<Vec<Tuple>>(RING_BLOCKS);
        let barrier = std::sync::Barrier::new(2);
        let (start, (end, got)) = std::thread::scope(|s| {
            let producer = s.spawn(|| {
                barrier.wait();
                let start = Instant::now();
                for b in owned {
                    if tx.push(b).is_err() {
                        break;
                    }
                }
                drop(tx);
                start
            });
            let consumer = s.spawn(|| {
                barrier.wait();
                let mut got = 0usize;
                loop {
                    match rx.pop_wait(Duration::from_millis(50)) {
                        Some(b) => got += black_box(b).len(),
                        None if rx.is_closed() && rx.is_empty() => break,
                        None => {}
                    }
                }
                (Instant::now(), got)
            });
            (
                producer.join().expect("ring producer panicked"),
                consumer.join().expect("ring consumer panicked"),
            )
        });
        if got != tuples {
            return Err(format!("ring delivered {got} of {tuples} tuples"));
        }
        Ok(per(ns(end.duration_since(start)), blocks.len()))
    })
}

/// `SharedRecoveryLog::record` per tuple and `acknowledge` per closed
/// window, with the executor's layout: a retained log for the build
/// source, a pruning log for the others. Each window is acknowledged as
/// soon as it closes, as a consumer does, so the logs stay as short as in
/// a run; the acknowledgements are timed one by one (less an empty timer
/// pair) and the records are the rest of the loop.
pub fn recovery(
    stream: &[(StreamTag, Tuple)],
    dests: &[u32],
    partitions: usize,
    interval: usize,
) -> Result<(f64, f64), String> {
    let timer = timer_overhead_ns();
    let mut record_ns = Vec::new();
    let mut ack_ns = Vec::new();
    for _ in 0..REPS {
        let build = SharedRecoveryLog::retained(partitions, interval).map_err(|e| e.to_string())?;
        let other = SharedRecoveryLog::new(partitions, interval).map_err(|e| e.to_string())?;
        let items: Vec<(StreamTag, Tuple)> = stream.to_vec();
        let mut windows = 0usize;
        let mut acking = 0.0;
        let t = Instant::now();
        for ((tag, tuple), &d) in items.into_iter().zip(dests) {
            let log = if tag == StreamTag::Build {
                &build
            } else {
                &other
            };
            if let Some(cp) = log.record(d, (tag, tuple)).map_err(|e| e.to_string())? {
                let a = Instant::now();
                black_box(log.acknowledge(cp.dest, cp.id, log.epoch()));
                acking += ns(a.elapsed()) - timer;
                windows += 1;
            }
        }
        let total = ns(t.elapsed());
        record_ns.push(per(total - acking - timer * windows as f64, stream.len()));
        ack_ns.push(per(acking, windows));
        let audits = [build.audit(), other.audit()];
        let accepted: u64 = audits.iter().map(|a| a.acks_accepted).sum();
        if audits.iter().any(|a| !a.conserved()) || accepted != windows as u64 {
            return Err(format!(
                "recovery replay: {accepted} of {windows} acks accepted, audits {audits:?}"
            ));
        }
    }
    Ok((median(&record_ns), median(&ack_ns)))
}

/// Rebuilds the M1 notifications a threaded run recorded on its timeline.
pub fn m1_stream(plan: &DistributedPlan, events: &[TimelineEvent]) -> Vec<M1> {
    let stage = &plan.stages[0];
    let parts: Vec<(String, PartitionId, NodeId)> = stage
        .nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let p = PartitionId::new(stage.id, i as u32);
            (p.to_string(), p, node)
        })
        .collect();
    events
        .iter()
        .filter_map(|e| match &e.kind {
            TimelineKind::RawM1 {
                partition,
                cost_per_tuple_ms,
                leaf_wait_ms,
                ..
            } => parts
                .iter()
                .find(|(s, _, _)| s == partition)
                .map(|&(_, p, node)| M1 {
                    query: plan.query,
                    partition: p,
                    node,
                    cost_per_tuple_ms: *cost_per_tuple_ms,
                    leaf_wait_ms: *leaf_wait_ms,
                    selectivity: 1.0,
                    tuples_produced: 0,
                    at: SimTime::from_millis(e.at_ms),
                }),
            _ => None,
        })
        .collect()
}

/// The control-loop replay's results: ns per call of each stage.
#[derive(Debug, Default, Clone, Copy)]
pub struct AdaptReplay {
    /// `MonitoringEventDetector::on_m1`, per M1.
    pub detector_ns: f64,
    /// `Diagnoser::on_cost_update`, per cost update.
    pub diagnoser_ns: f64,
    /// `Responder::on_imbalance`, per imbalance.
    pub responder_ns: f64,
}

/// Feeds each query's M1 stream through detector → diagnoser → responder
/// on one thread, deploying accepted commands back into the diagnoser as
/// the executor does. Each call is timed on its own, less the cost of an
/// empty timer pair.
pub fn adapt(
    adaptivity: &AdaptivityConfig,
    stage: SubplanId,
    partitions: usize,
    streams: &[Vec<M1>],
) -> Result<AdaptReplay, String> {
    let m1s: usize = streams.iter().map(Vec::len).sum();
    if m1s == 0 {
        return Ok(AdaptReplay::default());
    }
    let timer = timer_overhead_ns();
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (mut det_ns, mut diag_ns, mut resp_ns) = (0.0, 0.0, 0.0);
        let (mut updates, mut imbalances) = (0usize, 0usize);
        for stream in streams {
            let mut detector = MonitoringEventDetector::new(adaptivity);
            let mut diagnoser = Diagnoser::new(
                stage,
                partitions as u32,
                DistributionVector::uniform(partitions),
                adaptivity,
            );
            let mut responder = Responder::new(adaptivity);
            for (i, m1) in stream.iter().enumerate() {
                let t = Instant::now();
                let output = detector.on_m1(m1);
                det_ns += ns(t.elapsed()) - timer;
                let DetectorOutput::Cost(update) = output else {
                    continue;
                };
                updates += 1;
                let t = Instant::now();
                let imbalance = diagnoser.on_cost_update(&update);
                diag_ns += ns(t.elapsed()) - timer;
                let Some(imbalance) = imbalance else {
                    continue;
                };
                imbalances += 1;
                let progress = i as f64 / stream.len() as f64;
                let t = Instant::now();
                let (_, cmd) = responder.on_imbalance(&imbalance, progress);
                resp_ns += ns(t.elapsed()) - timer;
                if let Some(cmd) = cmd {
                    diagnoser.set_distribution(cmd.new_distribution);
                    responder.on_deploy_acknowledged(cmd.at);
                }
            }
        }
        reps.push([
            per(det_ns, m1s),
            per(diag_ns, updates),
            per(resp_ns, imbalances),
        ]);
    }
    let pick = |i: usize| median(&reps.iter().map(|r| r[i].max(0.0)).collect::<Vec<_>>());
    Ok(AdaptReplay {
        detector_ns: pick(0),
        diagnoser_ns: pick(1),
        responder_ns: pick(2),
    })
}

/// The median cost of an empty `Instant::now` / `elapsed` pair, ns.
fn timer_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            ns(black_box(t).elapsed())
        })
        .collect();
    median(&samples)
}

/// `Obs::record` of each query's own timeline events into a fresh journal
/// with the executor's default capacity: ns per event.
pub fn obs_record(timelines: &[&[TimelineEvent]], capacity: usize) -> f64 {
    let events: usize = timelines.iter().map(|t| t.len()).sum();
    if events == 0 {
        return 0.0;
    }
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut total = 0.0;
        for timeline in timelines {
            let obs = Obs::new(capacity);
            let kinds: Vec<(f64, Option<f64>, TimelineKind)> = timeline
                .iter()
                .map(|e| (e.at_ms, e.wall_ms, e.kind.clone()))
                .collect();
            let t = Instant::now();
            for (at, wall, kind) in kinds {
                black_box(obs.record(at, wall, kind));
            }
            total += ns(t.elapsed());
        }
        reps.push(per(total, events));
    }
    median(&reps)
}

/// A registry counter's `add(1)` once per input tuple, as the executor's
/// routed/processed counters do: ns per add.
pub fn obs_counter(tuples: usize) -> f64 {
    median(
        &(0..REPS)
            .map(|_| {
                let registry = MetricsRegistry::new();
                let counter = registry.counter("exec.tuples_routed");
                let t = Instant::now();
                for _ in 0..tuples {
                    counter.add(black_box(1));
                }
                let elapsed = t.elapsed();
                assert_eq!(counter.get(), tuples as u64, "counter lost adds");
                per(ns(elapsed), tuples)
            })
            .collect::<Vec<_>>(),
    )
}

/// `AdmissionController::submit`/`complete` for `queries` queries from
/// `sessions` closed-loop sessions over as many run slots: ns per query.
pub fn admission(queries: usize, sessions: usize) -> Result<f64, String> {
    let queries = queries.max(10_000);
    median_of(|| {
        let mut ctl = AdmissionController::new(AdmissionConfig {
            max_concurrent: sessions,
            queue_depth: sessions,
        })
        .map_err(|e| e.to_string())?;
        let mut running: VecDeque<QueryId> = VecDeque::with_capacity(sessions);
        let t = Instant::now();
        for _ in 0..queries {
            if running.len() == sessions {
                let id = running.pop_front().expect("a running query");
                ctl.complete(id).map_err(|e| e.to_string())?;
            }
            match ctl.submit() {
                AdmissionDecision::Admitted(id) => running.push_back(id),
                other => return Err(format!("admission replay: {other:?}")),
            }
        }
        for id in running.drain(..) {
            ctl.complete(id).map_err(|e| e.to_string())?;
        }
        let elapsed = t.elapsed();
        if ctl.stats().completed != queries as u64 {
            return Err("admission replay lost completions".into());
        }
        Ok(per(ns(elapsed), queries))
    })
}

/// Binds a Unix-domain listener, connects and accepts, `reps` times: the
/// median ms per connection.
pub fn connect_ms(reps: usize) -> Result<f64, String> {
    let listener = Listener::bind(&Addr::scratch_unix()).map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let client = Stream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let server = listener.accept().map_err(|e| format!("accept: {e}"))?;
        samples.push(t.elapsed().as_secs_f64() * 1000.0);
        drop((client, server));
    }
    Ok(median(&samples))
}
