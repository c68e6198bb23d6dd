//! gqbench: the gridq benchmark.
//!
//! ```text
//! cargo run --release --manifest-path gqbench/Cargo.toml -- \
//!     --workload <bulk_threaded|bulk_sockets|skewed_recall|small_queries> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale tiny]
//! ```
//!
//! Generates the workload's data from the seed, computes the reference
//! result, sets up and warms up (three times, reporting the median), then
//! runs the closed loop for `--seconds` (and at least long enough for the
//! p90 to have ten samples above it). Every query's result is checked
//! against the reference. Human-readable lines come first; the last line
//! of standard output is the JSON result. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics, from
//! spans around the calls the benchmark makes and from single-threaded
//! replays of the workload's streams, and writes the spans to
//! `.bench_trace/<workload>-seed<seed>.jsonl`. See `gqbench/README.md`.
//!
//! Exit status: 0 when every query returned the reference result, 1 when
//! any did not (the result line still prints, with `"correct":false`), 2
//! on a usage or set-up error (no result line).

mod heap;
mod metrics;
mod reference;
mod replay;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use gridq_exec::ThreadedConfig;
use gridq_obs::ObsConfig;
use gridq_workload::Q1Experiment;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::{Outcome, Tally};
use trace::Tracer;
use workload::{Counters, Prepared, QueryRecord, RunLog, Scale, Shape, Workload};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Runs of the one-tuple query per substrate behind `exec.query_fixed_ms_*`.
const FIXED_REPS: usize = 21;
/// Connections behind `net.connect_ms`.
const CONNECT_REPS: usize = 21;
/// Service-plane queries behind the service metrics of workloads that do
/// not use the service plane.
const SERVICE_PROBE_QUERIES: usize = 400;
/// Where Unix-domain sockets are created, relative to the working
/// directory, so the benchmark writes nothing outside its checkout.
const SOCKET_DIR: &str = ".bench_tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {name}; expected one of {}",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                });
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, got {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let origin = Instant::now();
    match run(origin) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("gqbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The set-up phase's measurements and the data the run uses.
struct SetUp {
    prepared: Prepared,
    setup_s: Vec<f64>,
    datagen_ms: Vec<f64>,
    reference_ms: Vec<f64>,
    tally: Tally,
}

/// Sets up [`SETUP_REPS`] times from scratch: data generation, reference
/// result, warm-up queries. The first set-up is timed from `origin`; every
/// set-up must regenerate the same data from the seed.
fn set_up(args: &Args, origin: Instant, tracer: &mut Tracer) -> Result<SetUp, String> {
    let mut out: Option<SetUp> = None;
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { origin } else { Instant::now() };
        let span = tracer.begin("setup", Tracer::root(), 0);
        let prep = tracer.begin("setup.prepare", span, 0);
        let (prepared, datagen_ms, reference_ms) =
            Prepared::new(args.workload, args.scale, args.seed)?;
        tracer.end(prep);
        let warm = tracer.begin("setup.warmup", span, 0);
        let mut tally = Tally::default();
        let mut warm_tracer = Tracer::new(false, origin);
        for session in 0..args.workload.clients() {
            for k in 0..args.workload.warmup_per_client() {
                let record = prepared.run_query(session, k, &mut warm_tracer, false);
                report_failure("warm-up", &record);
                tally.add(record.outcome);
            }
        }
        tracer.end(warm);
        tracer.end(span);
        let elapsed = start.elapsed().as_secs_f64();
        let s = match &mut out {
            Some(s) => {
                if s.prepared.reference != prepared.reference {
                    return Err("data generation is not deterministic in the seed".into());
                }
                s
            }
            None => out.insert(SetUp {
                prepared,
                setup_s: Vec::new(),
                datagen_ms: Vec::new(),
                reference_ms: Vec::new(),
                tally: Tally::default(),
            }),
        };
        s.setup_s.push(elapsed);
        s.datagen_ms.push(datagen_ms);
        s.reference_ms.push(reference_ms);
        s.tally.merge(&tally);
    }
    out.ok_or_else(|| "no set-up ran".to_string())
}

fn report_failure(phase: &str, record: &QueryRecord) {
    if record.outcome != Outcome::Correct {
        eprintln!(
            "gqbench: {phase} query {:?}: {}",
            record.outcome,
            record.error().unwrap_or("no detail")
        );
    }
}

fn run(origin: Instant) -> Result<ExitCode, String> {
    let args = parse_args()?;
    // One directory per process: concurrent runs in one checkout never
    // remove each other's sockets.
    let socket_dir = std::path::Path::new(SOCKET_DIR).join(std::process::id().to_string());
    std::fs::create_dir_all(&socket_dir).map_err(|e| format!("{}: {e}", socket_dir.display()))?;
    // Still single-threaded here: no other thread can observe the change.
    std::env::set_var("TMPDIR", &socket_dir);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let heap_sampler = heap::PeakSampler::start();

    let mut tracer = Tracer::new(args.trace, origin);
    let setup = set_up(&args, origin, &mut tracer)?;
    let rss_after_setup = metrics::peak_rss_mib().unwrap_or(0.0);
    let min_queries = match args.scale {
        Scale::Full => stats::min_samples_for(900),
        Scale::Tiny => 4,
    };
    let log = workload::measure(
        &setup.prepared,
        args.seconds,
        min_queries,
        args.trace,
        &mut tracer,
    );
    let peak_heap_mb = heap_sampler.stop();
    let mut run_tally = Tally::default();
    for r in log.records() {
        report_failure("timed", r);
        run_tally.add(r.outcome);
    }
    let mut tally = setup.tally;
    tally.merge(&run_tally);

    let latencies = latencies_ms(&log, |_| true);
    let n = log.len();
    println!(
        "workload {} seed {} seconds {} trace {} scale {:?} threads {threads}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale
    );
    println!(
        "queries {n} over {:.3} s, {} client(s); {} above p90; highest percentile with >= {} samples above: {}",
        log.wall_s,
        args.workload.clients(),
        stats::samples_above(n, 900),
        stats::MIN_SAMPLES_ABOVE,
        stats::highest_supported_permille(n)
            .map_or_else(|| "none".to_string(), |p| format!("p{}", f64::from(p) / 10.0)),
    );
    println!(
        "peak_rss_mb {} MiB (after set-up {rss_after_setup} MiB)",
        metrics::peak_rss_mib().unwrap_or(0.0)
    );
    println!(
        "failed_frac {} ({} failed, {} rejected, {} wrong of {} attempted, set-up included)",
        tally.failed_frac(),
        tally.failed,
        tally.rejected,
        tally.wrong,
        tally.attempted
    );

    let mut m = Metrics::default();
    let (spec, metrics_json) = if args.trace {
        per_layer(&args, &setup, &log, &mut tracer, &mut m)?;
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"queries\":{n}}}",
            args.workload.name(),
            args.seed,
            args.seconds
        );
        let path = trace::trace_path(args.workload.name(), args.seed);
        tracer
            .write_jsonl(&path, &header)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        (PER_LAYER, m.to_json(PER_LAYER)?)
    } else {
        m.set("setup_s", stats::median(&setup.setup_s));
        m.set("query_ms_p50", stats::percentile(&latencies, 500));
        m.set("query_ms_p90", stats::percentile(&latencies, 900));
        let ok_tuples = run_tally.correct * setup.prepared.shape.input_tuples();
        m.set("tuples_per_s", ok_tuples as f64 / log.wall_s);
        m.set("ok_frac", 1.0 - run_tally.failed_frac());
        m.set("peak_heap_mb", peak_heap_mb);
        (END_TO_END, m.to_json(END_TO_END)?)
    };
    for (name, unit) in spec {
        if let Some(v) = m.get(name) {
            println!("{name} {} {unit}", metrics::json_number(v));
        }
    }
    let _ = std::fs::remove_dir(&socket_dir);
    println!(
        "{}",
        metrics::result_line(
            tally.all_correct(),
            tally.attempted,
            tally.not_ok(),
            &metrics_json
        )
    );
    Ok(if tally.all_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Latencies of the selected queries. A query that did not return the
/// reference result never delivered one, so it counts as slower than any
/// completed query: it takes the run's whole wall time.
fn latencies_ms(log: &RunLog, keep: impl Fn(&QueryRecord) -> bool) -> Vec<f64> {
    log.records()
        .filter(|r| keep(r))
        .map(|r| {
            if r.outcome == Outcome::Correct {
                r.latency_ms
            } else {
                log.wall_s * 1000.0
            }
        })
        .collect()
}

/// Median latency of a one-tuple Q1 on the threaded and socket
/// substrates (engine-only cost): the per-query fixed cost.
fn fixed_query_ms(seed: u64) -> Result<(f64, f64), String> {
    let one = Shape::Entropy(Q1Experiment {
        tuples: 1,
        seed,
        ..Q1Experiment::default()
    });
    let mut out = [0.0; 2];
    for (slot, workload) in [Workload::BulkThreaded, Workload::BulkSockets]
        .into_iter()
        .enumerate()
    {
        let (prepared, _, _) = Prepared::with_shape(workload, one.clone(), seed)?;
        let mut tracer = Tracer::new(false, Instant::now());
        let mut samples = Vec::with_capacity(FIXED_REPS);
        for k in 0..FIXED_REPS as u64 + 2 {
            let r = prepared.run_query(0, k, &mut tracer, false);
            if r.outcome != Outcome::Correct {
                return Err(format!(
                    "one-tuple {} query: {}",
                    workload.name(),
                    r.error().unwrap_or_default()
                ));
            }
            if k >= 2 {
                samples.push(r.latency_ms);
            }
        }
        out[slot] = stats::median(&samples);
    }
    Ok((out[0], out[1]))
}

/// `small_queries` queries through the service plane, threaded only, for
/// the service metrics of workloads that do not use the service plane.
/// Its socket share is left out: two socket queries at once can hang (see
/// `README.md`, "Known defect"), and a hung probe would stall the run.
fn service_probe(seed: u64) -> Result<(Prepared, RunLog), String> {
    let (prepared, _, _) = Prepared::new(Workload::SmallQueries, Scale::Full, seed)?;
    let prepared = prepared.threaded_only();
    let mut tracer = Tracer::new(false, Instant::now());
    let log = workload::measure(&prepared, 0.05, SERVICE_PROBE_QUERIES, true, &mut tracer);
    if let Some(r) = log.records().find(|r| r.outcome != Outcome::Correct) {
        return Err(format!(
            "service probe query {:?}: {}",
            r.outcome,
            r.error().unwrap_or_default()
        ));
    }
    Ok((prepared, log))
}

/// The traced run's per-layer metrics: counters the program reported,
/// spans around the benchmark's calls, and single-threaded replays.
fn per_layer(
    args: &Args,
    setup: &SetUp,
    log: &RunLog,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let p = &setup.prepared;
    // Counters of every correctly completed query (a traced run keeps
    // every query's detail).
    let done: Vec<(&QueryRecord, &Counters)> = log
        .records()
        .filter(|r| r.outcome == Outcome::Correct)
        .filter_map(|r| r.detail.as_deref().map(|d| (r, &d.counters)))
        .collect();
    let mean_of = |f: &dyn Fn(&Counters) -> u64| {
        stats::mean(&done.iter().map(|(_, c)| f(c) as f64).collect::<Vec<_>>())
    };
    let sum_of = |f: &dyn Fn(&Counters) -> u64| done.iter().map(|(_, c)| f(c)).sum::<u64>();
    let median_of = |f: &dyn Fn(&Counters) -> Option<f64>| {
        stats::median(&done.iter().filter_map(|(_, c)| f(c)).collect::<Vec<_>>())
    };

    let untraced = latencies_ms(log, |r| !r.traced);
    let traced = latencies_ms(log, |r| r.traced);
    let p50 = stats::median(&untraced);
    m.set("trace.overhead_ms_p50", stats::median(&traced) - p50);
    m.set(
        "trace.overhead_ms_p90",
        stats::percentile(&traced, 900) - stats::percentile(&untraced, 900),
    );
    m.set("run.queries", log.len() as f64);
    m.set("setup.datagen_ms", stats::median(&setup.datagen_ms));
    m.set("setup.reference_ms", stats::median(&setup.reference_ms));

    // Counters the program returned.
    m.set(
        "exec.partition_skew",
        median_of(&|c| {
            let max = c.per_partition.iter().copied().max()?;
            let min = c.per_partition.iter().copied().min()?;
            Some(max as f64 / min.max(1) as f64)
        }),
    );
    m.set(
        "exec.modelled_floor_ms",
        workload::modelled_floor_ms(
            &p.shape,
            args.workload.cost_scale(),
            &args.workload.factors(),
        ),
    );
    m.set("net.reconnects", sum_of(&|c| c.reconnects) as f64);
    m.set(
        "net.tuples_retransmitted",
        sum_of(&|c| c.retransmitted) as f64,
    );
    m.set(
        "recovery.unacked_peak",
        done.iter().map(|(_, c)| c.unacked).max().unwrap_or(0) as f64,
    );
    m.set("adapt.m1_per_query", mean_of(&|c| c.m1));
    m.set("adapt.deploys_per_query", mean_of(&|c| c.deployed));
    m.set("adapt.first_deploy_ms", median_of(&|c| c.first_deploy_ms));
    m.set(
        "adapt.perturbed_share",
        if args.workload.factors().iter().any(|&f| f > 1.0) {
            median_of(&|c| {
                let total: u64 = c.per_partition.iter().sum();
                let slow = c.per_partition.get(workload::PERTURBED_PARTITION)?;
                Some(*slow as f64 / total.max(1) as f64)
            })
        } else {
            0.0
        },
    );
    m.set(
        "recall.pause_ms",
        stats::median(
            &done
                .iter()
                .flat_map(|(_, c)| c.recall_pauses_ms.iter().copied())
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "recall.completed_per_query",
        mean_of(&|c| c.recalls_completed),
    );
    m.set(
        "recall.state_tuples_migrated_per_query",
        mean_of(&|c| c.state_migrated),
    );
    m.set(
        "recall.tuples_recalled_per_query",
        mean_of(&|c| c.tuples_recalled),
    );
    let (completed, aborted) = (
        sum_of(&|c| c.recalls_completed),
        sum_of(&|c| c.recalls_aborted),
    );
    m.set(
        "recall.aborted_frac",
        if completed + aborted == 0 {
            0.0
        } else {
            aborted as f64 / (completed + aborted) as f64
        },
    );
    m.set(
        "obs.timeline_events_per_query",
        mean_of(&|c| c.timeline_events),
    );

    // The service plane: the run's own queries where the workload uses it,
    // otherwise a probe run of `small_queries` queries.
    let s = tracer.begin("probe.service", Tracer::root(), 0);
    let probe;
    let (svc, svc_log) = match p.service() {
        Some(_) => (p, log),
        None => {
            probe = service_probe(args.seed)?;
            (&probe.0, &probe.1)
        }
    };
    tracer.end(s);
    let via_service: Vec<f64> = svc_log
        .records()
        .filter(|r| r.via_service && r.outcome == Outcome::Correct)
        .filter_map(|r| Some(r.latency_ms - r.detail.as_deref()?.counters.wall_ms))
        .collect();
    m.set("service.overhead_ms", stats::median(&via_service));
    let stats = svc
        .service()
        .map(|s| s.admission_stats())
        .unwrap_or_default();
    m.set("service.peak_running", stats.peak_running as f64);
    m.set("service.rejected", stats.rejected as f64);

    // Replays of the workload's own streams, one layer at a time.
    let plan = p.shape.plan();
    let stage = &plan.stages[0];
    let partitions = stage.nodes.len();
    let stream = p.shape.stream(&p.catalog)?;
    let replay_span = |tracer: &mut Tracer, name| tracer.begin(name, Tracer::root(), 0);

    let s = replay_span(tracer, "replay.route");
    let (route_ns, dests) = replay::route(&plan, &stream)?;
    tracer.end(s);
    m.set("engine.route_ns_per_tuple", route_ns);

    let s = replay_span(tracer, "replay.evaluate");
    let eval = replay::evaluate(&plan, &stream, &dests, &p.reference)?;
    tracer.end(s);
    m.set("engine.build_ns_per_tuple", eval.build_ns);
    m.set("engine.probe_ns_per_tuple", eval.probe_ns);
    let entropy_ns = if svc.workload == args.workload {
        eval.single_ns
    } else {
        let plan = svc.shape.plan();
        let stream = svc.shape.stream(&svc.catalog)?;
        let (_, dests) = replay::route(&plan, &stream)?;
        replay::evaluate(&plan, &stream, &dests, &svc.reference)?.single_ns
    };
    m.set("engine.entropy_ns_per_tuple", entropy_ns);
    m.set("engine.state_tuples", eval.state_tuples as f64);
    m.set("exec.serial_query_ms", eval.serial_ms);
    m.set("exec.speedup_vs_serial", eval.serial_ms / p50);

    let blocks = replay::blocks(&stream, &dests, partitions, stage.exchange.buffer_tuples);
    let s = replay_span(tracer, "replay.wire");
    let (wire, payloads) = replay::wire_codec(&blocks)?;
    tracer.end(s);
    m.set("wire.encode_ns_per_tuple", wire.encode_ns);
    m.set("wire.decode_ns_per_tuple", wire.decode_ns);
    m.set("wire.bytes_per_tuple", wire.bytes_per_tuple);

    let s = replay_span(tracer, "replay.frames");
    let (frame_enc, frame_dec) = replay::frames(&payloads)?;
    tracer.end(s);
    m.set("net.frame_encode_ns_per_block", frame_enc);
    m.set("net.frame_decode_ns_per_block", frame_dec);

    let s = replay_span(tracer, "replay.ring");
    let ring_ns = replay::ring_transfer(&blocks)?;
    tracer.end(s);
    m.set("ring.ns_per_block", ring_ns);

    // Replayed busy time of one query along one thread: routing and
    // evaluation, plus the transport its substrate uses.
    let transport_ns = if args.workload == Workload::BulkSockets {
        (wire.encode_ns + wire.decode_ns) * stream.len() as f64
            + (frame_enc + frame_dec) * blocks.len() as f64
    } else {
        ring_ns * blocks.len() as f64
    };
    m.set(
        "exec.unattributed_ms",
        p50 - (eval.serial_ms + transport_ns / 1e6),
    );

    let s = replay_span(tracer, "replay.recovery");
    let interval = ThreadedConfig::default().checkpoint_interval;
    let (record_ns, ack_ns) = replay::recovery(&stream, &dests, partitions, interval)?;
    tracer.end(s);
    m.set("recovery.record_ns_per_tuple", record_ns);
    m.set("recovery.ack_ns_per_window", ack_ns);

    let timelines: Vec<&[gridq_obs::TimelineEvent]> = log
        .records()
        .filter_map(|r| r.detail.as_deref()?.events.as_deref())
        .collect();
    let m1_streams: Vec<_> = timelines
        .iter()
        .map(|events| replay::m1_stream(&plan, events))
        .collect();
    let s = replay_span(tracer, "replay.adapt");
    let adapt = replay::adapt(
        &p.threaded_config().adaptivity,
        stage.id,
        partitions,
        &m1_streams,
    )?;
    tracer.end(s);
    m.set("adapt.detector_ns_per_m1", adapt.detector_ns);
    m.set("adapt.diagnoser_ns_per_update", adapt.diagnoser_ns);
    m.set("adapt.responder_ns_per_decision", adapt.responder_ns);

    let s = replay_span(tracer, "replay.obs");
    m.set(
        "obs.record_ns_per_event",
        replay::obs_record(&timelines, ObsConfig::default().timeline_capacity),
    );
    m.set("obs.counter_ns_per_add", replay::obs_counter(stream.len()));
    tracer.end(s);

    let s = replay_span(tracer, "replay.admission");
    m.set(
        "engine.admission_ns_per_query",
        replay::admission(svc_log.len(), svc.workload.clients())?,
    );
    tracer.end(s);

    let s = replay_span(tracer, "replay.fixed_query");
    let (fixed_threaded, fixed_sockets) = fixed_query_ms(args.seed)?;
    tracer.end(s);
    m.set("exec.query_fixed_ms_threaded", fixed_threaded);
    m.set("exec.query_fixed_ms_sockets", fixed_sockets);

    let s = replay_span(tracer, "replay.connect");
    m.set("net.connect_ms", replay::connect_ms(CONNECT_REPS)?);
    tracer.end(s);

    m.set("trace.spans", tracer.spans().len() as f64);
    Ok(())
}
