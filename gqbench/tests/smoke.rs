//! Runs the benchmark binary at tiny scale on every workload, traced and
//! untraced, and checks its result line against `BENCHMARK.json`: the
//! workload names, and exactly the end-to-end or per-layer metric names
//! with their units.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gridq_obs::Json;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// A scratch working directory per run, so concurrent tests never share
/// the socket or trace directories.
fn workdir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gqbench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary starts")
}

#[test]
fn every_workload_runs_tiny_and_reports_exactly_the_declared_metrics() {
    let doc = manifest();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["bulk_threaded", "bulk_sockets", "skewed_recall"]
    );
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = names_and_units(&doc, key);
        for w in &workloads {
            let dir = workdir(&format!("smoke-{w}-{trace}"));
            let out = run(
                &dir,
                &[
                    "--workload",
                    w,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.2",
                    "--trace",
                    trace,
                    "--scale",
                    "tiny",
                ],
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace {trace} failed: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            let attempted = result.get("attempted").and_then(Json::as_u64).unwrap();
            assert!(attempted >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            let metrics = result.get("metrics").expect("metrics");
            let mut reported: Vec<(String, String)> = match metrics {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(name, m)| {
                        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                        (
                            name.clone(),
                            m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        )
                    })
                    .collect(),
                other => panic!("metrics is not an object: {other:?}"),
            };
            reported.sort();
            let mut expected = declared.clone();
            expected.sort();
            assert_eq!(reported, expected, "{w} trace {trace}");
            if trace == "1" {
                let spans = dir.join(format!(".bench_trace/{w}-seed3.jsonl"));
                let text = std::fs::read_to_string(&spans).expect("a traced run writes spans");
                assert!(text.lines().count() > 1 && text.contains("\"name\":\"query\""));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result_line() {
    let dir = workdir("bad-args");
    for args in [
        &[
            "--workload",
            "bogus",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "bulk_threaded",
            "--seed",
            "1",
            "--seconds",
            "1",
        ][..],
        &[
            "--workload",
            "bulk_threaded",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "bulk_threaded",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
    ] {
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
