//! Metric names and units (the contract with `BENCHMARK.json`), the result
//! line, and the process's peak resident set (printed, not a metric).

/// End-to-end metrics, reported by every untraced run, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("tuples_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run, in output order. A
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.query_fixed_ms_threaded", "ms"),
    ("exec.query_fixed_ms_sockets", "ms"),
    ("exec.serial_query_ms", "ms"),
    ("exec.speedup_vs_serial", "ratio"),
    ("exec.unattributed_ms", "ms"),
    ("exec.partition_skew", "ratio"),
    ("exec.modelled_floor_ms", "ms"),
    ("engine.route_ns_per_tuple", "ns"),
    ("engine.build_ns_per_tuple", "ns"),
    ("engine.probe_ns_per_tuple", "ns"),
    ("engine.entropy_ns_per_tuple", "ns"),
    ("engine.state_tuples", "count"),
    ("engine.admission_ns_per_query", "ns"),
    ("wire.encode_ns_per_tuple", "ns"),
    ("wire.decode_ns_per_tuple", "ns"),
    ("wire.bytes_per_tuple", "B"),
    ("ring.ns_per_block", "ns"),
    ("net.frame_encode_ns_per_block", "ns"),
    ("net.frame_decode_ns_per_block", "ns"),
    ("net.connect_ms", "ms"),
    ("net.reconnects", "count"),
    ("net.tuples_retransmitted", "count"),
    ("recovery.record_ns_per_tuple", "ns"),
    ("recovery.ack_ns_per_window", "ns"),
    ("recovery.unacked_peak", "count"),
    ("adapt.m1_per_query", "count"),
    ("adapt.deploys_per_query", "count"),
    ("adapt.detector_ns_per_m1", "ns"),
    ("adapt.diagnoser_ns_per_update", "ns"),
    ("adapt.responder_ns_per_decision", "ns"),
    ("adapt.first_deploy_ms", "ms"),
    ("adapt.perturbed_share", "frac"),
    ("recall.pause_ms", "ms"),
    ("recall.completed_per_query", "count"),
    ("recall.state_tuples_migrated_per_query", "count"),
    ("recall.tuples_recalled_per_query", "count"),
    ("recall.aborted_frac", "frac"),
    ("obs.timeline_events_per_query", "count"),
    ("obs.record_ns_per_event", "ns"),
    ("obs.counter_ns_per_add", "ns"),
    ("service.overhead_ms", "ms"),
    ("service.peak_running", "count"),
    ("service.rejected", "count"),
    ("setup.datagen_ms", "ms"),
    ("setup.reference_ms", "ms"),
    ("trace.overhead_ms_p50", "ms"),
    ("trace.overhead_ms_p90", "ms"),
    ("trace.spans", "count"),
    ("run.queries", "count"),
];

/// Metric values by name, checked against a name list on output.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets a metric, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `"metrics"` JSON object over exactly the names in `spec`, in
    /// spec order. Errors name any metric in `spec` that was never set or
    /// is not finite.
    pub fn to_json(&self, spec: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(spec.len());
        for (name, unit) in spec {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!("{{{}}}", fields.join(",")))
    }
}

/// A finite float as a JSON number with all its digits: Rust's shortest
/// round-trip form, in exponent notation at extreme magnitudes.
pub fn json_number(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if (1e-6..1e15).contains(&v.abs()) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// The result line, printed last: whatever runs the benchmark reads the
/// last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}"
    )
}

/// Peak resident set size of this process so far, in MiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mib() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
    /// of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage` through the pointer;
    // `Rusage` has that struct's size and field layout on 64-bit Linux,
    // and the pointer is to a live, exclusively borrowed local.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Peak resident set size is read through 64-bit Linux's `getrusage`
/// layout only.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn peak_rss_mib() -> Option<f64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_their_digits_and_stay_valid() {
        assert_eq!(json_number(0.0), "0");
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(123456.789), "123456.789");
        assert_eq!(json_number(2.5e-305), "2.5e-305");
        assert_eq!(json_number(-3.0), "-3");
    }

    #[test]
    fn metrics_json_covers_exactly_the_spec_and_rejects_gaps() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("b", 2.0);
        m.set("a", 3.0);
        m.set("extra", 9.0);
        let spec = [("a", "ms"), ("b", "s")];
        assert_eq!(
            m.to_json(&spec).unwrap(),
            "{\"a\":{\"value\":3,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"s\"}}"
        );
        assert!(m.to_json(&[("missing", "ms")]).is_err());
        m.set("nan", f64::NAN);
        assert!(m.to_json(&[("nan", "ms")]).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
