//! The metric registry: every name the benchmark reports, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names (a test
//! pins the two against each other). An untraced run prints every
//! end-to-end metric, a traced run every per-layer metric; a per-layer
//! metric a workload does not exercise reads 0 there.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

/// What a user of the system sees; every workload reports all of them.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("throughput_per_s", "1/s", true, 0.25),
    e2e("cpu_us_per_op", "us", false, 0.25),
    e2e("latency_p25_us", "us", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
];

/// Single layers, from the traced run. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    // server::frame
    layer("frame.bin_split_ns", "ns"),
    layer("frame.json_split_ns", "ns"),
    layer("frame.bytes_per_req", "B"),
    // server::binary / server::wire
    layer("binary.decode_req_ns", "ns"),
    layer("binary.encode_resp_ns", "ns"),
    layer("wire.decode_req_ns", "ns"),
    layer("wire.encode_resp_ns", "ns"),
    // core::service
    layer("service.handle_ns", "ns"),
    layer("service.handle_ns.deposit", "ns"),
    layer("service.handle_ns.register_qos", "ns"),
    layer("service.handle_ns.order_qos", "ns"),
    layer("service.handle_ns.predict", "ns"),
    layer("service.handle_ns.report_progress", "ns"),
    layer("service.handle_ns.complete", "ns"),
    layer("service.errors", "count"),
    // core::wal
    layer("wal.encode_ns", "ns"),
    layer("wal.append_ns", "ns"),
    layer("wal.bytes_per_record", "B"),
    layer("wal.fsync_ms_p50", "ms"),
    layer("wal.fsync_always_rps", "1/s"),
    layer("wal.replay_ns_per_record", "ns"),
    // core::snapshot
    layer("snapshot.encode_ms", "ms"),
    layer("snapshot.write_ms", "ms"),
    layer("snapshot.restore_ms", "ms"),
    layer("snapshot.bytes", "B"),
    layer("snapshot.count", "count"),
    layer("snapshot.cpu_ns_per_req", "ns"),
    // durable mode as the operator sees it (one workload only, so not
    // end-to-end metrics of the whole benchmark)
    layer("durable.recovery_s", "s"),
    layer("durable.disk_bytes_per_req", "B"),
    // compat/polling
    layer("polling.wait_us.fds2", "us"),
    layer("polling.wait_us.fds2048", "us"),
    layer("polling.rearm_ns", "ns"),
    // server::server, seen from outside
    layer("reactor.cpu_share", "ratio"),
    layer("reactor.ctxsw_per_req", "count"),
    layer("reactor.residual_ns_per_req", "ns"),
    // harness::routed
    layer("routed.overhead_ns_per_req", "ns"),
    // simulator
    layer("betrace.build_ms", "ms"),
    layer("simcore.queue_ns_per_op", "ns"),
    layer("dgrid.baseline_ns_per_event", "ns"),
    layer("dgrid.qos_ns_per_event", "ns"),
    layer("sim.service_calls", "count"),
    layer("sim.service_share", "ratio"),
    layer("sim.mt_ns_per_event", "ns"),
    layer("sim.events", "count"),
    // the benchmark itself
    layer("loadgen.busy_share", "ratio"),
    layer("loadgen.max_late_ms", "ms"),
    layer("loadgen.open_p50_us", "us"),
    layer("loadgen.rtt_p25_us", "us"),
    layer("loadgen.rtt_p50_us", "us"),
    layer("loadgen.p99_us", "us"),
    layer("loadgen.p999_us", "us"),
    layer("trace.throughput_per_s", "1/s"),
    layer("trace.cpu_us_per_op", "us"),
    layer("trace.spans", "count"),
    layer("host.speed_factor", "ratio"),
];

/// Samples of every metric of one run, by name: one value per repeat.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not a registered metric"
        );
        self.0.entry(name).or_default().push(value);
    }

    pub fn summary(&self, name: &str) -> Summary {
        Summary::of(self.0.get(name).map_or(&[][..], Vec::as_slice))
    }

    /// Names that have at least one sample, in name order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// The result line the driver reads: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`, the metrics being `defs`.
pub fn result_line(defs: &[MetricDef], samples: &Samples, attempted: u64, failed: u64) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, def) in defs.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(samples.summary(def.name).median),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// A float as JSON: all its digits, and never `NaN`/`inf`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `name  median unit  (min, max, n)` for every metric that has samples.
pub fn print_table(samples: &Samples) {
    for name in samples.names() {
        let s = samples.summary(name);
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .expect("only registered metrics are pushed");
        println!(
            "  {name:<36} {:>16.4} {:<6} (min {:.4}, max {:.4}, n={})",
            s.median, def.unit, s.min, s.max, s.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::json::{self, Value};

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let mut samples = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            samples.push("setup_s", v);
        }
        let line = result_line(END_TO_END, &samples, 10, 0);
        let v = json::parse(&line).expect("valid JSON");
        let Value::Obj(members) = &v else {
            panic!("an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        let Value::Obj(listed) = metrics else {
            panic!("an object")
        };
        assert_eq!(listed.len(), END_TO_END.len());
        assert!(result_line(END_TO_END, &samples, 10, 1).contains("\"correct\": false"));
    }

    /// `BENCHMARK.json` must name exactly the registered metrics.
    #[test]
    fn benchmark_json_lists_the_registered_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(listed)) = doc.get(key) else {
                panic!("{key} is an array")
            };
            let listed: Vec<(String, String)> = listed
                .iter()
                .map(|m| {
                    let field = |k| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}: `{k}` is a string, got {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let registered: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, registered, "{key}");
        }
        let Some(Value::Arr(bounds)) = doc.get("end_to_end") else {
            panic!("end_to_end is an array")
        };
        for (m, def) in bounds.iter().zip(END_TO_END) {
            assert_eq!(
                m.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better"),
                Some(&Value::Str(better.to_string())),
                "{}",
                def.name
            );
        }
    }
}
