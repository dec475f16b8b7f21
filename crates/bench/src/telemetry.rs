//! Perf telemetry for the measuring reproduction binaries.
//!
//! `repro_protocol` and `repro_multitenant` emit a machine-readable
//! `BENCH_<name>.json` next to where they run: wall time, requests
//! served, peak RSS, the run configuration and the git SHA. Two such
//! files — a checked-in baseline and a fresh run — feed the `spq-bench
//! compare` subcommand, which exits nonzero when a gated metric
//! regressed past its threshold. These records hold only what the
//! repository's benchmark (`benchmark/`, `BENCHMARK.json`) cannot host;
//! BENCHMARKS.md says which file owns which number.
//!
//! The JSON encoding is deliberately minimal and dependency-free (the
//! build environment has no registry access): records are a flat object
//! with one nested `config` object and an optional nested `metrics`
//! object. The parser and the string/number formatting are the shared
//! [`simcore::json`] module — one implementation serves both this
//! telemetry format and the SpeQuloS wire protocol (`spequlos::protocol`).
//!
//! # The `BENCH_<name>.json` schema
//!
//! Top-level keys (see [`SCHEMA_KEYS`]; a unit test pins the emitted
//! keys to this list):
//!
//! | key | type | presence | meaning |
//! |-----|------|----------|---------|
//! | `name` | string | always | record name; the file is `BENCH_<name>.json` |
//! | `git_sha` | string | always | commit that produced the record, or `unknown` |
//! | `wall_secs` | number | always | wall-clock seconds of the measured section |
//! | `events` | integer | when counted | simulation events, or requests served |
//! | `events_per_sec` | number | when counted | `events / wall_secs` |
//! | `peak_rss_bytes` | integer | always | peak resident set size (0 if unknown) |
//! | `metrics` | object | ladder runs only | named rates, string → number, each gated on its own (higher is better) |
//! | `config` | object | always | run configuration, string → string |
//!
//! `spq-bench compare` gates, with `--threshold`, every key of the
//! baseline's `metrics` (higher is better; a key the current record
//! lacks is a regression) or — for records without `metrics` —
//! throughput (`events_per_sec`, else `wall_secs`). Two records whose
//! `name` or `config` differ are not comparable, and the comparison
//! fails.

use crate::opts::Opts;
use simcore::json::{self, escape, fmt_f64};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Telemetry record
// ---------------------------------------------------------------------------

/// Every top-level key a [`Telemetry`] record can emit, in emission
/// order. The module docs document each; a unit test asserts the two
/// never drift apart.
pub const SCHEMA_KEYS: &[&str] = &[
    "name",
    "git_sha",
    "wall_secs",
    "events",
    "events_per_sec",
    "peak_rss_bytes",
    "metrics",
    "config",
];

/// One measured run of a reproduction binary.
#[derive(Clone, Debug, PartialEq)]
pub struct Telemetry {
    /// Record name; the emitted file is `BENCH_<name>.json`.
    pub name: String,
    /// Git commit of the tree that produced the record (or `unknown`).
    pub git_sha: String,
    /// Wall-clock duration of the measured section, in seconds.
    pub wall_secs: f64,
    /// Simulation events processed, when the workload counts them.
    pub events: Option<u64>,
    /// `events / wall_secs`, when events are known.
    pub events_per_sec: Option<f64>,
    /// Peak resident set size of the process, in bytes (0 if unknown).
    pub peak_rss_bytes: u64,
    /// Named rates (the connection ladder's rungs), each gated on its
    /// own, higher is better; empty for every other run.
    pub metrics: Vec<(String, f64)>,
    /// Run configuration, as ordered key → value strings.
    pub config: Vec<(String, String)>,
}

impl Telemetry {
    /// File name this record is stored under.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Appends a configuration entry (builder-style).
    pub fn with_config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Writes `BENCH_<name>.json` into `$SPQ_BENCH_DIR` (or the current
    /// directory) and returns the path.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = std::env::var_os("SPQ_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// [`Telemetry::write`], but telemetry failures must never fail the
    /// experiment: errors are reported on stderr and swallowed.
    pub fn write_or_warn(&self) {
        match self.write() {
            Ok(path) => eprintln!("telemetry: wrote {}", path.display()),
            Err(e) => eprintln!("telemetry: could not write {}: {e}", self.file_name()),
        }
    }

    /// Serializes the record.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": \"{}\",\n", escape(&self.name)));
        out.push_str(&format!("  \"git_sha\": \"{}\",\n", escape(&self.git_sha)));
        out.push_str(&format!("  \"wall_secs\": {},\n", fmt_f64(self.wall_secs)));
        if let Some(ev) = self.events {
            out.push_str(&format!("  \"events\": {ev},\n"));
        }
        if let Some(eps) = self.events_per_sec {
            out.push_str(&format!("  \"events_per_sec\": {},\n", fmt_f64(eps)));
        }
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        if !self.metrics.is_empty() {
            let rows: Vec<String> = self
                .metrics
                .iter()
                .map(|(k, v)| format!("\n    \"{}\": {}", escape(k), fmt_f64(*v)))
                .collect();
            out.push_str(&format!("  \"metrics\": {{{}\n  }},\n", rows.join(",")));
        }
        out.push_str("  \"config\": {");
        for (i, (k, v)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": \"{}\"", escape(k), escape(v)));
        }
        if !self.config.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses a record previously produced by [`Telemetry::to_json`].
    pub fn from_json(text: &str) -> Result<Telemetry, String> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let field = |key: &str| -> Option<&json::Value> {
            obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        };
        let str_field = |key: &str| -> Result<String, String> {
            field(key)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            field(key)
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let metrics = match field("metrics") {
            Some(v) => v
                .as_object()
                .ok_or("`metrics` must be an object")?
                .iter()
                .map(|(k, v)| {
                    let v = v
                        .as_f64()
                        .ok_or_else(|| format!("metric `{k}` must be a number"))?;
                    Ok((k.clone(), v))
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        let config = match field("config") {
            Some(v) => v
                .as_object()
                .ok_or("`config` must be an object")?
                .iter()
                .map(|(k, v)| {
                    let v = match v {
                        json::Value::Str(s) => s.clone(),
                        json::Value::Num(n) => fmt_f64(*n),
                        json::Value::Bool(b) => b.to_string(),
                        _ => return Err(format!("config value for `{k}` must be scalar")),
                    };
                    Ok((k.clone(), v))
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(Telemetry {
            name: str_field("name")?,
            git_sha: str_field("git_sha")?,
            wall_secs: num_field("wall_secs")?,
            events: field("events")
                .and_then(json::Value::as_f64)
                .map(|v| v as u64),
            events_per_sec: field("events_per_sec").and_then(json::Value::as_f64),
            peak_rss_bytes: num_field("peak_rss_bytes")? as u64,
            metrics,
            config,
        })
    }
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Runs `f` and packages its wall time, event count, peak RSS, git SHA and
/// the run configuration into a [`Telemetry`] record. The experiment's
/// value is returned unchanged.
pub fn measure<T>(
    name: &str,
    opts: &Opts,
    f: impl FnOnce(&Opts) -> (T, Option<u64>),
) -> (T, Telemetry) {
    let start = Instant::now();
    let (value, events) = f(opts);
    let wall_secs = start.elapsed().as_secs_f64();
    let tele = Telemetry {
        name: name.to_string(),
        git_sha: git_sha(),
        wall_secs,
        events,
        events_per_sec: events.map(|e| e as f64 / wall_secs.max(1e-9)),
        peak_rss_bytes: peak_rss_bytes(),
        metrics: Vec::new(),
        config: vec![
            ("seeds".into(), opts.seeds.to_string()),
            ("scale".into(), opts.scale.to_string()),
            ("threads".into(), opts.threads.to_string()),
        ],
    };
    (value, tele)
}

/// Commit of the working tree: `$GITHUB_SHA` in CI, otherwise
/// `git rev-parse HEAD`, otherwise `unknown`.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`); 0
/// where the proc filesystem is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Verdict of comparing a current telemetry record against a baseline.
#[derive(Clone, Debug)]
pub struct CompareOutcome {
    /// True when the current run is worse than the baseline by more than
    /// the threshold (the CI gate fails on this).
    pub regressed: bool,
    /// Human-readable comparison report.
    pub report: String,
}

/// Compares `current` against `baseline`. `threshold` is relative (0.25
/// = fail when 25 % worse) and gates every key of the baseline's
/// `metrics` (higher is better; a key missing from `current` is a
/// regression) and, unless both records carry `metrics`, throughput
/// (`events_per_sec`, higher is better) when both records carry it,
/// otherwise wall time (lower is better). Any gated metric past the
/// threshold regresses the whole comparison, and so does a `name` or
/// `config` mismatch: a 10 000-tenant storm that keeps the rate of the
/// 100 000-tenant baseline has not matched it.
pub fn compare(baseline: &Telemetry, current: &Telemetry, threshold: f64) -> CompareOutcome {
    let mut mismatches = Vec::new();
    if baseline.name != current.name {
        mismatches.push(format!(
            "record names differ: baseline `{}` vs current `{}`",
            baseline.name, current.name
        ));
    }
    for (key, bval) in &baseline.config {
        match current.config.iter().find(|(k, _)| k == key) {
            Some((_, cval)) if cval == bval => {}
            Some((_, cval)) => mismatches.push(format!(
                "config `{key}` differs: baseline {bval} vs current {cval}"
            )),
            None => mismatches.push(format!("config `{key}` missing from current record")),
        }
    }
    for (key, _) in &current.config {
        if !baseline.config.iter().any(|(k, _)| k == key) {
            mismatches.push(format!("config `{key}` missing from baseline record"));
        }
    }
    let mut regressed = !mismatches.is_empty();
    let mut report: String = mismatches
        .iter()
        .map(|m| format!("not comparable: {m}, REGRESSED\n"))
        .collect();

    // Each gated metric: (name, baseline, current, higher_is_better).
    // Any one past the threshold regresses the comparison.
    let mut gates: Vec<(&str, f64, f64, bool)> = Vec::new();
    for (key, base_v) in &baseline.metrics {
        match current.metrics.iter().find(|(k, _)| k == key) {
            Some((_, cur_v)) => gates.push((key.as_str(), *base_v, *cur_v, true)),
            None => {
                regressed = true;
                report.push_str(&format!(
                    "{}: {key} baseline {base_v:.3} -> missing from current record, REGRESSED\n",
                    current.name
                ));
            }
        }
    }
    if baseline.metrics.is_empty() || current.metrics.is_empty() {
        match (baseline.events_per_sec, current.events_per_sec) {
            (Some(b), Some(c)) => gates.push(("events_per_sec", b, c, true)),
            _ => gates.push(("wall_secs", baseline.wall_secs, current.wall_secs, false)),
        }
    }
    for (metric, base_v, cur_v, higher_is_better) in &gates {
        // Worsening as a ratio (1.0 = unchanged, 2.0 = twice as bad):
        // unbounded in the regression direction for both metric
        // orientations, so large thresholds stay meaningful (a
        // difference-based "-X%" bottoms out at -100% and could never
        // trip a threshold of 1.0 or more).
        let worse_ratio = if *higher_is_better {
            base_v.max(1e-12) / cur_v.max(1e-12)
        } else {
            cur_v.max(1e-12) / base_v.max(1e-12)
        };
        let metric_regressed = worse_ratio > 1.0 + threshold;
        regressed |= metric_regressed;
        let (ratio, direction) = if worse_ratio >= 1.0 {
            (worse_ratio, "worse")
        } else {
            (1.0 / worse_ratio, "better")
        };
        report.push_str(&format!(
            "{name}: {metric} baseline {base_v:.3} -> current {cur_v:.3} ({ratio:.2}x {direction}{flag})\n",
            name = current.name,
            flag = if metric_regressed { ", REGRESSED" } else { "" },
        ));
    }
    report.push_str(&format!(
        "  baseline sha {} | current sha {}\n",
        baseline.git_sha, current.git_sha
    ));
    report.push_str(&format!(
        "  wall {:.3}s -> {:.3}s | peak rss {:.1} MiB -> {:.1} MiB\n",
        baseline.wall_secs,
        current.wall_secs,
        baseline.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        current.peak_rss_bytes as f64 / (1024.0 * 1024.0),
    ));
    report.push_str(&format!(
        "  verdict: {} (threshold {:.0}%)\n",
        if regressed { "REGRESSED" } else { "ok" },
        threshold * 100.0
    ));
    CompareOutcome { regressed, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Telemetry {
        Telemetry {
            name: "repro_test".into(),
            git_sha: "abc123".into(),
            wall_secs: 1.25,
            events: Some(500_000),
            events_per_sec: Some(400_000.0),
            peak_rss_bytes: 64 * 1024 * 1024,
            metrics: Vec::new(),
            config: vec![
                ("seeds".into(), "3".into()),
                ("scale".into(), "1".into()),
                ("threads".into(), "0".into()),
            ],
        }
    }

    #[test]
    fn json_roundtrip_preserves_record() {
        let t = sample();
        let parsed = Telemetry::from_json(&t.to_json()).expect("roundtrip");
        assert_eq!(parsed, t);
    }

    #[test]
    fn roundtrip_without_events() {
        // The ladder's shape: no blended throughput, rungs in `metrics`.
        let t = ladder(sample_metrics());
        let parsed = Telemetry::from_json(&t.to_json()).expect("roundtrip");
        assert_eq!(parsed, t);
    }

    #[test]
    fn escaped_strings_roundtrip() {
        let t = Telemetry {
            name: "weird \"name\"\\with\nnoise".into(),
            ..sample()
        };
        let parsed = Telemetry::from_json(&t.to_json()).expect("roundtrip");
        assert_eq!(parsed.name, t.name);
    }

    #[test]
    fn emitted_keys_match_the_documented_schema() {
        // A record with every optional part present must emit exactly
        // the documented keys, in the documented order.
        let t = Telemetry {
            metrics: sample_metrics(),
            ..sample()
        };
        let value = json::parse(&t.to_json()).expect("parses");
        let top: Vec<&str> = value
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(top, SCHEMA_KEYS, "top-level keys drifted from the docs");
        // A record with the optional parts absent emits a subset.
        let value = json::parse(&sample().to_json()).expect("parses");
        for (k, _) in value.as_object().expect("object") {
            assert!(SCHEMA_KEYS.contains(&k.as_str()), "undocumented key `{k}`");
        }
    }

    #[test]
    fn compare_flags_regression_beyond_threshold() {
        let base = sample();
        let mut cur = sample();
        cur.events_per_sec = Some(250_000.0); // -37.5 %
        let out = compare(&base, &cur, 0.25);
        assert!(out.regressed, "{}", out.report);
        assert!(out.report.contains("REGRESSED"));
    }

    #[test]
    fn compare_tolerates_noise_within_threshold() {
        let base = sample();
        let mut cur = sample();
        cur.events_per_sec = Some(350_000.0); // -12.5 %
        let out = compare(&base, &cur, 0.25);
        assert!(!out.regressed, "{}", out.report);
    }

    #[test]
    fn compare_improvement_never_regresses() {
        let base = sample();
        let mut cur = sample();
        cur.events_per_sec = Some(4_000_000.0);
        let out = compare(&base, &cur, 0.25);
        assert!(!out.regressed);
    }

    #[test]
    fn compare_falls_back_to_wall_time() {
        let mk = |wall: f64| Telemetry {
            events: None,
            events_per_sec: None,
            wall_secs: wall,
            ..sample()
        };
        let out = compare(&mk(1.0), &mk(1.1), 0.25);
        assert!(!out.regressed, "{}", out.report);
        let out = compare(&mk(1.0), &mk(1.5), 0.25);
        assert!(out.regressed, "{}", out.report);
    }

    fn sample_metrics() -> Vec<(String, f64)> {
        vec![
            ("c1_reactor_bin_rps".into(), 400_000.0),
            ("c64_reactor_bin_rps".into(), 1_200_000.0),
        ]
    }

    /// A ladder-shaped record: rungs in `metrics`, no blended throughput.
    fn ladder(rungs: Vec<(String, f64)>) -> Telemetry {
        Telemetry {
            events: None,
            events_per_sec: None,
            metrics: rungs,
            ..sample()
        }
    }

    #[test]
    fn compare_gates_every_metric_on_its_own() {
        let base = ladder(sample_metrics());
        // One rung collapses while the other doubles: a blended rate
        // would have improved.
        let mut cur = ladder(sample_metrics());
        cur.metrics[0].1 = 200_000.0;
        cur.metrics[1].1 = 2_400_000.0;
        let out = compare(&base, &cur, 0.30);
        assert!(out.regressed, "{}", out.report);
        assert!(
            out.report.contains("c1_reactor_bin_rps baseline") && out.report.contains("REGRESSED"),
            "{}",
            out.report
        );
        // An improvement on every rung never regresses, however slow the
        // wall clock: with `metrics` on both sides nothing else is gated.
        let mut cur = ladder(sample_metrics());
        cur.metrics.iter_mut().for_each(|(_, v)| *v *= 3.0);
        cur.wall_secs = 100.0;
        let out = compare(&base, &cur, 0.30);
        assert!(!out.regressed, "{}", out.report);
        assert!(!out.report.contains("wall_secs"), "{}", out.report);
        assert!(!out.report.contains("events_per_sec"), "{}", out.report);
    }

    #[test]
    fn compare_fails_a_metric_missing_from_the_current_record() {
        let base = ladder(sample_metrics());
        let mut cur = ladder(sample_metrics());
        cur.metrics.remove(1); // the rung failed: its key was never written
        let out = compare(&base, &cur, 0.30);
        assert!(out.regressed, "{}", out.report);
        assert!(
            out.report.contains("c64_reactor_bin_rps") && out.report.contains("missing"),
            "{}",
            out.report
        );
        // A key only the current record carries is not gated.
        let mut cur = ladder(sample_metrics());
        cur.metrics.push(("c16384_reactor_bin_rps".into(), 1.0));
        let out = compare(&base, &cur, 0.30);
        assert!(!out.regressed, "{}", out.report);
    }

    #[test]
    fn compare_fails_on_config_mismatch() {
        let base = sample();
        let mut cur = sample();
        cur.config[1].1 = "0.5".into();
        let out = compare(&base, &cur, 0.25);
        assert!(out.regressed, "{}", out.report);
        assert!(
            out.report
                .contains("not comparable: config `scale` differs"),
            "{}",
            out.report
        );
        // A key on one side only, or another record name, is as fatal.
        let mut cur = sample();
        cur.config.push(("shards".into(), "8".into()));
        assert!(compare(&base, &cur, 0.25).regressed);
        let cur = Telemetry {
            name: "repro_other".into(),
            ..sample()
        };
        let out = compare(&base, &cur, 0.25);
        assert!(out.regressed, "{}", out.report);
        assert!(out.report.contains("record names differ"), "{}", out.report);
    }

    #[test]
    fn compare_fails_a_smaller_storm_at_the_same_rate() {
        let storm = |tenants: &str| sample().with_config("tenants", tenants);
        let out = compare(&storm("100000"), &storm("10000"), 0.35);
        assert!(out.regressed, "{}", out.report);
        assert!(
            out.report
                .contains("config `tenants` differs: baseline 100000 vs current 10000"),
            "{}",
            out.report
        );
        // The same storm on both sides still passes.
        assert!(!compare(&storm("100000"), &storm("100000"), 0.35).regressed);
    }

    #[test]
    fn measure_fills_throughput() {
        let opts = Opts::default();
        let (value, tele) = measure("unit", &opts, |_| (42u32, Some(1000)));
        assert_eq!(value, 42);
        assert_eq!(tele.events, Some(1000));
        assert!(tele.events_per_sec.expect("eps") > 0.0);
        assert!(tele.wall_secs >= 0.0);
        assert_eq!(tele.config[0], ("seeds".to_string(), "3".to_string()));
    }
}
