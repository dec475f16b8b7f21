//! The full run: every workload in a child process of its own, then the
//! summary, the stage table (`--trace`) or the repeatability verdict
//! (`--selfcheck`).

use crate::args::{Args, WORKLOADS};
use crate::metrics::{json_number, MetricDef, END_TO_END, PER_LAYER};
use simcore::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::process::{Command, Stdio};

/// One child's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Results of one set of runs, by workload.
type Set = BTreeMap<&'static str, Outcome>;

fn run_child(args: &Args, workload: &str, trace: bool) -> io::Result<Outcome> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--repeats", &args.repeats.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    let output = command.spawn()?.wait_with_output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    let bad = |what: &str| io::Error::other(format!("{workload}: {what}"));
    let last = text
        .lines()
        .last()
        .ok_or_else(|| bad("printed no result"))?;
    let doc = json::parse(last).map_err(|e| bad(&format!("result line: {e}")))?;
    let count = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| bad("result line lacks a count"))
    };
    let mut metrics = BTreeMap::new();
    for (name, metric) in doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("result line lacks metrics"))?
    {
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| bad("a metric lacks its value"))?;
        metrics.insert(name.clone(), value);
    }
    Ok(Outcome {
        correct: doc.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// One set per entry of `traced`, every workload run once per set. A
/// workload's runs follow each other directly, so that the sets see the
/// same spell of the sandbox's weather.
fn run_sets(args: &Args, traced: &[bool]) -> io::Result<Vec<Set>> {
    let mut sets: Vec<Set> = traced.iter().map(|_| Set::new()).collect();
    for workload in WORKLOADS {
        for (set, &trace) in sets.iter_mut().zip(traced) {
            set.insert(workload, run_child(args, workload, trace)?);
        }
    }
    Ok(sets)
}

fn print_summary(title: &str, defs: &[MetricDef], set: &Set) {
    println!("\n== {title} ==");
    for (workload, outcome) in set {
        println!(
            "{workload}: correct {}, failed {}/{}",
            outcome.correct, outcome.failed, outcome.attempted
        );
        for def in defs {
            let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
            // A layer the workload does not exercise reads 0: leave it out.
            if value != 0.0 {
                println!("  {:<36} {value:>16.4} {}", def.name, def.unit);
            }
        }
    }
}

fn summary_json(sets: &[(&str, &Set)]) -> String {
    let mut out = String::from("{");
    for (i, (label, set)) in sets.iter().enumerate() {
        let _ = write!(out, "{}\n  \"{label}\": {{", if i == 0 { "" } else { "," });
        for (j, (workload, outcome)) in set.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{workload}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                if j == 0 { "" } else { "," },
                outcome.correct,
                outcome.attempted,
                outcome.failed
            );
            for (k, (name, value)) in outcome.metrics.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {}", json_number(*value));
            }
            out.push_str("}}");
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Rows of the stage table: label and the per-layer metrics it sums
/// (one per codec; a workload has only one of them non-zero).
const WIRE_STAGES: [(&str, &[&str]); 6] = [
    (
        "frame split",
        &["frame.bin_split_ns", "frame.json_split_ns"],
    ),
    (
        "request decode",
        &["binary.decode_req_ns", "wire.decode_req_ns"],
    ),
    ("wal append", &["wal.append_ns"]),
    ("service handle", &["service.handle_ns"]),
    (
        "snapshot write (CPU, per request)",
        &["snapshot.cpu_ns_per_req"],
    ),
    (
        "response encode",
        &["binary.encode_resp_ns", "wire.encode_resp_ns"],
    ),
];

/// The per-workload stage budget: stages plus residual sum to the CPU the
/// server spent per request in the traced wire run.
fn stage_table(untraced: &Set, traced: &Set) -> String {
    let mut out = String::from(
        "# Stage table\n\nGenerated by `benchmark/run.sh --trace`. Wire workloads: nanoseconds of \
         server CPU per answered request, by stage; the residual is what the reactor spends \
         outside the stages (syscalls, readiness waits, buffers). Simulator workloads: where \
         host time goes.\n",
    );
    for workload in WORKLOADS {
        let (Some(e2e), Some(layers)) = (untraced.get(workload), traced.get(workload)) else {
            continue;
        };
        let get = |name: &str| layers.metrics.get(name).copied().unwrap_or(0.0);
        let _ = write!(out, "\n## {workload}\n\n");
        let traced_rate = get("trace.throughput_per_s");
        let untraced_rate = e2e.metrics.get("throughput_per_s").copied().unwrap_or(0.0);
        if workload.starts_with("wire_") {
            let total = get("trace.cpu_us_per_op") * 1e3;
            let mut rows: Vec<(&str, f64)> = WIRE_STAGES
                .iter()
                .map(|(stage, names)| (*stage, names.iter().map(|n| get(n)).sum()))
                .filter(|(_, ns)| *ns > 0.0)
                .collect();
            rows.push(("residual (reactor)", get("reactor.residual_ns_per_req")));
            out.push_str("| stage | ns/req | share |\n|---|---:|---:|\n");
            for (stage, ns) in &rows {
                let _ = writeln!(out, "| {stage} | {ns:.1} | {:.3} |", ns / total);
            }
            let sum: f64 = rows.iter().map(|(_, ns)| ns).sum();
            let _ = writeln!(out, "| **sum** | {sum:.1} | {:.3} |", sum / total);
            let _ = writeln!(
                out,
                "\nServer CPU per request: {total:.1} ns in the traced wire run, {:.1} ns in the \
                 untraced run. `reactor.cpu_share` {:.3}, `loadgen.busy_share` {:.3}.",
                e2e.metrics.get("cpu_us_per_op").copied().unwrap_or(0.0) * 1e3,
                get("reactor.cpu_share"),
                get("loadgen.busy_share"),
            );
        } else {
            out.push_str("| part | value |\n|---|---:|\n");
            for (label, name) in [
                ("trace build, ms per build", "betrace.build_ms"),
                ("baseline run, ns per event", "dgrid.baseline_ns_per_event"),
                ("QoS run, ns per event", "dgrid.qos_ns_per_event"),
                ("service share of the QoS run", "sim.service_share"),
                ("service calls", "sim.service_calls"),
                ("multi-tenant run, ns per event", "sim.mt_ns_per_event"),
                ("event queue, ns per operation", "simcore.queue_ns_per_op"),
                ("events", "sim.events"),
            ] {
                if get(name) != 0.0 {
                    let _ = writeln!(out, "| {label} | {:.4} |", get(name));
                }
            }
        }
        if untraced_rate > 0.0 {
            let _ = writeln!(
                out,
                "\n`trace.overhead_share` = 1 − traced/untraced throughput = {:.4} \
                 ({traced_rate:.0} vs {untraced_rate:.0} per second).",
                1.0 - traced_rate / untraced_rate
            );
        }
    }
    out
}

/// Two sets must agree: for every workload and end-to-end metric the
/// second median may not be worse than the first by more than the bound,
/// nor the first worse than the second.
fn selfcheck(first: &Set, second: &Set) -> bool {
    println!("\n== selfcheck: two sets of the same code ==");
    let mut agree = true;
    for (workload, a) in first {
        let b = &second[workload];
        for def in END_TO_END {
            let (x, y) = (a.metrics[def.name], b.metrics[def.name]);
            // Positive when the second set is the worse one.
            let worse = if def.higher_is_better { x - y } else { y - x } / x.min(y);
            let ok = worse.abs() <= def.bound;
            agree &= ok;
            println!(
                "  {workload:<16} {:<18} {x:>14.4} {y:>14.4}  second set {:.4} {} (bound {}) {}",
                def.name,
                worse.abs(),
                if worse > 0.0 { "worse" } else { "better" },
                def.bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    agree
}

pub fn run(args: &Args) -> io::Result<bool> {
    std::fs::create_dir_all(&args.out)?;
    let second_set = match (args.selfcheck, args.trace) {
        (true, _) => Some(false),
        (false, true) => Some(true),
        (false, false) => None,
    };
    let traced: Vec<bool> = std::iter::once(false).chain(second_set).collect();
    let sets = run_sets(args, &traced)?;
    let correct = sets.iter().flat_map(Set::values).all(|o| o.correct);
    print_summary(
        "end-to-end metrics (median of the repeats)",
        END_TO_END,
        &sets[0],
    );
    let mut summary = vec![("end_to_end", &sets[0])];
    let mut agree = true;
    if args.selfcheck {
        agree = selfcheck(&sets[0], &sets[1]);
        summary.push(("end_to_end_second_set", &sets[1]));
    } else if args.trace {
        print_summary("per-layer metrics (traced run)", PER_LAYER, &sets[1]);
        let table = stage_table(&sets[0], &sets[1]);
        println!("\n{table}");
        std::fs::write(args.out.join("stage_table.md"), table)?;
        summary.push(("per_layer", &sets[1]));
    }
    std::fs::write(args.out.join("summary.json"), summary_json(&summary))?;
    println!(
        "\nsummary written to {}; outputs {}{}",
        args.out.join("summary.json").display(),
        if correct { "correct" } else { "WRONG" },
        if agree { "" } else { "; the two sets DISAGREE" }
    );
    Ok(correct && agree)
}
