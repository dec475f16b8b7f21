//! Command-line arguments. Everything that shapes a run arrives here;
//! the benchmark reads no environment variable.

use std::path::PathBuf;

/// The six workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "wire_bin",
    "wire_json_batch",
    "wire_durable",
    "wire_idle_fanin",
    "sim_campaign",
    "sim_multitenant",
];

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// `--workload`/`--only`: run this workload in this process. Without
    /// it the process runs every workload, each in a child process.
    pub workload: Option<String>,
    /// `--seed`: the scripts and scenarios are pure functions of it.
    pub seed: u64,
    /// `--seconds`: how long one run measures at the speed of the commit
    /// the benchmark was sized on; work is fixed, not timed, and scales
    /// linearly with this.
    pub seconds: f64,
    /// `--repeats`: fresh-server repeats whose median is reported.
    pub repeats: usize,
    /// `--trace`: the traced run (spans + per-layer metrics).
    pub trace: bool,
    /// `--selfcheck`: two full sets must agree within the bounds.
    pub selfcheck: bool,
    /// `--out`: where traces, tables and scratch files go.
    pub out: PathBuf,
    /// `--corrupt-oracle`: flips a bit of every expected CRC, to show
    /// that a mismatch fails the run.
    pub corrupt_oracle: bool,
}

pub const USAGE: &str = "usage: spq-benchmark [--workload|--only <name>] [--seed <n>] \
[--seconds <s>] [--repeats <k>] [--trace [0|1]] [--selfcheck] [--out <dir>] [--corrupt-oracle]";

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            repeats: 5,
            trace: false,
            selfcheck: false,
            out: PathBuf::from("benchmark/out"),
            corrupt_oracle: false,
        };
        let mut argv = argv.into_iter().peekable();
        while let Some(flag) = argv.next() {
            let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
            match flag.as_str() {
                "--workload" | "--only" => {
                    let name = value("a workload name")?;
                    if !WORKLOADS.contains(&name.as_str()) {
                        return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                    }
                    args.workload = Some(name);
                }
                "--seed" => args.seed = parse(&value("a number")?, "--seed")?,
                "--seconds" => {
                    args.seconds = parse(&value("a number")?, "--seconds")?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--repeats" => {
                    args.repeats = parse(&value("a number")?, "--repeats")?;
                    if args.repeats == 0 {
                        return Err("--repeats must be at least 1".to_string());
                    }
                }
                "--out" => args.out = PathBuf::from(value("a directory")?),
                "--trace" => {
                    // Bare `--trace` means on; the driver passes 0 or 1.
                    args.trace = match argv.peek().map(String::as_str) {
                        Some("0") => {
                            argv.next();
                            false
                        }
                        Some("1") => {
                            argv.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--selfcheck" => args.selfcheck = true,
                "--corrupt-oracle" => args.corrupt_oracle = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }

    /// Seconds of measured work one repeat is sized for.
    pub fn repeat_budget(&self) -> f64 {
        self.seconds / self.repeats as f64
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args("--workload wire_bin --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("wire_bin"));
        assert_eq!((a.seed, a.seconds, a.trace, a.repeats), (7, 10.0, false, 5));
        assert!(
            parse_args("--workload sim_campaign --trace 1")
                .unwrap()
                .trace
        );
        assert!(parse_args("--trace --only wire_durable").unwrap().trace);
        assert!(parse_args("--trace").unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_args("--workload nope").is_err());
        assert!(parse_args("--seed x").is_err());
        assert!(parse_args("--seconds 0").is_err());
        assert!(parse_args("--repeats 0").is_err());
        assert!(parse_args("--frobnicate").is_err());
        assert!(parse_args("--seed").is_err());
    }
}
