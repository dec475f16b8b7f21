//! `repro_all [name …]` — runs the named reproduction reports (every
//! report of `spq_bench::experiments::REPORTS` when none is named) and
//! writes them to the output directory (default `results/`).
use spq_bench::{experiments, opts, Opts};

fn main() {
    let mut names = Vec::new();
    let options = Opts::from_args_with(|arg, _| {
        let positional = !arg.starts_with('-');
        if positional {
            names.push(arg.to_string());
        }
        positional
    });
    if let Err(msg) = experiments::run_all(&options, &names) {
        opts::usage(&msg);
    }
}
