//! One module per paper table/figure; each produces a plain-text report
//! (and CSV where a figure needs curve data). [`REPORTS`] names them:
//! `repro_all [name …]` runs the named rows (all of them by default) and
//! writes their files.

use crate::Opts;
use spq_harness::write_file;

pub mod ablations;
pub mod calibration;
pub mod edgi;
pub mod multitenant;
pub mod performance;
pub mod prediction;
pub mod profiling;
pub mod strategies;

/// One row of the name table: the files computed from one sweep.
pub struct Row {
    /// Files the row writes; a file's stem is the report name that asks
    /// for it (`fig4.txt`, `fig4.csv` ← `fig4`), and a `.txt` is also
    /// echoed on stdout.
    pub files: &'static [&'static str],
    /// Produces the contents of every file of the row, in `files` order.
    pub run: fn(&Opts) -> Vec<String>,
}

/// The name table: every file `repro_all` can write, in the order it
/// writes them. Reports sharing a row (`fig4 fig5`, `fig6 fig7`) share
/// one sweep.
pub const REPORTS: &[Row] = &[
    Row {
        files: &["fig1.txt"],
        run: |o| vec![profiling::fig1(o)],
    },
    Row {
        files: &["fig2.txt", "fig2.csv"],
        run: |o| {
            let (text, csv) = profiling::fig2(o);
            vec![text, csv]
        },
    },
    Row {
        files: &["table1.txt"],
        run: |o| vec![profiling::table1(o)],
    },
    Row {
        files: &["table2.txt"],
        run: |o| vec![calibration::table2(o)],
    },
    Row {
        files: &["table3.txt"],
        run: |o| vec![calibration::table3(o)],
    },
    Row {
        files: &["fig4.txt", "fig4.csv", "fig5.txt"],
        run: |o| {
            let sweep = strategies::sweep_all_combos(o);
            let (text, csv) = strategies::fig4(&sweep);
            vec![text, csv, strategies::fig5(&sweep)]
        },
    },
    Row {
        files: &["fig6.txt", "fig7.txt", "fig7.csv"],
        run: |o| {
            let runs = performance::sweep_default_combo(o);
            let (text, csv) = performance::fig7(&runs);
            vec![performance::fig6(&runs), text, csv]
        },
    },
    Row {
        files: &["table4.txt"],
        run: |o| {
            // Predictions need history: ensure a few runs per environment.
            let mut o = o.clone();
            o.seeds = o.seeds.max(5);
            vec![prediction::table4(&o)]
        },
    },
    Row {
        files: &["table5.txt"],
        run: |o| vec![edgi::table5(o)],
    },
    Row {
        files: &["multitenant.txt"],
        run: |o| vec![multitenant::report(o)],
    },
    Row {
        files: &["ablation_credit.txt"],
        run: |o| vec![ablations::credit(o)],
    },
    Row {
        files: &["ablation_tick.txt"],
        run: |o| vec![ablations::tick(o)],
    },
    Row {
        files: &["ablation_timeout.txt"],
        run: |o| vec![ablations::timeout(o)],
    },
    Row {
        files: &["ablation_boot.txt"],
        run: |o| vec![ablations::boot(o)],
    },
    Row {
        files: &["ablation_threshold.txt"],
        run: |o| vec![ablations::threshold(o)],
    },
    Row {
        files: &["ablation_middleware.txt"],
        run: |o| vec![ablations::middleware(o)],
    },
];

/// The report name a file belongs to: its stem.
fn name_of(file: &str) -> &str {
    file.split('.').next().unwrap_or(file)
}

/// The files `names` select, in table order — every file of [`REPORTS`]
/// when `names` is empty. `Err` carries the usage message for the first
/// name the table does not know.
pub fn select(names: &[String]) -> Result<Vec<&'static str>, String> {
    let all = || REPORTS.iter().flat_map(|row| row.files).copied();
    if let Some(unknown) = names
        .iter()
        .find(|n| all().all(|f| name_of(f) != n.as_str()))
    {
        let mut known: Vec<&str> = all().map(name_of).collect();
        known.dedup();
        return Err(format!(
            "unknown report `{unknown}` (one of: {})",
            known.join(" ")
        ));
    }
    Ok(all()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == name_of(f)))
        .collect())
}

/// Runs the reports `names` select into `opts.out_dir`; a row is run
/// once, whichever of its names ask.
pub fn run_all(opts: &Opts, names: &[String]) -> Result<(), String> {
    let wanted = select(names)?;
    for row in REPORTS {
        if !row.files.iter().any(|f| wanted.contains(f)) {
            continue;
        }
        for (file, text) in row.files.iter().zip((row.run)(opts)) {
            if !wanted.contains(file) {
                continue;
            }
            if file.ends_with(".txt") {
                println!("=== {file} ===\n{text}");
            }
            write_file(opts.out_dir.join(file), &text).expect("write report");
        }
    }
    println!("reports written to {}", opts.out_dir.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(names: &[&str]) -> Result<Vec<&'static str>, String> {
        select(&names.iter().map(|n| n.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_names_selects_every_file_repro_all_has_always_written() {
        let pinned = [
            "fig1.txt",
            "fig2.txt",
            "fig2.csv",
            "table1.txt",
            "table2.txt",
            "table3.txt",
            "fig4.txt",
            "fig4.csv",
            "fig5.txt",
            "fig6.txt",
            "fig7.txt",
            "fig7.csv",
            "table4.txt",
            "table5.txt",
            "multitenant.txt",
            "ablation_credit.txt",
            "ablation_tick.txt",
            "ablation_timeout.txt",
            "ablation_boot.txt",
            "ablation_threshold.txt",
            "ablation_middleware.txt",
        ];
        let all = files(&[]).expect("the empty selection is valid");
        assert_eq!(all, pinned);
        assert_eq!(all.iter().filter(|f| f.ends_with(".txt")).count(), 18);
        assert_eq!(all.iter().filter(|f| f.ends_with(".csv")).count(), 3);
    }

    #[test]
    fn every_name_resolves_and_no_file_is_written_twice() {
        let all = files(&[]).expect("valid");
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "duplicate file in {all:?}");
        for file in &all {
            let name = name_of(file);
            let got = files(&[name]).expect("a table name resolves");
            assert!(got.contains(file), "{name} selected {got:?}");
            assert!(got.iter().all(|f| name_of(f) == name), "{name}: {got:?}");
        }
        // Names sharing a sweep select only their own files, in table
        // order however they were asked for.
        assert_eq!(files(&["fig5"]).expect("valid"), ["fig5.txt"]);
        assert_eq!(
            files(&["fig5", "fig4"]).expect("valid"),
            ["fig4.txt", "fig4.csv", "fig5.txt"]
        );
    }

    #[test]
    fn an_unknown_name_is_a_usage_error() {
        let err = files(&["table2", "table9"]).expect_err("table9 is not a report");
        assert!(err.contains("unknown report `table9`"), "{err}");
        assert!(err.contains("fig1 fig2 table1"), "{err}");
        assert!(files(&["fig4.txt"]).is_err(), "names are stems, not files");
    }
}
