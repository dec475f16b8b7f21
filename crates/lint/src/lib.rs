//! # spq-lint — workspace static analysis for the SpeQuloS reproduction
//!
//! The repository's load-bearing guarantees — bit-identical replay, a
//! reactor that must never die on a bad connection, `unsafe` confined to
//! the one readiness shim and justified block by block, and normative specs (PROTOCOL.md, the
//! telemetry schema) that must match the source — are enforced here by
//! machine check instead of convention. Two layers:
//!
//! * **Source lints** ([`rules`]) run over a small hand-rolled lexer
//!   ([`lexer`]) that correctly skips strings, raw strings, char
//!   literals and both comment styles, so `"unwrap()"` in a string or
//!   `unsafe` in a comment never fires.
//! * **Spec conformance** ([`conformance`]) parses our own artifacts —
//!   PROTOCOL.md's tag tables, BENCHMARKS.md's telemetry schema, the
//!   README/ARCHITECTURE crate maps, the CI workflow — and cross-checks
//!   them against the source of truth in the code.
//!
//! Findings print as `file:line: rule-id: message` and make the binary
//! exit 1. A finding can be waived in place with
//!
//! ```text
//! // spq-lint: allow(rule-id) — reason
//! ```
//!
//! on the same line or the line above; the reason is mandatory (an
//! empty reason is itself a finding) and every honored suppression is
//! listed in the run summary so the debt stays visible. The rule table
//! lives in ARCHITECTURE.md § Static analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, anchored to a repo-relative file and 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path, unix separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable rule identifier (see ARCHITECTURE.md § Static analysis).
    pub rule: &'static str,
    /// Human-oriented explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A `// spq-lint: allow(rule-id) — reason` comment found in a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// Repo-relative path of the comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// The rule it waives.
    pub rule: String,
    /// The mandatory justification.
    pub reason: String,
    /// Whether it actually waived a finding in this run.
    pub used: bool,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Every syntactically valid suppression encountered.
    pub suppressions: Vec<Suppression>,
    /// Number of `.rs` files scanned by the source lints.
    pub files_scanned: usize,
}

/// What the source lints should enforce for a given file, derived from
/// its repo-relative path. See ARCHITECTURE.md § Static analysis for
/// the rationale behind each set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Role {
    /// Simulation crate: wall-clock, `std::env`, and unordered-map
    /// iteration are replay-divergence hazards.
    pub sim: bool,
    /// `spq-server` connection/dispatch path: a panic costs the whole
    /// reactor, so `unwrap`/`expect`/panicking macros are forbidden.
    pub hot: bool,
    /// Parses untrusted wire or disk bytes: slice indexing is forbidden on top
    /// of the `hot` set.
    pub decode: bool,
    /// A crate root that must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// The one crate allowed to use `unsafe` (`compat/polling`).
    pub unsafe_ok: bool,
}

/// Crates whose sources must stay deterministic (replayable).
pub const SIM_CRATES: &[&str] = &[
    "simcore", "core", "dgrid", "betrace", "unicloud", "botwork", "harness",
];

/// Whether `rel` is on `spq-server`'s connection/dispatch path: every
/// module in `crates/server/src/` is — the client half too, since a
/// panic there costs the middleware embedding it — except the crate
/// root and the binaries under `bin/`. A module added to the server is
/// born under the panic-freedom rules rather than opted in later.
fn is_hot(rel: &str) -> bool {
    rel.strip_prefix("crates/server/src/")
        .is_some_and(|file| file.ends_with(".rs") && !file.contains('/') && file != "lib.rs")
}

/// The files that decode untrusted wire or disk bytes: the frame,
/// envelope and binary parsers, the two cores that slice their buffers
/// for them — the connection core facing clients, the client core facing
/// a server that may be hostile or merely buggy — the JSON reader every
/// JSON frame payload is walked by, and the service core's decoders: the
/// message codecs the reactor thread runs on every envelope, JSON or
/// binary, and the write-ahead log and snapshot readers that recovery
/// runs on disk bytes. None of the last five is a server module.
pub const DECODE_FILES: &[&str] = &[
    "crates/simcore/src/json.rs",
    "crates/core/src/protocol.rs",
    "crates/core/src/protocol/codec.rs",
    "crates/core/src/snapshot.rs",
    "crates/core/src/wal.rs",
    "crates/server/src/frame.rs",
    "crates/server/src/binary.rs",
    "crates/server/src/wire.rs",
    "crates/server/src/conn.rs",
    "crates/server/src/client.rs",
];

/// Classifies a repo-relative path (unix separators) into its [`Role`].
pub fn classify(rel: &str) -> Role {
    let mut role = Role::default();
    for sim in SIM_CRATES {
        if rel.starts_with(&format!("crates/{sim}/src/")) {
            role.sim = true;
        }
    }
    role.decode = DECODE_FILES.contains(&rel);
    role.hot = is_hot(rel) || role.decode;
    role.unsafe_ok = rel.starts_with("compat/polling/");
    role.crate_root = rel == "src/lib.rs"
        || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
        || (rel.starts_with("compat/") && rel.ends_with("/src/lib.rs") && !role.unsafe_ok);
    role
}

/// Directories the repository walk never descends into.
fn skip_dir(name: &str) -> bool {
    name == "target" || name == ".git" || name == "fixtures" || name == "results"
}

/// Collects every `.rs` file under `root` (sorted, deterministic),
/// skipping build output, VCS state and the lint's own test fixtures.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        let mut children: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        children.sort();
        for child in children {
            let name = child
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if child.is_dir() {
                if !skip_dir(&name) {
                    stack.push(child);
                }
            } else if name.ends_with(".rs") {
                files.push(child);
            }
        }
    }
    files.sort();
    files
}

/// Runs the full pass — source lints over every `.rs` file plus the
/// conformance checks — against a repository root.
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in collect_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let file = rules::check_file(&rel, &src);
        report.findings.extend(file.findings);
        report.suppressions.extend(file.suppressions);
        report.files_scanned += 1;
    }
    report.findings.extend(conformance::check(root)?);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // One finding per (file, line, rule): a line like `[b[0], b[1]]`
    // raising panic-index four times is noise, not signal.
    report
        .findings
        .dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
    report
        .suppressions
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}
