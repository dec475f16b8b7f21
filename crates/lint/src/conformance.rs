//! Layer 2 — spec-conformance checks.
//!
//! These parse the repository's own normative artifacts and cross-check
//! them against the source of truth in code, so the specs and the code
//! cannot drift apart silently:
//!
//! * `spec-protocol-tags` — the binary tags of the message table in
//!   `spequlos::protocol` (the `messages!` rows of `Request` and
//!   `Response`, the `coded!` rows of `RequestError`) ↔ the PROTOCOL.md
//!   tag tables (§5.3, §5.5, error codes). Every row documented, every
//!   documented tag implemented, values equal.
//! * `spec-telemetry-schema` — `SCHEMA_KEYS` in `spq_bench::telemetry`
//!   ↔ the BENCHMARKS.md schema table *and* the module's own rustdoc
//!   table.
//! * `spec-crate-map` — the `crates/*` workspace members on disk (and
//!   their package names) ↔ the README and ARCHITECTURE crate maps.
//! * `spec-ci-jobs` — job ids in `.github/workflows/ci.yml` ↔ the CI
//!   jobs table in README's CI section.
//! * `spec-bench-baselines` — the `BENCH_*.json` files at the root ↔ the
//!   `!/BENCH_*.json` exceptions in `.gitignore` ↔ the baselines the
//!   workflow's `spq-bench … compare` steps gate: one set, so no
//!   checked-in baseline goes ungated and no gate lacks its baseline.
//!
//! Each check runs only when its primary source file exists under the
//! root, so the same pass works on the fixture mini-trees the
//! self-tests pin exit codes with.

use crate::Finding;
use std::collections::BTreeMap;
use std::path::Path;

/// Runs every conformance check whose inputs exist under `root`.
pub fn check(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut out = Vec::new();
    out.extend(protocol_tags(root)?);
    out.extend(telemetry_schema(root)?);
    out.extend(crate_map(root)?);
    out.extend(ci_jobs(root)?);
    out.extend(bench_baselines(root)?);
    Ok(out)
}

fn read_if_exists(root: &Path, rel: &str) -> std::io::Result<Option<String>> {
    let path = root.join(rel);
    if path.is_file() {
        std::fs::read_to_string(path).map(Some)
    } else {
        Ok(None)
    }
}

fn finding(file: &str, line: u32, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

/// `RegisterQos` → `registerqos`: variant names compare
/// case-insensitively, underscores ignored.
fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// First backtick-quoted span on `s`, if any.
fn backticked(s: &str) -> Option<&str> {
    let open = s.find('`')?;
    let rest = &s[open + 1..];
    let close = rest.find('`')?;
    Some(&rest[..close])
}

/// Splits a markdown table row into trimmed cells (empty edge cells
/// from the leading/trailing `|` dropped).
fn row_cells(line: &str) -> Vec<&str> {
    let trimmed = line.trim();
    if !trimmed.starts_with('|') {
        return Vec::new();
    }
    trimmed
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect()
}

// ---------------------------------------------------------------------------
// spec-protocol-tags
// ---------------------------------------------------------------------------

const PROTOCOL_RS: &str = "crates/core/src/protocol.rs";
const PROTOCOL_MD: &str = "PROTOCOL.md";

/// Which tag table a line of the message table opens: `Some(Some(t))`
/// for a table the spec documents, `Some(None)` for another enum.
fn table_header(line: &str) -> Option<Option<usize>> {
    let header = [
        "pub enum Request:",
        "pub enum Response:",
        "coded!(RequestError",
    ];
    if let Some(t) = header.iter().position(|h| line.contains(h)) {
        return Some(Some(t));
    }
    (line.contains("pub enum ") || line.contains("coded!(")).then_some(None)
}

/// `Deposit = "deposit", 0x01 {` → `("Deposit", 0x01)`: a table row,
/// struct, tuple (`Batch(items: …) = …`) or coded (`Credit {0: …} = …`).
fn table_row(line: &str) -> Option<(&str, u8)> {
    let l = line.trim_start();
    let name_len = l.find(|c: char| !c.is_ascii_alphanumeric() && c != '_')?;
    let name = &l[..name_len];
    if !name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return None;
    }
    let (_, tail) = l.split_once("= \"")?;
    let (_, hex) = tail.split_once("\", 0x")?;
    let hex = hex.get(..2)?;
    Some((name, u8::from_str_radix(hex, 16).ok()?))
}

fn protocol_tags(root: &Path) -> std::io::Result<Vec<Finding>> {
    let Some(table) = read_if_exists(root, PROTOCOL_RS)? else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    let Some(protocol) = read_if_exists(root, PROTOCOL_MD)? else {
        out.push(finding(
            PROTOCOL_RS,
            1,
            "spec-protocol-tags",
            "the message table exists but PROTOCOL.md is missing — the wire format must stay specified"
                .to_string(),
        ));
        return Ok(out);
    };

    // Code side: the rows of each table, name → (value, line).
    let mut code: [BTreeMap<String, (u8, u32)>; 3] =
        [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()];
    let mut current = None;
    for (idx, line) in table.lines().enumerate() {
        if let Some(t) = table_header(line) {
            current = t;
        } else if line == "}" || line == "});" {
            current = None;
        } else if let (Some(t), Some((name, value))) = (current, table_row(line)) {
            code[t].insert(normalize(name), (value, idx as u32 + 1));
        }
    }

    // Doc side: the three tag tables, recognized by their header rows.
    let mut doc: [BTreeMap<String, (u8, u32)>; 3] =
        [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()];
    let mut mode: Option<usize> = None;
    let mut collected = 0usize;
    for (idx, line) in protocol.lines().enumerate() {
        if line.contains("Error codes under tag") {
            mode = Some(2);
            collected = 0;
            continue;
        }
        let cells = row_cells(line);
        if cells.len() >= 2 {
            let h0 = cells[0].to_ascii_lowercase();
            if h0 == "tag" {
                mode = match cells[1].to_ascii_lowercase().as_str() {
                    "request" => Some(0),
                    "response" => Some(1),
                    _ => None,
                };
                collected = 0;
                continue;
            }
            if h0 == "code" {
                mode = Some(2);
                collected = 0;
                continue;
            }
            if let Some(m) = mode {
                let Some(value) = backticked(cells[0])
                    .and_then(|t| t.strip_prefix("0x"))
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                else {
                    continue;
                };
                let Some(name) = backticked(cells[1]) else {
                    continue;
                };
                doc[m].insert(normalize(name), (value, idx as u32 + 1));
                collected += 1;
            }
        } else if line.trim().is_empty() && collected > 0 {
            // A table ends at the first blank line after its rows.
            mode = None;
            collected = 0;
        }
    }

    let tables = ["request", "response", "error-code"];
    for t in 0..3 {
        for (name, &(value, line)) in &code[t] {
            match doc[t].get(name) {
                None => out.push(finding(
                    PROTOCOL_RS,
                    line,
                    "spec-protocol-tags",
                    format!(
                        "{} tag `{name}` (0x{value:02x}) is implemented but missing from the PROTOCOL.md {} table",
                        tables[t], tables[t]
                    ),
                )),
                Some(&(doc_value, doc_line)) if doc_value != value => out.push(finding(
                    PROTOCOL_MD,
                    doc_line,
                    "spec-protocol-tags",
                    format!(
                        "{} tag `{name}` documented as 0x{doc_value:02x} but implemented as 0x{value:02x} in {PROTOCOL_RS}:{line}",
                        tables[t]
                    ),
                )),
                Some(_) => {}
            }
        }
        for (name, &(value, line)) in &doc[t] {
            if !code[t].contains_key(name) {
                out.push(finding(
                    PROTOCOL_MD,
                    line,
                    "spec-protocol-tags",
                    format!(
                        "{} tag `{name}` (0x{value:02x}) is documented but not implemented in {PROTOCOL_RS}",
                        tables[t]
                    ),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// spec-telemetry-schema
// ---------------------------------------------------------------------------

const TELEMETRY_RS: &str = "crates/bench/src/telemetry.rs";
const BENCHMARKS_MD: &str = "BENCHMARKS.md";

/// Extracts the string literals of `pub const NAME: &[&str] = [ … ];`.
fn const_str_array(src: &str, name: &str) -> Option<(Vec<String>, u32)> {
    let mut keys = Vec::new();
    let mut line_no = 0u32;
    let mut in_array = false;
    for (idx, line) in src.lines().enumerate() {
        let scan = if !in_array {
            if line.contains(&format!("const {name}:")) {
                in_array = true;
                line_no = idx as u32 + 1;
                // Only the part after the array opener counts — the
                // type `&[&str]` on this line contains `]` itself.
                line.rsplit_once('[').map(|(_, tail)| tail).unwrap_or("")
            } else {
                continue;
            }
        } else {
            line
        };
        let mut rest = scan;
        while let Some(open) = rest.find('"') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('"') else { break };
            keys.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
        if scan.contains(']') {
            return Some((keys, line_no));
        }
    }
    None
}

/// All backticked, comma-separated keys in the first cell of every data
/// row of the markdown table whose header's first cell is `key`,
/// starting the scan at `from`, with their line numbers.
fn doc_key_table(lines: &[&str], from: usize) -> Vec<(String, u32)> {
    let mut keys = Vec::new();
    let mut i = from;
    // Find the header row.
    while i < lines.len() {
        let cells = row_cells(lines[i]);
        if cells.first().is_some_and(|c| c.eq_ignore_ascii_case("key")) {
            i += 1;
            break;
        }
        i += 1;
    }
    // Data rows (skipping the |---| separator) until the table ends.
    while i < lines.len() {
        let cells = row_cells(lines[i]);
        if cells.is_empty() {
            break;
        }
        if let Some(first) = cells.first() {
            let mut rest = *first;
            while let Some(open) = rest.find('`') {
                let tail = &rest[open + 1..];
                let Some(close) = tail.find('`') else { break };
                let key = tail[..close].trim();
                if !key.is_empty() && !key.contains(' ') {
                    keys.push((key.to_string(), i as u32 + 1));
                }
                rest = &tail[close + 1..];
            }
        }
        i += 1;
    }
    keys
}

/// Set comparison with findings anchored at whichever side is wrong.
fn compare_key_sets(
    out: &mut Vec<Finding>,
    code_file: &str,
    code_keys: &[String],
    code_line: u32,
    doc_file: &str,
    doc_keys: &[(String, u32)],
    what: &str,
) {
    for key in code_keys {
        if !doc_keys.iter().any(|(k, _)| k == key) {
            out.push(finding(
                code_file,
                code_line,
                "spec-telemetry-schema",
                format!("{what} key `{key}` is emitted but undocumented in {doc_file}"),
            ));
        }
    }
    for (key, line) in doc_keys {
        if !code_keys.contains(key) {
            out.push(finding(
                doc_file,
                *line,
                "spec-telemetry-schema",
                format!("{what} key `{key}` is documented but not in {code_file}"),
            ));
        }
    }
}

fn telemetry_schema(root: &Path) -> std::io::Result<Vec<Finding>> {
    let Some(telemetry) = read_if_exists(root, TELEMETRY_RS)? else {
        return Ok(Vec::new());
    };
    let mut out = Vec::new();
    let Some((schema, schema_line)) = const_str_array(&telemetry, "SCHEMA_KEYS") else {
        out.push(finding(
            TELEMETRY_RS,
            1,
            "spec-telemetry-schema",
            "SCHEMA_KEYS const not found — the telemetry schema must stay pinned".to_string(),
        ));
        return Ok(out);
    };

    // The module's own rustdoc table (`//! | `key` | …`).
    let doc_lines: Vec<&str> = telemetry
        .lines()
        .map(|l| l.trim_start().strip_prefix("//!").unwrap_or(""))
        .collect();
    let rustdoc_top = doc_key_table(&doc_lines, 0);
    compare_key_sets(
        &mut out,
        TELEMETRY_RS,
        &schema,
        schema_line,
        TELEMETRY_RS,
        &rustdoc_top,
        "rustdoc top-level",
    );

    // BENCHMARKS.md schema table, after the telemetry-record heading.
    if let Some(bench) = read_if_exists(root, BENCHMARKS_MD)? {
        let lines: Vec<&str> = bench.lines().collect();
        let start = lines
            .iter()
            .position(|l| l.starts_with("## ") && l.contains("telemetry record"))
            .unwrap_or(0);
        let bench_top = doc_key_table(&lines, start);
        compare_key_sets(
            &mut out,
            TELEMETRY_RS,
            &schema,
            schema_line,
            BENCHMARKS_MD,
            &bench_top,
            "telemetry top-level",
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// spec-crate-map
// ---------------------------------------------------------------------------

/// `| `crates/dir` | `pkg` | …` rows of a doc's crate map.
fn doc_crate_rows(src: &str) -> Vec<(String, String, u32)> {
    let mut rows = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let cells = row_cells(line);
        if cells.len() < 2 {
            continue;
        }
        let Some(path) = backticked(cells[0]) else {
            continue;
        };
        let Some(dir) = path.strip_prefix("crates/") else {
            continue;
        };
        let Some(pkg) = backticked(cells[1]) else {
            continue;
        };
        rows.push((dir.to_string(), pkg.to_string(), idx as u32 + 1));
    }
    rows
}

/// Package name from a crate's `Cargo.toml`.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let l = line.trim();
        if l.starts_with('[') {
            in_package = l == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = l.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

fn crate_map(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Ok(Vec::new());
    }
    // Disk truth: crates/<dir> → package name.
    let mut members: BTreeMap<String, String> = BTreeMap::new();
    let mut entries: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        if !entry.path().is_dir() {
            continue;
        }
        let dir = entry.file_name().to_string_lossy().into_owned();
        // A directory without a manifest is not a workspace member
        // (lint fixtures are shaped this way on purpose).
        let manifest_path = entry.path().join("Cargo.toml");
        if !manifest_path.is_file() {
            continue;
        }
        let manifest = std::fs::read_to_string(manifest_path)?;
        let pkg = package_name(&manifest).unwrap_or_else(|| dir.clone());
        members.insert(dir, pkg);
    }

    let mut out = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md"] {
        let Some(src) = read_if_exists(root, doc)? else {
            continue;
        };
        let rows = doc_crate_rows(&src);
        if rows.is_empty() {
            continue; // the doc has no crate map to check
        }
        for (dir, pkg) in &members {
            match rows.iter().find(|(d, _, _)| d == dir) {
                None => out.push(finding(
                    doc,
                    1,
                    "spec-crate-map",
                    format!("workspace member `crates/{dir}` has no row in the {doc} crate map"),
                )),
                Some((_, doc_pkg, line)) if doc_pkg != pkg => out.push(finding(
                    doc,
                    *line,
                    "spec-crate-map",
                    format!(
                        "crate map lists `crates/{dir}` as package `{doc_pkg}` but its Cargo.toml says `{pkg}`"
                    ),
                )),
                Some(_) => {}
            }
        }
        for (dir, _, line) in &rows {
            if !members.contains_key(dir) {
                out.push(finding(
                    doc,
                    *line,
                    "spec-crate-map",
                    format!("crate map row `crates/{dir}` does not exist in the workspace"),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// spec-ci-jobs
// ---------------------------------------------------------------------------

const CI_YML: &str = ".github/workflows/ci.yml";

/// Top-level job ids of the workflow: two-space-indented keys after
/// `jobs:`.
fn workflow_jobs(src: &str) -> Vec<(String, u32)> {
    let mut jobs = Vec::new();
    let mut in_jobs = false;
    for (idx, line) in src.lines().enumerate() {
        if line.trim_end() == "jobs:" {
            in_jobs = true;
            continue;
        }
        if !in_jobs {
            continue;
        }
        if !line.starts_with(' ') && !line.trim().is_empty() {
            break; // next top-level key
        }
        let Some(rest) = line.strip_prefix("  ") else {
            continue;
        };
        if rest.starts_with(' ') || rest.starts_with('#') {
            continue;
        }
        if let Some(name) = rest.trim_end().strip_suffix(':') {
            if name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                jobs.push((name.to_string(), idx as u32 + 1));
            }
        }
    }
    jobs
}

/// The README CI jobs table: `| `job` | …` rows inside the `## CI`
/// section.
fn readme_ci_jobs(src: &str) -> Vec<(String, u32)> {
    let mut jobs = Vec::new();
    let mut in_ci = false;
    for (idx, line) in src.lines().enumerate() {
        if line.starts_with("## ") {
            in_ci = line.trim() == "## CI";
            continue;
        }
        if !in_ci {
            continue;
        }
        let cells = row_cells(line);
        if cells.len() < 2 {
            continue;
        }
        if cells[0].eq_ignore_ascii_case("job") {
            continue;
        }
        if let Some(job) = backticked(cells[0]) {
            jobs.push((job.to_string(), idx as u32 + 1));
        }
    }
    jobs
}

fn ci_jobs(root: &Path) -> std::io::Result<Vec<Finding>> {
    let Some(workflow) = read_if_exists(root, CI_YML)? else {
        return Ok(Vec::new());
    };
    let Some(readme) = read_if_exists(root, "README.md")? else {
        return Ok(Vec::new());
    };
    let jobs = workflow_jobs(&workflow);
    let documented = readme_ci_jobs(&readme);
    let mut out = Vec::new();
    if documented.is_empty() {
        out.push(finding(
            "README.md",
            1,
            "spec-ci-jobs",
            format!("README has no CI jobs table binding it to {CI_YML} — add one under `## CI`"),
        ));
        return Ok(out);
    }
    for (job, line) in &jobs {
        if !documented.iter().any(|(j, _)| j == job) {
            out.push(finding(
                CI_YML,
                *line,
                "spec-ci-jobs",
                format!("CI job `{job}` is not listed in the README CI jobs table"),
            ));
        }
    }
    for (job, line) in &documented {
        if !jobs.iter().any(|(j, _)| j == job) {
            out.push(finding(
                "README.md",
                *line,
                "spec-ci-jobs",
                format!("README lists CI job `{job}` which does not exist in {CI_YML}"),
            ));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// spec-bench-baselines
// ---------------------------------------------------------------------------

const GITIGNORE: &str = ".gitignore";

/// `BENCH_<name>.json`, a bare file name.
fn is_baseline_name(s: &str) -> bool {
    s.starts_with("BENCH_") && s.ends_with(".json") && !s.contains('/')
}

/// Baselines the workflow gates: the argument right after each
/// `compare` word of a run step (commands continue across `\` line
/// ends; comment lines do not count), when it is a root-level
/// `BENCH_*.json`.
fn gated_baselines(workflow: &str) -> Vec<(String, u32)> {
    let words = workflow
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim_start().starts_with('#'))
        .flat_map(|(idx, line)| line.split_whitespace().map(move |w| (w, idx as u32 + 1)))
        .filter(|(w, _)| *w != "\\");
    let mut gated = Vec::new();
    let mut after_compare = false;
    for (word, line) in words {
        if after_compare && is_baseline_name(word) {
            gated.push((word.to_string(), line));
        }
        after_compare = word == "compare";
    }
    gated
}

fn bench_baselines(root: &Path) -> std::io::Result<Vec<Finding>> {
    let Some(workflow) = read_if_exists(root, CI_YML)? else {
        return Ok(Vec::new());
    };
    let gated = gated_baselines(&workflow);
    let gitignore = read_if_exists(root, GITIGNORE)?.unwrap_or_default();
    let excepted: Vec<(String, u32)> = gitignore
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| Some((line.trim().strip_prefix("!/")?, idx as u32 + 1)))
        .filter(|(name, _)| is_baseline_name(name))
        .map(|(name, line)| (name.to_string(), line))
        .collect();
    let on_disk: Vec<String> = std::fs::read_dir(root)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| is_baseline_name(name))
        .collect();

    let mut names: Vec<&String> = gated.iter().chain(&excepted).map(|(n, _)| n).collect();
    names.extend(&on_disk);
    names.sort();
    names.dedup();
    let mut out = Vec::new();
    for name in names {
        let line_in = |set: &[(String, u32)]| set.iter().find(|(n, _)| n == name).map(|(_, l)| *l);
        let (gate, exception, file) = (line_in(&gated), line_in(&excepted), on_disk.contains(name));
        if gate.is_some() == file && exception.is_some() == file {
            continue;
        }
        // Anchored at the gate, else the exception, else the file itself.
        let (anchor, line) = match (gate, exception) {
            (Some(line), _) => (CI_YML, line),
            (None, Some(line)) => (GITIGNORE, line),
            (None, None) => (name.as_str(), 1),
        };
        let yn = |present: bool| if present { "yes" } else { "no" };
        out.push(finding(
            anchor,
            line,
            "spec-bench-baselines",
            format!(
                "`{name}`: compared by a CI step: {}, `!/{name}` in {GITIGNORE}: {}, file at the \
                 root: {} — a baseline is all three (checked in, tracked, gated) or deleted",
                yn(gate.is_some()),
                yn(exception.is_some()),
                yn(file),
            ),
        ));
    }
    Ok(out)
}
