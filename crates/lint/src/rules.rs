//! Layer 1 — source lints over the token stream.
//!
//! Every rule here matches *code* tokens only: the lexer has already
//! fenced off strings, raw strings, char literals and comments, so a
//! `"unwrap()"` inside a log message or an `unsafe` in prose never
//! fires. Panic- and determinism-rules additionally skip `#[cfg(test)]`
//! / `#[test]` items — tests may unwrap freely.

use crate::lexer::{self, Kind, Token};
use crate::{classify, Finding, Suppression};

/// Every rule id the suppression syntax accepts.
pub const RULE_IDS: &[&str] = &[
    "det-wall-clock",
    "det-env",
    "det-unordered-iter",
    "panic-unwrap",
    "panic-macro",
    "panic-index",
    "unsafe-outside-polling",
    "unsafe-without-safety-comment",
    "forbid-unsafe-missing",
    "spec-protocol-tags",
    "spec-telemetry-schema",
    "spec-crate-map",
    "spec-ci-jobs",
    "spec-bench-baselines",
];

/// HashMap/HashSet methods whose visit order is unspecified.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Keywords that can directly precede `[` without forming an index
/// expression (`&mut [0u8; 4]`, `return [a, b]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "mut", "ref", "return", "in", "as", "else", "match", "if", "while", "loop", "move", "box",
    "dyn", "impl", "where", "break", "continue", "const", "static", "let", "yield",
];

/// Findings and suppressions for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that survived suppression.
    pub findings: Vec<Finding>,
    /// Valid suppressions found in the file (used or not).
    pub suppressions: Vec<Suppression>,
}

/// Runs every applicable source lint over one file.
pub fn check_file(rel: &str, src: &str) -> FileReport {
    let role = classify(rel);
    let toks = lexer::lex(src);
    let code: Vec<Token> = toks
        .iter()
        .copied()
        .filter(|t| !matches!(t.kind, Kind::LineComment | Kind::BlockComment))
        .collect();
    let tests = test_regions(&code, src);
    let in_test = |t: &Token| tests.iter().any(|&(s, e)| t.start >= s && t.start < e);

    let mut raw: Vec<Finding> = Vec::new();
    if role.sim {
        raw.extend(det_wall_clock(rel, src, &code, &in_test));
        raw.extend(det_env(rel, src, &code, &in_test));
        raw.extend(det_unordered_iter(rel, src, &code, &in_test));
    }
    if role.hot {
        raw.extend(panic_unwrap(rel, src, &code, &in_test));
        raw.extend(panic_macro(rel, src, &code, &in_test));
    }
    if role.decode {
        raw.extend(panic_index(rel, src, &code, &in_test));
    }
    if role.unsafe_ok {
        raw.extend(unsafe_without_safety(rel, src, &toks, &code));
    } else {
        raw.extend(unsafe_outside(rel, src, &code));
    }
    if role.crate_root {
        raw.extend(forbid_missing(rel, src, &code));
    }

    let (mut suppressions, mut bad) = parse_suppressions(rel, src, &toks);
    // A suppression waives matching findings on its own line (trailing
    // comment) and on the line below (comment-above style).
    let mut findings = Vec::new();
    for f in raw {
        let mut waived = false;
        for s in suppressions.iter_mut() {
            if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                s.used = true;
                waived = true;
                break;
            }
        }
        if !waived {
            findings.push(f);
        }
    }
    findings.append(&mut bad);
    FileReport {
        findings,
        suppressions,
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn txt<'a>(src: &'a str, t: &Token) -> &'a str {
    t.text(src)
}

fn is(src: &str, code: &[Token], i: usize, s: &str) -> bool {
    code.get(i).is_some_and(|t| txt(src, t) == s)
}

fn is_ident(code: &[Token], i: usize) -> bool {
    code.get(i).is_some_and(|t| t.kind == Kind::Ident)
}

/// `code[i]` and `code[i + 1]` spell `::`.
fn is_path_sep(src: &str, code: &[Token], i: usize) -> bool {
    is(src, code, i, ":") && is(src, code, i + 1, ":")
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` / `#[test]` regions
// ---------------------------------------------------------------------------

/// Byte ranges of items gated behind `#[cfg(test)]` (or `#[test]`):
/// from the attribute to the item's closing brace or semicolon.
fn test_regions(code: &[Token], src: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is(src, code, i, "#") && is(src, code, i + 1, "[") {
            // Find the attribute's closing bracket.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut test_attr = false;
            let mut saw_cfg = false;
            while j < code.len() {
                match txt(src, &code[j]) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "cfg" => saw_cfg = true,
                    "test" => test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` alone, or `test` anywhere inside `#[cfg(…)]`.
            let gated = test_attr && (saw_cfg || j == i + 3);
            if gated && j < code.len() {
                if let Some(end) = item_end(code, src, j + 1) {
                    regions.push((code[i].start, end));
                    // Skip past the region.
                    while i < code.len() && code[i].start < end {
                        i += 1;
                    }
                    continue;
                }
            }
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    regions
}

/// Byte offset just past the item starting at token `i`: the matching
/// `}` of its first `{`, or the first `;` seen before any brace.
fn item_end(code: &[Token], src: &str, i: usize) -> Option<usize> {
    let mut j = i;
    while j < code.len() {
        match txt(src, &code[j]) {
            ";" => return Some(code[j].end),
            "{" => {
                let mut depth = 0usize;
                while j < code.len() {
                    match txt(src, &code[j]) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(code[j].end);
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return None;
            }
            _ => j += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Determinism rules (simulation crates)
// ---------------------------------------------------------------------------

fn det_wall_clock(
    rel: &str,
    src: &str,
    code: &[Token],
    in_test: &dyn Fn(&Token) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != Kind::Ident || in_test(t) {
            continue;
        }
        let name = txt(src, t);
        if (name == "Instant" || name == "SystemTime")
            && is_path_sep(src, code, i + 1)
            && is(src, code, i + 3, "now")
        {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "det-wall-clock",
                message: format!(
                    "`{name}::now()` in a simulation crate: wall-clock reads diverge under replay — derive times from `SimTime`"
                ),
            });
        }
    }
    out
}

fn det_env(rel: &str, src: &str, code: &[Token], in_test: &dyn Fn(&Token) -> bool) -> Vec<Finding> {
    const ENV_FNS: &[&str] = &[
        "var",
        "vars",
        "var_os",
        "vars_os",
        "args",
        "args_os",
        "temp_dir",
        "current_dir",
        "set_var",
    ];
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != Kind::Ident || in_test(t) {
            continue;
        }
        let name = txt(src, t);
        let hit = (name == "std" && is_path_sep(src, code, i + 1) && is(src, code, i + 3, "env"))
            || (name == "env"
                && is_path_sep(src, code, i + 1)
                && code
                    .get(i + 3)
                    .is_some_and(|n| ENV_FNS.contains(&txt(src, n))));
        if hit {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "det-env",
                message: "process environment read in a simulation crate: replay runs in a different environment — thread configuration through `SimConfig`".to_string(),
            });
        }
    }
    out
}

fn det_unordered_iter(
    rel: &str,
    src: &str,
    code: &[Token],
    in_test: &dyn Fn(&Token) -> bool,
) -> Vec<Finding> {
    // Pass A: names bound to HashMap/HashSet in this file — struct
    // fields, fn params and annotated lets (`name: [&|mut]* Hash…`),
    // plus unannotated `let name = Hash….new()`. The tracking is
    // name-based and file-global: a heuristic, documented in
    // ARCHITECTURE.md, precise enough for this codebase.
    let mut tracked: Vec<&str> = Vec::new();
    for (i, t) in code.iter().enumerate() {
        let name = txt(src, t);
        if name == "HashMap" || name == "HashSet" {
            // `ident : …* HashMap` — walk back over & and mut.
            let mut j = i;
            while j > 0 && matches!(txt(src, &code[j - 1]), "&" | "mut") {
                j -= 1;
            }
            if j >= 2 && is(src, code, j - 1, ":") && !is(src, code, j - 2, ":") {
                if let Some(owner) = code.get(j - 2).filter(|t| t.kind == Kind::Ident) {
                    tracked.push(txt(src, owner));
                }
            }
            // `let [mut] ident = HashMap::new()`
            if i >= 2
                && is(src, code, i - 1, "=")
                && is_path_sep(src, code, i + 1)
                && code
                    .get(i + 3)
                    .is_some_and(|m| matches!(txt(src, m), "new" | "with_capacity" | "default"))
            {
                if let Some(owner) = code.get(i - 2).filter(|t| t.kind == Kind::Ident) {
                    let kw = code.get(i.wrapping_sub(3)).map(|t| txt(src, t));
                    if matches!(kw, Some("let" | "mut")) {
                        tracked.push(txt(src, owner));
                    }
                }
            }
        }
    }
    tracked.sort_unstable();
    tracked.dedup();

    // Pass B: iteration over a tracked name.
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if in_test(t) {
            continue;
        }
        // `name.iter()`-family calls.
        if txt(src, t) == "."
            && is_ident(code, i + 1)
            && ITER_METHODS.contains(&txt(src, &code[i + 1]))
            && is(src, code, i + 2, "(")
            && i > 0
            && code[i - 1].kind == Kind::Ident
            && tracked.binary_search(&txt(src, &code[i - 1])).is_ok()
        {
            out.push(Finding {
                file: rel.to_string(),
                line: code[i + 1].line,
                rule: "det-unordered-iter",
                message: format!(
                    "`{}.{}()` iterates a Hash{{Map,Set}} in unspecified order in a simulation crate — sort first or use a BTree collection",
                    txt(src, &code[i - 1]),
                    txt(src, &code[i + 1]),
                ),
            });
        }
        // `for … in [&][mut] name {`
        if txt(src, t) == "in" && t.kind == Kind::Ident {
            let mut j = i + 1;
            while matches!(code.get(j).map(|t| txt(src, t)), Some("&" | "mut")) {
                j += 1;
            }
            if is_ident(code, j)
                && tracked.binary_search(&txt(src, &code[j])).is_ok()
                && is(src, code, j + 1, "{")
            {
                out.push(Finding {
                    file: rel.to_string(),
                    line: code[j].line,
                    rule: "det-unordered-iter",
                    message: format!(
                        "`for … in {}` iterates a Hash{{Map,Set}} in unspecified order in a simulation crate — sort first or use a BTree collection",
                        txt(src, &code[j]),
                    ),
                });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Panic-freedom rules (server hot paths)
// ---------------------------------------------------------------------------

fn panic_unwrap(
    rel: &str,
    src: &str,
    code: &[Token],
    in_test: &dyn Fn(&Token) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if txt(src, t) == "."
            && !in_test(t)
            && code
                .get(i + 1)
                .is_some_and(|n| matches!(txt(src, n), "unwrap" | "expect"))
            && is(src, code, i + 2, "(")
        {
            out.push(Finding {
                file: rel.to_string(),
                line: code[i + 1].line,
                rule: "panic-unwrap",
                message: format!(
                    "`.{}()` on the connection/dispatch path: a malformed input must cost one connection, never the reactor — handle the error and drop the connection",
                    txt(src, &code[i + 1]),
                ),
            });
        }
    }
    out
}

fn panic_macro(
    rel: &str,
    src: &str,
    code: &[Token],
    in_test: &dyn Fn(&Token) -> bool,
) -> Vec<Finding> {
    const MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
    ];
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind == Kind::Ident
            && !in_test(t)
            && MACROS.contains(&txt(src, t))
            && is(src, code, i + 1, "!")
        {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "panic-macro",
                message: format!(
                    "`{}!` on the connection/dispatch path can kill the reactor — return a typed error instead",
                    txt(src, t),
                ),
            });
        }
    }
    out
}

fn panic_index(
    rel: &str,
    src: &str,
    code: &[Token],
    in_test: &dyn Fn(&Token) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if txt(src, t) != "[" || i == 0 || in_test(t) {
            continue;
        }
        let prev = &code[i - 1];
        let indexing = match prev.kind {
            Kind::Ident => !NON_INDEX_KEYWORDS.contains(&txt(src, prev)),
            Kind::Punct => matches!(txt(src, prev), ")" | "]"),
            _ => false,
        };
        if indexing {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "panic-index",
                message: "slice indexing while decoding untrusted bytes panics when out of bounds — use `get`/`split_at_checked` and return a typed error".to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Unsafe confinement
// ---------------------------------------------------------------------------

fn unsafe_outside(rel: &str, src: &str, code: &[Token]) -> Vec<Finding> {
    code.iter()
        .filter(|t| t.kind == Kind::Ident && txt(src, t) == "unsafe")
        .map(|t| Finding {
            file: rel.to_string(),
            line: t.line,
            rule: "unsafe-outside-polling",
            message: "`unsafe` outside `compat/polling` — the readiness shim (epoll on Linux, poll(2) elsewhere) is the only crate allowed to talk to the OS unsafely".to_string(),
        })
        .collect()
}

/// An `unsafe` block or impl whose line is not directly below a run of
/// `//` comment lines containing `SAFETY:`. (`unsafe fn` declares a
/// contract rather than discharging one, so it is not checked.)
fn unsafe_without_safety(rel: &str, src: &str, toks: &[Token], code: &[Token]) -> Vec<Finding> {
    // Lines holding only a `//` comment, and whether it is a SAFETY one.
    let mut comments = std::collections::BTreeMap::new();
    for t in toks.iter().filter(|t| t.kind == Kind::LineComment) {
        let line_start = src[..t.start].rfind('\n').map_or(0, |i| i + 1);
        if src[line_start..t.start].trim().is_empty() {
            comments.insert(t.line, txt(src, t).contains("SAFETY:"));
        }
    }
    let justified = |line: u32| {
        (1..line)
            .rev()
            .map_while(|l| comments.get(&l))
            .any(|&safety| safety)
    };
    code.iter()
        .enumerate()
        .filter(|&(i, t)| {
            t.kind == Kind::Ident
                && txt(src, t) == "unsafe"
                && (is(src, code, i + 1, "{") || is(src, code, i + 1, "impl"))
                && !justified(t.line)
        })
        .map(|(_, t)| Finding {
            file: rel.to_string(),
            line: t.line,
            rule: "unsafe-without-safety-comment",
            message: "`unsafe` block without a `// SAFETY:` comment directly above it — say why the call is sound".to_string(),
        })
        .collect()
}

fn forbid_missing(rel: &str, src: &str, code: &[Token]) -> Vec<Finding> {
    let has = code.windows(8).any(|w| {
        txt(src, &w[0]) == "#"
            && txt(src, &w[1]) == "!"
            && txt(src, &w[2]) == "["
            && txt(src, &w[3]) == "forbid"
            && txt(src, &w[4]) == "("
            && txt(src, &w[5]) == "unsafe_code"
            && txt(src, &w[6]) == ")"
            && txt(src, &w[7]) == "]"
    });
    if has {
        Vec::new()
    } else {
        vec![Finding {
            file: rel.to_string(),
            line: 1,
            rule: "forbid-unsafe-missing",
            message: "crate root lacks `#![forbid(unsafe_code)]` — every crate except compat/polling must forbid unsafe at the root".to_string(),
        }]
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Parses `// spq-lint: allow(rule-id) — reason` comments. Returns the
/// valid suppressions and a finding for each malformed one (missing or
/// empty reason, unknown rule id) — malformed suppressions are ignored,
/// loudly.
fn parse_suppressions(rel: &str, src: &str, toks: &[Token]) -> (Vec<Suppression>, Vec<Finding>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != Kind::LineComment {
            continue;
        }
        let text = txt(src, t);
        // Suppressions live in plain `//` comments only: doc comments
        // (`///`, `//!`) merely *describe* the syntax.
        if text.starts_with("///") || text.starts_with("//!") {
            continue;
        }
        let Some(at) = text.find("spq-lint:") else {
            continue;
        };
        let rest = text[at + "spq-lint:".len()..].trim_start();
        let mut fail = |msg: String| {
            bad.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "lint-bad-suppression",
                message: msg,
            });
        };
        let Some(body) = rest.strip_prefix("allow(") else {
            fail("malformed suppression: expected `spq-lint: allow(rule-id) — reason`".to_string());
            continue;
        };
        let Some(close) = body.find(')') else {
            fail("malformed suppression: unclosed `allow(`".to_string());
            continue;
        };
        let rule = body[..close].trim();
        if !RULE_IDS.contains(&rule) {
            fail(format!("suppression names unknown rule `{rule}`"));
            continue;
        }
        let reason = body[close + 1..]
            .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':'))
            .trim();
        if reason.is_empty() {
            fail(format!(
                "suppression of `{rule}` has no reason — `spq-lint: allow({rule}) — <why>` is required"
            ));
            continue;
        }
        ok.push(Suppression {
            file: rel.to_string(),
            line: t.line,
            rule: rule.to_string(),
            reason: reason.to_string(),
            used: false,
        });
    }
    (ok, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIM: &str = "crates/core/src/synthetic.rs";
    const HOT: &str = "crates/server/src/server.rs";
    const DECODE: &str = "crates/server/src/frame.rs";

    fn fire(rel: &str, src: &str) -> Vec<(&'static str, u32)> {
        check_file(rel, src)
            .findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn determinism_rules_fire_in_sim_crates_only() {
        let src = "fn f() -> u64 {\n    let t = Instant::now();\n    let v = std::env::var(\"X\");\n    0\n}\n";
        let hits = fire(SIM, src);
        assert!(hits.contains(&("det-wall-clock", 2)), "{hits:?}");
        assert!(hits.contains(&("det-env", 3)), "{hits:?}");
        // The same source in a non-sim, non-hot crate is clean.
        assert!(fire("crates/bench/src/synthetic.rs", src).is_empty());
    }

    #[test]
    fn unordered_iteration_is_tracked_by_declared_name() {
        let src = "struct S { map: HashMap<u64, u32> }\nimpl S {\n    fn sum(&self) -> u32 {\n        self.map.values().sum()\n    }\n    fn walk(map: HashMap<u64, u32>) {\n        for kv in &map {}\n    }\n    fn fine(v: Vec<u32>) -> u32 {\n        v.iter().sum()\n    }\n}\n";
        let hits = fire(SIM, src);
        assert!(hits.contains(&("det-unordered-iter", 4)), "{hits:?}");
        assert!(hits.contains(&("det-unordered-iter", 7)), "{hits:?}");
        // `v` is a Vec: iteration order is defined, nothing fires there.
        assert_eq!(
            hits.iter()
                .filter(|(r, _)| *r == "det-unordered-iter")
                .count(),
            2,
            "{hits:?}"
        );
    }

    #[test]
    fn panic_rules_fire_on_hot_and_decode_paths() {
        let src = "pub fn decode(buf: &[u8]) -> u8 {\n    let first = buf.iter().next().unwrap();\n    if *first > 9 { panic!(\"bad\") }\n    buf[0]\n}\n";
        let hits = fire(DECODE, src);
        assert!(hits.contains(&("panic-unwrap", 2)), "{hits:?}");
        assert!(hits.contains(&("panic-macro", 3)), "{hits:?}");
        assert!(hits.contains(&("panic-index", 4)), "{hits:?}");
        // The hot-but-not-decode role skips the indexing rule.
        let hot = fire(HOT, src);
        assert!(hot.contains(&("panic-unwrap", 2)));
        assert!(!hot.iter().any(|(r, _)| *r == "panic-index"), "{hot:?}");
    }

    #[test]
    fn the_hot_set_follows_the_server_module_tree() {
        let src =
            "pub fn f(buf: &[u8]) -> u8 {\n    let x = buf.first().unwrap();\n    buf[0]\n}\n";
        // A module nobody listed is hot from birth; both cores — the
        // connection's and the client's — are decode too, and so are the
        // JSON reader the envelope decoders walk frame payloads with and
        // the service core's decoders of wire and disk bytes, which makes
        // them hot although none is a server module.
        let born = fire("crates/server/src/brand_new_module.rs", src);
        assert_eq!(born, vec![("panic-unwrap", 2)], "{born:?}");
        for core in [
            "crates/server/src/conn.rs",
            "crates/server/src/client.rs",
            "crates/simcore/src/json.rs",
            "crates/core/src/protocol.rs",
            "crates/core/src/snapshot.rs",
            "crates/core/src/wal.rs",
        ] {
            let hits = fire(core, src);
            assert!(hits.contains(&("panic-unwrap", 2)), "{core}: {hits:?}");
            assert!(hits.contains(&("panic-index", 3)), "{core}: {hits:?}");
        }
        // The crate root, the binaries and the tests are not.
        for cold in [
            "crates/server/src/bin/durable_server.rs",
            "crates/server/tests/shutdown.rs",
        ] {
            assert!(fire(cold, src).is_empty(), "{cold}");
        }
        assert!(!crate::classify("crates/server/src/lib.rs").hot);
    }

    #[test]
    fn strings_comments_and_tests_never_fire() {
        let src = "fn f() {\n    let s = \"Instant::now() .unwrap() unsafe panic!\";\n    // Instant::now() and .unwrap() in prose\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = std::env::var(\"H\").unwrap();\n        panic!(\"tests may\");\n    }\n}\n";
        assert!(fire(SIM, src).is_empty());
        assert!(fire(HOT, src).is_empty());
    }

    #[test]
    fn suppression_with_reason_waives_exactly_one_line() {
        let src = "fn f() {\n    // spq-lint: allow(panic-unwrap) — provably infallible here\n    let x = y.unwrap();\n    let z = q.unwrap();\n}\n";
        let report = check_file(HOT, src);
        let hits: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(hits, vec![("panic-unwrap", 4)], "{hits:?}");
        assert_eq!(report.suppressions.len(), 1);
        assert!(report.suppressions.iter().all(|s| s.used));
    }

    #[test]
    fn bad_suppressions_are_findings_not_waivers() {
        let missing_reason = "// spq-lint: allow(panic-unwrap)\nfn f() { y.unwrap(); }\n";
        let hits = fire(HOT, missing_reason);
        assert!(hits.contains(&("lint-bad-suppression", 1)), "{hits:?}");
        assert!(hits.contains(&("panic-unwrap", 2)), "not waived: {hits:?}");

        let unknown_rule = "// spq-lint: allow(no-such-rule) — because\nfn f() { y.unwrap(); }\n";
        let hits = fire(HOT, unknown_rule);
        assert!(hits.contains(&("lint-bad-suppression", 1)), "{hits:?}");
        assert!(hits.contains(&("panic-unwrap", 2)), "{hits:?}");

        // Doc comments describing the syntax are not suppressions.
        let doc = "/// spq-lint: allow(panic-unwrap) — example\nfn f() {}\n";
        let report = check_file(HOT, doc);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.suppressions.is_empty());
    }

    #[test]
    fn unsafe_confinement_and_forbid_attribute() {
        let lib_no_forbid = "pub fn free() {}\n";
        let hits = fire("crates/other/src/lib.rs", lib_no_forbid);
        assert_eq!(hits, vec![("forbid-unsafe-missing", 1)]);

        let lib_ok = "#![forbid(unsafe_code)]\npub fn free() {}\n";
        assert!(fire("crates/other/src/lib.rs", lib_ok).is_empty());

        let uses_unsafe =
            "#![forbid(unsafe_code)]\npub fn f() { let x = \"safe\"; }\nunsafe fn g() {}\n";
        let hits = fire("crates/other/src/lib.rs", uses_unsafe);
        assert_eq!(hits, vec![("unsafe-outside-polling", 3)]);
        // compat/polling is the sanctioned home for unsafe.
        assert!(fire("compat/polling/src/lib.rs", uses_unsafe).is_empty());
    }

    #[test]
    fn unsafe_blocks_in_polling_need_a_safety_comment_directly_above() {
        const POLLING: &str = "compat/polling/src/epoll.rs";
        let justified = "fn f() -> i32 {\n    // SAFETY: takes no pointers; the\n    // kernel touches none of our memory.\n    let fd = unsafe { g() };\n    fd\n}\n";
        assert!(fire(POLLING, justified).is_empty());

        // A SAFETY comment separated by code, prose that is not one, a
        // trailing comment and none at all each fire.
        let unjustified = "fn f() {\n    // SAFETY: stale, above other code\n    let a = 1;\n    let b = unsafe { g() };\n    // no safety argument here\n    unsafe { h() };\n    let c = 2; // SAFETY: trailing, not above\n    unsafe impl Send for S {}\n}\n";
        let hits = fire(POLLING, unjustified);
        assert_eq!(
            hits,
            vec![
                ("unsafe-without-safety-comment", 4),
                ("unsafe-without-safety-comment", 6),
                ("unsafe-without-safety-comment", 8),
            ]
        );
        // Outside compat/polling the confinement rule fires instead.
        let elsewhere = fire("crates/other/src/x.rs", justified);
        assert_eq!(elsewhere, vec![("unsafe-outside-polling", 4)]);
    }
}
