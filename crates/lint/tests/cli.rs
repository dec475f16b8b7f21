//! End-to-end tests of the `spq-lint` binary against checked-in fixture
//! trees (`crates/lint/fixtures/`, which the real repository walk skips)
//! and against the repository itself.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn run_lint(root: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_spq-lint"))
        .arg("--root")
        .arg(root)
        .output()
        .expect("spawn spq-lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap_or(-1), stdout)
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

#[test]
fn bad_fixture_tree_fails_with_pinned_findings() {
    let (code, out) = run_lint(&fixture("bad"));
    assert_eq!(code, 1, "bad tree must exit 1:\n{out}");
    for expect in [
        "crates/core/src/sim.rs:5: det-wall-clock:",
        "crates/core/src/sim.rs:9: det-env:",
        "crates/core/src/sim.rs:13: det-unordered-iter:",
        "crates/core/src/sim.rs:16: lint-bad-suppression:",
        "crates/other/src/lib.rs:1: forbid-unsafe-missing:",
        "crates/other/src/lib.rs:3: unsafe-outside-polling:",
        "crates/server/src/client.rs:2: panic-unwrap:",
        "crates/server/src/client.rs:3: panic-index:",
        "crates/server/src/frame.rs:2: panic-unwrap:",
        "crates/server/src/frame.rs:4: panic-macro:",
        "crates/server/src/frame.rs:6: panic-index:",
        "crates/simcore/src/json.rs:3: panic-macro:",
        "crates/simcore/src/json.rs:4: panic-index:",
    ] {
        assert!(out.contains(expect), "missing {expect:?} in:\n{out}");
    }
    assert!(
        out.contains("spq-lint: 13 findings, 5 files scanned"),
        "{out}"
    );
}

#[test]
fn clean_fixture_tree_passes_and_lists_honored_suppressions() {
    let (code, out) = run_lint(&fixture("clean"));
    assert_eq!(code, 0, "clean tree must exit 0:\n{out}");
    assert!(
        out.contains("spq-lint: 0 findings, 1 file scanned, 1 suppression honored"),
        "{out}"
    );
    assert!(
        out.contains("crates/core/src/lib.rs:6: allow(det-unordered-iter)"),
        "honored suppressions stay visible in the summary:\n{out}"
    );
}

#[test]
fn baselines_fixture_pins_every_way_the_three_sets_can_disagree() {
    // Checked in + excepted + gated is the only clean combination.
    let (code, out) = run_lint(&fixture("baselines"));
    assert_eq!(code, 1, "baselines tree must exit 1:\n{out}");
    for expect in [
        ".github/workflows/ci.yml:11: spec-bench-baselines: `BENCH_ghost.json`: compared by a CI step: yes, `!/BENCH_ghost.json` in .gitignore: no, file at the root: no",
        ".gitignore:4: spec-bench-baselines: `BENCH_gone.json`: compared by a CI step: no, `!/BENCH_gone.json` in .gitignore: yes, file at the root: no",
        ".gitignore:3: spec-bench-baselines: `BENCH_orphan.json`: compared by a CI step: no, `!/BENCH_orphan.json` in .gitignore: yes, file at the root: yes",
    ] {
        assert!(out.contains(expect), "missing {expect:?} in:\n{out}");
    }
    assert!(out.contains("spq-lint: 3 findings"), "{out}");

    // A record dropped at the root by a local run, never excepted: the
    // fourth disagreement, built in a scratch copy (git would not track
    // such a file inside the fixture).
    let scratch = std::env::temp_dir().join(format!("spq-lint-baselines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join(".github/workflows")).expect("mk scratch tree");
    for file in [".gitignore", ".github/workflows/ci.yml"] {
        std::fs::copy(fixture("baselines").join(file), scratch.join(file)).expect("copy fixture");
    }
    std::fs::write(scratch.join("BENCH_stray.json"), "{}").expect("write stray record");
    let (code, out) = run_lint(&scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains("BENCH_stray.json:1: spec-bench-baselines: `BENCH_stray.json`: compared by a CI step: no"),
        "{out}"
    );
}

#[test]
fn tags_fixture_pins_every_way_the_table_and_the_spec_can_disagree() {
    let (code, out) = run_lint(&fixture("tags"));
    assert_eq!(code, 1, "tags tree must exit 1:\n{out}");
    for expect in [
        "crates/core/src/protocol.rs:16: spec-protocol-tags: request tag `audit` (0x09) is implemented but missing from the PROTOCOL.md request table",
        "PROTOCOL.md:9: spec-protocol-tags: request tag `complete` (0x06) is documented but not implemented in crates/core/src/protocol.rs",
        "PROTOCOL.md:8: spec-protocol-tags: request tag `predict` documented as 0x05 but implemented as 0x04 in crates/core/src/protocol.rs:12",
    ] {
        assert!(out.contains(expect), "missing {expect:?} in:\n{out}");
    }
    assert!(
        out.contains("spq-lint: 3 findings, 1 file scanned"),
        "{out}"
    );
}

#[test]
fn the_repository_itself_lints_clean_at_head() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (code, out) = run_lint(&root);
    assert_eq!(code, 0, "the workspace must lint clean:\n{out}");
    assert!(out.contains("0 findings"), "{out}");
}

#[test]
fn help_exits_zero_and_unknown_flags_exit_two() {
    let help = Command::new(env!("CARGO_BIN_EXE_spq-lint"))
        .arg("--help")
        .output()
        .expect("spawn spq-lint");
    assert_eq!(help.status.code(), Some(0));

    let unknown = Command::new(env!("CARGO_BIN_EXE_spq-lint"))
        .arg("--frobnicate")
        .output()
        .expect("spawn spq-lint");
    assert_eq!(unknown.status.code(), Some(2));
}
