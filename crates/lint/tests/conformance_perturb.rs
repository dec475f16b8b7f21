//! Spec-conformance perturbation tests: copy the *real* PROTOCOL.md and
//! message table into a scratch tree, verify they conform, then flip one
//! side at a time and require `spec-protocol-tags` to fire. This pins
//! the property the rule exists for — neither the spec nor the code can
//! drift without the other moving in lockstep.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// A throwaway tree shaped like the repository, removed on drop.
struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("spq-lint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/core/src")).expect("mk scratch tree");
        Self(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        fs::write(self.0.join(rel), contents).expect("write scratch file");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn real_inputs() -> (String, String) {
    let root = repo_root();
    let protocol = fs::read_to_string(root.join("PROTOCOL.md")).expect("PROTOCOL.md");
    let table = fs::read_to_string(root.join("crates/core/src/protocol.rs")).expect("protocol.rs");
    (protocol, table)
}

fn lint_tree(tag: &str, protocol: &str, table: &str) -> Vec<spq_lint::Finding> {
    let tree = TempTree::new(tag);
    tree.write("PROTOCOL.md", protocol);
    tree.write("crates/core/src/protocol.rs", table);
    spq_lint::run(&tree.0).expect("lint scratch tree").findings
}

#[test]
fn pristine_copies_conform() {
    let (protocol, table) = real_inputs();
    let findings = lint_tree("pristine", &protocol, &table);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn perturbing_a_code_tag_constant_fails_conformance() {
    let (protocol, table) = real_inputs();
    let original = "Deposit = \"deposit\", 0x01 {";
    assert!(
        table.contains(original),
        "codec layout changed — update this test"
    );
    let mutated = table.replace(original, "Deposit = \"deposit\", 0x7f {");
    let findings = lint_tree("code-tag", &protocol, &mutated);
    assert!(
        findings.iter().any(|f| f.rule == "spec-protocol-tags"),
        "a drifted code tag must fail conformance: {findings:?}"
    );
}

#[test]
fn perturbing_a_protocol_doc_row_fails_conformance() {
    let (protocol, table) = real_inputs();
    let original = "| `0x06` | `Complete` |";
    assert!(
        protocol.contains(original),
        "spec layout changed — update this test"
    );
    let mutated = protocol.replace(original, "| `0x3f` | `Complete` |");
    let findings = lint_tree("doc-row", &mutated, &table);
    assert!(
        findings.iter().any(|f| f.rule == "spec-protocol-tags"),
        "a drifted spec row must fail conformance: {findings:?}"
    );
}

#[test]
fn deleting_the_spec_while_keeping_the_codec_fails_conformance() {
    let (_, table) = real_inputs();
    let tree = TempTree::new("no-spec");
    tree.write("crates/core/src/protocol.rs", &table);
    let findings = spq_lint::run(&tree.0).expect("lint scratch tree").findings;
    assert!(
        findings.iter().any(|f| f.rule == "spec-protocol-tags"),
        "codec without spec must fail: {findings:?}"
    );
}
