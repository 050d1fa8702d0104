//! Golden corpus for the devlint passes.
//!
//! Each fixture under `tests/devlint_corpus/` (at the workspace root —
//! the directory the workspace walk deliberately skips) declares in its
//! header comment the workspace-relative path it should be scanned *as*
//! and the exact multiset of D-codes the scan must produce:
//!
//! ```text
//! // virtual-path: crates/numerics/src/d001.rs
//! // expect: D001 D001
//! ```
//!
//! TOML fixtures use `#` comments. `.toml` fixtures run through the
//! manifest pass; `.rs` fixtures run through every source-level pass,
//! then suppression — the same pipeline `lint_workspace` applies per
//! file.

use std::fs;
use std::path::PathBuf;

use mrmc_devlint::{lint_rust_source, manifest};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/devlint_corpus")
}

/// Pull a `key:` header out of the fixture's leading comment lines.
/// Returns the trimmed value; panics if the header is missing (every
/// fixture must declare both `virtual-path:` and `expect:`).
fn header(text: &str, name: &str, key: &str) -> String {
    for line in text.lines() {
        let body = if let Some(rest) = line.strip_prefix("//") {
            rest
        } else if let Some(rest) = line.strip_prefix('#') {
            rest
        } else {
            break;
        };
        if let Some(value) = body.trim_start().strip_prefix(key) {
            return value.trim().to_string();
        }
    }
    panic!("fixture {name} is missing a `{key}` header");
}

fn lint_fixture(name: &str, virtual_path: &str, text: &str) -> Vec<String> {
    let findings = if name.ends_with(".toml") {
        manifest::lint_manifest(virtual_path, text)
    } else {
        lint_rust_source(virtual_path, text)
    };
    for finding in &findings {
        assert_eq!(
            finding.file, virtual_path,
            "{name}: finding anchored outside the fixture's virtual path"
        );
        assert!(
            !finding.message.is_empty(),
            "{name}: finding {} has an empty message",
            finding.code
        );
    }
    findings.iter().map(|f| f.code.to_string()).collect()
}

#[test]
fn every_fixture_produces_exactly_its_expected_codes() {
    let dir = corpus_dir();
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("tests/devlint_corpus must exist at the workspace root")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(
        names.len() >= 10,
        "corpus has shrunk below the seeded fixture set: {names:?}"
    );

    let mut covered: Vec<String> = Vec::new();
    for name in &names {
        let text = fs::read_to_string(dir.join(name)).unwrap();
        let virtual_path = header(&text, name, "virtual-path:");
        let expect_line = header(&text, name, "expect:");
        let mut expected: Vec<String> =
            expect_line.split_whitespace().map(str::to_string).collect();
        expected.sort();

        let mut got = lint_fixture(name, &virtual_path, &text);
        got.sort();
        assert_eq!(
            got, expected,
            "{name} (as {virtual_path}): devlint disagreed with the fixture header"
        );
        covered.extend(got);
    }

    // The corpus as a whole must cover every documented pass, including
    // pragma hygiene — a fixture rename or header typo can't silently
    // drop a D-code from coverage.
    covered.sort();
    covered.dedup();
    for code in [
        "D000", "D001", "D002", "D003", "D004", "D005", "D006", "D008",
    ] {
        assert!(
            covered.iter().any(|c| c == code),
            "no corpus fixture exercises {code}; covered: {covered:?}"
        );
    }
}

/// The clean fixtures are as load-bearing as the firing ones: a pass
/// that over-triggers would trip these before it ever reached the tree.
#[test]
fn clean_constructs_stay_clean() {
    let dir = corpus_dir();
    let text = fs::read_to_string(dir.join("pragma_ok.rs")).unwrap();
    let virtual_path = header(&text, "pragma_ok.rs", "virtual-path:");
    assert!(
        lint_fixture("pragma_ok.rs", &virtual_path, &text).is_empty(),
        "reasoned pragmas must fully suppress their findings"
    );
}
