//! Doc-sync guard: every `D`-code devlint can construct must be
//! documented in the `mrmc devlint` table in `docs/USAGE.md`. The codes
//! are a stable public interface — shipping an undocumented one is a
//! bug, so this test fails the build until the table is updated.

use std::collections::BTreeSet;
use std::path::Path;

/// Collect every `"D001"`-style string literal from the crate's sources.
fn codes_in_sources() -> BTreeSet<String> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut codes = BTreeSet::new();
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory exists") {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some("rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source file reads");
            for (i, _) in text.match_indices('"') {
                let tail = &text[i + 1..];
                let Some(end) = tail.find('"') else { continue };
                let lit = &tail[..end];
                if lit.len() == 4
                    && lit.as_bytes()[0] == b'D'
                    && lit[1..].bytes().all(|b| b.is_ascii_digit())
                {
                    codes.insert(lit.to_string());
                }
            }
        }
    }
    codes
}

#[test]
fn every_constructible_d_code_is_documented_in_usage_md() {
    let codes = codes_in_sources();
    assert!(codes.len() >= 8, "code scan broke — found only {codes:?}");

    let usage = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/USAGE.md");
    let usage = std::fs::read_to_string(usage).expect("docs/USAGE.md exists");

    let undocumented: Vec<&String> = codes
        .iter()
        .filter(|c| !usage.contains(&format!("`{c}`")))
        .collect();
    assert!(
        undocumented.is_empty(),
        "D-codes missing from the docs/USAGE.md devlint table: {undocumented:?}"
    );
}

/// The documented set is closed: the table must not advertise codes the
/// scanner cannot produce (a renumbering or removal must update both).
/// A retired code keeps its row, marked `retired`, and no pass may
/// construct it again.
#[test]
fn usage_md_documents_no_phantom_d_codes() {
    let codes = codes_in_sources();
    let usage = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/USAGE.md");
    let usage = std::fs::read_to_string(usage).expect("docs/USAGE.md exists");

    let devlint_section = usage
        .split("## Workspace hygiene")
        .nth(1)
        .and_then(|s| s.split("\n## ").next())
        .expect("USAGE.md has the `mrmc devlint` section");
    for line in devlint_section.lines() {
        let Some(rest) = line.strip_prefix("| `D") else {
            continue;
        };
        let code = format!("D{}", &rest[..3.min(rest.len())]);
        let retired = line.contains("| retired |");
        assert!(
            codes.contains(&code) != retired,
            "docs/USAGE.md documents `{code}` as {}, but devlint {} it",
            if retired { "retired" } else { "live" },
            if retired {
                "constructs"
            } else {
                "never constructs"
            }
        );
    }
}
