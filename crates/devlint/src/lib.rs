//! `mrmc-devlint` — a workspace-level determinism & hermeticity static
//! analyzer with stable `D0xx` codes, enforced in CI.
//!
//! The reproduction's numerics promise results that are bit-identical at
//! any thread count, caches that are bitwise-exact, and a workspace with
//! no external dependencies. Those promises are enforced *dynamically*
//! by consistency tests — but the hazards that break them are
//! *statically recognizable* in source: hash-order iteration reaching an
//! output, a wall-clock read in a result path, an unscoped thread, an
//! unordered float reduction. devlint scans the workspace's own `.rs`
//! files and `Cargo.toml`s with a small hermetic lexer (no `syn`, no
//! external crates) and reports findings in the same diagnostic
//! vocabulary `mrmc-analysis` gives models and formulas.
//!
//! The passes and their stable codes are documented in [`finding`];
//! the scanner's token-level architecture and its accepted blind spots
//! are documented in [`scan`] and [`rules`] (and in `docs/DESIGN.md`).
//!
//! Findings are suppressible only at the offending line, only with a
//! reason:
//!
//! ```text
//! let t = Instant::now(); // devlint::allow(D002): feeds logs, never results
//! ```
//!
//! A malformed, reasonless, or unused pragma is itself a finding
//! (`D000`) — the suppression ledger can't rot silently.

pub mod finding;
pub mod manifest;
pub mod rules;
pub mod scan;

pub use finding::{Finding, Report, Severity};
pub use scan::SourceFile;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories the workspace walk never descends into: build output,
/// VCS internals, experiment scratch, and the devlint golden corpus
/// (whose fixtures are hazards *on purpose*).
const SKIP_DIRS: &[&str] = &["target", "experiments-out", "devlint_corpus"];

/// Lint a single Rust source in isolation: run every source-level pass,
/// apply suppression pragmas, and surface pragma hygiene (`D000`).
/// [`lint_workspace`] runs it on every `.rs` file and the golden corpus
/// calls it directly; `rel_path` is a (possibly virtual)
/// workspace-relative path that selects each pass's scope.
pub fn lint_rust_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let parsed = SourceFile::parse(rel_path, text);
    let raw = rules::lint_source(&parsed);
    let mut out = apply_suppressions(&parsed, raw);
    out.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    out
}

/// Lint every `.rs` file and `Cargo.toml` under `root` (the workspace
/// checkout) and return the merged report, sorted by file, line, code.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut rs_paths: Vec<PathBuf> = Vec::new();
    let mut manifest_paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut rs_paths, &mut manifest_paths)?;
    rs_paths.sort();
    manifest_paths.sort();

    let mut findings: Vec<Finding> = Vec::new();
    for path in &manifest_paths {
        let text = fs::read_to_string(path)?;
        findings.extend(manifest::lint_manifest(&rel_of(root, path), &text));
    }
    for path in &rs_paths {
        let text = fs::read_to_string(path)?;
        findings.extend(lint_rust_source(&rel_of(root, path), &text));
    }

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.code, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.code,
            b.message.as_str(),
        ))
    });
    let mut report = Report::new();
    report.extend(findings);
    Ok(report)
}

/// Filter `raw` through `file`'s suppression pragmas. Surviving findings
/// come back together with `D000` findings for malformed pragmas and
/// for pragmas that suppressed nothing.
fn apply_suppressions(file: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    let mut used = vec![false; file.pragmas.len()];
    let mut out = Vec::new();
    for finding in raw {
        let mut suppressed = false;
        for (i, pragma) in file.pragmas.iter().enumerate() {
            if pragma.applies_to == finding.line && pragma.codes.iter().any(|c| c == finding.code) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(finding);
        }
    }
    for issue in &file.pragma_issues {
        out.push(pragma_finding(&file.rel_path, issue.line, &issue.message));
    }
    for (i, pragma) in file.pragmas.iter().enumerate() {
        if !used[i] {
            out.push(pragma_finding(
                &file.rel_path,
                pragma.at_line,
                &format!(
                    "suppression pragma for {} matches no finding — remove it or fix its placement",
                    pragma.codes.join(", ")
                ),
            ));
        }
    }
    out
}

fn pragma_finding(rel_path: &str, line: usize, message: &str) -> Finding {
    Finding::new("D000", rel_path, line, message).with_suggestion(
        "pragmas must read `devlint::allow(D00x): <non-empty reason>` and suppress a real finding",
    )
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursive, name-sorted walk collecting `.rs` files and `Cargo.toml`s,
/// skipping build output, dot-directories, and the golden corpus.
fn walk(dir: &Path, rs: &mut Vec<PathBuf>, manifests: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(&path, rs, manifests)?;
        } else if name == "Cargo.toml" {
            manifests.push(path);
        } else if name.ends_with(".rs") {
            rs.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_finding_is_dropped_and_pragma_counts_as_used() {
        let src = "fn f() {\n    let _t = std::time::Instant::now(); // devlint::allow(D002): feeds logs only\n}\n";
        assert!(lint_rust_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unused_pragma_is_a_d000_finding() {
        // D007 is retired: no pass emits it, so its pragma is always unused.
        for pragma in [
            "devlint::allow(D002): nothing here reads a clock",
            "devlint::allow(D007): retired code",
        ] {
            let src = format!("fn f() {{\n    // {pragma}\n    let x = 1;\n    let _ = x;\n}}\n");
            let f = lint_rust_source("crates/core/src/x.rs", &src);
            assert_eq!(f.len(), 1);
            assert_eq!(f[0].code, "D000");
            assert!(f[0].message.contains("matches no finding"));
        }
    }

    #[test]
    fn reasonless_pragma_is_d000_and_finding_survives() {
        let src = "fn f() {\n    let _t = std::time::Instant::now(); // devlint::allow(D002)\n}\n";
        let codes: Vec<_> = lint_rust_source("crates/core/src/x.rs", src)
            .iter()
            .map(|f| f.code)
            .collect();
        assert_eq!(codes, vec!["D000", "D002"]);
    }

    #[test]
    fn pragma_must_name_the_right_code() {
        let src = "fn f() {\n    let _t = std::time::Instant::now(); // devlint::allow(D001): wrong code\n}\n";
        let codes: Vec<_> = lint_rust_source("crates/core/src/x.rs", src)
            .iter()
            .map(|f| f.code)
            .collect();
        // The D002 finding survives and the D001 pragma is unused.
        assert_eq!(codes, vec!["D000", "D002"]);
    }
}
