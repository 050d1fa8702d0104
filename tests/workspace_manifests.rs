//! The workspace's build contract, read from its manifests.
//!
//! * Hermetic: `Cargo.lock` records no package with a `source`, so
//!   nothing, transitive dependencies included, comes from a registry or
//!   a git repository.
//! * One lint gate: the root manifest forbids unsafe code and pins a
//!   non-empty `[workspace.lints.clippy]` table, and every crate opts in
//!   with `[lints] workspace = true`. `cargo clippy -- -D warnings` plus
//!   `clippy.toml` enforce the rest of the determinism contract.

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `key=value` entries of the TOML table `[header]`, whitespace,
/// comments and blank lines dropped; empty when the table is absent (the
/// `find` then exhausts the lines).
fn table(toml: &str, header: &str) -> Vec<String> {
    let mut lines = toml.lines().map(|l| {
        let code = l.split('#').next().unwrap_or("");
        code.split_whitespace().collect::<String>()
    });
    lines.find(|l| *l == format!("[{header}]"));
    lines
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn lockfile_has_no_registry_or_git_package() {
    let lock = read(&workspace_root().join("Cargo.lock"));
    let sourced: Vec<&str> = lock
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(
        sourced.is_empty(),
        "Cargo.lock pulls packages from outside the workspace: {sourced:?}"
    );
}

#[test]
fn root_manifest_pins_the_lint_gate() {
    let root = read(&workspace_root().join("Cargo.toml"));
    assert!(
        table(&root, "workspace.lints.rust").contains(&r#"unsafe_code="forbid""#.to_string()),
        "[workspace.lints.rust] must set unsafe_code = \"forbid\""
    );
    assert!(
        !table(&root, "workspace.lints.clippy").is_empty(),
        "[workspace.lints.clippy] must pin a non-empty lint set"
    );
}

#[test]
fn every_crate_opts_into_the_workspace_lints() {
    let crates = workspace_root().join("crates");
    let mut manifests: Vec<PathBuf> = fs::read_dir(&crates)
        .unwrap_or_else(|e| panic!("listing {}: {e}", crates.display()))
        .map(|entry| entry.expect("directory entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    manifests.sort();
    assert!(!manifests.is_empty(), "no crate manifests found");
    let missing: Vec<String> = manifests
        .iter()
        .filter(|p| !table(&read(p), "lints").contains(&"workspace=true".to_string()))
        .map(|p| p.display().to_string())
        .collect();
    assert!(
        missing.is_empty(),
        "crates without `[lints] workspace = true`: {missing:?}"
    );
}
