//! Golden tests of the `mrmc lint` subcommand against the diagnostics
//! corpus under `tests/lint_corpus/` at the repository root.
//!
//! Every corpus case is a directory holding a model (`m.tra`, `m.lab`,
//! `m.rewr`, `m.rewi`), optional formulas (`formulas.csrl`), and an
//! `expect` file with the exact sorted set of diagnostic codes the lint
//! must report — nothing more, nothing less. An optional `expect_lines`
//! file pins the exact sorted source-line numbers the diagnostics must
//! point at. Codes are a stable public interface: a case starting to
//! report different codes is a breaking change, not a test to update
//! casually.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/lint_corpus")
}

fn run_lint(case: &Path, extra: &[&str]) -> (String, String, Option<i32>) {
    let file = |name: &str| case.join(name).to_str().unwrap().to_string();
    let mut args = vec![
        "lint".to_string(),
        file("m.tra"),
        file("m.lab"),
        file("m.rewr"),
        file("m.rewi"),
    ];
    args.extend(extra.iter().map(ToString::to_string));
    let formulas = std::fs::read_to_string(case.join("formulas.csrl")).unwrap_or_default();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(formulas.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// Pull the sorted, de-duplicated diagnostic codes out of `--json` output.
fn codes_in(json: &str) -> Vec<String> {
    let mut codes = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"code\":\"") {
        let tail = &rest[i + 8..];
        let end = tail.find('"').expect("closing quote");
        codes.push(tail[..end].to_string());
        rest = &tail[end..];
    }
    codes.sort();
    codes.dedup();
    codes
}

/// The sorted `"line":N` locations present in `--json` output.
/// Post-load diagnostics render `"line":null` and are skipped here.
fn lines_in(json: &str) -> Vec<usize> {
    let mut lines = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"line\":") {
        let tail = &rest[i + 7..];
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        if !digits.is_empty() {
            lines.push(digits.parse().expect("line number"));
        }
        rest = tail;
    }
    lines.sort_unstable();
    lines
}

/// The declared error count from the `--json` summary.
fn error_count_in(json: &str) -> usize {
    let i = json.rfind("\"errors\":").expect("errors field");
    json[i + 9..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("errors count")
}

#[test]
fn corpus_cases_report_exactly_the_expected_codes() {
    let corpus = corpus_dir();
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("corpus directory exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.is_dir().then_some(p)
        })
        .collect();
    cases.sort();
    assert!(cases.len() >= 7, "corpus shrank: {cases:?}");

    for case in cases {
        let name = case.file_name().unwrap().to_string_lossy().into_owned();
        let mut expected: Vec<String> = std::fs::read_to_string(case.join("expect"))
            .unwrap_or_else(|_| panic!("case {name} has an expect file"))
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(ToString::to_string)
            .collect();
        expected.sort();

        let (stdout, stderr, code) = run_lint(&case, &["--json"]);
        assert_eq!(
            codes_in(&stdout),
            expected,
            "case {name}: codes diverged\nstdout: {stdout}\nstderr: {stderr}"
        );

        // Cases with an `expect_lines` file also pin the source locations.
        if let Ok(want) = std::fs::read_to_string(case.join("expect_lines")) {
            let want: Vec<usize> = want
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(|l| l.parse().expect("line number"))
                .collect();
            assert_eq!(
                lines_in(&stdout),
                want,
                "case {name}: locations diverged\nstdout: {stdout}"
            );
        }

        // Exit code 2 exactly when Error-grade diagnostics are present.
        let errors = error_count_in(&stdout);
        let want = if errors > 0 { Some(2) } else { Some(0) };
        assert_eq!(code, want, "case {name}: exit code\nstdout: {stdout}");
    }
}

#[test]
fn deny_warnings_promotes_and_fails() {
    // `suspicious_model` is warning-only: exit 0 normally, 2 under --deny.
    let case = corpus_dir().join("suspicious_model");
    let (_, _, code) = run_lint(&case, &[]);
    assert_eq!(code, Some(0));
    let (stdout, _, code) = run_lint(&case, &["--deny", "warnings"]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("error[M101]"), "{stdout}");
    // Notes are never promoted.
    assert!(stdout.contains("note[M107]"), "{stdout}");
}

#[test]
fn human_output_carries_codes_and_summary() {
    let case = corpus_dir().join("formulas");
    let (stdout, _, code) = run_lint(&case, &[]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("error[F001]"), "{stdout}");
    assert!(stdout.contains("error[F002]"), "{stdout}");
    assert!(stdout.contains("help:"), "{stdout}");
    assert!(stdout.contains("lint: 2 errors"), "{stdout}");
}

#[test]
fn unparsable_formula_is_f003() {
    let case = corpus_dir().join("clean");
    let file = |name: &str| case.join(name).to_str().unwrap().to_string();
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args([
            "lint".to_string(),
            file("m.tra"),
            file("m.lab"),
            file("m.rewr"),
            file("m.rewi"),
            "--json".to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"P(>= 0.5) [up U\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "{stdout}");
    assert!(stdout.contains("\"code\":\"F003\""), "{stdout}");
}

#[test]
fn post_load_diagnostics_render_an_explicit_null_line() {
    // Formula-scope diagnostics have no model-file location; they must
    // still carry the `line` key (as `null`) so consumers see a uniform
    // shape instead of a sometimes-missing field.
    let case = corpus_dir().join("formulas");
    let (stdout, _, code) = run_lint(&case, &["--json"]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stdout.contains("\"line\":null"), "{stdout}");
    // Every diagnostic object carries the key, numeric or null.
    assert_eq!(
        stdout.matches("\"code\":").count(),
        stdout.matches("\"line\":").count(),
        "{stdout}"
    );
}

#[test]
fn verbose_expands_the_per_scc_unreachability_report() {
    // `suspicious_model` has unreachable states: by default they are
    // aggregated into one M101 per unreachable SCC, and --verbose
    // restores the flat per-state form.
    let case = corpus_dir().join("suspicious_model");
    let (stdout, _, code) = run_lint(&case, &[]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("unreachable SCC"), "{stdout}");
    let (stdout, _, code) = run_lint(&case, &["--verbose"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        stdout.contains("unreachable from the initial state"),
        "{stdout}"
    );
    assert!(!stdout.contains("unreachable SCC"), "{stdout}");
}

/// Run `mrmc <subcommand>` on the shipped TMR example with `stdin` piped
/// in; returns stdout and the exit code.
fn run_on_tmr(subcommand: &str, extra: &[&str], stdin: &str) -> (String, Option<i32>) {
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/models");
    let file = |name: &str| models.join(name).to_str().unwrap().to_string();
    let mut args = vec![
        subcommand.to_string(),
        file("tmr.tra"),
        file("tmr.lab"),
        file("tmr.rewr"),
        file("tmr.rewi"),
    ];
    args.extend(extra.iter().map(ToString::to_string));
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code(),
    )
}

#[test]
fn dataflow_flag_reports_x_codes() {
    let run = |extra: &[&str]| run_on_tmr("lint", extra, "P(> 0.99) [TT U Sup]\n");

    let (stdout, code) = run(&["--dataflow", "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"code\":\"X002\""), "{stdout}");
    assert!(stdout.contains("\"code\":\"X003\""), "{stdout}");
    assert!(stdout.contains("condensation"), "{stdout}");

    // Without the flag, no X codes at all.
    let (stdout, code) = run(&["--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        !codes_in(&stdout).iter().any(|c| c.starts_with('X')),
        "{stdout}"
    );
}

#[test]
fn dataflow_x_codes_appear_exactly_for_untils_the_checker_slices() {
    // The checker slices P0 (`U`) and P2 (`U[0,t][0,r]`) untils and
    // reports a `dataflow` object for them; the time-bounded `U[0,3]` and
    // the window `U[1,3]` run the Fox–Glynn baseline unsliced, so the lint
    // must not claim that slicing prunes anything there.
    for (formula, slices) in [
        ("P(> 0.5) [Sup U[0,3] down]", false),
        ("P(> 0.5) [Sup U[1,3] down]", false),
        ("P(> 0.5) [Sup U down]", true),
        ("P(> 0.5) [Sup U[0,3][0,10] down]", true),
    ] {
        let stdin = format!("{formula}\n");
        let (lint, code) = run_on_tmr("lint", &["--dataflow", "--json"], &stdin);
        assert_eq!(code, Some(0), "{lint}");
        let codes = codes_in(&lint);
        assert!(codes.contains(&"X002".to_string()), "{formula}: {lint}");
        assert_eq!(
            codes.contains(&"X003".to_string()),
            slices,
            "{formula}: {lint}"
        );
        assert_eq!(
            codes.contains(&"X004".to_string()),
            slices,
            "{formula}: {lint}"
        );

        let (check, code) = run_on_tmr("check", &["--json"], &stdin);
        assert_eq!(code, Some(0), "{check}");
        assert_eq!(
            check.contains("\"dataflow\":{"),
            slices,
            "{formula}: {check}"
        );
    }
}

#[test]
fn lumping_flag_reports_r_codes() {
    // The TMR example with a pure-AP formula lumps 5 -> 2 (a
    // rate-observing formula would see the full chain); without --lumping
    // no R codes appear at all.
    let run = |extra: &[&str]| run_on_tmr("lint", extra, "Sup\n");

    let (stdout, code) = run(&["--lumping", "--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("\"code\":\"R101\""), "{stdout}");
    assert!(stdout.contains("lumpable"), "{stdout}");

    let (stdout, code) = run(&["--json"]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(
        !codes_in(&stdout).iter().any(|c| c.starts_with('R')),
        "{stdout}"
    );
}

#[test]
fn example_model_is_lint_clean() {
    // The shipped TMR example must stay clean even under --deny warnings;
    // CI runs the same invocation as a smoke test.
    let models = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/models");
    let formulas = std::fs::read_to_string(models.join("tmr.csrl")).unwrap();
    let (stdout, code) = run_on_tmr("lint", &["--deny", "warnings"], &formulas);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 errors, 0 warnings"), "{stdout}");
}
