//! End-to-end tests of the `mrmc` binary: write model files, pipe formulas
//! through stdin, and check the printed verdicts — the workflow of the
//! thesis' usage manual.

use std::io::Write;
use std::process::{Command, Stdio};

fn write_tmr_like_model(dir: &std::path::Path) -> [std::path::PathBuf; 4] {
    // A 3-state repairable system: up(1) -> degraded(2) -> failed(3),
    // repairs back up; rewards on degraded operation, impulse on repair.
    let tra = dir.join("m.tra");
    std::fs::write(
        &tra,
        "STATES 3\nTRANSITIONS 4\n1 2 0.1\n2 3 0.2\n2 1 1.0\n3 1 0.5\n",
    )
    .unwrap();
    let lab = dir.join("m.lab");
    std::fs::write(
        &lab,
        "#DECLARATION\nup degraded failed\n#END\n1 up\n2 degraded\n3 failed\n",
    )
    .unwrap();
    let rewr = dir.join("m.rewr");
    std::fs::write(&rewr, "1 1.0\n2 3.0\n3 0.0\n").unwrap();
    let rewi = dir.join("m.rewi");
    std::fs::write(&rewi, "TRANSITIONS 2\n2 1 5.0\n3 1 20.0\n").unwrap();
    [tra, lab, rewr, rewi]
}

fn run_mrmc_code(args: &[&str], stdin_text: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin_text.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn run_mrmc(args: &[&str], stdin_text: &str) -> (String, String, bool) {
    let (stdout, stderr, code) = run_mrmc_code(args, stdin_text);
    (stdout, stderr, code == Some(0))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mrmc-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn checks_formulas_from_stdin() {
    let dir = temp_dir("basic");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, ok) = run_mrmc(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
        ],
        "up || degraded\nS(> 0.5) (up)\nP(> 0.99) [TT U failed]\n",
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("loaded model: 3 states, 4 transitions, 2 impulse rewards"));
    // Boolean formula satisfied by states 1 and 2 (1-indexed).
    assert!(stdout.contains("satisfied by: 1 2"), "{stdout}");
    // The chain is irreducible and mostly up.
    assert!(stdout.contains("formula: S(> 0.5) (up)"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reward_bounded_until_with_both_engines() {
    let dir = temp_dir("engines");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let paths: Vec<&str> = vec![
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    let formula = "P(> 0.001) [up U[0,10][0,50] degraded]\n";

    let (uni_out, _, ok) = run_mrmc(
        &[paths[0], paths[1], paths[2], paths[3], "u=1e-10"],
        formula,
    );
    assert!(ok);
    assert!(uni_out.contains("error bound"), "{uni_out}");

    let (disc_out, _, ok) = run_mrmc(&[paths[0], paths[1], paths[2], paths[3], "d=0.01"], formula);
    assert!(ok);

    // Extract the state-1 probability from both outputs and compare.
    let grab = |text: &str| -> f64 {
        text.lines()
            .find(|l| l.trim_start().starts_with("state 1: P = "))
            .and_then(|l| l.split("P = ").nth(1))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    };
    let (pu, pd) = (grab(&uni_out), grab(&disc_out));
    assert!(
        (pu - pd).abs() < 5e-3,
        "uniformization {pu} vs discretization {pd}\n{uni_out}\n{disc_out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn np_flag_hides_probabilities() {
    let dir = temp_dir("np");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, _, ok) = run_mrmc(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "NP",
        ],
        "S(> 0.5) (up)\n",
    );
    assert!(ok);
    assert!(!stdout.contains("state 1: P ="), "{stdout}");
    assert!(stdout.contains("satisfied by"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_formula_fails_with_message() {
    let dir = temp_dir("bad");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, ok) = run_mrmc(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
        ],
        "P(>= 2) [TT U failed]\nno_such_ap\n",
    );
    assert!(!ok);
    assert!(stdout.contains("error:"), "{stdout}");
    assert!(stdout.contains("no_such_ap"), "{stdout}");
    assert!(stderr.contains("one or more formulas failed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_files_fail_cleanly() {
    let (_, stderr, ok) = run_mrmc(
        &[
            "/nonexistent/a.tra",
            "/nonexistent/a.lab",
            "/nonexistent/a.rewr",
            "/nonexistent/a.rewi",
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn removed_threads_and_solver_flags_fail_with_one_line() {
    let dir = temp_dir("removed-flags");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    for flag in [
        &["--threads", "2"][..],
        &["--threads=2"],
        &["--solver", "colored"],
        &["--solver=gs"],
    ] {
        let mut args = vec!["check", p[0], p[1], p[2], p[3]];
        args.extend_from_slice(flag);
        // The flag is rejected before stdin is read, so send no formulas.
        let (stdout, stderr, code) = run_mrmc_code(&args, "");
        assert_eq!(code, Some(1), "{flag:?}: {stderr}");
        assert!(stdout.is_empty(), "{flag:?}: {stdout}");
        assert_eq!(stderr.lines().count(), 1, "{flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unrecognized argument `{}`", flag[0])),
            "{flag:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_of_range_engine_knobs_exit_before_loading() {
    let dir = temp_dir("bad-knobs");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    for knob in ["u=-1", "u=nan", "u=2", "d=0", "d=-1", "d=inf", "s=0"] {
        for sub in ["check", "lint"] {
            // The knob is rejected before stdin is read, so send no formulas.
            let (stdout, stderr, code) = run_mrmc_code(&[sub, p[0], p[1], p[2], p[3], knob], "");
            assert_eq!(code, Some(1), "{sub} {knob}: {stdout}{stderr}");
            // No `loaded model` line and no lint report: rejected before
            // the model loads or a cost forecast is built.
            assert!(stdout.is_empty(), "{sub} {knob}: {stdout}");
            assert_eq!(stderr.lines().count(), 1, "{sub} {knob}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run_mrmc(&["--help"], "");
    assert!(ok);
    assert!(stdout.contains("usage: mrmc"));
    assert!(stdout.contains("u=<w>"));
    // The check synopsis lists every engine switch the parser accepts.
    assert!(stdout.contains("[u=<w>|d=<d>|s=<n>] [--tolerance E]"));
    assert!(stdout.contains("--tolerance"));
    assert!(stdout.contains("--json"));
}

#[test]
fn tolerance_flag_drives_the_adaptive_engine() {
    let dir = temp_dir("tolerance");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--tolerance",
            "1e-6",
        ],
        "P(> 0.001) [up U[0,10][0,50] degraded]\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}\nstdout: {stdout}");
    // The achieved budget is printed and respects the tolerance.
    assert!(stdout.contains("total error"), "{stdout}");
    let total: f64 = stdout
        .lines()
        .find(|l| l.contains("state 1:"))
        .and_then(|l| l.split("total error ").nth(1))
        .and_then(|v| v.split(',').next())
        .and_then(|v| v.trim().parse().ok())
        .expect("budget total printed");
    assert!(total <= 1e-6, "achieved {total} > 1e-6\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreachable_tolerance_exits_with_code_3() {
    // 1000 base samples can never certify 1e-6 (Hoeffding sizing exceeds
    // the simulation work cap): the run must fail with the dedicated exit
    // code, distinct from general errors (1).
    let dir = temp_dir("tolfail");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "s=1000",
            "--tolerance",
            "1e-6",
        ],
        "P(> 0.001) [up U[0,10][0,50] degraded]\n",
    );
    assert_eq!(code, Some(3), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains("tolerance not met"), "{stdout}");
    assert!(stderr.contains("tolerance not met"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_output_carries_budget_fields() {
    let dir = temp_dir("json");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
            "--tolerance",
            "1e-6",
        ],
        "P(> 0.001) [up U[0,10][0,50] degraded]\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}\nstdout: {stdout}");
    // JSON mode suppresses the human banner; one object per formula.
    assert!(!stdout.contains("loaded model"), "{stdout}");
    let line = stdout.lines().next().expect("one JSON line");
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    for needle in [
        "\"formula\":\"P(> 0.001) [up U[0,10][0,50] degraded]\"",
        "\"satisfied\":[",
        "\"unknown\":[",
        "\"states\":[",
        "\"probability\":",
        "\"verdict\":\"",
        "\"budget\":{",
        "\"path_truncation\":",
        "\"poisson_tail\":",
        "\"float_accumulation\":",
        "\"discretization\":",
        "\"statistical\":",
        "\"propagation\":",
        "\"total\":",
        "\"dominant\":\"",
    ] {
        assert!(line.contains(needle), "missing {needle} in {line}");
    }

    // A missed tolerance in JSON mode is a structured error object.
    let (stdout, _, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "s=1000",
            "--json",
            "--tolerance",
            "1e-6",
        ],
        "P(> 0.001) [up U[0,10][0,50] degraded]\n",
    );
    assert_eq!(code, Some(3));
    assert!(
        stdout.contains("\"error_kind\":\"tolerance_not_met\""),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The timing fields lead every `--json` line in a pinned order:
/// `{"elapsed_s":E,` bare, or `{"elapsed_s":E,"phase_times":{…},` under
/// `--metrics` — followed by the unchanged one-shot body starting at
/// `"formula"`. Scripts may rely on this prefix byte-for-byte.
#[test]
fn json_output_leads_with_the_pinned_timing_prefix() {
    let dir = temp_dir("elapsed");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
        ],
        "S(> 0.5) (up)\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let line = stdout.lines().next().expect("one JSON line");
    assert!(line.starts_with("{\"elapsed_s\":"), "{line}");
    let elapsed: f64 = line["{\"elapsed_s\":".len()..]
        .split(',')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("elapsed_s is not a number: {line}"));
    assert!(elapsed >= 0.0 && elapsed.is_finite(), "{line}");
    // The body after the prefix is the unchanged one-shot object.
    assert!(line.contains(",\"formula\":\"S(> 0.5) (up)\","), "{line}");

    // Under --metrics the prefix gains phase_times, before `formula`.
    let (stdout, _, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
            "--metrics",
        ],
        "S(> 0.5) (up)\n",
    );
    assert_eq!(code, Some(0));
    let line = stdout.lines().next().expect("one JSON line");
    assert!(line.starts_with("{\"elapsed_s\":"), "{line}");
    let phase_idx = line
        .find(",\"phase_times\":{")
        .expect("phase_times present");
    let formula_idx = line.find(",\"formula\":").expect("formula present");
    assert!(phase_idx < formula_idx, "{line}");
    assert!(line.contains("\"phase_times\":{\"engine\":"), "{line}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--profile` prints the flame table to stderr; `--profile=FILE` also
/// writes the JSON profile, whose span tree keeps children within their
/// parents' totals.
#[test]
fn profile_flag_writes_flame_table_and_json_tree() {
    let dir = temp_dir("profile");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let profile_path = dir.join("prof.json");
    let profile_arg = format!("--profile={}", profile_path.display());
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
            &profile_arg,
        ],
        "P(> 0.1) [TT U[0,1][0,10] failed]\nS(> 0.5) (up)\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}\nstdout: {stdout}");
    // Flame table on stderr: header plus the top-level checker phases.
    assert!(stderr.contains("wall-time profile:"), "{stderr}");
    assert!(stderr.contains("phase"), "{stderr}");
    assert!(stderr.contains("engine"), "{stderr}");
    // stdout stays a clean JSONL stream.
    for line in stdout.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    }
    // The JSON profile parses, has the pinned envelope, and never lets a
    // child total exceed its parent.
    let text = std::fs::read_to_string(&profile_path).expect("profile written");
    assert!(text.starts_with("{\"total_s\":"), "{text}");
    let doc = mrmc_obs::json::parse(&text).expect("profile JSON parses");
    fn check_nodes(nodes: &[mrmc_obs::json::Value]) {
        for node in nodes {
            let total = node
                .get("total_s")
                .and_then(mrmc_obs::json::Value::as_f64)
                .expect("total_s");
            let self_s = node
                .get("self_s")
                .and_then(mrmc_obs::json::Value::as_f64)
                .expect("self_s");
            assert!(self_s >= 0.0 && self_s <= total + 1e-9);
            let Some(mrmc_obs::json::Value::Arr(children)) = node.get("children") else {
                panic!("no children array");
            };
            let child_total: f64 = children
                .iter()
                .map(|c| {
                    c.get("total_s")
                        .and_then(mrmc_obs::json::Value::as_f64)
                        .unwrap()
                })
                .sum();
            assert!(child_total <= total + 1e-9, "children exceed parent");
            check_nodes(children);
        }
    }
    let Some(mrmc_obs::json::Value::Arr(spans)) = doc.get("spans") else {
        panic!("no spans array: {text}");
    };
    assert!(!spans.is_empty(), "empty span tree: {text}");
    check_nodes(spans);
    assert!(
        doc.get("histograms")
            .and_then(|h| h.get("engine"))
            .and_then(|h| h.get("count"))
            .and_then(mrmc_obs::json::Value::as_u64)
            .is_some_and(|n| n >= 2),
        "engine histogram missing: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_reduction_flag_disables_the_lumping_quotient() {
    // A diamond with twin mid states: lumpable 4 -> 3 for a steady-state
    // formula (the twins have identical aggregate rates) and 4 -> 2 for a
    // pure-AP one.
    let dir = temp_dir("reduction");
    let tra = dir.join("m.tra");
    std::fs::write(
        &tra,
        "STATES 4\nTRANSITIONS 5\n1 2 1.0\n1 3 1.0\n2 4 2.0\n3 4 2.0\n4 1 0.5\n",
    )
    .unwrap();
    let lab = dir.join("m.lab");
    std::fs::write(
        &lab,
        "#DECLARATION\nstart mid goal\n#END\n1 start\n2 mid\n3 mid\n4 goal\n",
    )
    .unwrap();
    let rewr = dir.join("m.rewr");
    std::fs::write(&rewr, "").unwrap();
    let rewi = dir.join("m.rewi");
    std::fs::write(&rewi, "TRANSITIONS 0\n").unwrap();
    let paths = [
        tra.to_str().unwrap().to_string(),
        lab.to_str().unwrap().to_string(),
        rewr.to_str().unwrap().to_string(),
        rewi.to_str().unwrap().to_string(),
    ];
    let p: Vec<&str> = paths.iter().map(String::as_str).collect();

    let formulas = "S(> 0.1) (goal)\ngoal\n";
    let (reduced, stderr, ok) = run_mrmc(&[p[0], p[1], p[2], p[3]], formulas);
    assert!(ok, "stderr: {stderr}");
    assert!(
        reduced.contains("checked on a verified quotient: 4 -> 3 states"),
        "{reduced}"
    );
    assert!(
        reduced.contains("checked on a verified quotient: 4 -> 2 states"),
        "{reduced}"
    );

    let (full, stderr, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "--no-reduction"], formulas);
    assert!(ok, "stderr: {stderr}");
    assert!(!full.contains("verified quotient"), "{full}");

    // The reduction is exact: same satisfying sets, same probabilities
    // (up to solver round-off on the different-sized systems).
    let grab = |text: &str, state: usize| -> f64 {
        text.lines()
            .find(|l| l.trim_start().starts_with(&format!("state {state}: P = ")))
            .and_then(|l| l.split("P = ").nth(1))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    };
    for s in 1..=4 {
        let (pr, pf) = (grab(&reduced, s), grab(&full, s));
        assert!(
            (pr - pf).abs() <= 1e-9,
            "state {s}: reduced {pr} vs full {pf}\n{reduced}\n{full}"
        );
    }
    let sat_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.contains("satisfied by:"))
            .map(ToString::to_string)
            .collect()
    };
    assert_eq!(sat_lines(&reduced), sat_lines(&full), "{reduced}\n{full}");

    // JSON mode records the original and reduced state counts.
    let (json, _, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "--json"], "S(> 0.1) (goal)\n");
    assert!(ok);
    assert!(
        json.contains("\"original_states\":4,\"reduced_states\":3"),
        "{json}"
    );
    let (json, _, ok) = run_mrmc(
        &[p[0], p[1], p[2], p[3], "--json", "--no-reduction"],
        "S(> 0.1) (goal)\n",
    );
    assert!(ok);
    assert!(!json.contains("original_states"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The human output names the per-state `error_bounds` slot for what it
/// holds: a truncation bound under uniformization, a standard error (no
/// bound at all) under simulation.
#[test]
fn human_output_labels_a_standard_error_as_such() {
    let dir = temp_dir("error-label");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    for (engine, label, other) in [
        ("s=200", "(standard error ", "(error bound "),
        ("u=1e-8", "(error bound ", "(standard error "),
    ] {
        let (stdout, stderr, code) = run_mrmc_code(
            &[
                tra.to_str().unwrap(),
                lab.to_str().unwrap(),
                rewr.to_str().unwrap(),
                rewi.to_str().unwrap(),
                engine,
            ],
            "P(> 0.5) [up U[0,10][0,50] degraded]\n",
        );
        assert!(matches!(code, Some(0 | 4)), "{engine}: {stderr}");
        assert!(stdout.contains(label), "{engine}: {stdout}");
        assert!(!stdout.contains(other), "{engine}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_field_reports_the_engine_actually_run() {
    // `--json` must name the engine that *actually* computed the outermost
    // operator — which the bound shape can override away from the
    // configured one. In particular, a time-only bound always runs the
    // exact baseline method, even when `d=`/`u=` selected an engine.
    let dir = temp_dir("engine-field");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];

    let engine_of = |extra: &[&str], formula: &str| -> String {
        let mut args = p.to_vec();
        args.extend_from_slice(extra);
        args.push("--json");
        let (stdout, stderr, ok) = run_mrmc(&args, &format!("{formula}\n"));
        assert!(ok, "stderr: {stderr}\nstdout: {stdout}");
        let line = stdout.lines().next().expect("one JSON line").to_string();
        line.split("\"engine\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .unwrap_or_else(|| panic!("no engine field in {line}"))
            .to_string()
    };

    // The regression this pins: a time-only bound under a configured
    // discretization (or uniformization) engine falls back to the exact
    // baseline, and the JSON must say so.
    let time_only = "P(> 0.001) [up U[0,10] degraded]";
    assert_eq!(engine_of(&["d=0.01"], time_only), "baseline");
    assert_eq!(engine_of(&["u=1e-10"], time_only), "baseline");

    // Doubly-bounded untils run the configured engine.
    let bounded = "P(> 0.001) [up U[0,10][0,50] degraded]";
    assert_eq!(engine_of(&["u=1e-10"], bounded), "uniformization");
    assert_eq!(engine_of(&["d=0.01"], bounded), "discretization");

    // Unbounded until is plain reachability; steady-state is its own
    // engine.
    assert_eq!(engine_of(&[], "P(> 0.99) [TT U failed]"), "reachability");
    assert_eq!(engine_of(&[], "S(> 0.5) (up)"), "steady");

    // Human mode prints the same thing as a labeled line.
    let (stdout, _, ok) = run_mrmc(
        &[p[0], p[1], p[2], p[3], "d=0.01"],
        &format!("{time_only}\n"),
    );
    assert!(ok);
    assert!(stdout.contains("engine: baseline"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_flag_reports_run_metrics() {
    let dir = temp_dir("metrics");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    let formula = "P(> 0.001) [up U[0,10][0,50] degraded]\n";
    // Three formulas exercising three engines: uniformization (paths),
    // the Fox–Glynn baseline (poisson window), and steady-state (solver).
    let formulas = "P(> 0.001) [up U[0,10][0,50] degraded]\n\
                    P(> 0.001) [up U[0,10] degraded]\n\
                    S(> 0.5) (up)\n";

    // JSON mode: a `metrics` object with the full fixed key set, in its
    // documented order (the golden-shape contract).
    let (stdout, stderr, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "--metrics", "--json"], formulas);
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    let line = lines[0];
    let metrics = line
        .split("\"metrics\":")
        .nth(1)
        .unwrap_or_else(|| panic!("no metrics object in {line}"));
    let keys = [
        "\"solver_solves\":",
        "\"solver_iterations\":",
        "\"poisson_windows\":",
        "\"poisson_left\":",
        "\"poisson_right\":",
        "\"nodes_explored\":",
        "\"paths_generated\":",
        "\"paths_pruned\":",
        "\"path_max_depth\":",
        "\"path_classes\":",
        "\"omega_requests\":",
        "\"omega_cache_entries\":",
        "\"omega_max_depth\":",
        "\"grid_runs\":",
        "\"grid_time_steps\":",
        "\"grid_reward_cells\":",
        "\"adaptive_attempts\":",
        "\"solver_last_residual\":",
        "\"poisson_tail_bound\":",
        "\"truncated_mass\":",
        "\"lumping_rounds\":",
        "\"progress_events\":",
        "\"phases\":{",
        "\"counters\":{",
    ];
    let mut at = 0;
    for key in keys {
        let found = metrics[at..]
            .find(key)
            .unwrap_or_else(|| panic!("missing or out-of-order {key} in {metrics}"));
        at += found;
    }
    // The uniformization run did real work, and the phase timers ran.
    let grab_count = |metrics: &str, name: &str| -> u64 {
        metrics
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} count in {metrics}"))
    };
    assert!(grab_count(metrics, "paths_generated") > 0, "{metrics}");
    assert!(metrics.contains("\"phases\":{\"engine\":"), "{metrics}");

    // Metrics are scoped per formula: the baseline formula's object has
    // the Poisson window, the steady-state one the solver counters.
    let baseline_metrics = lines[1].split("\"metrics\":").nth(1).unwrap();
    assert!(
        grab_count(baseline_metrics, "poisson_windows") > 0,
        "{baseline_metrics}"
    );
    assert!(
        grab_count(baseline_metrics, "poisson_right") > 0,
        "{baseline_metrics}"
    );
    let steady_metrics = lines[2].split("\"metrics\":").nth(1).unwrap();
    assert!(
        grab_count(steady_metrics, "solver_solves") > 0,
        "{steady_metrics}"
    );
    assert!(
        grab_count(steady_metrics, "solver_iterations") > 0,
        "{steady_metrics}"
    );

    // The discretization engine reports its grid work through the same
    // object.
    let (stdout, _, ok) = run_mrmc(
        &[p[0], p[1], p[2], p[3], "d=0.01", "--metrics", "--json"],
        formula,
    );
    assert!(ok);
    let line = stdout.lines().next().unwrap();
    let metrics = line.split("\"metrics\":").nth(1).unwrap();
    assert!(grab_count(metrics, "grid_runs") > 0, "{metrics}");
    assert!(grab_count(metrics, "grid_time_steps") > 0, "{metrics}");

    // Under --tolerance the adaptive driver's attempts are counted.
    let (stdout, _, ok) = run_mrmc(
        &[
            p[0],
            p[1],
            p[2],
            p[3],
            "--tolerance",
            "1e-6",
            "--metrics",
            "--json",
        ],
        formula,
    );
    assert!(ok);
    let metrics = stdout
        .lines()
        .next()
        .unwrap()
        .split("\"metrics\":")
        .nth(1)
        .unwrap();
    assert!(grab_count(metrics, "adaptive_attempts") > 0, "{metrics}");

    // Human mode: an indented metrics table with the headline counters
    // (per formula, so each engine's rows appear under its own formula).
    let (stdout, _, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "--metrics"], formulas);
    assert!(ok);
    assert!(stdout.contains("  metrics:"), "{stdout}");
    assert!(stdout.contains("    paths generated: "), "{stdout}");
    assert!(stdout.contains("    poisson window: ["), "{stdout}");
    assert!(stdout.contains("    solver iterations: "), "{stdout}");
    assert!(stdout.contains("    phase engine: "), "{stdout}");

    // Telemetry is observation-only: the probability lines are identical
    // with and without --metrics.
    let (plain, _, ok) = run_mrmc(&[p[0], p[1], p[2], p[3]], formulas);
    assert!(ok);
    let prob_lines = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with("state "))
            .map(ToString::to_string)
            .collect()
    };
    assert_eq!(prob_lines(&plain), prob_lines(&stdout));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_counters_count_each_formulas_own_lookups() {
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/models/tmr");
    let files = ["tra", "lab", "rewr", "rewi"].map(|ext| format!("{model}.{ext}"));
    let formulas = "P(> 0.1) [Sup U[0,2][0,10] down]\n\
                    P(> 0.1) [Sup U[0,2][0,10] down]\n\
                    S(> 0.9) (Sup)\n\
                    S(> 0.9) (Sup)\n";
    let mut args: Vec<&str> = files.iter().map(String::as_str).collect();
    args.extend(["--json", "--metrics"]);
    let (stdout, stderr, ok) = run_mrmc(&args, formulas);
    assert!(ok, "{stderr}");
    let per_formula: Vec<(u64, u64)> = stdout
        .lines()
        .map(|line| {
            let doc = mrmc_obs::json::parse(line).expect("JSON line");
            let counters = doc
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .unwrap_or_else(|| panic!("no counters in {line}"));
            // The model was loaded before the first formula.
            assert!(counters.get("models_loaded").is_none(), "{line}");
            let count = |key| {
                counters
                    .get(key)
                    .and_then(mrmc_obs::json::Value::as_u64)
                    .unwrap_or(0)
            };
            (count("sat_cache_hits"), count("sat_cache_misses"))
        })
        .collect();
    assert_eq!(per_formula, [(0, 1), (1, 0), (0, 1), (1, 0)], "{stdout}");
}

#[test]
fn unbounded_until_reports_a_certified_budget() {
    // `!vdown U down` on the TMR model: states 1–3 reach `down` only if
    // the voter does not fail first, so the Eq. 3.8 system is non-trivial.
    let model = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/models/tmr");
    let files = ["tra", "lab", "rewr", "rewi"].map(|ext| format!("{model}.{ext}"));
    let mut args: Vec<&str> = files.iter().map(String::as_str).collect();
    args.push("--json");
    let (stdout, stderr, ok) = run_mrmc(&args, "P(> 0.5) [!vdown U down]\n");
    assert!(ok, "{stderr}");
    let doc = mrmc_obs::json::parse(stdout.trim()).expect("one JSON line");
    let Some(mrmc_obs::json::Value::Arr(states)) = doc.get("states") else {
        panic!("no per-state results in {stdout}");
    };
    assert_eq!(states.len(), 5);
    for (s, state) in states.iter().enumerate() {
        let budget = state
            .get("budget")
            .unwrap_or_else(|| panic!("state {}: no budget in {stdout}", s + 1));
        let component = |key| {
            budget
                .get(key)
                .and_then(mrmc_obs::json::Value::as_f64)
                .unwrap_or_else(|| panic!("no {key} in {stdout}"))
        };
        let float = component("float_accumulation");
        if s < 3 {
            assert!(float > 0.0 && float < 1e-9, "state {}: {float:e}", s + 1);
        } else {
            // `down` is Ψ and `vdown` cannot satisfy the until: exact.
            assert_eq!(float, 0.0, "state {}", s + 1);
        }
        assert_eq!(component("total"), float, "state {}", s + 1);
    }
}

#[test]
fn trace_flag_streams_wellformed_jsonl() {
    let dir = temp_dir("trace");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let trace = dir.join("run.jsonl");
    let (_, stderr, ok) = run_mrmc(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
            &format!("--trace={}", trace.display()),
        ],
        "P(> 0.001) [up U[0,10][0,50] degraded]\nP(> 0.001) [up U[0,10] degraded]\nS(> 0.5) (up)\n",
    );
    assert!(ok, "stderr: {stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "suspiciously short trace:\n{text}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i} is not a JSON object: {line}"
        );
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},\"kind\":\"")),
            "line {i} has wrong seq: {line}"
        );
    }
    // The engines' signature events made it to the file, and the stream
    // terminates with the run summary.
    assert!(text.contains("\"kind\":\"path_exploration\""), "{text}");
    assert!(text.contains("\"kind\":\"poisson_window\""), "{text}");
    assert!(text.contains("\"kind\":\"solver_sweep\""), "{text}");
    assert!(text.contains("\"kind\":\"span\""), "{text}");
    let last = lines.last().unwrap();
    assert!(
        last.contains("\"kind\":\"run_summary\"") && last.contains("\"formulas\":3"),
        "{last}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_flag_prints_throttled_lines_to_stderr() {
    let dir = temp_dir("progress");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    // The discretization grid emits throttled `grid` progress events.
    let formula = "P(> 0.001) [up U[0,10][0,50] degraded]\n";
    let (_, stderr, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "d=0.01", "--progress"], formula);
    assert!(ok);
    assert!(stderr.contains("mrmc: progress: grid "), "{stderr}");
    // Off by default.
    let (_, stderr, ok) = run_mrmc(&[p[0], p[1], p[2], p[3], "d=0.01"], formula);
    assert!(ok);
    assert!(!stderr.contains("mrmc: progress:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_subcommand_is_an_alias_for_the_default_mode() {
    let dir = temp_dir("check-alias");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let p = [
        tra.to_str().unwrap(),
        lab.to_str().unwrap(),
        rewr.to_str().unwrap(),
        rewi.to_str().unwrap(),
    ];
    let formulas = "S(> 0.5) (up)\n";
    let (plain, _, ok) = run_mrmc(&[p[0], p[1], p[2], p[3]], formulas);
    assert!(ok);
    let (aliased, stderr, ok) = run_mrmc(&["check", p[0], p[1], p[2], p[3]], formulas);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(plain, aliased);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn point_intervals_yield_exact_budgets() {
    // `U[0,0][0,0]` degenerates to the ψ-indicator: probability 1 on
    // ψ-states, 0 elsewhere, with an identically-zero (exact) budget, so
    // even `P(>= 1)` is decided — no unknown verdicts.
    let dir = temp_dir("point");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "--json",
        ],
        "P(>= 1) [TT U[0,0][0,0] degraded]\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}\nstdout: {stdout}");
    let line = stdout.lines().next().unwrap();
    assert!(line.contains("\"satisfied\":[2]"), "{line}");
    assert!(line.contains("\"unknown\":[]"), "{line}");
    assert!(line.contains("\"total\":0e0"), "{line}");
    assert!(
        line.contains("\"state\":2,\"probability\":1e0,\"verdict\":\"holds\""),
        "{line}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_verdicts_exit_with_code_4() {
    // The simulation estimate for state 1 is ~0.617 with a statistical
    // budget of ~0.085, so the bound 0.6 is inside the budget: the verdict
    // is Unknown and the run must exit with the dedicated code 4, distinct
    // from errors (1), preflight failures (2), and tolerance misses (3).
    let dir = temp_dir("unknown-exit");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (stdout, stderr, code) = run_mrmc_code(
        &[
            tra.to_str().unwrap(),
            lab.to_str().unwrap(),
            rewr.to_str().unwrap(),
            rewi.to_str().unwrap(),
            "s=1000",
            "--json",
        ],
        "P(> 0.6) [up U[0,10][0,50] degraded]\n",
    );
    assert_eq!(code, Some(4), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains("\"unknown\":[1]"), "{stdout}");
    assert!(
        stderr.contains("one or more verdicts are unknown"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_formula_exit_reflects_the_worst_outcome() {
    let dir = temp_dir("worst-exit");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let base = [
        tra.to_str().unwrap().to_string(),
        lab.to_str().unwrap().to_string(),
        rewr.to_str().unwrap().to_string(),
        rewi.to_str().unwrap().to_string(),
        "s=1000".to_string(),
    ];
    let run = |formulas: &str| {
        let args: Vec<&str> = base.iter().map(String::as_str).collect();
        run_mrmc_code(&args, formulas)
    };
    let unknown = "P(> 0.6) [up U[0,10][0,50] degraded]\n";
    let passing = "S(> 0.5) (up)\n";

    // A definite verdict alongside an Unknown one: the batch still exits 4.
    let (stdout, stderr, code) = run(&format!("{passing}{unknown}{passing}"));
    assert_eq!(code, Some(4), "stderr: {stderr}\nstdout: {stdout}");

    // An outright error outranks the Unknown (1 beats 4); the remaining
    // formulas are still checked and reported.
    let (stdout, stderr, code) = run(&format!("{unknown}not a formula ((\n{passing}"));
    assert_eq!(code, Some(1), "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains("satisfied by"), "{stdout}");

    // All definite: success.
    let (stdout, stderr, code) = run(&format!("{passing}{passing}"));
    assert_eq!(code, Some(0), "stderr: {stderr}\nstdout: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--json` corpus pinned byte-for-byte by `tests/golden/check_json.jsonl`:
/// `(model, engine flag, formulas)`. Every nested `S`, `X` and `U` below
/// has an inner operator with undecided states under its engine, so the
/// outer operator takes the two-run widening path; the TMR rows also reach
/// the `[t1, ∞)`, P0 and general-bounds arms.
const GOLDEN_RUNS: [(&str, &str, &[&str]); 4] = [
    (
        "wavelan",
        "u=0.5",
        &[
            "P(> 0.3) [idle U[0,0.5][0,2000] busy]",
            "P(> 0.9) [X (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.4) [X[0,0.1][0,500] (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "S(> 0.1) (P(> 0.3) [idle U[0,0.5][0,2000] busy])",
            "S(> 0.1) (S(> 0.1) (P(> 0.3) [idle U[0,0.5][0,2000] busy]))",
            "P(> 0.5) [TT U (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.5) [TT U[0.5,~] (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.5) [TT U[0,1] (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.5) [TT U[0.5,1] (P(> 0.3) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.2) [!(P(> 0.3) [idle U[0,0.5][0,2000] busy]) U[0,1][0,3000] busy]",
            "P(> 0.5) [X (busy)]",
            "S(> 0.3) (idle || busy)",
        ],
    ),
    (
        "wavelan",
        "d=0.05",
        &[
            "P(> 0.158) [idle U[0,0.5][0,2000] busy]",
            "P(> 0.9) [X (P(> 0.158) [idle U[0,0.5][0,2000] busy])]",
            "S(> 0.1) (P(> 0.158) [idle U[0,0.5][0,2000] busy])",
            "P(> 0.5) [TT U (P(> 0.158) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.5) [TT U[0.5,~] (P(> 0.158) [idle U[0,0.5][0,2000] busy])]",
            "P(> 0.1) [idle U[0,0.5][0,2000] (P(> 0.158) [idle U[0,0.5][0,2000] busy])]",
        ],
    ),
    (
        "tmr",
        "s=200",
        &[
            "P(> 0.8) [Sup U[0,2][0,10] up3]",
            "P(> 0.5) [X (P(> 0.8) [Sup U[0,2][0,10] up3])]",
            "S(> 0.5) (P(> 0.8) [Sup U[0,2][0,10] up3])",
            "P(> 0.5) [TT U (P(> 0.8) [Sup U[0,2][0,10] up3])]",
            "P(> 0.5) [TT U[1,~] (P(> 0.8) [Sup U[0,2][0,10] up3])]",
            "P(> 0.5) [Sup U[1,2][0,10] (P(> 0.8) [Sup U[0,2][0,10] up3])]",
            "P(> 0.5) [Sup U[0,2][0,10] (P(> 0.8) [Sup U[0,2][0,10] up3])]",
        ],
    ),
    (
        "tmr",
        "u=1e-8",
        &[
            "S(> 0.9) (Sup)",
            "P(< 0.05) [Sup U[0,2][0,10] down]",
            "P(> 0.99) [TT U up3]",
            "P(> 0.5) [!vdown U down]",
            "P(> 0.5) [TT U[1,~] up3]",
        ],
    ),
];

/// `mrmc check --json` output over [`GOLDEN_RUNS`] is byte-identical to
/// the committed golden file, once the run-dependent `elapsed_s` prefix is
/// stripped. The golden lines are in run order, one per formula.
#[test]
fn json_output_matches_the_golden_corpus() {
    let dir = temp_dir("golden");
    let tmr = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/models/tmr");
    let tmr_files = ["tra", "lab", "rewr", "rewi"].map(|ext| format!("{tmr}.{ext}"));
    let wavelan = mrmc_models::wavelan::wavelan();
    let wavelan_files = {
        use mrmc_mrm::io::{write_lab, write_rewi, write_rewr, write_tra};
        let texts = [
            write_tra(&wavelan),
            write_lab(&wavelan),
            write_rewr(&wavelan),
            write_rewi(&wavelan),
        ];
        ["tra", "lab", "rewr", "rewi"]
            .iter()
            .zip(texts)
            .map(|(ext, text)| {
                let path = dir.join(format!("wavelan.{ext}"));
                std::fs::write(&path, text).unwrap();
                path.to_str().unwrap().to_owned()
            })
            .collect::<Vec<_>>()
    };
    let mut actual = Vec::new();
    for (model, engine, formulas) in GOLDEN_RUNS {
        let files = if model == "tmr" {
            &tmr_files[..]
        } else {
            &wavelan_files[..]
        };
        let mut args: Vec<&str> = files.iter().map(String::as_str).collect();
        args.extend([engine, "--json"]);
        let (stdout, stderr, code) = run_mrmc_code(&args, &(formulas.join("\n") + "\n"));
        // 0: all definite; 4: some verdict is unknown.
        assert!(matches!(code, Some(0 | 4)), "{model} {engine}: {stderr}");
        assert_eq!(stdout.lines().count(), formulas.len(), "{stdout}");
        for line in stdout.lines() {
            let body = line
                .strip_prefix("{\"elapsed_s\":")
                .and_then(|rest| rest.split_once(','))
                .unwrap_or_else(|| panic!("no timing prefix: {line}"))
                .1;
            actual.push(format!("{{{body}"));
        }
    }
    let golden = include_str!("golden/check_json.jsonl");
    let expected: Vec<&str> = golden.lines().collect();
    if actual != expected {
        // Keep the full run for diffing against the golden file.
        let dump = dir.with_extension("jsonl");
        std::fs::write(&dump, actual.join("\n") + "\n").unwrap();
        eprintln!("actual output written to {}", dump.display());
    }
    assert_eq!(actual.len(), expected.len(), "golden line count");
    for (i, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    std::fs::remove_dir_all(&dir).ok();
}
