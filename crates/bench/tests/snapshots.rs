//! Schema validation for the committed `BENCH_*.json` snapshots at the
//! repository root. The snapshot pairs are part of the repo's perf
//! record (`crates/bench/README.md`): a snapshot that lost its work
//! counters can no longer explain a wall-clock delta, and a malformed
//! one silently breaks the comparison tooling. CI used to grep for the
//! required keys; this test parses the files properly (with the same
//! minimal RFC 8259 parser the server uses) and checks the shape
//! structurally.

use std::path::Path;

use mrmc_obs::json::{self, Value};

const SNAPSHOTS: &[&str] = &[
    "BENCH_kernels.json",
    "BENCH_kernels_baseline.json",
    "BENCH_adaptive.json",
    "BENCH_adaptive_baseline.json",
    "BENCH_dataflow.json",
    "BENCH_dataflow_baseline.json",
    "BENCH_server.json",
    "BENCH_server_baseline.json",
];

fn load(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed snapshot {name} must exist: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e:?}"))
}

fn benchmarks(doc: &Value, name: &str) -> Vec<Value> {
    let Some(Value::Arr(benches)) = doc.get("benchmarks") else {
        panic!("{name}: no benchmarks array");
    };
    assert!(!benches.is_empty(), "{name}: benchmarks array is empty");
    benches.clone()
}

#[test]
fn every_committed_snapshot_has_the_envelope_shape() {
    for name in SNAPSHOTS {
        let doc = load(name);
        assert!(
            doc.get("group").and_then(Value::as_str).is_some(),
            "{name}: no group key"
        );
        for bench in benchmarks(&doc, name) {
            let id = bench
                .get("id")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{name}: benchmark without an id"));
            assert!(
                bench.get("samples").and_then(Value::as_u64).unwrap_or(0) > 0,
                "{name}/{id}: samples must be a positive integer"
            );
            for key in ["min_s", "median_s", "mean_s"] {
                let v = bench
                    .get(key)
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("{name}/{id}: no {key} sample"));
                assert!(
                    v.is_finite() && v > 0.0,
                    "{name}/{id}: {key} = {v} is not a positive finite time"
                );
            }
            // Timing order is a hard invariant of the sampler.
            let min = bench.get("min_s").and_then(Value::as_f64).unwrap();
            let median = bench.get("median_s").and_then(Value::as_f64).unwrap();
            assert!(
                min <= median,
                "{name}/{id}: min_s {min} exceeds median_s {median}"
            );
            // Benchmarks without work counters write `"metrics": null`;
            // anything else must be a real object.
            if let Some(metrics) = bench.get("metrics") {
                assert!(
                    matches!(metrics, Value::Obj(_) | Value::Null),
                    "{name}/{id}: metrics is neither an object nor null"
                );
            }
        }
    }
}

/// The adaptive pair exists to explain engine-selection deltas: its
/// work-counter story hinges on `omega_requests` and the free-form
/// counters map.
#[test]
fn adaptive_snapshots_carry_omega_work_counters() {
    for name in ["BENCH_adaptive.json", "BENCH_adaptive_baseline.json"] {
        let doc = load(name);
        for bench in benchmarks(&doc, name) {
            let metrics = bench.get("metrics").expect("envelope test covers this");
            assert!(
                metrics
                    .get("omega_requests")
                    .and_then(Value::as_u64)
                    .is_some(),
                "{name}: no omega_requests counter"
            );
            assert!(
                matches!(metrics.get("counters"), Some(Value::Obj(_))),
                "{name}: no counters object"
            );
        }
    }
}

/// The sliced half of the dataflow pair must carry the pre-pass
/// counters that justify its smaller solver counts.
#[test]
fn dataflow_snapshot_carries_qualitative_prepass_counters() {
    let doc = load("BENCH_dataflow.json");
    let mut seen = false;
    for bench in benchmarks(&doc, "BENCH_dataflow.json") {
        let Some(counters) = bench.get("metrics").and_then(|m| m.get("counters")) else {
            continue;
        };
        for key in [
            "slice_states_removed",
            "qual_zero_states",
            "qual_one_states",
            "scc_count",
        ] {
            assert!(
                counters.get(key).and_then(Value::as_u64).is_some(),
                "BENCH_dataflow.json: no {key} counter"
            );
        }
        seen = true;
    }
    assert!(
        seen,
        "BENCH_dataflow.json: no benchmark carries the qualitative counters map"
    );
}

/// The committed regression pairs must pass the perf sentinel with the
/// CI gate's default tolerances — this is the same comparison the
/// `bench-diff` CI job runs via `mrmc bench diff`. The dataflow pair is
/// excluded: it is a record of what slicing prunes, not a gate — its
/// `_baseline` file is the slicing-off half of one ablation run (its own
/// group name), not a frozen run of the same configuration.
#[test]
fn committed_pairs_pass_the_regression_sentinel() {
    use mrmc_bench::diff::{diff_files, DiffOptions};
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (current, baseline) in [
        ("BENCH_kernels.json", "BENCH_kernels_baseline.json"),
        ("BENCH_adaptive.json", "BENCH_adaptive_baseline.json"),
        ("BENCH_server.json", "BENCH_server_baseline.json"),
    ] {
        let report = diff_files(
            &root.join(current),
            &root.join(baseline),
            DiffOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{current} vs {baseline}: {e}"));
        assert!(
            !report.has_regressions(),
            "{current} regressed against {baseline}:\n{}",
            report.render_human()
        );
    }
}

/// Baselines pair with their counterparts benchmark by benchmark — a
/// renamed id silently breaks the perf comparison. A snapshot may gain
/// benchmarks after its baseline was frozen, so the requirement is
/// one-directional: every baseline id must still exist in the current
/// snapshot.
#[test]
fn every_baseline_benchmark_still_exists_in_its_snapshot() {
    for (current, baseline) in [
        ("BENCH_kernels.json", "BENCH_kernels_baseline.json"),
        ("BENCH_adaptive.json", "BENCH_adaptive_baseline.json"),
        ("BENCH_dataflow.json", "BENCH_dataflow_baseline.json"),
        ("BENCH_server.json", "BENCH_server_baseline.json"),
    ] {
        let ids = |name: &str| -> Vec<String> {
            let doc = load(name);
            benchmarks(&doc, name)
                .iter()
                .filter_map(|b| b.get("id").and_then(Value::as_str).map(str::to_string))
                .collect()
        };
        let current_ids = ids(current);
        let orphaned: Vec<String> = ids(baseline)
            .into_iter()
            .filter(|id| !current_ids.contains(id))
            .collect();
        assert!(
            orphaned.is_empty(),
            "{baseline} has benchmarks missing from {current}: {orphaned:?}"
        );
    }
}
