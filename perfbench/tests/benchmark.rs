//! The benchmark definition and its workloads: `BENCHMARK.json` is
//! well-formed and matches what `perf` emits, generators are seeded, and
//! a smoke-scale run of every workload reports every declared metric
//! with no failed operation.

use std::path::PathBuf;

use mrmc_obs::json::{self, Value};
use mrmc_perfbench::inproc::Spec;
use mrmc_perfbench::{
    cluster, paper, run, serve, RunConfig, ServerMode, Workload, END_TO_END, PER_LAYER,
};

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("`{key}` must be an array, found {other:?}"),
    }
}

fn str_field<'a>(item: &'a Value, key: &str) -> &'a str {
    item.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {item:?}"))
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn keys(item: &Value) -> Vec<&str> {
    match item {
        Value::Obj(map) => map.keys().map(String::as_str).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn benchmark_json_is_well_formed_and_matches_the_code() {
    let doc = benchmark_json();
    let mut top = keys(&doc);
    top.sort_unstable();
    assert_eq!(
        top,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = array(&doc, "workloads");
    let end_to_end = array(&doc, "end_to_end");
    let per_layer = array(&doc, "per_layer");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));

    let mut names = Vec::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        assert!(!str_field(w, "why").contains('\n'));
        names.push(str_field(w, "name"));
    }
    let declared: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, declared, "workloads must match Workload::ALL");

    let mut largest_other_bound = 0.0_f64;
    let mut setup_bound = None;
    for m in end_to_end {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .expect("numeric bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        let name = str_field(m, "name");
        if name == "setup_s" {
            assert_eq!(
                (str_field(m, "unit"), str_field(m, "better")),
                ("s", "lower")
            );
            setup_bound = Some(bound);
        } else {
            largest_other_bound = largest_other_bound.max(bound);
        }
        names.push(name);
    }
    let setup_bound = setup_bound.expect("setup_s is declared");
    assert!(
        setup_bound >= largest_other_bound,
        "setup_s must have the largest bound"
    );
    let pairs = |items: &[Value]| -> Vec<(String, String)> {
        items
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").to_string(),
                    str_field(m, "unit").to_string(),
                )
            })
            .collect()
    };
    let code = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(pairs(end_to_end), code(END_TO_END));
    assert_eq!(pairs(per_layer), code(PER_LAYER));

    for m in per_layer {
        assert_eq!(keys(m), ["better", "name", "unit"]);
        names.push(str_field(m, "name"));
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(
            ["lower", "higher"].contains(&str_field(m, "better")),
            "{m:?}"
        );
        let unit = str_field(m, "unit");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for (i, name) in names.iter().enumerate() {
        assert!(is_name(name), "`{name}` is not a valid name");
        assert!(!names[..i].contains(name), "`{name}` is used twice");
    }

    let paths = array(&doc, "paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("perfbench"));
    let command: Vec<&str> = array(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["python3", "perfbench/run.py"]);
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn config(name: &str, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.0,
        smoke: true,
        work_dir: scratch(&format!("{name}-work")),
        trace_dir: trace.then(|| scratch(&format!("{name}-trace"))),
        server: ServerMode::InProcess,
    }
}

#[test]
fn generators_are_seeded() {
    let formulas = |spec: Spec| -> Vec<String> {
        spec.ops
            .into_iter()
            .map(|op| op.formula + &op.label)
            .collect()
    };
    for (name, generate) in [
        (
            "paper-uniformization",
            paper::uniformization as fn(&RunConfig) -> Result<Spec, String>,
        ),
        ("paper-discretization", paper::discretization),
        ("cluster-analysis", cluster::workload),
    ] {
        let mut c = config(&format!("seeded-{name}"), 1, false);
        c.smoke = false;
        std::fs::create_dir_all(&c.work_dir).unwrap();
        let one = formulas(generate(&c).unwrap());
        let again = formulas(generate(&c).unwrap());
        c.seed = 2;
        let two = formulas(generate(&c).unwrap());
        assert_eq!(one, again, "{name}: same seed, same workload");
        assert_ne!(one, two, "{name}: another seed, another workload");
        let (mut a, mut b) = (one.clone(), two.clone());
        if name.starts_with("paper") {
            // Only the order changes: the paper's rows are fixed.
            a.sort();
            b.sort();
            assert_eq!(a, b, "{name}: the seed permutes the same rows");
        }
        std::fs::remove_dir_all(&c.work_dir).unwrap();
    }
    assert_eq!(serve::generate(1, 2), serve::generate(1, 2));
    assert_ne!(serve::generate(1, 2), serve::generate(2, 2));
}

fn smoke(workload: Workload, trace: bool) {
    let c = config(&format!("smoke-{}-{trace}", workload.name()), 7, trace);
    let result = run(workload, &c).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(
        result.failed,
        0,
        "{}: {:?}",
        workload.name(),
        result.failures
    );
    assert!(result.attempted > 0);
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let emitted: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(emitted, declared, "{}", workload.name());
    for m in &result.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
        if !trace {
            assert!(
                m.value > 0.0,
                "{}: {} must never read 0",
                workload.name(),
                m.name
            );
        }
    }
    let line = json::parse(&result.to_json()).expect("the result line is JSON");
    assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
    assert!(!c.work_dir.exists(), "the run removes its scratch files");
    if let Some(dir) = &c.trace_dir {
        for file in ["spans.jsonl", "layers.txt"] {
            assert!(dir.join(file).is_file(), "{}: no {file}", workload.name());
        }
    }
}

#[test]
fn paper_uniformization_smoke() {
    smoke(Workload::PaperUniformization, false);
    smoke(Workload::PaperUniformization, true);
}

#[test]
fn paper_discretization_smoke() {
    smoke(Workload::PaperDiscretization, false);
    smoke(Workload::PaperDiscretization, true);
}

#[test]
fn cluster_analysis_smoke() {
    smoke(Workload::ClusterAnalysis, false);
    smoke(Workload::ClusterAnalysis, true);
}

#[test]
fn serve_mixed_smoke_against_an_in_process_server() {
    smoke(Workload::ServeMixed, false);
    smoke(Workload::ServeMixed, true);
}
