//! The session/server conformance contract: checking through a
//! [`CheckSession`] — cold caches, hot caches, or over the JSONL wire —
//! is bit-for-bit identical to a fresh one-shot [`ModelChecker`] run.
//!
//! This is the load-bearing guarantee behind `mrmc serve`: every cache in
//! the session (memoized `Sat` sub-results, verified lumping
//! certificates, Omega-term tables) serves values that a fresh run would
//! recompute identically, so promoting the checker to a long-lived
//! service changes *when* work happens but never *what* comes out.
//! `CheckOutcome` derives `PartialEq` over satisfying sets, unknown sets,
//! probabilities, error bounds, and full error budgets, so the
//! comparisons below are exact.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use mrmc::report::json_outcome;
use mrmc::{CheckOptions, CheckOutcome, CheckSession, ModelChecker};
use mrmc_mrm::Mrm;
use mrmc_obs::json;
use mrmc_server::{Server, ServerConfig};

use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_models::wavelan::wavelan;

fn random_cfg() -> RandomMrmConfig {
    RandomMrmConfig {
        states: 6,
        extra_transitions_per_state: 1.0,
        max_rate: 2.0,
        reward_levels: vec![0.0, 1.0, 3.0],
        impulse_levels: vec![0.0, 0.5],
        goal_fraction: 0.3,
    }
}

fn paper_models() -> Vec<(&'static str, Mrm, Vec<&'static str>)> {
    vec![
        (
            "tmr",
            tmr(&TmrConfig::classic()),
            vec![
                "P(> 0.1) [TT U[0,1][0,10] failed]",
                "P(> 0.01) [allUp U[0,2] failed]",
                "S(> 0.5) (allUp)",
            ],
        ),
        (
            "cluster",
            cluster(&ClusterConfig::new(2)),
            vec![
                "P(>= 0.1) [TT U[0,1] down]",
                "P(>= 0.0) [backbone_up U[0,1][0,5] down]",
            ],
        ),
        (
            "wavelan",
            wavelan(),
            vec!["P(> 0.01) [TT U[0,0.5][0,2] busy]", "S(> 0.1) (idle)"],
        ),
    ]
}

fn one_shot(mrm: &Mrm, options: CheckOptions, formula: &str) -> CheckOutcome {
    ModelChecker::new(mrm.clone(), options)
        .check_str(formula)
        .unwrap_or_else(|e| panic!("one-shot `{formula}` failed: {e}"))
}

/// Check every formula twice through one session — caches cold, then hot
/// — asserting each result bitwise-equal to a fresh one-shot run, and that
/// the hot pass was actually served from the cache.
fn assert_session_conforms(name: &str, mrm: &Mrm, formulas: &[&str]) {
    let options = CheckOptions::new();
    let session = CheckSession::new();
    let handle = session.insert(mrm.clone());
    for pass in ["cold", "hot"] {
        let before = session.stats();
        for formula in formulas {
            let ctx = format!("model {name}, {pass}, `{formula}`");
            let expected = one_shot(mrm, options, formula);
            let got = session
                .check_str(&handle, formula, &options)
                .unwrap_or_else(|e| panic!("session check failed: {ctx}: {e}"));
            assert_eq!(expected, got, "session result differs: {ctx}");
        }
        let after = session.stats();
        if pass == "cold" {
            assert!(
                after.sat_cache_misses > before.sat_cache_misses,
                "cold pass must populate the cache: {name}"
            );
        } else {
            assert!(
                after.sat_cache_hits > before.sat_cache_hits,
                "hot pass must hit the cache: {name}"
            );
            assert_eq!(
                after.sat_cache_misses, before.sat_cache_misses,
                "hot pass must not recompute: {name}"
            );
        }
    }
}

#[test]
fn session_conforms_on_the_paper_models() {
    for (name, mrm, formulas) in paper_models() {
        assert_session_conforms(name, &mrm, &formulas);
    }
}

#[test]
fn session_conforms_on_32_random_models() {
    for seed in 0u64..32 {
        let m = random_mrm(seed, &random_cfg());
        assert_session_conforms(
            &format!("random{seed}"),
            &m,
            &["P(< 0.5) [TT U[0,1][0,4] goal]", "goal"],
        );
    }
}

fn write_model(dir: &std::path::Path, mrm: &Mrm) -> [std::path::PathBuf; 4] {
    use mrmc_mrm::io::{write_lab, write_rewi, write_rewr, write_tra};
    let paths = [
        dir.join("m.tra"),
        dir.join("m.lab"),
        dir.join("m.rewr"),
        dir.join("m.rewi"),
    ];
    std::fs::write(&paths[0], write_tra(mrm)).unwrap();
    std::fs::write(&paths[1], write_lab(mrm)).unwrap();
    std::fs::write(&paths[2], write_rewr(mrm)).unwrap();
    std::fs::write(&paths[3], write_rewi(mrm)).unwrap();
    paths
}

/// The mutate-and-recheck golden test: rewriting a model file with
/// different content (same path!) must yield fresh results — never a
/// stale memoized `Sat` entry or a stale lumping certificate — while the
/// original handle keeps answering with the original model's results.
#[test]
fn mutated_model_files_never_serve_stale_results() {
    // A diamond with twin mid states: lumpable (so the certificate cache
    // is exercised), and the formula's probabilities shift when a rate
    // changes (so staleness would be visible).
    let build = |rate: f64| {
        let mut b = mrmc_ctmc::CtmcBuilder::new(4);
        b.transition(0, 1, 1.0)
            .transition(0, 2, 1.0)
            .transition(1, 3, rate)
            .transition(2, 3, rate)
            .transition(3, 0, 0.5);
        b.label(0, "start")
            .label(1, "mid")
            .label(2, "mid")
            .label(3, "goal");
        Mrm::without_rewards(b.build().unwrap())
    };
    let dir = std::env::temp_dir().join(format!("mrmc-conf-mutate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let formulas = ["S(> 0.1) (goal)", "P(> 0.2) [TT U[0,1] goal]"];

    let session = CheckSession::new();
    let [tra, lab, rewr, rewi] = write_model(&dir, &build(2.0));
    let original = session.load_files(&tra, &lab, &rewr, &rewi).unwrap();
    let options = CheckOptions::new();
    let before: Vec<CheckOutcome> = formulas
        .iter()
        .map(|f| session.check_str(&original, f, &options).unwrap())
        .collect();

    // Same paths, different rates.
    write_model(&dir, &build(0.25));
    let mutated = session.load_files(&tra, &lab, &rewr, &rewi).unwrap();
    assert_ne!(original.content_hash(), mutated.content_hash());
    assert_eq!(session.stats().models_loaded, 2);

    for (i, formula) in formulas.iter().enumerate() {
        let fresh = one_shot(&build(0.25), options, formula);
        let via_session = session.check_str(&mutated, formula, &options).unwrap();
        assert_eq!(
            fresh, via_session,
            "mutated model must be rechecked from scratch: `{formula}`"
        );
        assert_ne!(
            before[i].probabilities(),
            via_session.probabilities(),
            "the mutation must actually change `{formula}` (or this test checks nothing)"
        );
        // The original handle still answers with the original results.
        assert_eq!(
            before[i],
            session.check_str(&original, formula, &options).unwrap(),
            "original handle contaminated: `{formula}`"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive a full JSONL conversation against an in-process server and
/// return the response lines.
fn talk(server_addr: &str, requests: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(server_addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    for r in requests {
        writer.write_all(r.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    BufReader::new(stream)
        .lines()
        .collect::<Result<_, _>>()
        .expect("read responses")
}

/// Server-mode batches are bitwise-identical to one-shot runs: each wire
/// response embeds exactly the `--json` object a one-shot CLI run would
/// print for the same model, formula, and options, with 1 and 4 server
/// workers.
#[test]
fn wire_batches_embed_the_one_shot_json_objects() {
    let dir = std::env::temp_dir().join(format!("mrmc-conf-wire-{}", std::process::id()));
    for workers in [1usize, 4] {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();

        let mut requests = Vec::new();
        let mut expected: Vec<(String, String)> = Vec::new();
        for (name, mrm, formulas) in paper_models() {
            let model_dir = dir.join(format!("{name}-{workers}"));
            std::fs::create_dir_all(&model_dir).unwrap();
            let [tra, lab, rewr, rewi] = write_model(&model_dir, &mrm);
            requests.push(format!(
                "{{\"load\":{{\"model\":\"{name}\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}",
                tra.display(),
                lab.display(),
                rewr.display(),
                rewi.display()
            ));
            for formula in formulas {
                let id = expected.len();
                requests.push(format!(
                    "{{\"check\":{{\"model\":\"{name}\",\"formula\":\"{formula}\"}},\"id\":{id}}}"
                ));
                expected.push((
                    format!("\"id\":{id},"),
                    json_outcome(formula, &one_shot(&mrm, CheckOptions::new(), formula), None),
                ));
            }
        }
        // Scoped server thread: the scope joins it structurally after the
        // conversation completes (it exits on its own via `run(Some(1))`).
        let responses = std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run(Some(1)));
            let responses = talk(&addr, &requests);
            handle.join().unwrap().unwrap();
            responses
        });

        let last = responses.last().expect("nonempty response stream");
        assert!(
            last.starts_with(&format!(
                "{{\"kind\":\"run_summary\",\"formulas\":{},\"failures\":0,\"elapsed_s\":",
                expected.len()
            )) && last.ends_with('}'),
            "malformed run_summary: {last}"
        );
        // Responses arrive in completion order; correlate by id. Each line
        // must END with the one-shot JSON object, byte for byte (only the
        // correlation prefix differs).
        for (id_tag, one_shot_line) in &expected {
            let line = responses
                .iter()
                .find(|l| l.contains(id_tag))
                .unwrap_or_else(|| panic!("no response for {id_tag}: {responses:#?}"));
            assert!(
                line.ends_with(&one_shot_line[1..]),
                "wire result differs from one-shot --json with {workers} workers:\n\
                 wire: {line}\none-shot: {one_shot_line}"
            );
            // And it is valid JSON as a whole.
            json::parse(line).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{line}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
