//! Concurrency soak for the live server: many JSONL clients, each
//! interleaving the same formula set in a different order, against one
//! shared [`mrmc::CheckSession`].
//!
//! The contract under load:
//!
//! * every client's answer for a formula is byte-identical to every other
//!   client's, regardless of interleaving (order-independence);
//! * the whole soak, re-run from a cold server, reproduces the exact same
//!   answer bytes (bitwise stability);
//! * `sat_cache_hits` observed through interleaved `stats` requests is
//!   monotone non-decreasing and ends positive (the shared cache is
//!   actually serving the repeated formulas);
//! * each connection ends with a clean `run_summary` counting its
//!   formulas and zero failures.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_obs::json;
use mrmc_server::{Server, ServerConfig};

const CLIENTS: usize = 4;
const ROUNDS: usize = 3;
const FORMULAS: [&str; 3] = [
    "P(> 0.1) [TT U[0,1][0,10] failed]",
    "P(> 0.01) [allUp U[0,2] failed]",
    "S(> 0.5) (allUp)",
];

fn write_model_files(dir: &Path) -> [std::path::PathBuf; 4] {
    use mrmc_mrm::io::{write_lab, write_rewi, write_rewr, write_tra};
    let m = tmr(&TmrConfig::classic());
    let paths = [
        dir.join("m.tra"),
        dir.join("m.lab"),
        dir.join("m.rewr"),
        dir.join("m.rewi"),
    ];
    std::fs::write(&paths[0], write_tra(&m)).unwrap();
    std::fs::write(&paths[1], write_lab(&m)).unwrap();
    std::fs::write(&paths[2], write_rewr(&m)).unwrap();
    std::fs::write(&paths[3], write_rewi(&m)).unwrap();
    paths
}

/// What one client observed: formula → answer bytes (with the
/// correlation prefix stripped), plus the `sat_cache_hits` and per-kind
/// latency-histogram counts seen through its interleaved `stats`
/// probes, in request order.
struct ClientView {
    answers: BTreeMap<String, String>,
    hits_seen: Vec<u64>,
    check_counts_seen: Vec<u64>,
}

fn stats_field(line: &str, field: &str) -> u64 {
    json::parse(line)
        .unwrap_or_else(|e| panic!("bad stats line: {e}\n{line}"))
        .get("stats")
        .and_then(|s| s.get(field))
        .and_then(json::Value::as_u64)
        .unwrap_or_else(|| panic!("stats line lacks {field}: {line}"))
}

/// The observation count of the per-request-kind latency histogram in a
/// `stats` reply, or 0 if no request of that kind has been timed yet.
fn latency_count(line: &str, kind: &str) -> u64 {
    json::parse(line)
        .unwrap_or_else(|e| panic!("bad stats line: {e}\n{line}"))
        .get("stats")
        .and_then(|s| s.get("latency"))
        .and_then(|l| l.get(kind))
        .and_then(|h| h.get("count"))
        .and_then(json::Value::as_u64)
        .unwrap_or(0)
}

/// Drive one client: load the model, then `ROUNDS` passes over the
/// formula set rotated by the client index (so every client interleaves
/// differently), with a `stats` probe after each pass.
fn run_client(addr: &str, client: usize, paths: &[std::path::PathBuf; 4]) -> ClientView {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut send = |line: String| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    };

    send(format!(
        "{{\"load\":{{\"model\":\"tmr\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}",
        paths[0].display(),
        paths[1].display(),
        paths[2].display(),
        paths[3].display()
    ));
    let mut id_to_formula = BTreeMap::new();
    for round in 0..ROUNDS {
        for slot in 0..FORMULAS.len() {
            let formula = FORMULAS[(slot + client) % FORMULAS.len()];
            let id = round * FORMULAS.len() + slot;
            id_to_formula.insert(id as u64, formula.to_string());
            send(format!(
                "{{\"check\":{{\"model\":\"tmr\",\"formula\":\"{formula}\"}},\"id\":{id}}}"
            ));
        }
        send("{\"stats\":true}".to_string());
    }
    writer.flush().unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();

    let mut view = ClientView {
        answers: BTreeMap::new(),
        hits_seen: Vec::new(),
        check_counts_seen: Vec::new(),
    };
    let mut summary = None;
    for line in BufReader::new(stream).lines() {
        let line = line.expect("read response");
        if line.starts_with("{\"stats\":") {
            view.hits_seen.push(stats_field(&line, "sat_cache_hits"));
            view.check_counts_seen.push(latency_count(&line, "check"));
        } else if line.starts_with("{\"kind\":\"run_summary\"") {
            summary = Some(line);
        } else if line.starts_with("{\"id\":") {
            let parsed = json::parse(&line).unwrap();
            let id = parsed.get("id").and_then(json::Value::as_u64).unwrap();
            let formula = &id_to_formula[&id];
            // Strip the correlation prefix (which carries the wall-clock
            // `elapsed_s` and so differs between runs); the remainder,
            // from the `formula` key on, is the answer object all clients
            // must agree on, byte for byte.
            let idx = line
                .find("\"formula\":")
                .unwrap_or_else(|| panic!("unexpected response framing: {line}"));
            let body = &line[idx..];
            if let Some(previous) = view.answers.get(formula) {
                assert_eq!(
                    previous, body,
                    "client {client} got two different answers for `{formula}`"
                );
            }
            view.answers.insert(formula.clone(), body.to_string());
        } else if !line.starts_with("{\"loaded\":") {
            panic!("unexpected response line: {line}");
        }
    }
    let summary = summary.unwrap_or_else(|| panic!("client {client} got no run_summary"));
    let expected_prefix = format!(
        "{{\"kind\":\"run_summary\",\"formulas\":{},\"failures\":0,\"elapsed_s\":",
        ROUNDS * FORMULAS.len()
    );
    assert!(
        summary.starts_with(&expected_prefix),
        "client {client} must end with a clean run_summary: {summary}"
    );
    assert!(
        view.hits_seen.windows(2).all(|w| w[0] <= w[1]),
        "client {client} saw sat_cache_hits decrease: {:?}",
        view.hits_seen
    );
    assert!(
        view.check_counts_seen.windows(2).all(|w| w[0] <= w[1]),
        "client {client} saw the check-latency histogram count decrease: {:?}",
        view.check_counts_seen
    );
    view
}

/// One full soak from a cold server; returns the agreed formula → answer
/// map after asserting every client observed the same answers.
fn run_soak(dir: &Path) -> BTreeMap<String, String> {
    let paths = write_model_files(dir);
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    // One enclosing scope owns every thread of the soak: the server
    // (with one extra connection slot for the post-soak stats probe),
    // the clients in their own inner scope, and the structural joins.
    let (views, stats_line) = std::thread::scope(|outer| {
        let server_thread = outer.spawn(|| server.run(Some(CLIENTS + 1)));
        let views: Vec<ClientView> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let addr = addr.clone();
                    let paths = &paths;
                    scope.spawn(move || run_client(&addr, client, paths))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // With every check drained, a fresh connection's stats probe must
        // see the shared cache's hits: 4 clients x 3 rounds of 3 formulas
        // ran only 3 distinct jobs, so most dispatches were served from
        // the cache. The in-flight probes above may race the jobs; this
        // one cannot.
        let stream = TcpStream::connect(&addr).expect("connect for stats");
        stream
            .try_clone()
            .unwrap()
            .write_all(b"{\"stats\":true}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let stats_line = BufReader::new(stream)
            .lines()
            .map(|l| l.unwrap())
            .find(|l| l.starts_with("{\"stats\":"))
            .expect("stats response");
        server_thread.join().unwrap().unwrap();
        (views, stats_line)
    });
    assert!(
        stats_field(&stats_line, "sat_cache_hits") > 0,
        "the soak produced no sat-cache hits; the session cache is not shared: {stats_line}"
    );

    let agreed = views[0].answers.clone();
    assert_eq!(agreed.len(), FORMULAS.len());
    for (client, view) in views.iter().enumerate().skip(1) {
        assert_eq!(
            agreed, view.answers,
            "client {client} disagrees with client 0 despite a different interleaving"
        );
    }
    agreed
}

#[test]
fn concurrent_clients_agree_and_repeat_runs_are_bitwise_stable() {
    let dir = std::env::temp_dir().join(format!("mrmc-soak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let first = run_soak(&dir);
    let second = run_soak(&dir);
    assert_eq!(
        first, second,
        "a cold re-run of the soak produced different answer bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}
