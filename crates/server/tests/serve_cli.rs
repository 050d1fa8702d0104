//! End-to-end tests of the `mrmc serve` / `mrmc batch` subcommands as
//! real processes over a loopback socket — the deployment shape the CI
//! serve-smoke job exercises.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mrmc-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn write_tmr_like_model(dir: &std::path::Path) -> [std::path::PathBuf; 4] {
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

/// Start `mrmc serve` on an ephemeral port and return the child plus the
/// address announced on its first stdout line.
fn spawn_server(connections: usize, workers: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            &workers.to_string(),
            "--connections",
            &connections.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().unwrap())
        .read_line(&mut line)
        .expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("{\"listening\":\"")
        .and_then(|l| l.strip_suffix("\"}"))
        .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
        .to_string();
    (child, addr)
}

fn run_batch(addr: &str, stdin_text: &str) -> (Vec<String>, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mrmc"))
        .args(["batch", addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("batch starts");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin_text.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    (lines, out.status.code())
}

#[test]
fn serve_then_batch_roundtrip_with_cache_hits() {
    let dir = temp_dir("roundtrip");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    // One worker serializes the two identical checks, so the second is
    // guaranteed to be served from the session's sat cache.
    let (mut server, addr) = spawn_server(2, 1);

    // Load once, check the same formula twice, and let EOF seal the batch
    // with a run_summary.
    let requests = format!(
        "{{\"load\":{{\"model\":\"m\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"S(> 0.5) (up)\"}},\"id\":1}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"S(> 0.5) (up)\"}},\"id\":2}}\n",
        tra.display(),
        lab.display(),
        rewr.display(),
        rewi.display()
    );
    let (lines, code) = run_batch(&addr, &requests);
    assert_eq!(code, Some(0), "batch failed: {lines:#?}");
    assert!(
        lines[0].starts_with("{\"loaded\":\"m\",\"states\":3,\"transitions\":4,"),
        "{lines:#?}"
    );
    assert!(
        lines.last().is_some_and(|l| l
            .starts_with("{\"kind\":\"run_summary\",\"formulas\":2,\"failures\":0,\"elapsed_s\":")),
        "{lines:#?}"
    );
    // Both checks answered, byte-identical apart from the correlation
    // prefix (id and per-request elapsed_s).
    let answer = |id: &str| {
        let line = lines
            .iter()
            .find(|l| l.starts_with(&format!("{{\"id\":{id},")))
            .unwrap_or_else(|| panic!("no answer for id {id}: {lines:#?}"));
        let idx = line
            .find("\"formula\":")
            .unwrap_or_else(|| panic!("unexpected framing: {line}"));
        line[idx..].to_string()
    };
    assert_eq!(answer("1"), answer("2"));
    assert!(answer("1").contains("\"formula\":\"S(> 0.5) (up)\""));

    // Second connection, after the first batch fully drained: the session
    // counters must show the repeated formula hitting the cache. (A probe
    // inside the first batch would race the check jobs — stats requests
    // are answered in line order, checks in completion order.)
    let (stats_lines, stats_code) = run_batch(&addr, "{\"stats\":true}\n");
    assert_eq!(stats_code, Some(0), "{stats_lines:#?}");
    let stats = stats_lines
        .iter()
        .find(|l| l.starts_with("{\"stats\":"))
        .expect("stats response");
    let hits: u64 = stats
        .split("\"sat_cache_hits\":")
        .nth(1)
        .and_then(|v| v.split(',').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no hit counter in {stats}"));
    assert!(hits > 0, "repeated formula did not hit the cache: {stats}");

    let status = server
        .wait()
        .expect("server exits after its last connection");
    assert!(status.success(), "serve exited nonzero");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_reports_failures_in_exit_code() {
    let dir = temp_dir("failures");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (mut server, addr) = spawn_server(1, 2);

    let requests = format!(
        "{{\"load\":{{\"model\":\"m\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"S(> 0.5) (up)\"}},\"id\":1}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"this is not CSRL\"}},\"id\":2}}\n\
         {{\"check\":{{\"model\":\"absent\",\"formula\":\"up\"}},\"id\":3}}\n",
        tra.display(),
        lab.display(),
        rewr.display(),
        rewi.display()
    );
    let (lines, code) = run_batch(&addr, &requests);
    // The healthy check still answers; the two failures are reported in
    // the summary and surface as the batch's nonzero exit.
    assert_eq!(code, Some(1), "{lines:#?}");
    assert!(
        lines.iter().any(|l| l.starts_with("{\"id\":1,")),
        "{lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"id\":2,") && l.contains("\"error\"")),
        "{lines:#?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("no model loaded under the ref `absent`")),
        "{lines:#?}"
    );
    assert!(
        lines.last().is_some_and(|l| l
            .starts_with("{\"kind\":\"run_summary\",\"formulas\":2,\"failures\":2,\"elapsed_s\":")),
        "{lines:#?}"
    );
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_threads_option_is_an_error_reply_and_the_connection_keeps_serving() {
    let dir = temp_dir("removed-option");
    let [tra, lab, rewr, rewi] = write_tmr_like_model(&dir);
    let (mut server, addr) = spawn_server(1, 1);

    let requests = format!(
        "{{\"load\":{{\"model\":\"m\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"S(> 0.5) (up)\",\"options\":{{\"threads\":4}}}},\"id\":1}}\n\
         {{\"check\":{{\"model\":\"m\",\"formula\":\"S(> 0.5) (up)\"}},\"id\":2}}\n",
        tra.display(),
        lab.display(),
        rewr.display(),
        rewi.display()
    );
    let (lines, code) = run_batch(&addr, &requests);
    assert_eq!(code, Some(1), "{lines:#?}");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("unrecognized option `threads`")
                && l.contains("\"error_kind\":\"request\"")),
        "{lines:#?}"
    );
    // The rejected request does not end the conversation.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("{\"id\":2,") && !l.contains("\"error\"")),
        "{lines:#?}"
    );
    let summary = lines.last().expect("nonempty response stream");
    assert!(
        summary.starts_with("{\"kind\":\"run_summary\",") && summary.contains("\"failures\":1,"),
        "{lines:#?}"
    );
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_loop_round_trips_do_not_wait_on_delayed_acks() {
    // A reply written in two pieces (the line, then its newline) leaves
    // the one-byte tail waiting for the client's delayed ACK, about 40 ms
    // per round trip. One write per reply keeps a stats round trip well
    // under that.
    let (mut server, addr) = spawn_server(1, 1);
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut round_trips = Vec::new();
    for _ in 0..20 {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test asserts on round-trip wall time"
        )]
        let started = std::time::Instant::now();
        writer.write_all(b"{\"stats\":true}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        round_trips.push(started.elapsed());
        assert!(line.starts_with("{\"stats\":"), "{line}");
    }
    writer.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    while reader.read_line(&mut rest).unwrap() > 0 {}
    assert!(rest.contains("\"kind\":\"run_summary\""), "{rest}");
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(20),
        "median stats round trip {median:?}: {round_trips:?}"
    );
    assert!(server.wait().unwrap().success());
}
