//! Checker-as-a-service: a JSONL batch server over a shared
//! [`CheckSession`].
//!
//! `mrmc serve` turns the one-shot CLI into a long-lived daemon: clients
//! connect over TCP (loopback by default), stream newline-delimited JSON
//! requests, and receive one JSON response line per request. All
//! connections share one [`CheckSession`], so models are loaded once per
//! distinct content and memoized `Sat` sub-results, verified lumping
//! certificates, and Omega-term tables accumulate across requests,
//! clients, and models. Checks execute on a scoped worker pool; the
//! per-request result objects are exactly the CLI's `--json` objects
//! (rendered by [`mrmc::report`]), so a server-mode batch is bit-for-bit
//! comparable to one-shot runs.
//!
//! # Wire protocol
//!
//! Requests, one JSON object per line:
//!
//! * `{"load": {"model": "m1", "tra": P, "lab": P, "rewr": P, "rewi": P}}` —
//!   register the model files under the ref `"m1"`. Answered in line
//!   order with `{"loaded": "m1", "states": N, "transitions": T,
//!   "model_hash": "…"}`. Reloading re-reads the files: unchanged bytes
//!   reuse the session entry, changed bytes get a fresh one (stale cached
//!   results can never be served).
//! * `{"check": {"model": "m1", "formula": F, "options": {…}}, "id": X}` —
//!   check formula `F` against the model registered as `"m1"`. Dispatched
//!   to the worker pool; the response is the CLI `--json` outcome (or
//!   error) object with `"id"` (echoed verbatim) and `"model"` prepended.
//!   Responses arrive in *completion* order — use `"id"` to correlate.
//!   `options` accepts `engine` (`"u=1e-8"` / `"d=0.05"` / `"s=10000"`),
//!   `tolerance`, `no_reduction`, and `metrics` (embed the per-request
//!   metrics object, whose counters are this check's own increments).
//! * `{"stats": true}` — answered in line order with the session's
//!   lifetime cache counters (`sat_cache_hits`, `sat_cache_misses`,
//!   `cert_cache_hits`, `models_loaded`, `omega_cache_hits`, …), each
//!   monotone over the server's lifetime, followed by the latency
//!   observability fields: `uptime_s`, `sat_hit_ratio`, and a `latency`
//!   object holding one log2-bucketed wall-time histogram per request
//!   kind (`check`, `load`, `stats`, `metrics`).
//! * `{"metrics": true}` — answered in line order with
//!   `{"metrics": "<text>"}` where `<text>` is a Prometheus-style text
//!   exposition of the same counters and latency histograms
//!   (`mrmc_sat_cache_hits`, `mrmc_uptime_seconds`,
//!   `mrmc_request_seconds_bucket{kind="check",le="…"}`, …).
//!
//! Every `check` response carries an `elapsed_s` field in its correlation
//! prefix (wall seconds the check spent in a worker); the result object
//! that follows is still byte-identical to the one-shot CLI line.
//! Requests slower than [`ServerConfig::slow_request_s`] are logged to
//! stderr. All timing is observation-only: results never depend on it.
//!
//! Malformed lines are answered with `{"error": …, "error_kind":
//! "request"}` and counted as failures. When the client closes its write
//! half, the server drains that connection's in-flight checks and ends
//! the response stream with `{"kind": "run_summary", "formulas": N,
//! "failures": M, "elapsed_s": S}` — the terminal record a `--trace`
//! stream ends with, plus the connection's wall time — then closes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The request path and the JSON codec it feeds answer bad input with an
// error reply, never a panic. `allow-{unwrap,expect,panic}-in-tests` in
// `clippy.toml` exempts the tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, LockResult, Mutex};
use std::time::Instant;

use mrmc::report;
use mrmc::{
    CheckError, CheckOptions, CheckSession, ModelHandle, Reduction, SessionStats, UntilEngine,
};
use mrmc_obs::json::{self, Value};
use mrmc_obs::{Histogram, MetricsRecorder, Recorder};

/// How many checks may run concurrently across all connections, and when
/// a request counts as slow.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing check requests (at least 1).
    pub workers: usize,
    /// Requests slower than this many wall-clock seconds are logged to
    /// stderr (the slow-request log). Non-positive disables the log.
    pub slow_request_s: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            slow_request_s: 1.0,
        }
    }
}

/// Cross-connection latency observability: the server start time (for
/// `uptime_s`), the slow-request threshold, and one log2-bucketed
/// wall-time histogram per request kind, shared by every connection and
/// worker. Purely additive — nothing here feeds back into results.
#[derive(Debug)]
struct ServerObs {
    start: Instant,
    slow_request_s: f64,
    latency: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl ServerObs {
    fn new(slow_request_s: f64) -> Self {
        ServerObs {
            #[expect(
                clippy::disallowed_methods,
                reason = "uptime anchor for the stats reply; observability-only"
            )]
            start: Instant::now(),
            slow_request_s,
            latency: Mutex::new(BTreeMap::new()),
        }
    }

    /// Seconds since the server was bound.
    fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Fold one serviced request into its kind's latency histogram and
    /// log it to stderr when it breached the slow-request threshold.
    fn observe(&self, kind: &'static str, seconds: f64, detail: &str) {
        if self.slow_request_s > 0.0 && seconds >= self.slow_request_s {
            if detail.is_empty() {
                eprintln!("mrmc serve: slow request: {kind} took {seconds:.3}s");
            } else {
                eprintln!("mrmc serve: slow request: {kind} `{detail}` took {seconds:.3}s");
            }
        }
        let mut latency = unpoison(self.latency.lock());
        latency.entry(kind).or_default().observe_seconds(seconds);
    }

    /// The per-kind latency map as a JSON object; BTreeMap keeps the kind
    /// order fixed, and each histogram renders in its documented shape.
    fn latency_json(&self) -> String {
        let latency = unpoison(self.latency.lock());
        let mut out = String::from("{");
        for (i, (kind, hist)) in latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{kind}\":{}", hist.to_json()));
        }
        out.push('}');
        out
    }

    /// The Prometheus-style text exposition for the `metrics` request:
    /// the session counters ([`SessionStats::counters`]), the uptime
    /// gauge, and the per-kind request-latency histograms.
    fn exposition(&self, stats: &SessionStats) -> String {
        let mut out = String::new();
        for (name, value) in stats.counters() {
            out.push_str(&format!(
                "# TYPE mrmc_{name} counter\nmrmc_{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# TYPE mrmc_uptime_seconds gauge\nmrmc_uptime_seconds {:e}\n",
            self.uptime_s()
        ));
        out.push_str("# TYPE mrmc_request_seconds histogram\n");
        let latency = unpoison(self.latency.lock());
        for (kind, hist) in latency.iter() {
            hist.write_prometheus(&mut out, "mrmc_request_seconds", &[("kind", kind)]);
        }
        out
    }
}

/// A bound, not-yet-running batch server. See the crate docs for the
/// wire protocol.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    session: Arc<CheckSession>,
    workers: usize,
    obs: Arc<ServerObs>,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) with a fresh
    /// session.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            session: Arc::new(CheckSession::new()),
            workers: config.workers.max(1),
            obs: Arc::new(ServerObs::new(config.slow_request_s)),
        })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared session (for in-process inspection in tests).
    pub fn session(&self) -> &Arc<CheckSession> {
        &self.session
    }

    /// Serve connections until `connections` have been accepted and fully
    /// drained (`None`: forever). Workers and per-connection readers run
    /// on a scoped pool; the call returns only when every response,
    /// including each connection's `run_summary`, has been written.
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures; per-connection I/O errors only
    /// terminate that connection.
    pub fn run(&self, connections: Option<usize>) -> std::io::Result<()> {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                let rx = rx.clone();
                scope.spawn(move || worker_loop(&rx));
            }
            let mut accepted = 0usize;
            let result = loop {
                if connections == Some(accepted) {
                    break Ok(());
                }
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(e),
                };
                // Replies are small and written whole; Nagle would only
                // hold each one back for the client's delayed ACK.
                let _ = stream.set_nodelay(true);
                accepted += 1;
                let session = self.session.clone();
                let obs = self.obs.clone();
                let tx = tx.clone();
                scope.spawn(move || {
                    // A connection dropping mid-stream is the client's
                    // problem, not the server's.
                    let _ = serve_connection(&session, &obs, &tx, stream);
                });
            };
            // Readers hold their own sender clones; once they finish and
            // this one drops, the workers' `recv` fails and they exit.
            drop(tx);
            result
        })
    }
}

/// One check dispatched to the worker pool.
struct Job {
    session: Arc<CheckSession>,
    model: ModelHandle,
    model_ref: String,
    /// The request's `id`, re-rendered verbatim into the response.
    id: Option<Value>,
    formula: String,
    options: CheckOptions,
    metrics: bool,
    conn: Arc<ConnState>,
    obs: Arc<ServerObs>,
}

/// Per-connection shared state: the response writer plus in-flight
/// accounting for the end-of-stream `run_summary`.
struct ConnState {
    writer: Mutex<TcpStream>,
    pending: Mutex<usize>,
    idle: Condvar,
    formulas: AtomicU64,
    failures: AtomicU64,
    started: Instant,
}

impl ConnState {
    fn new(stream: TcpStream) -> Self {
        ConnState {
            writer: Mutex::new(stream),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            formulas: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            #[expect(
                clippy::disallowed_methods,
                reason = "feeds the run_summary `elapsed_s` field only"
            )]
            started: Instant::now(),
        }
    }

    /// Write one response line atomically: the reply and its newline go
    /// out in one `write_all`, so no lone trailing byte waits on the
    /// peer's delayed ACK.
    fn write_line(&self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut w = unpoison(self.writer.lock());
        let _ = w.write_all(&buf);
        let _ = w.flush();
    }

    fn job_queued(&self) {
        *unpoison(self.pending.lock()) += 1;
    }

    fn job_done(&self) {
        let mut pending = unpoison(self.pending.lock());
        *pending -= 1;
        if *pending == 0 {
            self.idle.notify_all();
        }
    }

    /// Block until every dispatched job for this connection completed.
    fn wait_idle(&self) {
        let mut pending = unpoison(self.pending.lock());
        while *pending > 0 {
            pending = unpoison(self.idle.wait(pending));
        }
    }
}

/// The guard behind a lock or condvar result. A lock is poisoned only if
/// a holder panicked, and nothing short of dropping the connection
/// recovers from that, so poison still panics.
fn unpoison<G>(r: LockResult<G>) -> G {
    #[expect(
        clippy::expect_used,
        reason = "poisoned only if a holder panicked; no recovery short of dropping the connection"
    )]
    r.expect("lock poisoned")
}

fn worker_loop(rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        // Hold the lock only while receiving, not while checking.
        let Ok(job) = unpoison(rx.lock()).recv() else {
            return;
        };
        let line = execute(&job);
        job.conn.write_line(&line);
        job.conn.job_done();
    }
}

/// Run one check and render its response line. The wall time the check
/// spends here becomes the response's `elapsed_s` correlation field and
/// a `check` latency observation; it never influences the result object.
fn execute(job: &Job) -> String {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time feeds the latency histogram and the `elapsed_s` field, never the result"
    )]
    let started = Instant::now();
    let metrics = job.metrics.then(|| Arc::new(MetricsRecorder::new()));
    let check = || {
        job.session
            .check_str(&job.model, &job.formula, &job.options)
    };
    let result = match &metrics {
        Some(m) => {
            let recorder: Arc<dyn Recorder> = m.clone();
            mrmc_obs::with_recorder(recorder, check)
        }
        None => check(),
    };
    let snapshot = metrics.as_deref().map(MetricsRecorder::take);
    let body = match &result {
        Ok(outcome) => report::json_outcome(&job.formula, outcome, snapshot.as_ref()),
        Err(e) => {
            job.conn.failures.fetch_add(1, Ordering::Relaxed);
            report::json_error(&job.formula, e)
        }
    };
    let elapsed_s = started.elapsed().as_secs_f64();
    job.obs.observe("check", elapsed_s, &job.formula);
    // Prepend the correlation fields (including the wall time the check
    // took); the rest of the object is exactly the CLI's `--json` line.
    let id = job.id.as_ref().map(Value::render);
    let elapsed = report::json_f64(elapsed_s);
    match id {
        Some(id) => format!(
            "{{\"id\":{id},\"model\":\"{}\",\"elapsed_s\":{elapsed},{}",
            report::json_escape(&job.model_ref),
            &body[1..]
        ),
        None => format!(
            "{{\"model\":\"{}\",\"elapsed_s\":{elapsed},{}",
            report::json_escape(&job.model_ref),
            &body[1..]
        ),
    }
}

/// Read one connection's request lines, dispatch its checks, and finish
/// with the `run_summary` record.
fn serve_connection(
    session: &Arc<CheckSession>,
    obs: &Arc<ServerObs>,
    tx: &mpsc::Sender<Job>,
    stream: TcpStream,
) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let conn = Arc::new(ConnState::new(stream));
    // BTreeMap: any reply or summary that walks the loaded models must
    // come out in ref order, never hash order.
    let mut models: BTreeMap<String, ModelHandle> = BTreeMap::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Err(reply) = handle_request(session, obs, tx, &conn, &mut models, &line) {
            conn.failures.fetch_add(1, Ordering::Relaxed);
            conn.write_line(&format!(
                "{{\"error\":\"{}\",\"error_kind\":\"request\"}}",
                report::json_escape(&reply)
            ));
        }
    }
    // Client closed its write half: drain in-flight checks, then seal the
    // stream with the same terminal record a `--trace` file ends with
    // (plus the connection's wall time).
    conn.wait_idle();
    conn.write_line(&format!(
        "{{\"kind\":\"run_summary\",\"formulas\":{},\"failures\":{},\"elapsed_s\":{}}}",
        conn.formulas.load(Ordering::Relaxed),
        conn.failures.load(Ordering::Relaxed),
        report::json_f64(conn.started.elapsed().as_secs_f64())
    ));
    Ok(())
}

/// Dispatch one request line; `Err` is the human-readable reply for a
/// malformed or unserviceable request.
fn handle_request(
    session: &Arc<CheckSession>,
    obs: &Arc<ServerObs>,
    tx: &mpsc::Sender<Job>,
    conn: &Arc<ConnState>,
    models: &mut BTreeMap<String, ModelHandle>,
    line: &str,
) -> Result<(), String> {
    #[expect(
        clippy::disallowed_methods,
        reason = "synchronous requests are timed for the latency histograms only"
    )]
    let started = Instant::now();
    let request = json::parse(line).map_err(|e| e.to_string())?;
    if let Some(load) = request.get("load") {
        let field = |name: &str| -> Result<&str, String> {
            load.get(name)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("load request needs a string `{name}` field"))
        };
        let model_ref = field("model")?.to_string();
        let handle = session
            .load_files(field("tra")?, field("lab")?, field("rewr")?, field("rewi")?)
            .map_err(|e| e.to_string())?;
        conn.write_line(&format!(
            "{{\"loaded\":\"{}\",\"states\":{},\"transitions\":{},\"model_hash\":\"{:016x}\"}}",
            report::json_escape(&model_ref),
            handle.mrm().num_states(),
            handle.mrm().ctmc().rates().nnz(),
            handle.content_hash()
        ));
        obs.observe("load", started.elapsed().as_secs_f64(), &model_ref);
        models.insert(model_ref, handle);
        return Ok(());
    }
    if let Some(check) = request.get("check") {
        let model_ref = check
            .get("model")
            .and_then(Value::as_str)
            .ok_or("check request needs a string `model` field")?
            .to_string();
        let model = models
            .get(&model_ref)
            .ok_or_else(|| format!("no model loaded under the ref `{model_ref}`"))?
            .clone();
        let formula = check
            .get("formula")
            .and_then(Value::as_str)
            .ok_or("check request needs a string `formula` field")?
            .to_string();
        let (options, metrics) = parse_options(check.get("options"))?;
        conn.formulas.fetch_add(1, Ordering::Relaxed);
        conn.job_queued();
        let sent = tx.send(Job {
            session: session.clone(),
            model,
            model_ref,
            id: request.get("id").cloned(),
            formula,
            options,
            metrics,
            conn: conn.clone(),
            obs: obs.clone(),
        });
        if sent.is_err() {
            conn.job_done();
            return Err("server is shutting down".to_string());
        }
        return Ok(());
    }
    if request.get("stats").is_some() {
        conn.write_line(&render_stats(
            &session.stats(),
            obs.uptime_s(),
            &obs.latency_json(),
        ));
        obs.observe("stats", started.elapsed().as_secs_f64(), "");
        return Ok(());
    }
    if request.get("metrics").is_some() {
        let text = obs.exposition(&session.stats());
        conn.write_line(&format!(
            "{{\"metrics\":\"{}\"}}",
            report::json_escape(&text)
        ));
        obs.observe("metrics", started.elapsed().as_secs_f64(), "");
        return Ok(());
    }
    Err("request must contain `load`, `check`, `stats`, or `metrics`".to_string())
}

/// Build [`CheckOptions`] from a request's `options` object. Returns the
/// options plus whether per-request metrics were asked for.
fn parse_options(options: Option<&Value>) -> Result<(CheckOptions, bool), String> {
    let mut out = CheckOptions::new();
    let mut metrics = false;
    let Some(options) = options else {
        return Ok((out, metrics));
    };
    let Value::Obj(members) = options else {
        return Err("`options` must be an object".to_string());
    };
    for (key, value) in members {
        match key.as_str() {
            "engine" => {
                let text = value.as_str().ok_or("`engine` must be a string")?;
                out = out.with_engine(parse_engine(text)?);
            }
            "tolerance" => {
                let e = value.as_f64().ok_or("`tolerance` must be a number")?;
                if !(e > 0.0 && e < 1.0) {
                    return Err(format!("tolerance must be in (0, 1), got {e}"));
                }
                out = out.with_tolerance(e);
            }
            "no_reduction" => {
                if value.as_bool().ok_or("`no_reduction` must be a boolean")? {
                    out = out.with_reduction(Reduction::Off);
                }
            }
            "metrics" => {
                metrics = value.as_bool().ok_or("`metrics` must be a boolean")?;
            }
            other => return Err(format!("unrecognized option `{other}`")),
        }
    }
    Ok((out, metrics))
}

/// Parse a `u=`/`d=`/`s=` engine switch, the CLI's engine grammar.
///
/// Knobs no engine can run with are rejected here, before a model is
/// loaded or a cost forecast is built from them: a truncation probability
/// outside `(0, 1)`, a step that is not finite and positive, and a zero
/// sample count.
///
/// # Errors
///
/// A human-readable message for unknown switches, bad numbers, or knobs
/// out of range.
pub fn parse_engine(text: &str) -> Result<UntilEngine, String> {
    if let Some(w) = text.strip_prefix("u=") {
        match w.parse::<f64>() {
            Ok(v) if v > 0.0 && v < 1.0 => Ok(UntilEngine::uniformization(v)),
            Ok(_) => Err(format!(
                "truncation probability must be in (0, 1), got `{w}`"
            )),
            Err(_) => Err(format!("invalid truncation probability `{w}`")),
        }
    } else if let Some(d) = text.strip_prefix("d=") {
        match d.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(UntilEngine::discretization(v)),
            Ok(_) => Err(format!(
                "discretization step must be finite and positive, got `{d}`"
            )),
            Err(_) => Err(format!("invalid discretization step `{d}`")),
        }
    } else if let Some(n) = text.strip_prefix("s=") {
        match n.parse::<u64>() {
            Ok(v) if v > 0 => Ok(UntilEngine::simulation(v)),
            Ok(_) => Err(format!("sample count must be positive, got `{n}`")),
            Err(_) => Err(format!("invalid sample count `{n}`")),
        }
    } else {
        Err(format!(
            "unrecognized engine `{text}` (expected u=, d=, or s=)"
        ))
    }
}

/// Classify a batch's worst outcome for exit-code selection; shared by
/// `mrmc check` and `mrmc batch`. Precedence (worst first): operational
/// error > pre-flight rejection > missed tolerance > unknown verdict.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunTotals {
    /// A formula failed operationally (parse, model, numerics).
    pub any_error: bool,
    /// The pre-flight lint rejected a formula.
    pub any_preflight: bool,
    /// A formula missed its requested tolerance.
    pub any_tolerance_miss: bool,
    /// A formula completed with at least one Unknown verdict.
    pub any_unknown: bool,
}

impl RunTotals {
    /// Fold one failed check into the totals.
    pub fn record_error(&mut self, e: &CheckError) {
        match e {
            CheckError::ToleranceNotMet { .. } => self.any_tolerance_miss = true,
            CheckError::Preflight(_) => self.any_preflight = true,
            _ => self.any_error = true,
        }
    }

    /// The process exit code reflecting the worst outcome across the
    /// batch: `1` operational error, `2` pre-flight rejection, `3`
    /// missed tolerance, `4` unknown verdicts, `0` all formulas decided.
    pub fn exit_code(&self) -> u8 {
        if self.any_error {
            1
        } else if self.any_preflight {
            2
        } else if self.any_tolerance_miss {
            3
        } else if self.any_unknown {
            4
        } else {
            0
        }
    }
}

/// Connect to a running server, retrying briefly while it starts up.
///
/// # Errors
///
/// The last connect failure once the retry budget is exhausted.
pub fn connect_with_retry(addr: &str, attempts: u32) -> std::io::Result<TcpStream> {
    for _ in 1..attempts {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_nodelay(true)?;
            return Ok(stream);
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Render the `stats` reply line. The field order is part of the wire
/// contract — conformance clients and CI greps match on it — so it is
/// pinned here (and by a regression test below): first the session
/// counters in the order [`SessionStats::counters`] lists them, then the
/// latency observability suffix (`uptime_s`, `sat_hit_ratio`, `latency`)
/// appended behind them.
fn render_stats(stats: &SessionStats, uptime_s: f64, latency_json: &str) -> String {
    let lookups = stats.sat_cache_hits + stats.sat_cache_misses;
    let sat_hit_ratio = if lookups == 0 {
        0.0
    } else {
        stats.sat_cache_hits as f64 / lookups as f64
    };
    let mut out = String::from("{\"stats\":{");
    for (name, value) in stats.counters() {
        out.push_str(&format!("\"{name}\":{value},"));
    }
    out.push_str(&format!(
        "\"uptime_s\":{},\"sat_hit_ratio\":{},\"latency\":{}}}}}",
        report::json_f64(uptime_s),
        report::json_f64(sat_hit_ratio),
        latency_json
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reply_field_order_is_pinned() {
        let stats = SessionStats {
            requests: 1,
            models_loaded: 2,
            sat_cache_hits: 3,
            sat_cache_misses: 1,
            cert_cache_hits: 5,
            omega_cache_entries: 6,
            omega_cache_hits: 7,
            scc_cache_hits: 8,
        };
        // Byte-exact wire contract: conformance clients and CI greps
        // parse this line positionally. Any reordering is a breaking
        // protocol change and must fail here first. The latency suffix
        // is part of the pinned order too (3 hits / 1 miss = 0.75).
        assert_eq!(
            render_stats(&stats, 0.5, "{}"),
            "{\"stats\":{\"requests\":1,\"models_loaded\":2,\"sat_cache_hits\":3,\
             \"sat_cache_misses\":1,\"cert_cache_hits\":5,\"omega_cache_entries\":6,\
             \"omega_cache_hits\":7,\"scc_cache_hits\":8,\"uptime_s\":5e-1,\
             \"sat_hit_ratio\":7.5e-1,\"latency\":{}}}"
        );
    }

    #[test]
    fn server_obs_feeds_histograms_stats_and_exposition() {
        let obs = ServerObs::new(0.0);
        obs.observe("check", 0.5e-3, "S(> 0.5) (up)");
        obs.observe("check", 1.5e-3, "S(> 0.5) (up)");
        obs.observe("stats", 1e-6, "");
        let latency = obs.latency_json();
        assert!(latency.starts_with("{\"check\":{\"count\":2,"), "{latency}");
        assert!(latency.contains("\"stats\":{\"count\":1,"), "{latency}");

        let stats = SessionStats {
            requests: 4,
            models_loaded: 1,
            sat_cache_hits: 0,
            sat_cache_misses: 0,
            cert_cache_hits: 0,
            omega_cache_entries: 0,
            omega_cache_hits: 0,
            scc_cache_hits: 0,
        };
        // Zero lookups must not divide by zero.
        let line = render_stats(&stats, 1.0, &latency);
        assert!(line.contains("\"sat_hit_ratio\":0e0"), "{line}");
        json::parse(&line).expect("stats reply parses");

        let text = obs.exposition(&stats);
        assert!(text.contains("# TYPE mrmc_requests counter\nmrmc_requests 4\n"));
        assert!(text.contains("# TYPE mrmc_sat_cache_hits counter\n"));
        assert!(text.contains("# TYPE mrmc_uptime_seconds gauge\n"));
        assert!(text.contains("# TYPE mrmc_request_seconds histogram\n"));
        assert!(
            text.contains("mrmc_request_seconds_bucket{kind=\"check\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("mrmc_request_seconds_count{kind=\"check\"} 2"));
        assert!(text.contains("mrmc_request_seconds_count{kind=\"stats\"} 1"));
    }

    #[test]
    fn stats_and_metrics_list_every_session_counter_in_field_order() {
        let session = CheckSession::new();
        let model = session.insert(mrmc_models::wavelan::wavelan());
        let options = CheckOptions::new();
        for formula in [
            "P(> 0.01) [TT U[0,0.5][0,2] busy]",
            "P(> 0.01) [TT U[0,1][0,2] busy]",
            "S(> 0.1) (idle)",
        ] {
            for _ in 0..2 {
                session.check_str(&model, formula, &options).unwrap();
            }
        }
        let stats = session.stats();
        // The field names in declaration order, read off the derived
        // `Debug` rendering rather than the list under test.
        let debug = format!("{stats:?}");
        let fields: Vec<&str> = debug
            .trim_start_matches("SessionStats { ")
            .trim_end_matches(" }")
            .split(", ")
            .map(|field| field.split(':').next().unwrap())
            .collect();
        assert_eq!(fields, stats.counters().map(|(name, _)| name));

        let reply = render_stats(&stats, 0.5, "{}");
        let text = ServerObs::new(0.0).exposition(&stats);
        let (mut in_reply, mut in_text) = (0, 0);
        for (name, value) in stats.counters() {
            let field = format!("\"{name}\":{value},");
            in_reply += reply[in_reply..]
                .find(&field)
                .unwrap_or_else(|| panic!("{field} missing or out of order in {reply}"))
                + field.len();
            let sample = format!("\nmrmc_{name} {value}\n");
            in_text += text[in_text..]
                .find(&sample)
                .unwrap_or_else(|| panic!("{sample:?} missing or out of order in {text}"))
                + sample.len();
        }
        assert!(reply[in_reply..].starts_with("\"uptime_s\":"), "{reply}");
        assert!(
            stats.scc_cache_hits > 0 && stats.sat_cache_hits > 0,
            "{stats:?}"
        );
    }

    #[test]
    fn totals_rank_worst_outcome() {
        let mut t = RunTotals::default();
        assert_eq!(t.exit_code(), 0);
        t.any_unknown = true;
        assert_eq!(t.exit_code(), 4);
        t.any_tolerance_miss = true;
        assert_eq!(t.exit_code(), 3);
        t.any_preflight = true;
        assert_eq!(t.exit_code(), 2);
        t.any_error = true;
        assert_eq!(t.exit_code(), 1);
    }

    #[test]
    fn engine_grammar_matches_the_cli() {
        assert!(matches!(
            parse_engine("u=1e-10"),
            Ok(UntilEngine::Uniformization(_))
        ));
        assert!(matches!(
            parse_engine("d=0.5"),
            Ok(UntilEngine::Discretization(_))
        ));
        assert!(matches!(
            parse_engine("s=1000"),
            Ok(UntilEngine::Simulation(_))
        ));
        assert!(parse_engine("x=1").is_err());
        assert!(parse_engine("u=potato").is_err());
        // Knobs no engine can run with are rejected, not deferred to the
        // engine.
        for bad in [
            "u=-1", "u=0", "u=1", "u=2", "u=nan", "d=0", "d=-1", "d=inf", "d=nan", "s=0",
        ] {
            assert!(parse_engine(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn option_objects_parse() {
        let v = json::parse(
            r#"{"engine":"d=0.1","tolerance":1e-4,"no_reduction":true,"metrics":true}"#,
        )
        .unwrap();
        let (options, metrics) = parse_options(Some(&v)).unwrap();
        assert!(metrics);
        assert!(matches!(
            options.until_engine,
            UntilEngine::Discretization(_)
        ));
        assert_eq!(options.tolerance, Some(1e-4));
        assert_eq!(options.reduction, Reduction::Off);
        // Defaults with no options at all.
        let (options, metrics) = parse_options(None).unwrap();
        assert_eq!(options, CheckOptions::new());
        assert!(!metrics);
        // Unknown keys are rejected, not ignored — including the removed
        // thread-count and solver-method knobs.
        for text in [
            r#"{"frobnicate":1}"#,
            r#"{"threads":4}"#,
            r#"{"solver":"gs"}"#,
        ] {
            let v = json::parse(text).unwrap();
            assert!(parse_options(Some(&v)).is_err(), "{text}");
        }
        // An out-of-range engine knob is the same request error the CLI
        // prints, raised before any check is queued.
        for (text, knob) in [
            (r#"{"engine":"u=-1"}"#, "u=-1"),
            (r#"{"engine":"d=inf"}"#, "d=inf"),
            (r#"{"engine":"s=0"}"#, "s=0"),
        ] {
            let v = json::parse(text).unwrap();
            assert_eq!(
                parse_options(Some(&v)),
                Err(parse_engine(knob).unwrap_err())
            );
        }
    }
}
