//! `serve-mixed`: `mrmc serve --workers 2` under two closed-loop client
//! connections from this one process. Each connection has one request
//! outstanding and sends the next only after the reply.
//!
//! A pass starts a fresh server, registers the models and warms up on both
//! connections, then sends one block of requests per connection in seeded
//! order but with a fixed composition (of 50): 28 repeats of an earlier
//! check of the same connection (Sat-cache hits), 17 fresh checks over
//! TMR(3), cluster(4) and the phone model with seeded thresholds, 3
//! `load`s (alternately byte-identical, which dedups, and a variant with
//! one perturbed rate, which is a new model) and 2 `stats`. Every reply is
//! compared with an in-process `CheckSession` run of the same sequence.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use mrmc::report::{json_error, json_escape, json_outcome};
use mrmc::{CheckOptions, CheckSession, ModelHandle};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::phone;
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_numerics::omega::OmegaTermCache;
use mrmc_obs::json;
use mrmc_server::{parse_engine, Server, ServerConfig};
use mrmc_sparse::rng::Xoshiro256StarStar;

use crate::clock::now_s;
use crate::files::ModelFiles;
use crate::inproc::max_budget;
use crate::layers::{self, Tracer};
use crate::seeded::{shuffle, COMPARISONS};
use crate::stats::{median, quantile};
use crate::{RunConfig, RunResult, ServerMode, MIN_PASSES};

/// Server worker threads and client connections: both the host's two
/// cores, so the load never needs more threads than there are cores.
const WORKERS: usize = 2;
const CONNECTIONS: usize = 2;
/// Requests per connection per pass.
const BLOCK: usize = 50;
const SMOKE_BLOCK: usize = 20;
/// Perturbed copies of each model that `load` requests switch between.
const VARIANTS: usize = 4;
/// A reply slower than this counts as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The models a connection registers, by ref.
const MODELS: [&str; 3] = ["tmr", "cluster", "phone"];

/// One fresh check: model ref, formula with placeholders for the seeded
/// comparison operators (`{op}`) and thresholds (`{p}`, `{q}`), optional
/// engine switch.
type Template = (&'static str, &'static str, Option<&'static str>);

/// The fresh checks of one block: the same multiset every block.
const FRESH: [Template; 17] = [
    ("tmr", "P({op} {p}) [Sup U[0,50][0,1000] failed]", None),
    ("tmr", "P({op} {p}) [Sup U[0,100][0,2000] failed]", None),
    ("tmr", "P({op} {p}) [Sup U[0,150][0,3000] failed]", None),
    ("tmr", "P({op} {p}) [Sup U[0,200][0,1500] failed]", None),
    ("tmr", "P({op} {p}) [Sup U[0,250][0,2500] failed]", None),
    ("tmr", "P({op} {p}) [Sup U[0,300][0,3000] failed]", None),
    ("tmr", "S({op} {p}) (Sup)", None),
    ("tmr", "P({op} {p}) [Sup U[0,100] failed]", None),
    ("cluster", "S({op} {p}) (premium)", None),
    ("cluster", "P({op} {p}) [backbone_up U down]", None),
    ("cluster", "P({op} {p}) [minimum U[0,10] down]", None),
    ("cluster", "P({op} {p}) [minimum U[0,50] down]", None),
    ("cluster", "P({op} {p}) [TT U S({op} {q}) (premium)]", None),
    (
        "phone",
        "P({op} {p}) [(Call_Idle || Doze) U[0,6][0,150] Call_Initiated]",
        None,
    ),
    (
        "phone",
        "P({op} {p}) [(Call_Idle || Doze) U[0,12][0,300] Call_Initiated]",
        None,
    ),
    (
        "phone",
        "P({op} {p}) [(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]",
        None,
    ),
    (
        "phone",
        "P({op} {p}) [(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]",
        Some("d=0.25"),
    ),
];

/// The request kinds of one block of `size` requests, in a fixed
/// composition: repeats, fresh checks, loads and stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Repeat,
    Fresh,
    Load,
    Stats,
}

fn block_kinds(size: usize) -> Vec<Kind> {
    let loads = size.div_ceil(20);
    let stats = (size / 20).max(1);
    let fresh = size * 35 / 100;
    let repeats = size - loads - stats - fresh;
    [
        (Kind::Repeat, repeats),
        (Kind::Fresh, fresh),
        (Kind::Load, loads),
        (Kind::Stats, stats),
    ]
    .into_iter()
    .flat_map(|(k, n)| std::iter::repeat_n(k, n))
    .collect()
}

/// The model files of one ref: the base files and the perturbed variants.
#[derive(Debug, Clone)]
struct ModelSet {
    name: &'static str,
    /// `files[0]` is the base model.
    files: Vec<ModelFiles>,
}

fn write_models(dir: &Path) -> Result<Vec<ModelSet>, String> {
    let mrms = [
        tmr(&TmrConfig::classic()),
        cluster(&ClusterConfig::new(4)),
        phone::phone(),
    ];
    MODELS
        .iter()
        .zip(mrms)
        .map(|(&name, mrm)| {
            let base = ModelFiles::write(dir, name, &mrm)?;
            let tra = std::fs::read_to_string(&base.tra).map_err(|e| e.to_string())?;
            let mut files = vec![base.clone()];
            for v in 1..=VARIANTS {
                // Scale the first transition's rate: same structure, new
                // content hash.
                let mut lines: Vec<String> = tra.lines().map(str::to_string).collect();
                let first = lines
                    .iter()
                    .position(|l| l.split_whitespace().count() == 3)
                    .ok_or("model without transitions")?;
                let fields: Vec<&str> = lines[first].split_whitespace().collect();
                let rate: f64 = fields[2].parse().map_err(|_| "unreadable rate")?;
                lines[first] = format!(
                    "{} {} {}",
                    fields[0],
                    fields[1],
                    rate * (1.0 + v as f64 * 1e-3)
                );
                let path = dir.join(format!("{name}-v{v}.tra"));
                std::fs::write(&path, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
                files.push(ModelFiles {
                    tra: path,
                    ..base.clone()
                });
            }
            Ok(ModelSet { name, files })
        })
        .collect()
}

/// One request as sent.
#[derive(Debug, Clone, PartialEq)]
enum Request {
    Load {
        model: &'static str,
        variant: usize,
    },
    Check {
        id: u64,
        model: &'static str,
        formula: String,
        engine: Option<&'static str>,
        /// First time this connection asks it.
        fresh: bool,
    },
    Stats,
}

impl Request {
    fn line(&self, models: &[ModelSet]) -> String {
        match self {
            Request::Load { model, variant } => {
                let f = &files_of(models, model)[*variant];
                let field = |p: &Path| json_escape(&p.to_string_lossy());
                format!(
                    "{{\"load\":{{\"model\":\"{model}\",\"tra\":\"{}\",\"lab\":\"{}\",\"rewr\":\"{}\",\"rewi\":\"{}\"}}}}\n",
                    field(&f.tra),
                    field(&f.lab),
                    field(&f.rewr),
                    field(&f.rewi)
                )
            }
            Request::Check {
                id,
                model,
                formula,
                engine,
                ..
            } => {
                let options = engine.map_or(String::new(), |e| {
                    format!(",\"options\":{{\"engine\":\"{e}\"}}")
                });
                format!(
                    "{{\"check\":{{\"model\":\"{model}\",\"formula\":\"{}\"{options}}},\"id\":{id}}}\n",
                    json_escape(formula)
                )
            }
            Request::Stats => "{\"stats\":true}\n".to_string(),
        }
    }
}

fn files_of<'a>(models: &'a [ModelSet], name: &str) -> &'a [ModelFiles] {
    &models
        .iter()
        .find(|m| m.name == name)
        .expect("requests only name written models")
        .files
}

/// A request with its reply and client-side timing.
#[derive(Debug, Clone)]
struct Exchange {
    request: Request,
    reply: String,
    start_s: f64,
    end_s: f64,
    phase: Phase,
}

/// Which part of a run an exchange belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Initial loads, warm-up and the closing `stats`.
    Untimed,
    /// A timed pass.
    Timed,
    /// The traced pass.
    Traced,
}

/// The request generator of one connection: seeded, with the connection's
/// own history for repeats.
#[derive(Debug)]
struct Generator {
    conn: u64,
    rng: Xoshiro256StarStar,
    variant: BTreeMap<&'static str, usize>,
    loads: usize,
    history: Vec<(&'static str, String, Option<&'static str>)>,
    fresh: u64,
    next_id: u64,
}

impl Generator {
    fn new(seed: u64, pass: u64, conn: u64) -> Self {
        let stream = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (pass << 8) ^ conn;
        Generator {
            conn,
            rng: Xoshiro256StarStar::seed_from_u64(stream),
            variant: MODELS.iter().map(|&m| (m, 0)).collect(),
            loads: 0,
            history: Vec::new(),
            fresh: 0,
            next_id: 0,
        }
    }

    /// A threshold unique to this connection and fresh check: a walk over
    /// the ten-thousandths of one parity, so the two connections never
    /// send the same formula by accident.
    fn threshold(&self, k: u64) -> String {
        let step = (k * 7919 + 1) % 4999;
        format!("{:.4}", (2 * step + self.conn + 1) as f64 / 10_000.0)
    }

    /// The warm-up: one fresh check of every template, the history the
    /// first repeats draw from.
    fn warm_up(&mut self) -> Vec<Request> {
        (0..FRESH.len()).map(|_| self.next(Kind::Fresh)).collect()
    }

    /// One pass's block of `size` requests.
    fn block(&mut self, size: usize) -> Vec<Request> {
        let mut kinds = block_kinds(size);
        shuffle(&mut kinds, &mut self.rng);
        kinds.into_iter().map(|k| self.next(k)).collect()
    }

    fn next(&mut self, kind: Kind) -> Request {
        match kind {
            Kind::Repeat if !self.history.is_empty() => {
                let (model, formula, engine) =
                    self.history[self.rng.range_usize(self.history.len())].clone();
                self.check(model, formula, engine, false)
            }
            Kind::Repeat | Kind::Fresh => {
                // Fresh checks walk the template deck in order, so every
                // block of FRESH.len() fresh checks covers it exactly once.
                let (model, template, engine) = FRESH[self.fresh as usize % FRESH.len()];
                let mut op = || COMPARISONS[self.rng.range_usize(COMPARISONS.len())];
                let formula = template
                    .replacen("{op}", op(), 1)
                    .replacen("{op}", op(), 1)
                    .replace("{p}", &self.threshold(self.fresh))
                    .replace("{q}", &self.threshold(self.fresh + 2500));
                self.fresh += 1;
                self.history.push((model, formula.clone(), engine));
                self.check(model, formula, engine, true)
            }
            Kind::Load => {
                let model = MODELS[self.loads % MODELS.len()];
                // Every other load switches to the next variant.
                if self.loads % 2 == 1 {
                    let v = self
                        .variant
                        .get_mut(model)
                        .expect("every model has a variant");
                    *v = (*v + 1) % (VARIANTS + 1);
                }
                self.loads += 1;
                Request::Load {
                    model,
                    variant: self.variant[model],
                }
            }
            Kind::Stats => Request::Stats,
        }
    }

    fn check(
        &mut self,
        model: &'static str,
        formula: String,
        engine: Option<&'static str>,
        fresh: bool,
    ) -> Request {
        self.next_id += 1;
        Request::Check {
            id: self.conn * 1_000_000 + self.next_id,
            model,
            formula,
            engine,
            fresh,
        }
    }
}

/// The requests both connections would send at `seed`: the warm-up and
/// `blocks` passes, one line each (replies do not influence them).
pub fn generate(seed: u64, blocks: usize) -> Vec<String> {
    (0..CONNECTIONS as u64)
        .flat_map(|conn| {
            let mut g = Generator::new(seed, 0, conn);
            let mut requests = g.warm_up();
            for _ in 0..blocks {
                requests.extend(g.block(BLOCK));
            }
            requests.into_iter().map(move |r| format!("{conn} {r:?}"))
        })
        .collect()
}

/// One client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    generator: Generator,
    log: Vec<Exchange>,
}

impl Client {
    fn connect(addr: &str, generator: Generator) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
            generator,
            log: Vec::new(),
        })
    }

    fn exchange(
        &mut self,
        request: Request,
        models: &[ModelSet],
        phase: Phase,
    ) -> Result<(), String> {
        let line = request.line(models);
        let start_s = now_s();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        let read = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("no reply: {e}"))?;
        let end_s = now_s();
        if read == 0 {
            return Err("the server closed the connection".into());
        }
        self.log.push(Exchange {
            request,
            reply: reply.trim_end().to_string(),
            start_s,
            end_s,
            phase,
        });
        Ok(())
    }

    /// Register every model (base files).
    fn load_all(&mut self, models: &[ModelSet]) -> Result<(), String> {
        for model in MODELS {
            self.exchange(Request::Load { model, variant: 0 }, models, Phase::Untimed)?;
        }
        Ok(())
    }

    fn warm_up(&mut self, models: &[ModelSet]) -> Result<(), String> {
        for request in self.generator.warm_up() {
            self.exchange(request, models, Phase::Untimed)?;
        }
        Ok(())
    }

    fn block(&mut self, size: usize, models: &[ModelSet], phase: Phase) -> Result<(), String> {
        for request in self.generator.block(size) {
            self.exchange(request, models, phase)?;
        }
        Ok(())
    }

    /// Close the write half and read to the end: the server answers with
    /// its `run_summary` record.
    fn finish(mut self) -> Result<(Vec<Exchange>, u64, u64), String> {
        self.writer
            .shutdown(Shutdown::Write)
            .map_err(|e| e.to_string())?;
        let mut rest = String::new();
        let mut last = String::new();
        loop {
            rest.clear();
            match self.reader.read_line(&mut rest) {
                Ok(0) => break,
                Ok(_) => last.clone_from(&rest),
                Err(e) => return Err(format!("no run_summary: {e}")),
            }
        }
        let summary =
            json::parse(last.trim()).map_err(|e| format!("bad run_summary `{last}`: {e}"))?;
        let field = |k: &str| summary.get(k).and_then(json::Value::as_u64);
        match (field("formulas"), field("failures")) {
            (Some(formulas), Some(failures)) => Ok((self.log, formulas, failures)),
            _ => Err(format!("not a run_summary: `{last}`")),
        }
    }
}

/// Kill-on-drop guard for the server child process.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl ChildGuard {
    /// Wait for the server to exit by itself after its last connection.
    fn finish(mut self) -> Result<(), String> {
        let deadline = now_s() + 30.0;
        while now_s() < deadline {
            match self.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("mrmc serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("mrmc serve did not exit after its last connection".into())
    }
}

/// Start a server, run `f(addr, server pid, spawn time)`, then see the
/// server shut down. `f` must close every connection it opened.
fn with_server<T>(
    mode: &ServerMode,
    f: impl FnOnce(&str, Option<u32>, f64) -> Result<T, String>,
) -> Result<T, String> {
    let start = now_s();
    match mode {
        ServerMode::Binary(path) => {
            let child = Command::new(path)
                .args([
                    "serve",
                    "--workers",
                    &WORKERS.to_string(),
                    "--connections",
                    &CONNECTIONS.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
            let mut guard = ChildGuard(child);
            let stdout = guard.0.stdout.take().ok_or("no server stdout")?;
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .map_err(|e| format!("no listening line: {e}"))?;
            let addr = json::parse(line.trim())
                .ok()
                .and_then(|v| {
                    v.get("listening")
                        .and_then(json::Value::as_str)
                        .map(str::to_string)
                })
                .ok_or_else(|| format!("unexpected first line from mrmc serve: `{line}`"))?;
            let out = f(&addr, Some(guard.0.id()), start)?;
            guard.finish()?;
            Ok(out)
        }
        ServerMode::InProcess => {
            let server = Server::bind(
                "127.0.0.1:0",
                ServerConfig {
                    workers: WORKERS,
                    slow_request_s: 0.0,
                },
            )
            .map_err(|e| e.to_string())?;
            let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
            std::thread::scope(|s| {
                let running = s.spawn(|| server.run(Some(CONNECTIONS)));
                let out = f(&addr, None, start);
                if out.is_err() {
                    // Let a server still waiting for connections finish.
                    for _ in 0..CONNECTIONS {
                        let _ = TcpStream::connect(&addr);
                    }
                }
                let served = running
                    .join()
                    .map_err(|_| "the server thread panicked".to_string())?;
                served.map_err(|e| e.to_string())?;
                out
            })
        }
    }
}

/// What one server saw during one pass.
struct Pass {
    /// Per connection, every exchange in order.
    logs: Vec<Vec<Exchange>>,
    /// Per connection, the `run_summary` counts `(formulas, failures)`.
    summaries: Vec<(u64, u64)>,
    /// Server start until both connections registered their models.
    setup_s: f64,
    /// Wall time of the timed block on both connections.
    block_s: f64,
    /// The server's `VmHWM` after the block.
    rss_mib: f64,
}

/// One pass against a freshly started server: start it, register the
/// models on both connections (set-up), warm up, run one block per
/// connection, and close. Every pass thus sees a server in the same
/// state, so pass times do not drift with the length of the run.
fn serve_pass(
    config: &RunConfig,
    models: &[ModelSet],
    block: usize,
    pass: u64,
    phase: Phase,
) -> Result<Pass, String> {
    with_server(&config.server, |addr, pid, start| {
        let mut clients = (0..CONNECTIONS as u64)
            .map(|conn| Client::connect(addr, Generator::new(config.seed, pass, conn)))
            .collect::<Result<Vec<_>, _>>()?;
        on_each(&mut clients, |c| c.load_all(models))?;
        let setup_s = now_s() - start;
        on_each(&mut clients, |c| c.warm_up(models))?;
        let block_start = now_s();
        on_each(&mut clients, |c| c.block(block, models, phase))?;
        let block_s = now_s() - block_start;
        if phase == Phase::Traced {
            clients[0].exchange(Request::Stats, models, Phase::Untimed)?;
        }
        let rss_mib = crate::peak_rss_mib(pid)?;
        let mut logs = Vec::new();
        let mut summaries = Vec::new();
        for c in clients {
            let (log, formulas, failures) = c.finish()?;
            logs.push(log);
            summaries.push((formulas, failures));
        }
        Ok(Pass {
            logs,
            summaries,
            setup_s,
            block_s,
            rss_mib,
        })
    })
}

/// Run `serve-mixed`.
///
/// # Errors
///
/// A server that cannot be started, a connection that breaks, or a
/// reply that never comes.
pub fn run(config: &RunConfig) -> Result<RunResult, String> {
    let models = write_models(&config.work_dir)?;
    let block = if config.smoke { SMOKE_BLOCK } else { BLOCK };
    let mut passes = Vec::new();
    if config.trace_dir.is_some() {
        passes.push(serve_pass(config, &models, block, 0, Phase::Timed)?);
        passes.push(serve_pass(config, &models, block, 1, Phase::Traced)?);
    } else {
        let start = now_s();
        while passes.is_empty()
            || (!config.smoke && (passes.len() < MIN_PASSES || now_s() - start < config.seconds))
        {
            passes.push(serve_pass(
                config,
                &models,
                block,
                passes.len() as u64,
                Phase::Timed,
            )?);
        }
    }

    let mut result = RunResult::default();
    let mut tracer = Tracer::default();
    let mut budgets = Vec::new();
    for pass in &passes {
        let traced = pass.logs.iter().flatten().any(|e| e.phase == Phase::Traced);
        budgets.extend(verify(
            pass,
            &models,
            &mut result,
            traced.then_some(&mut tracer),
        )?);
        for (conn, (&(formulas, _), log)) in pass.summaries.iter().zip(&pass.logs).enumerate() {
            let sent = log
                .iter()
                .filter(|e| matches!(e.request, Request::Check { .. }))
                .count() as u64;
            result.verify((formulas != sent).then(|| {
                format!("connection {conn}: run_summary counts {formulas} checks, {sent} were sent")
            }));
        }
    }
    if let Some(dir) = &config.trace_dir {
        let traced = &passes[1];
        for (conn, log) in traced.logs.iter().enumerate() {
            for (i, e) in log
                .iter()
                .enumerate()
                .filter(|(_, e)| e.phase == Phase::Traced)
            {
                let elapsed = json::parse(&e.reply)
                    .ok()
                    .and_then(|v| v.get("elapsed_s").and_then(json::Value::as_f64));
                tracer.trace_request(&format!("{conn}.{i}"), e.start_s, e.end_s, elapsed);
            }
        }
        let failures = traced.summaries.iter().map(|s| s.1).sum();
        tracer.server_counters(last_stats(&traced.logs).unwrap_or(0.0), failures);
        tracer.overhead(traced.block_s, passes[0].block_s);
        layers::finish(&mut result, &tracer, dir, config)?;
        return Ok(result);
    }
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.logs.iter().flatten())
        .filter(|e| e.phase == Phase::Timed)
        .map(|e| (e.end_s - e.start_s) * 1e3)
        .collect();
    let n = latencies.len();
    let of = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let count = passes.len();
    result.push(
        "setup_s",
        "s",
        median(&of(|p| p.setup_s)),
        format!("median of {count} server starts with the initial loads"),
    );
    result.push(
        "pass_s",
        "s",
        median(&of(|p| p.block_s)),
        format!(
            "median of {count} passes of {} requests",
            block * CONNECTIONS
        ),
    );
    result.push(
        "op_p50_ms",
        "ms",
        quantile(&latencies, 0.5),
        format!("{n} requests"),
    );
    result.push(
        "op_p90_ms",
        "ms",
        quantile(&latencies, 0.9),
        format!(
            "{n} requests, {} beyond",
            n - (0.9 * n as f64).ceil() as usize
        ),
    );
    result.push(
        "peak_rss_mib",
        "MiB",
        median(&of(|p| p.rss_mib)),
        format!("median over {count} servers of VmHWM after the pass"),
    );
    result.push(
        "err_budget_p50",
        "probability",
        median(&budgets),
        format!("median over {} fresh time-bounded checks", budgets.len()),
    );
    Ok(result)
}

/// Run `f` on every client concurrently, one scoped thread each.
fn on_each(
    clients: &mut [Client],
    f: impl Fn(&mut Client) -> Result<(), String> + Sync,
) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients.iter_mut().map(|c| s.spawn(|| f(c))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect::<Result<Vec<()>, String>>()
    })?;
    Ok(())
}

/// The `sat_hit_ratio` of the last `stats` reply.
fn last_stats(logs: &[Vec<Exchange>]) -> Option<f64> {
    logs.iter()
        .flatten()
        .filter(|e| e.request == Request::Stats)
        .max_by(|a, b| a.end_s.total_cmp(&b.end_s))
        .and_then(|e| json::parse(&e.reply).ok())
        .and_then(|v| {
            v.get("stats")
                .and_then(|s| s.get("sat_hit_ratio"))
                .and_then(json::Value::as_f64)
        })
}

/// Replay one pass's connections on a fresh in-process `CheckSession`
/// and compare each reply with what that session answers. Returns the
/// largest error budget of every fresh time-bounded check.
fn verify(
    pass: &Pass,
    models: &[ModelSet],
    result: &mut RunResult,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<f64>, String> {
    let reference = CheckSession::new();
    let omega = Arc::new(OmegaTermCache::new());
    // Checks outside the traced block are replayed too, into a tracer that
    // is thrown away, so the replay Ω cache warms up exactly as the
    // reference session's does.
    let mut untraced = Tracer::default();
    let mut budgets = Vec::new();
    if let Some(t) = tracer.as_deref_mut() {
        for (i, set) in models.iter().enumerate() {
            t.trace_load(&set.files[0], &format!("model{i}"))?;
        }
    }
    for (conn, log) in pass.logs.iter().enumerate() {
        let mut handles: BTreeMap<&str, ModelHandle> = BTreeMap::new();
        for (i, e) in log.iter().enumerate() {
            let failure = match &e.request {
                Request::Load { model, variant } => {
                    let handle = files_of(models, model)[*variant].load_into(&reference)?;
                    let expected = format!(
                        "{{\"loaded\":\"{model}\",\"states\":{},\"transitions\":{},\"model_hash\":\"{:016x}\"}}",
                        handle.mrm().num_states(),
                        handle.mrm().ctmc().rates().nnz(),
                        handle.content_hash()
                    );
                    handles.insert(model, handle);
                    (e.reply != expected)
                        .then(|| format!("load {model}: got `{}`, expected `{expected}`", e.reply))
                }
                Request::Check {
                    id,
                    model,
                    formula,
                    engine,
                    fresh,
                } => {
                    let handle = handles.get(model).ok_or("check before load")?;
                    let mut options = CheckOptions::new();
                    if let Some(engine) = engine {
                        options = options.with_engine(parse_engine(engine)?);
                    }
                    let checked = match tracer.as_deref_mut() {
                        Some(t) => {
                            let t = if e.phase == Phase::Traced {
                                t
                            } else {
                                &mut untraced
                            };
                            let traced = t.trace_check(
                                &reference,
                                handle,
                                formula,
                                &options,
                                &format!("{conn}.{i}"),
                                &omega,
                            );
                            if let Some(err) = traced.replay_error {
                                result.verify(Some(err));
                            }
                            traced.checked
                        }
                        None => reference.check_str(handle, formula, &options),
                    };
                    let body = match &checked {
                        Ok(outcome) => {
                            if *fresh
                                && e.phase != Phase::Untimed
                                && layers::is_time_bounded(formula)
                            {
                                budgets.push(max_budget(outcome));
                            }
                            json_outcome(formula, outcome, None)
                        }
                        Err(err) => json_error(formula, err),
                    };
                    check_reply(&e.reply, *id, model, &body)
                }
                Request::Stats => json::parse(&e.reply)
                    .ok()
                    .and_then(|v| v.get("stats").map(|_| ()))
                    .is_none()
                    .then(|| format!("stats: unexpected reply `{}`", e.reply)),
            };
            result.verify(failure);
        }
    }
    Ok(budgets)
}

/// A check reply is `{"id":ID,"model":"REF","elapsed_s":E,` followed by
/// the one-shot `--json` object without its opening brace.
fn check_reply(reply: &str, id: u64, model: &str, body: &str) -> Option<String> {
    let prefix = format!("{{\"id\":{id},\"model\":\"{model}\",\"elapsed_s\":");
    let rest = reply
        .strip_prefix(&prefix)
        .and_then(|r| r.split_once(','))
        .map(|(_, r)| r);
    match rest {
        Some(r) if r == &body[1..] => None,
        _ => Some(format!(
            "check {id}: got `{reply}`, expected `{prefix}…,{}`",
            &body[1..]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_have_a_fixed_composition() {
        let kinds = block_kinds(BLOCK);
        let count = |k| kinds.iter().filter(|&&x| x == k).count();
        assert_eq!(kinds.len(), BLOCK);
        assert_eq!(count(Kind::Fresh), FRESH.len());
        assert_eq!(
            (count(Kind::Repeat), count(Kind::Load), count(Kind::Stats)),
            (28, 3, 2)
        );
    }

    #[test]
    fn check_replies_are_compared_after_the_timing_field() {
        let body = "{\"formula\":\"a\",\"satisfied\":[]}";
        let reply =
            "{\"id\":7,\"model\":\"tmr\",\"elapsed_s\":1.5e-4,\"formula\":\"a\",\"satisfied\":[]}";
        assert_eq!(check_reply(reply, 7, "tmr", body), None);
        assert!(check_reply(reply, 8, "tmr", body).is_some());
        assert!(check_reply(reply, 7, "tmr", "{\"formula\":\"b\"}").is_some());
    }
}
