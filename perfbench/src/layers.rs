//! The traced pass: bench-side spans around each public call, work
//! counts from `mrmc_obs::MetricsRecorder`, and a replay of the layer
//! entry points a top-level single-operator check runs through.
//!
//! `CheckSession::check` is one opaque call. To split its time by layer
//! without adding tracing inside the program, the pass re-runs, on the
//! same inputs, the public entry points core calls for that check:
//! pre-flight, lumping (analysis plus certificate verification, and the
//! quotient when one verifies), the dataflow certificate that slices Φ,
//! and the engine. A layer the session served from a cache (a lumping
//! certificate hit, a memoized result) is replayed for its inputs but not
//! counted, so `core.self_s` — check time minus the counted replays — is
//! what core spends around its layers. A replay whose probabilities
//! differ from the session's fails the run: then it did not measure the
//! work the session did.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use mrmc::{
    CheckError, CheckOptions, CheckOutcome, CheckSession, ModelHandle, Reduction, SessionStats,
    UntilEngine,
};
use mrmc_analysis::dataflow::{eval_boolean, qualitative_until, QualitativeCertificate};
use mrmc_analysis::lumping::{self, LumpingCertificate};
use mrmc_csrl::{Interval, PathFormula, StateFormula};
use mrmc_ctmc::bscc::SccDecomposition;
use mrmc_ctmc::reach;
use mrmc_ctmc::steady::SteadyStateAnalysis;
use mrmc_mrm::Mrm;
use mrmc_numerics::omega::{with_omega_cache, OmegaTermCache};
use mrmc_numerics::{baseline, discretization, uniformization};
use mrmc_obs::{counters, MetricsRecorder, RunMetrics};

use crate::clock::{now_s, timed};
use crate::files::ModelFiles;
use crate::stats::{median, quantile, ratio};
use crate::{RunConfig, RunResult, PER_LAYER};

/// One bench-side span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the pass.
    pub id: u64,
    /// The span that caused this one (a replay's check).
    pub parent: Option<u64>,
    /// Layer name, as in the per-layer metric names.
    pub name: &'static str,
    /// The check or request this span belongs to.
    pub op: String,
    /// Start, seconds on the benchmark clock.
    pub start_s: f64,
    /// End, seconds on the benchmark clock.
    pub end_s: f64,
}

/// What [`Tracer::trace_check`] observed for one check.
#[derive(Debug)]
pub struct Traced {
    /// The session's result.
    pub checked: Result<CheckOutcome, CheckError>,
    /// Wall seconds of parse plus check, with the recorder installed.
    pub wall_s: f64,
    /// Set when a layer replay disagreed with the session.
    pub replay_error: Option<String>,
}

/// Spans and per-layer totals of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    parse_s: f64,
    load_s: f64,
    preflight_s: f64,
    lumping_s: f64,
    dataflow_s: f64,
    check_s: f64,
    /// Counted replays, subtracted from `check_s` for core's self time.
    replayed_s: f64,
    uniformization_s: f64,
    discretization_s: f64,
    baseline_s: f64,
    steady_s: f64,
    reach_s: f64,
    bscc_s: f64,
    original_states: u64,
    reduced_states: u64,
    work: RunMetrics,
    slice_states_removed: u64,
    omega_hits: u64,
    sat_hits: u64,
    sat_lookups: u64,
    cert_hits: u64,
    /// Client-observed request latencies (`serve-mixed`).
    request_s: Vec<f64>,
    /// Latency minus the server's own `elapsed_s`, per check request.
    wire_wait_s: Vec<f64>,
    /// The server's `elapsed_s`, per check request.
    work_s: Vec<f64>,
    server_sat_hit_ratio: f64,
    server_failures: u64,
    overhead_frac: f64,
}

impl Tracer {
    fn span(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: &str,
        start_s: f64,
        end_s: f64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            op: op.to_string(),
            start_s,
            end_s,
        });
        id
    }

    /// Time `f` as a span; returns its result and duration.
    fn traced<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = now_s();
        let out = f();
        let end = now_s();
        self.span(name, parent, op, start, end);
        (out, end - start)
    }

    /// Replay `mrmc_mrm::io::load_model` on one model's files.
    ///
    /// # Errors
    ///
    /// The load error.
    pub fn trace_load(&mut self, files: &ModelFiles, op: &str) -> Result<(), String> {
        let (loaded, secs) = self.traced("mrm.load", None, op, || files.load_model());
        self.load_s += secs;
        loaded.map(|_| ())
    }

    /// Parse and check one formula with a `MetricsRecorder` installed,
    /// then replay its layers.
    ///
    /// `omega` stands in for the session's Ω-term cache during the
    /// replays: give every session its own, used for all of its checks in
    /// order, so the replays hit it exactly where the session hit its own.
    pub fn trace_check(
        &mut self,
        session: &CheckSession,
        handle: &ModelHandle,
        formula: &str,
        options: &CheckOptions,
        op: &str,
        omega: &Arc<OmegaTermCache>,
    ) -> Traced {
        let before = session.stats();
        let (parsed, parse_s) = self.traced("csrl.parse", None, op, || mrmc_csrl::parse(formula));
        self.parse_s += parse_s;
        let parsed = match parsed {
            Ok(p) => p,
            Err(e) => {
                return Traced {
                    checked: Err(e.into()),
                    wall_s: parse_s,
                    replay_error: None,
                }
            }
        };
        let recorder = Arc::new(MetricsRecorder::new());
        let start = now_s();
        let checked =
            mrmc_obs::with_recorder(recorder.clone(), || session.check(handle, &parsed, options));
        let end = now_s();
        let check_id = self.span("core.check", None, op, start, end);
        self.check_s += end - start;
        let after = session.stats();
        self.absorb(&recorder.take(), &before, &after);
        let replay_error = match &checked {
            Ok(outcome) => {
                let hits = Hits {
                    cert: after.cert_cache_hits > before.cert_cache_hits,
                    sat: after.sat_cache_hits > before.sat_cache_hits,
                };
                with_omega_cache(omega.clone(), || {
                    self.replay(check_id, op, handle.mrm(), &parsed, options, hits, outcome)
                })
                .err()
                .map(|e| format!("{op} `{formula}`: {e}"))
            }
            Err(_) => None,
        };
        Traced {
            checked,
            wall_s: parse_s + (end - start),
            replay_error,
        }
    }

    /// Fold one check's work counts and session-counter deltas in.
    fn absorb(&mut self, m: &RunMetrics, before: &SessionStats, after: &SessionStats) {
        let w = &mut self.work;
        w.nodes_explored += m.nodes_explored;
        w.paths_generated += m.paths_generated;
        w.paths_pruned += m.paths_pruned;
        w.omega_requests += m.omega_requests;
        w.grid_time_steps += m.grid_time_steps;
        w.grid_reward_cells = w.grid_reward_cells.max(m.grid_reward_cells);
        w.poisson_right = w.poisson_right.max(m.poisson_right);
        w.solver_solves += m.solver_solves;
        w.solver_iterations += m.solver_iterations;
        w.lumping_rounds += m.lumping_rounds;
        self.slice_states_removed += m
            .counters
            .get(counters::SLICE_STATES_REMOVED)
            .copied()
            .unwrap_or(0);
        self.omega_hits += after.omega_cache_hits - before.omega_cache_hits;
        let hits = after.sat_cache_hits - before.sat_cache_hits;
        self.sat_hits += hits;
        self.sat_lookups += hits + after.sat_cache_misses - before.sat_cache_misses;
        self.cert_hits += after.cert_cache_hits - before.cert_cache_hits;
    }

    #[allow(clippy::too_many_arguments)]
    fn replay(
        &mut self,
        check_id: u64,
        op: &str,
        mrm: &Mrm,
        formula: &StateFormula,
        options: &CheckOptions,
        hits: Hits,
        outcome: &CheckOutcome,
    ) -> Result<(), String> {
        let parent = Some(check_id);
        if options.preflight {
            let (_, secs) = self.traced("analysis.preflight", parent, op, || {
                mrmc_analysis::preflight(mrm, formula, options.engine_hint())
            });
            self.preflight_s += secs;
            self.replayed_s += secs;
        }
        let cert: Option<LumpingCertificate> = if options.reduction == Reduction::Off {
            None
        } else {
            let (cert, secs) = timed(|| {
                lumping::analyze(mrm, formula)
                    .certificate
                    .filter(|c| c.verify(mrm).is_ok())
            });
            if !hits.cert {
                let end = now_s();
                self.span("analysis.lumping", parent, op, end - secs, end);
                self.lumping_s += secs;
                self.replayed_s += secs;
            }
            cert
        };
        let model = cert.as_ref().map_or(mrm, |c| &c.quotient);
        self.original_states += mrm.num_states() as u64;
        self.reduced_states += model.num_states() as u64;
        if hits.sat {
            return Ok(());
        }
        let Some(probabilities) = self.replay_engine(parent, op, model, formula, options)? else {
            return Ok(());
        };
        let lifted = match &cert {
            Some(c) => c.partition.lift(&probabilities),
            None => probabilities,
        };
        let same = outcome.probabilities().is_some_and(|p| {
            p.len() == lifted.len()
                && p.iter()
                    .zip(&lifted)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        if same {
            Ok(())
        } else {
            Err("the layer replay's probabilities differ from the session's".into())
        }
    }

    /// Replay the engine of a top-level single-operator formula; `None`
    /// for shapes the replay does not cover (nested operators).
    fn replay_engine(
        &mut self,
        parent: Option<u64>,
        op: &str,
        model: &Mrm,
        formula: &StateFormula,
        options: &CheckOptions,
    ) -> Result<Option<Vec<f64>>, String> {
        let n = model.num_states();
        match formula {
            StateFormula::Steady { inner, .. } => {
                let Some(phi) = eval_boolean(model, inner) else {
                    return Ok(None);
                };
                let (_, secs) = self.traced("ctmc.bscc", parent, op, || {
                    SccDecomposition::new(model.ctmc().rates())
                });
                self.bscc_s += secs;
                let (probs, secs) = self.traced("ctmc.steady", parent, op, || {
                    SteadyStateAnalysis::new(model.ctmc(), options.solver).map(|a| {
                        (0..n)
                            .map(|s| a.probability_from(s, &phi))
                            .collect::<Vec<f64>>()
                    })
                });
                self.steady_s += secs;
                self.replayed_s += secs;
                probs.map(Some).map_err(|e| e.to_string())
            }
            StateFormula::Prob { path, .. } => match path.as_ref() {
                PathFormula::Until {
                    time,
                    reward,
                    lhs,
                    rhs,
                } => {
                    let (Some(phi), Some(psi)) =
                        (eval_boolean(model, lhs), eval_boolean(model, rhs))
                    else {
                        return Ok(None);
                    };
                    self.replay_until(parent, op, model, options, (time, reward), &phi, &psi)
                }
                PathFormula::Next { .. } => Ok(None),
            },
            _ => Ok(None),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn replay_until(
        &mut self,
        parent: Option<u64>,
        op: &str,
        model: &Mrm,
        options: &CheckOptions,
        (time, reward): (&Interval, &Interval),
        phi: &[bool],
        psi: &[bool],
    ) -> Result<Option<Vec<f64>>, String> {
        if time.lo() != 0.0 || reward.lo() != 0.0 || options.tolerance.is_some() {
            return Ok(None);
        }
        let n = model.num_states();
        let result = match (time.is_upper_unbounded(), reward.is_upper_unbounded()) {
            (true, true) => {
                let cert = self.dataflow(parent, op, model, options, phi, psi, true);
                let (probs, secs) = self.traced("ctmc.reach", parent, op, || {
                    let embedded = model.ctmc().embedded_dtmc();
                    match &cert {
                        Some(c) => reach::until_unbounded_with(
                            embedded.probabilities(),
                            phi,
                            psi,
                            &c.one,
                            options.solver,
                        ),
                        None => reach::until_unbounded(
                            embedded.probabilities(),
                            phi,
                            psi,
                            options.solver,
                        ),
                    }
                });
                self.reach_s += secs;
                self.replayed_s += secs;
                probs.map_err(|e| e.to_string())?
            }
            (true, false) => return Ok(None),
            (false, true) => {
                let (probs, secs) = self.traced("numerics.baseline", parent, op, || {
                    baseline::until_time_bounded(
                        model,
                        phi,
                        psi,
                        time.hi(),
                        options.transient_epsilon,
                    )
                });
                self.baseline_s += secs;
                self.replayed_s += secs;
                probs.map_err(|e| e.to_string())?
            }
            (false, false) => {
                let cert = self.dataflow(parent, op, model, options, phi, psi, false);
                let zero = |s: usize| cert.as_ref().is_some_and(|c| c.zero[s]);
                let (t, r) = (time.hi(), reward.hi());
                match options.until_engine {
                    UntilEngine::Uniformization(u) => {
                        let phi_sliced: Vec<bool> = (0..n).map(|s| phi[s] && !zero(s)).collect();
                        let (results, secs) =
                            self.traced("numerics.uniformization", parent, op, || {
                                uniformization::until_probabilities_all(
                                    model,
                                    &phi_sliced,
                                    psi,
                                    t,
                                    r,
                                    u,
                                )
                            });
                        self.uniformization_s += secs;
                        self.replayed_s += secs;
                        results
                            .map_err(|e| e.to_string())?
                            .iter()
                            .map(|r| r.probability)
                            .collect()
                    }
                    UntilEngine::Discretization(d) => {
                        let (probs, secs) =
                            self.traced("numerics.discretization", parent, op, || {
                                (0..n)
                                    .map(|s| {
                                        if zero(s) || (!phi[s] && !psi[s]) {
                                            Ok(0.0)
                                        } else {
                                            discretization::until_probability(
                                                model, phi, psi, t, r, s, d,
                                            )
                                            .map(|x| x.probability)
                                        }
                                    })
                                    .collect::<Result<Vec<f64>, _>>()
                            });
                        self.discretization_s += secs;
                        self.replayed_s += secs;
                        probs.map_err(|e| e.to_string())?
                    }
                    UntilEngine::Simulation(_) => return Ok(None),
                }
            }
        };
        Ok(Some(result))
    }

    /// The qualitative dataflow certificate core slices with, when
    /// slicing is on and the certificate re-verifies.
    #[allow(clippy::too_many_arguments)]
    fn dataflow(
        &mut self,
        parent: Option<u64>,
        op: &str,
        model: &Mrm,
        options: &CheckOptions,
        phi: &[bool],
        psi: &[bool],
        unbounded: bool,
    ) -> Option<QualitativeCertificate> {
        if !options.slicing {
            return None;
        }
        let (cert, secs) = self.traced("analysis.dataflow", parent, op, || {
            let cert = qualitative_until(model, phi, psi, unbounded);
            cert.verify(model).is_ok().then_some(cert)
        });
        self.dataflow_s += secs;
        self.replayed_s += secs;
        cert
    }

    /// Record one `serve-mixed` request as seen by the client, with the
    /// server's own `elapsed_s` for checks.
    pub fn trace_request(
        &mut self,
        op: &str,
        start_s: f64,
        end_s: f64,
        server_elapsed_s: Option<f64>,
    ) {
        let id = self.span("serve.request", None, op, start_s, end_s);
        self.request_s.push(end_s - start_s);
        if let Some(work) = server_elapsed_s {
            // The server reports a duration, not a start: the span is
            // placed so that it ends when the reply arrived.
            self.span("server.work", Some(id), op, end_s - work, end_s);
            self.work_s.push(work);
            self.wire_wait_s.push((end_s - start_s) - work);
        }
    }

    /// The `stats` reply's `sat_hit_ratio` and the connections'
    /// `run_summary` failures.
    pub fn server_counters(&mut self, sat_hit_ratio: f64, failures: u64) {
        self.server_sat_hit_ratio = sat_hit_ratio;
        self.server_failures = failures;
    }

    /// Record the traced pass's wall time against the untraced pass's.
    pub fn overhead(&mut self, traced_s: f64, untraced_s: f64) {
        self.overhead_frac = traced_s / untraced_s - 1.0;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every per-layer metric, in [`PER_LAYER`] order, with a note.
    pub fn metrics(&self) -> Vec<(&'static str, f64, String)> {
        let check = self.check_s;
        let share = |name: &'static str, secs: f64| {
            (
                name,
                ratio(secs, check),
                format!("{secs:.6} s of {check:.6} s checking"),
            )
        };
        let w = &self.work;
        let generated = (w.paths_generated + w.paths_pruned) as f64;
        let omega = (self.omega_hits + w.omega_requests) as f64;
        let server_note = |note: String| {
            if self.request_s.is_empty() {
                "no server in this workload".to_string()
            } else {
                note
            }
        };
        let request_p50 = median(&self.request_s);
        let request_p99 = quantile(&self.request_s, 0.99);
        let values: Vec<(&'static str, f64, String)> = vec![
            ("csrl.parse_s", self.parse_s, String::new()),
            ("mrm.load_s", self.load_s, String::new()),
            ("analysis.preflight_s", self.preflight_s, String::new()),
            ("analysis.lumping_s", self.lumping_s, "certificate-cache misses only".into()),
            ("analysis.dataflow_s", self.dataflow_s, String::new()),
            ("core.check_s", check, "CheckSession::check, recorder installed".into()),
            ("core.self_s", check - self.replayed_s, "check time minus the counted replays".into()),
            share("analysis.lumping_frac", self.lumping_s),
            share("numerics.uniformization_frac", self.uniformization_s),
            share("numerics.discretization_frac", self.discretization_s),
            share("numerics.baseline_frac", self.baseline_s),
            share("ctmc.steady_frac", self.steady_s),
            share("ctmc.reach_frac", self.reach_s),
            {
                let (name, value, note) = share("ctmc.bscc_frac", self.bscc_s);
                (name, value, note + " (part of steady)")
            },
            (
                "analysis.lumping_reduced_frac",
                ratio(self.reduced_states as f64, self.original_states as f64),
                format!("{} of {} states", self.reduced_states, self.original_states),
            ),
            ("analysis.lumping_rounds", w.lumping_rounds as f64, String::new()),
            ("analysis.slice_states_removed", self.slice_states_removed as f64, String::new()),
            ("numerics.nodes_explored", w.nodes_explored as f64, String::new()),
            (
                "numerics.paths_pruned_frac",
                ratio(w.paths_pruned as f64, generated),
                format!("{} pruned of {generated} paths", w.paths_pruned),
            ),
            ("numerics.omega_requests", w.omega_requests as f64, "computed, not served from cache".into()),
            (
                "numerics.omega_cache_hit_ratio",
                ratio(self.omega_hits as f64, omega),
                format!("{} hits of {omega} lookups", self.omega_hits),
            ),
            ("numerics.grid_time_steps", w.grid_time_steps as f64, String::new()),
            ("numerics.grid_reward_cells", w.grid_reward_cells as f64, "largest grid".into()),
            ("numerics.poisson_right", w.poisson_right as f64, "largest Fox-Glynn right point".into()),
            ("sparse.solver_solves", w.solver_solves as f64, String::new()),
            ("sparse.solver_iterations", w.solver_iterations as f64, String::new()),
            (
                "core.sat_cache_hit_ratio",
                ratio(self.sat_hits as f64, self.sat_lookups as f64),
                format!("{} hits of {} lookups", self.sat_hits, self.sat_lookups),
            ),
            ("core.cert_cache_hits", self.cert_hits as f64, String::new()),
            (
                "server.wire_wait_p50_frac",
                ratio(median(&self.wire_wait_s), request_p50),
                server_note(format!(
                    "wait {:.6} s of request p50 {request_p50:.6} s; server work p50 {:.6} s; {} checks",
                    median(&self.wire_wait_s),
                    median(&self.work_s),
                    self.wire_wait_s.len()
                )),
            ),
            (
                "server.wire_wait_p99_frac",
                ratio(quantile(&self.wire_wait_s, 0.99), request_p99),
                server_note(format!(
                    "wait {:.6} s of request p99 {request_p99:.6} s",
                    quantile(&self.wire_wait_s, 0.99)
                )),
            ),
            ("server.sat_hit_ratio", self.server_sat_hit_ratio, server_note("from the last stats reply".into())),
            ("server.failures", self.server_failures as f64, server_note("from run_summary".into())),
            ("obs.trace_overhead_frac", self.overhead_frac, "traced over untraced pass time, minus 1".into()),
        ];
        debug_assert_eq!(values.len(), PER_LAYER.len());
        values
            .into_iter()
            .map(|(name, v, note)| (name, if v.is_finite() { v } else { 0.0 }, note))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct Hits {
    cert: bool,
    sat: bool,
}

/// `true` when the formula's outermost operator is a time-bounded until
/// (the operators whose error budget every workload reports).
pub fn is_time_bounded(formula: &str) -> bool {
    matches!(
        mrmc_csrl::parse(formula),
        Ok(StateFormula::Prob { path, .. })
            if matches!(path.as_ref(), PathFormula::Until { time, .. } if !time.is_upper_unbounded())
    )
}

/// Put the traced pass's per-layer metrics into `result`, print the
/// per-layer table, and write `spans.jsonl` and `layers.txt` into `dir`.
///
/// # Errors
///
/// The failed write.
pub fn finish(
    result: &mut RunResult,
    tracer: &Tracer,
    dir: &Path,
    config: &RunConfig,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut spans = String::new();
    for s in tracer.spans() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            spans,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":\"{}\",\"start_s\":{:e},\"end_s\":{:e}}}",
            s.id, s.name, s.op, s.start_s, s.end_s
        )
        .expect("write to String");
    }
    let mut table = format!("per-layer metrics, seed {}\n", config.seed);
    for (name, value, note) in tracer.metrics() {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        writeln!(table, "{name:<32} {value:>14.6e} {unit:<6} {note}").expect("write to String");
        result.push(name, unit, value, note);
    }
    print!("{table}");
    for (file, text) in [("spans.jsonl", spans), ("layers.txt", table)] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
