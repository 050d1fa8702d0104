//! The in-process workloads (`paper-*`, `cluster-analysis`): checks run
//! through `CheckSession::check_str` on models loaded with
//! `CheckSession::load_files`, exactly as `mrmc check` runs them.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use mrmc::{
    CheckError, CheckOptions, CheckOutcome, CheckSession, ModelChecker, ModelHandle, Reduction,
};
use mrmc_mrm::Mrm;
use mrmc_numerics::omega::OmegaTermCache;

use crate::clock::{now_s, timed};
use crate::files::ModelFiles;
use crate::layers::{self, Tracer};
use crate::stats::{median, quantile};
use crate::{RunConfig, RunResult, MIN_PASSES};

/// One check of a workload.
#[derive(Debug, Clone)]
pub struct Op {
    /// Which of the pass's sessions runs it.
    pub slot: usize,
    /// Index into [`Spec::models`].
    pub model: usize,
    /// CSRL text, as a user would type it.
    pub formula: String,
    /// The options `mrmc check` would use (`u=`/`d=` switch).
    pub options: CheckOptions,
    /// Short human label (`5.4 t=500`).
    pub label: String,
    /// How the result is verified.
    pub expect: Expect,
}

/// How an [`Op`]'s result is verified.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A paper row: for each `(state, p, e)`, the probability at `state`
    /// must lie within `e` of the pinned `p` (`EXPERIMENTS.md`), widened
    /// by the check's own error budget when `with_budget` is set.
    Pinned {
        /// `(start state, pinned probability, pinned error bound)`.
        rows: Vec<(usize, f64, f64)>,
        /// Add the reported budget to the allowed distance.
        with_budget: bool,
    },
    /// Must agree, state by state, with a one-shot `ModelChecker` run
    /// without reduction or slicing: within both reported budgets, plus
    /// `tolerance` (the solver's accuracy) for operators without one.
    /// Ops with equal `key` share one reference run: they differ only in
    /// the outer threshold, which no probability depends on.
    Unreduced {
        /// Reference-sharing key.
        key: String,
        /// Allowed disagreement beyond the budgets.
        tolerance: f64,
    },
}

/// A workload made of [`Op`]s.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The models, written to files at setup.
    pub models: Vec<ModelFiles>,
    /// Fresh sessions per pass (the paper gives each table its own).
    pub slots: usize,
    /// The timed pass, in seeded order.
    pub ops: Vec<Op>,
    /// The untimed warm-up pass.
    pub warmup: Vec<Op>,
}

/// The sessions of one pass with their loaded models.
struct Prepared {
    sessions: Vec<CheckSession>,
    /// `handles[slot][model]`, loaded only where an op needs it.
    handles: Vec<BTreeMap<usize, ModelHandle>>,
}

/// Create the pass's sessions and load every model its ops use: the
/// work `setup_s` measures.
fn prepare(spec: &Spec, ops: &[Op]) -> Result<Prepared, String> {
    let sessions: Vec<CheckSession> = (0..spec.slots).map(|_| CheckSession::new()).collect();
    let mut handles = vec![BTreeMap::new(); spec.slots];
    for op in ops {
        if !handles[op.slot].contains_key(&op.model) {
            let h = spec.models[op.model].load_into(&sessions[op.slot])?;
            handles[op.slot].insert(op.model, h);
        }
    }
    Ok(Prepared { sessions, handles })
}

type Checked = Result<CheckOutcome, CheckError>;

/// Set-up runs this often and this long at least; its median is
/// `setup_s`. Set-up takes microseconds on the paper's small models, so
/// only many repetitions give a steady median.
const MIN_SETUPS: usize = 7;
const SETUP_S: f64 = 0.5;

/// Run `ops` once; returns each result with its wall seconds.
fn run_pass(prepared: &Prepared, ops: &[Op]) -> Vec<(Checked, f64)> {
    ops.iter()
        .map(|op| {
            let handle = &prepared.handles[op.slot][&op.model];
            timed(|| prepared.sessions[op.slot].check_str(handle, &op.formula, &op.options))
        })
        .collect()
}

/// Repeat set-up at least `reps` times and for at least `min_s` seconds.
fn setup_samples(spec: &Spec, reps: usize, min_s: f64) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    let start = now_s();
    while out.len() < reps || now_s() - start < min_s {
        let (prepared, secs) = timed(|| prepare(spec, &spec.ops));
        prepared?;
        out.push(secs);
    }
    Ok(out)
}

/// Run an in-process workload: the timed measurement, or the traced
/// pass when `config.trace_dir` is set.
///
/// # Errors
///
/// Set-up failures (files, loads); check failures are counted instead.
pub fn run(spec: &Spec, config: &RunConfig) -> Result<RunResult, String> {
    run_pass(&prepare(spec, &spec.warmup)?, &spec.warmup);
    match &config.trace_dir {
        Some(dir) => run_traced(spec, config, dir),
        None => run_timed(spec, config),
    }
}

fn run_timed(spec: &Spec, config: &RunConfig) -> Result<RunResult, String> {
    let setup = if config.smoke {
        setup_samples(spec, 1, 0.0)?
    } else {
        setup_samples(spec, MIN_SETUPS, SETUP_S)?
    };
    let mut passes: Vec<Vec<(Checked, f64)>> = Vec::new();
    let mut pass_s = Vec::new();
    let mut spent = 0.0;
    let mut rss = 0.0;
    while passes.is_empty()
        || (!config.smoke && (passes.len() < MIN_PASSES || spent < config.seconds))
    {
        let prepared = prepare(spec, &spec.ops)?;
        let start = now_s();
        let results = run_pass(&prepared, &spec.ops);
        let wall = now_s() - start;
        if passes.is_empty() {
            // After a fixed amount of work, so the reading does not
            // depend on how many passes fit into the run.
            rss = crate::peak_rss_mib(None)?;
        }
        spent += wall;
        pass_s.push(wall);
        passes.push(results);
    }

    let mut result = RunResult::default();
    let mut references = References::default();
    for results in &passes {
        for ((checked, _), (op, (first, _))) in results.iter().zip(spec.ops.iter().zip(&passes[0]))
        {
            let failure = match (checked, first) {
                (Ok(o), Ok(f)) if o != f => {
                    Some(format!("{}: result differs between passes", op.label))
                }
                _ => verify(spec, op, checked, &mut references),
            };
            result.verify(failure);
        }
    }
    // Each check's latency is its median over the passes, so one slow
    // moment of the host moves no percentile on its own.
    let latencies: Vec<f64> = (0..spec.ops.len())
        .map(|i| median(&passes.iter().map(|p| p[i].1).collect::<Vec<f64>>()) * 1e3)
        .collect();
    let n = latencies.len();
    let budgets = time_bounded_budgets(&spec.ops, &passes[0]);
    result.push(
        "setup_s",
        "s",
        median(&setup),
        format!("median of {} set-ups", setup.len()),
    );
    result.push(
        "pass_s",
        "s",
        median(&pass_s),
        format!(
            "median of {} passes of {} checks",
            pass_s.len(),
            spec.ops.len()
        ),
    );
    result.push(
        "op_p50_ms",
        "ms",
        quantile(&latencies, 0.5),
        format!("{n} checks, each the median of its {} runs", passes.len()),
    );
    result.push(
        "op_p90_ms",
        "ms",
        quantile(&latencies, 0.9),
        format!(
            "{n} checks, {} beyond",
            n - (0.9 * n as f64).ceil() as usize
        ),
    );
    result.push(
        "peak_rss_mib",
        "MiB",
        rss,
        "VmHWM of the benchmark process after the first pass".into(),
    );
    result.push(
        "err_budget_p50",
        "probability",
        median(&budgets),
        format!("median over {} time-bounded checks", budgets.len()),
    );
    Ok(result)
}

fn run_traced(spec: &Spec, config: &RunConfig, dir: &std::path::Path) -> Result<RunResult, String> {
    let prepared = prepare(spec, &spec.ops)?;
    let untraced = run_pass(&prepared, &spec.ops);
    let untraced_s: f64 = untraced.iter().map(|(_, s)| s).sum();
    drop(prepared);

    let mut tracer = Tracer::default();
    for (i, files) in spec.models.iter().enumerate() {
        tracer.trace_load(files, &format!("model{i}"))?;
    }
    let prepared = prepare(spec, &spec.ops)?;
    let omega: Vec<Arc<OmegaTermCache>> =
        prepared.sessions.iter().map(|_| Arc::default()).collect();
    let mut result = RunResult::default();
    let mut references = References::default();
    let mut traced_s = 0.0;
    for (i, (op, (first, _))) in spec.ops.iter().zip(&untraced).enumerate() {
        let handle = &prepared.handles[op.slot][&op.model];
        let session = &prepared.sessions[op.slot];
        let traced = tracer.trace_check(
            session,
            handle,
            &op.formula,
            &op.options,
            &format!("check{i}"),
            &omega[op.slot],
        );
        traced_s += traced.wall_s;
        let failure = traced
            .replay_error
            .clone()
            .or_else(|| match (&traced.checked, first) {
                (Ok(o), Ok(f)) if o != f => {
                    Some(format!("{}: traced result differs from untraced", op.label))
                }
                _ => verify(spec, op, &traced.checked, &mut references),
            });
        result.verify(failure);
    }
    tracer.overhead(traced_s, untraced_s);
    layers::finish(&mut result, &tracer, dir, config)?;
    Ok(result)
}

/// The largest per-state error budget of every time-bounded check of
/// the first pass.
fn time_bounded_budgets(ops: &[Op], results: &[(Checked, f64)]) -> Vec<f64> {
    ops.iter()
        .zip(results)
        .filter(|(op, _)| layers::is_time_bounded(&op.formula))
        .filter_map(|(_, (checked, _))| checked.as_ref().ok().map(max_budget))
        .collect()
}

/// The largest total error budget an outcome reports (0 without budgets).
pub fn max_budget(outcome: &CheckOutcome) -> f64 {
    outcome.budgets().map_or(0.0, |b| {
        b.iter().map(mrmc::ErrorBudget::total).fold(0.0, f64::max)
    })
}

/// Reference runs for [`Expect::Unreduced`], computed once per key.
#[derive(Default)]
struct References {
    models: BTreeMap<usize, Mrm>,
    outcomes: BTreeMap<String, Result<CheckOutcome, String>>,
}

fn verify(spec: &Spec, op: &Op, checked: &Checked, references: &mut References) -> Option<String> {
    let outcome = match checked {
        Ok(o) => o,
        Err(e) => return Some(format!("{}: {e}", op.label)),
    };
    let Some(probs) = outcome.probabilities() else {
        return Some(format!("{}: no probabilities reported", op.label));
    };
    let budget = |o: &CheckOutcome, s: usize| o.budgets().map_or(0.0, |b| b[s].total());
    match &op.expect {
        Expect::Pinned { rows, with_budget } => rows.iter().find_map(|&(state, p, e)| {
            let got = probs[state];
            let allowed = e + if *with_budget {
                budget(outcome, state)
            } else {
                0.0
            };
            ((got - p).abs() > allowed).then(|| {
                format!(
                    "{}: P({state}) = {got} is not within {allowed:e} of the pinned {p}",
                    op.label
                )
            })
        }),
        Expect::Unreduced { key, tolerance } => {
            let reference = match reference(spec, op, key, references) {
                Ok(r) => r,
                Err(e) => return Some(format!("{}: reference run failed: {e}", op.label)),
            };
            let Some(ref_probs) = reference.probabilities() else {
                return Some(format!(
                    "{}: the unreduced run reports no probabilities",
                    op.label
                ));
            };
            (0..probs.len())
                .find(|&s| {
                    let allowed = budget(outcome, s) + budget(reference, s) + tolerance;
                    (probs[s] - ref_probs[s]).abs() > allowed
                })
                .map(|s| {
                    format!(
                        "{}: state {s} reads {} but the unreduced run gives {}",
                        op.label, probs[s], ref_probs[s]
                    )
                })
        }
    }
}

fn reference<'a>(
    spec: &Spec,
    op: &Op,
    key: &str,
    references: &'a mut References,
) -> Result<&'a CheckOutcome, String> {
    if !references.outcomes.contains_key(key) {
        let mrm = match references.models.entry(op.model) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(spec.models[op.model].load_model()?),
        };
        let options = op.options.with_reduction(Reduction::Off).without_slicing();
        let outcome = ModelChecker::new(mrm.clone(), options)
            .check_str(&op.formula)
            .map_err(|e| e.to_string());
        references.outcomes.insert(key.to_string(), outcome);
    }
    references.outcomes[key].as_ref().map_err(Clone::clone)
}
