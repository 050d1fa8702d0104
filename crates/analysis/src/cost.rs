//! Cost-prediction lint passes (`C` codes).
//!
//! Reward-bounded until formulas (both `sup I` and `sup J` finite — the
//! thesis' P2 property class) are the only ones that start a genuinely
//! expensive engine, and both failure modes are predictable from the model
//! and the knobs alone:
//!
//! * the path-exploration engine visits a tree whose depth is the
//!   uniformization truncation depth and whose branching factor is the
//!   mean out-degree — `C101` warns when the product explodes;
//! * the discretization engine allocates a `states × ⌈r/d⌉` grid — `C102`
//!   warns when that exceeds a memory budget, and `C001` when the step
//!   violates the `d ≤ 1/max-exit-rate` stability requirement;
//! * `C103` is an informational note with the predicted numbers, so a
//!   user can sanity-check an expensive run before launching it.
//!
//! Everything here is Warning/Note grade (promoted by `--deny warnings`):
//! predictions are upper-bound flavored, and the stability check `C001`
//! depends on which states the until's make-absorbing step removes, which
//! is not known statically.
//!
//! The estimators behind the passes ([`estimate_uniformization`],
//! [`estimate_discretization`]) are deliberately cheap
//! (`O(states + transitions)`), so a run that would spin or abort
//! mid-flight is flagged before any numerics start.

use mrmc_csrl::{PathFormula, StateFormula};
use mrmc_ctmc::poisson;
use mrmc_mrm::Mrm;
use mrmc_numerics::{UntilEngine, UntilRoute};

use crate::diagnostic::{Diagnostic, Report, Severity};
use crate::LintContext;

/// Estimated path-tree nodes above which a uniformization run is
/// considered likely to explode (the lint's `C101` threshold).
pub const PATH_EXPLOSION_NODES: f64 = 1e8;

/// Estimated grid bytes above which a discretization run is considered
/// memory-hostile (the lint's `C102` threshold, 8 GiB-ish).
pub const GRID_MEMORY_BYTES: f64 = 8e9;

/// The largest exit rate in the model, `max_s E(s)` — the quantity both
/// the uniformization-rate rule and the discretization stability
/// requirement are built on.
pub fn max_exit_rate(mrm: &Mrm) -> f64 {
    mrm.ctmc()
        .exit_rates()
        .iter()
        .fold(0.0_f64, |a, &b| a.max(b))
}

/// The largest discretization step the stability requirement
/// `d ≤ 1/max-exit-rate` admits ([`f64::INFINITY`] for an absorbing-only
/// model, where any step is stable).
pub fn max_stable_step(mrm: &Mrm) -> f64 {
    let max_exit = max_exit_rate(mrm);
    if max_exit == 0.0 {
        f64::INFINITY
    } else {
        1.0 / max_exit
    }
}

/// The `Λ = 1.02 · max exit rate` uniformization-rate rule used by
/// [`UniformizedMrm`](mrmc_mrm::UniformizedMrm) when no explicit rate is
/// given; replicated here so predictions match the engine.
fn default_lambda(mrm: &Mrm) -> f64 {
    1.02 * max_exit_rate(mrm)
}

/// Prediction for a uniformization path-exploration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformizationCost {
    /// The uniformization rate `Λ` that would be used.
    pub lambda: f64,
    /// `Λ · t`, the Poisson mean governing the truncation depth.
    pub lambda_t: f64,
    /// Smallest depth `n` with Poisson upper tail `≤ truncation`: paths
    /// longer than this are certainly discarded, so it bounds the
    /// exploration depth.
    pub truncation_depth: u64,
    /// Mean out-degree of non-absorbing states (branching factor of the
    /// path tree).
    pub mean_branching: f64,
    /// `mean_branching ^ truncation_depth`, saturating at `f64::INFINITY`:
    /// a coarse upper bound on the number of path-tree nodes visited.
    pub estimated_paths: f64,
}

/// Predict the work of the uniformization engine for horizon `t` and path
/// truncation probability `w` (see
/// [`UniformOptions::truncation`](mrmc_numerics::uniformization::UniformOptions)).
///
/// The estimate is an upper bound in the branching factor sense: pruning by
/// path probability and the improved potential-based pruning typically visit
/// far fewer nodes, so a small estimate is trustworthy while a huge one
/// means "could explode", not "will".
pub fn estimate_uniformization(mrm: &Mrm, t: f64, truncation: f64) -> UniformizationCost {
    let lambda = default_lambda(mrm);
    let lambda_t = (lambda * t).max(0.0);

    // Smallest n with upper_tail(Λt, n) ≤ w; the engine cannot keep any
    // path longer than this. Exponential probe + binary refinement keeps
    // this O(log depth) calls to the (logspace, stable) tail.
    let w = truncation.clamp(f64::MIN_POSITIVE, 1.0);
    let mut hi: u64 = 1;
    while poisson::upper_tail(lambda_t, hi) > w && hi < 1 << 40 {
        hi *= 2;
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if poisson::upper_tail(lambda_t, mid) > w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let truncation_depth = hi;

    let ctmc = mrm.ctmc();
    let (mut branches, mut live) = (0usize, 0usize);
    for s in 0..ctmc.num_states() {
        let deg = ctmc.rates().row_nnz(s);
        if deg > 0 {
            branches += deg;
            live += 1;
        }
    }
    let mean_branching = if live == 0 {
        0.0
    } else {
        branches as f64 / live as f64
    };

    let estimated_paths = if mean_branching <= 1.0 {
        truncation_depth as f64
    } else {
        mean_branching.powf(truncation_depth as f64)
    };

    UniformizationCost {
        lambda,
        lambda_t,
        truncation_depth,
        mean_branching,
        estimated_paths,
    }
}

/// Prediction for a discretization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscretizationCost {
    /// Number of time steps `T = ⌈t/d⌉`.
    pub time_steps: f64,
    /// Number of reward cells `R = ⌈r/d⌉ + 1` per state.
    pub reward_cells: f64,
    /// Bytes for the two `states × reward-cells` density planes the engine
    /// keeps live (`f64` cells, current + next).
    pub estimated_bytes: f64,
    /// `true` when the step satisfies the stability requirement
    /// `d ≤ 1 / max exit rate` (at most one transition per step).
    pub stable: bool,
}

/// Predict the memory/work of the discretization engine for time bound `t`,
/// reward bound `r` and step `d` (see
/// [`DiscretizationOptions::step`](mrmc_numerics::discretization::DiscretizationOptions)).
pub fn estimate_discretization(mrm: &Mrm, t: f64, r: f64, step: f64) -> DiscretizationCost {
    let max_exit = max_exit_rate(mrm);
    let d = if step > 0.0 { step } else { f64::NAN };
    let time_steps = (t / d).ceil().max(0.0);
    let reward_cells = (r / d).ceil().max(0.0) + 1.0;
    let estimated_bytes = mrm.num_states() as f64 * reward_cells * 8.0 * 2.0;
    // `d == 1/max_exit` is the boundary the engine itself accepts.
    let stable = d > 0.0 && (max_exit == 0.0 || d * max_exit <= 1.0 + 1e-12);
    DiscretizationCost {
        time_steps,
        reward_cells,
        estimated_bytes,
        stable,
    }
}

/// The worst-case (largest `t`, largest `r`) bounds over the formula's
/// untils routed to [`UntilRoute::RewardBounded`], if any.
fn p2_bounds(formula: &StateFormula, engine: &UntilEngine) -> Option<(f64, f64)> {
    let mut acc: Option<(f64, f64)> = None;
    formula.visit(&mut |f, _| {
        let StateFormula::Prob { path, .. } = f else {
            return;
        };
        let PathFormula::Until { time, reward, .. } = path.as_ref() else {
            return;
        };
        if let UntilRoute::RewardBounded { t, r } = engine.route(time, reward) {
            acc = Some(acc.map_or((t, r), |(at, ar)| (at.max(t), ar.max(r))));
        }
    });
    acc
}

/// `C001`/`C101`/`C102`/`C103`: predict the configured engine's cost for
/// the formula's most expensive reward-bounded until.
pub fn prediction(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let Some((t, r)) = p2_bounds(formula, &ctx.engine) else {
        return; // no P2-class until: no expensive engine runs.
    };
    match ctx.engine {
        UntilEngine::Uniformization(u) => {
            let c = estimate_uniformization(ctx.mrm, t, u.truncation);
            if c.estimated_paths > PATH_EXPLOSION_NODES {
                report.push(
                    Diagnostic::new(
                        "C101",
                        Severity::Warning,
                        format!(
                            "path explosion likely: ~{:.1e} path-tree nodes \
                             (branching {:.2}, truncation depth {} at \u{039b}t = {:.1})",
                            c.estimated_paths, c.mean_branching, c.truncation_depth, c.lambda_t
                        ),
                    )
                    .with_suggestion(
                        "raise the truncation probability (u=1e-6), shorten the time bound, \
                         or switch to the discretization (d=...) or simulation (s=...) engine",
                    ),
                );
            } else {
                report.push(Diagnostic::new(
                    "C103",
                    Severity::Note,
                    format!(
                        "uniformization forecast: \u{039b}t = {:.1}, truncation depth {}, \
                         ~{:.1e} path-tree nodes",
                        c.lambda_t, c.truncation_depth, c.estimated_paths
                    ),
                ));
            }
        }
        UntilEngine::Discretization(d) => {
            let step = d.step;
            let c = estimate_discretization(ctx.mrm, t, r, step);
            if !c.stable {
                report.push(
                    Diagnostic::new(
                        "C001",
                        Severity::Warning,
                        format!(
                            "discretization step {step} violates the stability requirement \
                             d \u{2264} 1/max-exit-rate; the engine will reject it unless the \
                             fastest states are made absorbing"
                        ),
                    )
                    .with_suggestion(format!("use d <= {:.3e}", max_stable_step(ctx.mrm))),
                );
            }
            if c.estimated_bytes > GRID_MEMORY_BYTES {
                report.push(
                    Diagnostic::new(
                        "C102",
                        Severity::Warning,
                        format!(
                            "discretization grid needs ~{:.1e} bytes ({:.0} reward cells \
                             \u{00d7} {} states)",
                            c.estimated_bytes,
                            c.reward_cells,
                            ctx.mrm.num_states()
                        ),
                    )
                    .with_suggestion(
                        "increase the step d, lower the reward bound, or switch engines",
                    ),
                );
            } else if c.stable {
                report.push(Diagnostic::new(
                    "C103",
                    Severity::Note,
                    format!(
                        "discretization forecast: {:.0} time steps \u{00d7} {:.0} reward \
                         cells, ~{:.1e} bytes",
                        c.time_steps, c.reward_cells, c.estimated_bytes
                    ),
                ));
            }
        }
        UntilEngine::Simulation(sim) => {
            let samples = sim.samples;
            report.push(Diagnostic::new(
                "C103",
                Severity::Note,
                format!(
                    "simulation forecast: {samples} trajectories per state \u{00d7} {} states \
                     over horizon {t}",
                    ctx.mrm.num_states()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use mrmc_ctmc::CtmcBuilder;

    fn chain() -> Mrm {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(1, 0, 1.0)
            .transition(1, 2, 2.0)
            .transition(2, 1, 3.0);
        b.label(0, "a").label(2, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    fn lint(mrm: &Mrm, text: &str, engine: UntilEngine) -> Report {
        let f = mrmc_csrl::parse(text).unwrap();
        Analyzer::new().check_formula(mrm, &f, engine)
    }

    #[test]
    fn no_p2_until_no_cost_codes() {
        let m = chain();
        let r = lint(&m, "P(>= 0.5) [a U[0,10] goal]", UntilEngine::default());
        assert!(!r.codes().iter().any(|c| c.starts_with('C')), "{r}");
    }

    #[test]
    fn small_run_gets_a_forecast_note() {
        let m = chain();
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,2][0,10] goal]",
            UntilEngine::default(),
        );
        let d = r.diagnostics().iter().find(|d| d.code == "C103").unwrap();
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("truncation depth"));
        assert!(!r.codes().contains(&"C101"));
    }

    #[test]
    fn long_horizon_warns_of_path_explosion() {
        let m = chain();
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,1000][0,1e9] goal]",
            UntilEngine::uniformization(1e-8),
        );
        let d = r.diagnostics().iter().find(|d| d.code == "C101").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn unstable_step_warns_c001() {
        let m = chain(); // max exit 4.0 ⇒ needs d ≤ 0.25
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,2][0,10] goal]",
            UntilEngine::discretization(0.5),
        );
        let d = r.diagnostics().iter().find(|d| d.code == "C001").unwrap();
        assert!(d.suggestion.as_deref().unwrap().contains("d <="));
        // A stable step instead produces the forecast note.
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,2][0,10] goal]",
            UntilEngine::discretization(0.01),
        );
        assert!(r.codes().contains(&"C103"));
        assert!(!r.codes().contains(&"C001"));
    }

    #[test]
    fn huge_grid_warns_c102() {
        let m = chain();
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,2][0,1e9] goal]",
            UntilEngine::discretization(0.0001),
        );
        assert!(r.codes().contains(&"C102"), "{r}");
    }

    #[test]
    fn simulation_forecast_notes_sample_count() {
        let m = chain();
        let r = lint(
            &m,
            "P(>= 0.5) [a U[0,2][0,10] goal]",
            UntilEngine::simulation(5000),
        );
        let d = r.diagnostics().iter().find(|d| d.code == "C103").unwrap();
        assert!(d.message.contains("5000"));
    }

    fn wavelan() -> Mrm {
        let mut b = mrmc_ctmc::CtmcBuilder::new(5);
        b.transition(0, 1, 0.1);
        b.transition(1, 0, 0.05).transition(1, 2, 5.0);
        b.transition(2, 1, 12.0)
            .transition(2, 3, 1.5)
            .transition(2, 4, 0.75);
        b.transition(3, 2, 10.0);
        b.transition(4, 2, 15.0);
        b.label(2, "idle");
        b.label(3, "busy");
        b.label(4, "busy");
        let ctmc = b.build().unwrap();
        let rho = mrmc_mrm::StateRewards::new(vec![0.0, 80.0, 1319.0, 1675.0, 1425.0]).unwrap();
        let mut iota = mrmc_mrm::ImpulseRewards::new();
        iota.set(2, 3, 0.42545).unwrap();
        iota.set(2, 4, 0.36195).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn max_exit_rate_and_stable_step() {
        let m = wavelan();
        assert_eq!(max_exit_rate(&m), 15.0);
        assert_eq!(max_stable_step(&m), 1.0 / 15.0);
        // An absorbing-only model admits any step.
        let lone = Mrm::without_rewards(mrmc_ctmc::CtmcBuilder::new(1).build().unwrap());
        assert_eq!(max_exit_rate(&lone), 0.0);
        assert_eq!(max_stable_step(&lone), f64::INFINITY);
    }

    #[test]
    fn uniformization_depth_matches_poisson_tail() {
        let m = wavelan();
        let c = estimate_uniformization(&m, 2.0, 1e-8);
        // Λ = 1.02 · 15 (max exit in WaveLAN is state 5's repair rate).
        assert!((c.lambda - 1.02 * 15.0).abs() < 1e-12);
        assert!((c.lambda_t - c.lambda * 2.0).abs() < 1e-12);
        // The returned depth is the first with tail ≤ w.
        assert!(poisson::upper_tail(c.lambda_t, c.truncation_depth) <= 1e-8);
        assert!(poisson::upper_tail(c.lambda_t, c.truncation_depth - 1) > 1e-8);
        // Every WaveLAN state has at least one successor; 8 transitions
        // over 5 states.
        assert!((c.mean_branching - 8.0 / 5.0).abs() < 1e-12);
        assert!(c.estimated_paths > 1.0 && c.estimated_paths.is_finite());
    }

    #[test]
    fn uniformization_estimate_grows_with_horizon() {
        let m = wavelan();
        let short = estimate_uniformization(&m, 1.0, 1e-8);
        let long = estimate_uniformization(&m, 100.0, 1e-8);
        assert!(long.truncation_depth > short.truncation_depth);
        assert!(long.estimated_paths >= short.estimated_paths);
    }

    #[test]
    fn discretization_counts_grid_cells() {
        let m = wavelan();
        let c = estimate_discretization(&m, 1.0, 10.0, 0.01);
        assert_eq!(c.time_steps, 100.0);
        assert_eq!(c.reward_cells, 1001.0);
        assert_eq!(c.estimated_bytes, 5.0 * 1001.0 * 16.0);
        // Max exit 15 ⇒ needs d ≤ 1/15 ≈ 0.0667; 0.01 is stable.
        assert!(c.stable);
        assert!(!estimate_discretization(&m, 1.0, 10.0, 0.5).stable);
    }
}
