//! Model-scope lint passes (`M1xx` codes).
//!
//! The `M0xx` error codes are produced by
//! [`diagnose_load_error`](crate::diagnose_load_error) — a model that
//! loaded at all cannot violate the MRM definition, so everything here is
//! Warning/Note grade: loadable but suspicious structure.

use mrmc_ctmc::bscc::SccDecomposition;

use crate::diagnostic::{Diagnostic, Report, Severity};
use crate::LintContext;

/// How many state references a diagnostic lists before truncating.
const MAX_STATE_REFS: usize = 8;

/// Exit-rate spread beyond which a chain counts as stiff (the
/// uniformization rate is driven by the fastest state while the horizon is
/// governed by the slowest, so Λ·t — and with it every engine's work —
/// scales with this ratio).
const STIFFNESS_RATIO: f64 = 1e6;

/// Clip a state list to [`MAX_STATE_REFS`] representatives (1-indexed).
fn state_refs(states: impl Iterator<Item = usize>) -> Vec<usize> {
    states.take(MAX_STATE_REFS).map(|s| s + 1).collect()
}

/// `M101`/`M102`: states unreachable from the initial state (warning) and
/// a vanishing initial state — one no transition re-enters (note).
///
/// The model files have no initial-state marker; following the original
/// tool, state 1 is taken as initial. Unreachable states cost every engine
/// memory and per-state work without contributing to any verdict for the
/// initial state.
pub fn reachability(ctx: &LintContext<'_>, report: &mut Report) {
    let ctmc = ctx.mrm.ctmc();
    let n = ctmc.num_states();
    let rates = ctmc.rates();

    let mut reached = vec![false; n];
    let mut stack = vec![0usize];
    reached[0] = true;
    while let Some(s) = stack.pop() {
        for (t, rate) in rates.row(s) {
            if rate > 0.0 && !reached[t] {
                reached[t] = true;
                stack.push(t);
            }
        }
    }
    let unreachable: Vec<usize> = (0..n).filter(|&s| !reached[s]).collect();
    if !unreachable.is_empty() {
        if ctx.verbose {
            // Flat per-state form, as reported before condensation existed.
            let count = unreachable.len();
            report.push(
                Diagnostic::new(
                    "M101",
                    Severity::Warning,
                    format!(
                        "{count} state{} unreachable from the initial state (state 1)",
                        if count == 1 { " is" } else { "s are" }
                    ),
                )
                .with_states(state_refs(unreachable.into_iter()))
                .with_suggestion(
                    "remove the unreachable states or add transitions reaching them; \
                     every engine pays per-state work for them",
                ),
            );
        } else {
            // One diagnostic per unreachable SCC: a whole strongly
            // connected component is unreachable iff any of its members
            // is (reachability is component-invariant), so the SCC is the
            // natural unit of repair — a single transition into the
            // component reconnects all of it.
            let scc = SccDecomposition::new(rates);
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); scc.num_components()];
            for &s in &unreachable {
                members[scc.component_of(s)].push(s);
            }
            // Components in ascending order of their smallest member, so
            // the report order is stable and follows the state numbering.
            let mut groups: Vec<&Vec<usize>> = members.iter().filter(|m| !m.is_empty()).collect();
            groups.sort_by_key(|m| m[0]);
            for group in groups {
                let count = group.len();
                report.push(
                    Diagnostic::new(
                        "M101",
                        Severity::Warning,
                        format!(
                            "unreachable SCC of {count} state{} (no path from the \
                             initial state, state 1)",
                            if count == 1 { "" } else { "s" }
                        ),
                    )
                    .with_states(state_refs(group.iter().copied()))
                    .with_suggestion(
                        "remove the component or add a transition reaching it; \
                         every engine pays per-state work for it",
                    ),
                );
            }
        }
    }

    let initial_has_incoming = rates.iter().any(|(_, to, rate)| to == 0 && rate > 0.0);
    if !initial_has_incoming && !ctmc.is_absorbing(0) {
        report.push(
            Diagnostic::new(
                "M102",
                Severity::Note,
                "the initial state (state 1) has no incoming transitions: it vanishes \
                 after the first jump, so steady-state measures ignore it",
            )
            .with_states(vec![1]),
        );
    }
}

/// `M103`: impulse rewards attached to zero-rate transitions. The impulse
/// can never be earned — almost certainly a generator bug or a stale
/// `.rewi` file.
pub fn impulse_structure(ctx: &LintContext<'_>, report: &mut Report) {
    let rates = ctx.mrm.ctmc().rates();
    let dead: Vec<(usize, usize)> = ctx
        .mrm
        .impulse_rewards()
        .iter()
        .filter(|&(from, to, value)| value > 0.0 && rates.get(from, to) == 0.0)
        .map(|(from, to, _)| (from, to))
        .collect();
    if !dead.is_empty() {
        let refs: Vec<String> = dead
            .iter()
            .take(MAX_STATE_REFS)
            .map(|(f, t)| format!("{} -> {}", f + 1, t + 1))
            .collect();
        report.push(
            Diagnostic::new(
                "M103",
                Severity::Warning,
                format!(
                    "{} impulse reward{} on zero-rate transition{} ({}): never earned",
                    dead.len(),
                    if dead.len() == 1 { "" } else { "s" },
                    if dead.len() == 1 { "" } else { "s" },
                    refs.join(", "),
                ),
            )
            .with_suggestion("remove the entries from the .rewi file or add the transitions"),
        );
    }
}

/// `M104`/`M107`: absorbing-BSCC structure.
///
/// * `M107` (note): absorbing states — until formulas stop accumulating
///   there, which is load-bearing for reward-bounded properties.
/// * `M104` (warning): a *zero-reward* BSCC in a model that otherwise has
///   rewards. Once entered, accumulated reward freezes forever, so
///   reward-bounded until formulas degenerate there (see "Markov Reward
///   Processes with Impulse Rewards and Absorbing States").
pub fn bscc_rewards(ctx: &LintContext<'_>, report: &mut Report) {
    let mrm = ctx.mrm;
    let ctmc = mrm.ctmc();
    let n = ctmc.num_states();

    let absorbing: Vec<usize> = (0..n).filter(|&s| ctmc.is_absorbing(s)).collect();
    if !absorbing.is_empty() {
        let count = absorbing.len();
        report.push(
            Diagnostic::new(
                "M107",
                Severity::Note,
                format!(
                    "{count} absorbing state{}: reward accumulation freezes there",
                    if count == 1 { "" } else { "s" }
                ),
            )
            .with_states(state_refs(absorbing.into_iter())),
        );
    }

    if mrm.is_reward_free() {
        // Zero-reward BSCCs are unremarkable in a reward-free model.
        return;
    }
    let scc = SccDecomposition::new(ctmc.rates());
    let mut flagged: Vec<usize> = Vec::new();
    for (_, members) in scc.bsccs() {
        let no_state_reward = members.iter().all(|&s| mrm.state_reward(s) == 0.0);
        let no_internal_impulse = members.iter().all(|&s| {
            ctmc.rates()
                .row(s)
                .all(|(t, rate)| rate == 0.0 || mrm.impulse_reward(s, t) == 0.0)
        });
        if no_state_reward && no_internal_impulse {
            flagged.extend(members.iter().copied());
        }
    }
    if !flagged.is_empty() {
        flagged.sort_unstable();
        let count = flagged.len();
        report.push(
            Diagnostic::new(
                "M104",
                Severity::Warning,
                format!(
                    "zero-reward bottom component{} ({count} state{}): accumulated reward \
                     freezes on entry, reward-bounded formulas degenerate there",
                    if count == 1 { "" } else { "s" },
                    if count == 1 { "" } else { "s" },
                ),
            )
            .with_states(state_refs(flagged.into_iter()))
            .with_suggestion(
                "if intentional, prefer time-bounded (P1-class) formulas over \
                 reward-bounded ones for states in these components",
            ),
        );
    }
}

/// `M105`: stiffness — the ratio of the largest to the smallest non-zero
/// exit rate exceeds `STIFFNESS_RATIO` (10⁶). Both engines' work scales with
/// `Λ·t`, which the fastest state inflates while the slow states dictate
/// the interesting time scale.
pub fn stiffness(ctx: &LintContext<'_>, report: &mut Report) {
    let exits = ctx.mrm.ctmc().exit_rates();
    let mut min = f64::INFINITY;
    let mut max = 0.0_f64;
    for &e in exits {
        if e > 0.0 {
            min = min.min(e);
            max = max.max(e);
        }
    }
    if min.is_finite() && max > min * STIFFNESS_RATIO {
        report.push(
            Diagnostic::new(
                "M105",
                Severity::Warning,
                format!(
                    "stiff chain: exit rates span {min:.3e} to {max:.3e} \
                     (ratio {:.1e} > {STIFFNESS_RATIO:.0e})",
                    max / min
                ),
            )
            .with_suggestion(
                "expect large uniformization depths; consider the discretization \
                 engine, a shorter horizon, or rescaling rates",
            ),
        );
    }
}

/// `M106`: atomic propositions declared in the `.lab` file's
/// `#DECLARATION` block but never assigned to a state. A formula using one
/// fails with `F001`, so a stale declaration usually hides a typo.
pub fn label_usage(ctx: &LintContext<'_>, report: &mut Report) {
    let labeling = ctx.mrm.labeling();
    let used = labeling.all_propositions();
    let unused: Vec<&str> = labeling
        .declared()
        .into_iter()
        .filter(|ap| !used.contains(ap))
        .collect();
    if !unused.is_empty() {
        report.push(
            Diagnostic::new(
                "M106",
                Severity::Warning,
                format!(
                    "{} declared proposition{} label{} no state: {}",
                    unused.len(),
                    if unused.len() == 1 { "" } else { "s" },
                    if unused.len() == 1 { "s" } else { "" },
                    unused.join(", "),
                ),
            )
            .with_suggestion("assign the propositions to states or drop the declarations"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, Mrm, StateRewards};
    use mrmc_numerics::UntilEngine;

    fn ctx_report(mrm: &Mrm) -> Report {
        Analyzer::new().check_model(mrm)
    }

    #[test]
    fn clean_irreducible_model_is_quiet() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 1.0)
            .transition(2, 0, 1.0);
        b.label(0, "a").label(1, "b").label(2, "c");
        let m = Mrm::without_rewards(b.build().unwrap());
        let r = ctx_report(&m);
        assert!(r.is_empty(), "{r}");
    }

    #[test]
    fn unreachable_states_warn() {
        // 0 → 1 absorbing; 2 → 1 exists but nothing reaches 2.
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0).transition(2, 1, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let r = ctx_report(&m);
        assert!(r.codes().contains(&"M101"));
        let d = r.diagnostics().iter().find(|d| d.code == "M101").unwrap();
        assert_eq!(d.states, vec![3]);
        assert_eq!(d.severity, Severity::Warning);
    }

    #[test]
    fn vanishing_initial_state_notes() {
        // 1 → 2 ⇄ 3: nothing re-enters the initial state.
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 1.0)
            .transition(2, 1, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let r = ctx_report(&m);
        let d = r.diagnostics().iter().find(|d| d.code == "M102").unwrap();
        assert_eq!(d.states, vec![1]);
        assert_eq!(d.severity, Severity::Note);
        // An irreducible chain re-enters state 1: quiet.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        assert!(!ctx_report(&m).codes().contains(&"M102"));
    }

    #[test]
    fn impulse_on_missing_transition_warns() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let ctmc = b.build().unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 1.0).unwrap();
        // No 1 → 1 self transition either; impulse on a pair with no rate.
        iota.set(1, 1, 2.0).unwrap();
        let m = Mrm::new(ctmc, StateRewards::new(vec![0.0, 0.0]).unwrap(), iota).unwrap();
        let r = ctx_report(&m);
        let d = r.diagnostics().iter().find(|d| d.code == "M103").unwrap();
        assert!(d.message.contains("2 -> 2"), "{}", d.message);
    }

    #[test]
    fn zero_reward_bscc_warns_only_with_rewards_elsewhere() {
        // 0 (ρ=1) → 1 absorbing with ρ=0: zero-reward BSCC {1}.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        let m = Mrm::new(
            ctmc,
            StateRewards::new(vec![1.0, 0.0]).unwrap(),
            ImpulseRewards::new(),
        )
        .unwrap();
        let r = ctx_report(&m);
        assert!(r.codes().contains(&"M104"), "{r}");
        assert!(r.codes().contains(&"M107"));

        // Same chain, reward-free: no M104 (but M107 stays).
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let r = ctx_report(&m);
        assert!(!r.codes().contains(&"M104"));
        assert!(r.codes().contains(&"M107"));
    }

    #[test]
    fn rewarded_bscc_is_fine() {
        // Absorbing state with a state reward: accumulation continues.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        let m = Mrm::new(
            ctmc,
            StateRewards::new(vec![1.0, 2.0]).unwrap(),
            ImpulseRewards::new(),
        )
        .unwrap();
        let r = ctx_report(&m);
        assert!(!r.codes().contains(&"M104"), "{r}");
    }

    #[test]
    fn stiffness_detected() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1e-4)
            .transition(1, 2, 1e7)
            .transition(2, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let r = ctx_report(&m);
        let d = r.diagnostics().iter().find(|d| d.code == "M105").unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.suggestion.is_some());
    }

    #[test]
    fn unused_declaration_warns() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        b.label(0, "up");
        let mut m = Mrm::without_rewards(b.build().unwrap());
        let (mut ctmc, rho, iota) = m.into_parts();
        ctmc.labeling_mut().declare("ghost");
        m = Mrm::new(ctmc, rho, iota).unwrap();
        let r = ctx_report(&m);
        let d = r.diagnostics().iter().find(|d| d.code == "M106").unwrap();
        assert!(d.message.contains("ghost"));
    }

    #[test]
    fn model_passes_ignore_the_formula_slot() {
        // check_model must not require a formula.
        let mut b = CtmcBuilder::new(1);
        b.transition(0, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let _ = Analyzer::new().check_all(&m, &[], UntilEngine::default());
    }
}
