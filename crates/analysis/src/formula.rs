//! Formula-scope lint passes (`F` codes).
//!
//! Errors (`F0xx`) are conditions under which the Sat recursion is certain
//! to fail at engine time; catching them here lets the checker abort with
//! a dedicated exit code before any numerics start. Warnings and notes
//! (`F1xx`) flag formulas that are checkable but vacuous or needlessly
//! expensive.
//!
//! Empty or inverted `I`/`J` intervals cannot be represented at all —
//! [`mrmc_csrl::Interval`] rejects them at construction and the parser at
//! parse time — so there is no lint for them; they surface as `F003`
//! (syntax) in `mrmc lint`'s formula-parsing front end.

use mrmc_csrl::{CompareOp, Interval, PathFormula, StateFormula};
use mrmc_numerics::{Unsupported, UntilRoute};

use crate::diagnostic::{Diagnostic, Report, Severity};
use crate::LintContext;

/// `F001`: an atomic proposition that labels no state.
///
/// Matching the checker's runtime behavior, the condition is "labels no
/// state", not "undeclared": a typo would otherwise silently evaluate to
/// `ff` everywhere.
pub fn propositions(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let labeling = ctx.mrm.labeling();
    let used = labeling.all_propositions();
    for ap in formula.propositions() {
        if !used.contains(&ap) {
            let declared = labeling.declared().contains(&ap);
            let mut d = Diagnostic::new(
                "F001",
                Severity::Error,
                if declared {
                    format!("atomic proposition `{ap}` is declared but labels no state")
                } else {
                    format!("atomic proposition `{ap}` does not label any state")
                },
            );
            d = match closest(ap, &used) {
                Some(candidate) => d.with_suggestion(format!("did you mean `{candidate}`?")),
                None => d.with_suggestion(format!(
                    "propositions labeling states: {}",
                    if used.is_empty() {
                        "(none)".to_string()
                    } else {
                        used.join(", ")
                    }
                )),
            };
            report.push(d);
        }
    }
}

/// The nearest proposition by edit distance, if convincingly close.
fn closest<'a>(ap: &str, candidates: &[&'a str]) -> Option<&'a str> {
    candidates
        .iter()
        .map(|&c| (edit_distance(ap, c), c))
        .filter(|&(d, c)| d <= 2 && d < c.len().max(ap.len()))
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Plain Levenshtein distance (small strings only).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// `F002`: until bounds no configured engine supports — exactly the
/// untils whose [`UntilRoute`] is [`UntilRoute::Unsupported`], so the lint
/// rejects what the checker would reject and nothing else. `X^I_J` has a
/// closed form for general intervals and is never flagged.
pub fn bound_support(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    formula.visit(&mut |f, _| {
        let StateFormula::Prob { path, .. } = f else {
            return;
        };
        let PathFormula::Until { time, reward, .. } = path.as_ref() else {
            return;
        };
        let UntilRoute::Unsupported(why) = ctx.engine.route(time, reward) else {
            return;
        };
        let (what, suggestion) = match why {
            Unsupported::RewardLowerBound => (
                format!("reward lower bound {} in U{}{}", reward.lo(), time, reward),
                "use the simulation engine (s=<samples>) with a finite time bound, \
                 or drop the reward lower bound",
            ),
            Unsupported::TimeLowerBoundWithReward => (
                format!(
                    "time lower bound {} combined with reward bound {} in U{}{}",
                    time.lo(),
                    reward,
                    time,
                    reward
                ),
                "use the simulation engine (s=<samples>), or drop one of the bounds",
            ),
            Unsupported::UnboundedTimeWithReward => (
                format!("unbounded time with bounded reward in U{time}{reward}"),
                "bound the time interval as well (Chapter 6 limitation)",
            ),
        };
        report.push(
            Diagnostic::new(
                "F002",
                Severity::Error,
                format!("no engine supports {what}"),
            )
            .with_suggestion(suggestion),
        );
    });
}

/// `F101`/`F102`: unsatisfiable and trivial probability thresholds.
///
/// Probabilities live in `[0, 1]`, so `P(> 1)`, `P(>= p)` with `p > 1`,
/// `P(< 0)` and `P(<= p)` with `p < 0` hold nowhere (`F101`), while
/// `P(>= 0)`, `P(<= 1)` and friends hold everywhere regardless of the
/// model (`F102`) — either way, running an engine is wasted work.
pub fn thresholds(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    formula.visit(&mut |f, _| {
        let (op, bound, kind) = match f {
            StateFormula::Steady { op, bound, .. } => (*op, *bound, "S"),
            StateFormula::Prob { op, bound, .. } => (*op, *bound, "P"),
            _ => return,
        };
        let unsat = match op {
            CompareOp::Gt => bound >= 1.0,
            CompareOp::Ge => bound > 1.0,
            CompareOp::Lt => bound <= 0.0,
            CompareOp::Le => bound < 0.0,
        };
        let trivial = match op {
            CompareOp::Ge => bound <= 0.0,
            CompareOp::Gt => bound < 0.0,
            CompareOp::Le => bound >= 1.0,
            CompareOp::Lt => bound > 1.0,
        };
        if unsat {
            report.push(
                Diagnostic::new(
                    "F101",
                    Severity::Warning,
                    format!(
                        "threshold {kind}({} {bound}) is unsatisfiable: probabilities never \
                         exceed 1 or fall below 0",
                        op.symbol()
                    ),
                )
                .with_suggestion("the operator is constantly false; fix the bound"),
            );
        } else if trivial {
            report.push(
                Diagnostic::new(
                    "F102",
                    Severity::Warning,
                    format!(
                        "threshold {kind}({} {bound}) holds trivially in every state",
                        op.symbol()
                    ),
                )
                .with_suggestion("the operator is constantly true; fix the bound"),
            );
        }
    });
}

/// `F103`/`F104`/`F106`: vacuous or degenerate bounds.
///
/// * `F103` (warning): `J = [0, 0]` while the model earns reward — only
///   paths staying in zero-reward states with zero-impulse jumps qualify.
/// * `F104` (note): a non-trivial reward bound on a reward-free model —
///   accumulated reward is constantly zero, so the bound is either always
///   met (`0 ∈ J`) or never met.
/// * `F106` (note): a degenerate point time interval `I = [t, t]` with
///   `t > 0` — supported, but usually a typo for `[0, t]`.
pub fn vacuity(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let reward_free = ctx.mrm.is_reward_free();
    formula.visit(&mut |f, _| {
        let StateFormula::Prob { path, .. } = f else {
            return;
        };
        let (time, reward, op_name): (&Interval, &Interval, &str) = match path.as_ref() {
            PathFormula::Next { time, reward, .. } => (time, reward, "X"),
            PathFormula::Until { time, reward, .. } => (time, reward, "U"),
        };
        if reward.lo() == 0.0 && reward.hi() == 0.0 && !reward_free {
            report.push(
                Diagnostic::new(
                    "F103",
                    Severity::Warning,
                    format!(
                        "reward bound [0,0] on {op_name} in a model with rewards: only \
                         zero-reward prefixes can satisfy it"
                    ),
                )
                .with_suggestion("widen the reward interval or drop it"),
            );
        }
        if reward_free && !reward.is_trivial() {
            report.push(
                Diagnostic::new(
                    "F104",
                    Severity::Note,
                    format!(
                        "reward bound {reward} on {op_name} in a reward-free model: \
                         accumulated reward is constantly zero, the bound is {}",
                        if reward.contains(0.0) {
                            "always met"
                        } else {
                            "never met"
                        }
                    ),
                )
                .with_suggestion("drop the reward bound (it selects the cheaper P1-class engine)"),
            );
        }
        if time.lo() == time.hi() && time.lo() > 0.0 {
            report.push(Diagnostic::new(
                "F106",
                Severity::Note,
                format!("point time interval [{0},{0}] on {op_name}: measures the state exactly at time {0}", time.lo()),
            ));
        }
    });
}

/// `F105`: `S`/`P` operators nested inside another `S`/`P` operator.
///
/// When the inner operator's verdict is undecidable at the achieved
/// accuracy, the checker brackets it by monotone two-run widening — the
/// outer engine runs **twice**. Worth knowing before launching a large
/// model.
pub fn nesting(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let mut nested = 0;
    formula.visit(&mut |f, depth| {
        if depth > 0 && matches!(f, StateFormula::Steady { .. } | StateFormula::Prob { .. }) {
            nested += 1;
        }
    });
    if nested > 0 {
        report.push(
            Diagnostic::new(
                "F105",
                Severity::Note,
                format!(
                    "{nested} probability/steady-state operator{} nested inside another: \
                     undecidable inner verdicts trigger two-run widening (the outer \
                     engine runs twice)",
                    if nested == 1 { " is" } else { "s are" }
                ),
            )
            .with_suggestion("tighten --tolerance if inner verdicts come back unknown"),
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

    fn model() -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        b.label(0, "up").label(1, "down");
        let ctmc = b.build().unwrap();
        Mrm::new(
            ctmc,
            StateRewards::new(vec![1.0, 0.0]).unwrap(),
            ImpulseRewards::new(),
        )
        .unwrap()
    }

    fn reward_free_model() -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        b.label(0, "up").label(1, "down");
        Mrm::without_rewards(b.build().unwrap())
    }

    fn lint(mrm: &Mrm, text: &str) -> Report {
        let f = mrmc_csrl::parse(text).unwrap();
        Analyzer::new().check_formula(mrm, &f, UntilEngine::default())
    }

    fn lint_sim(mrm: &Mrm, text: &str) -> Report {
        let f = mrmc_csrl::parse(text).unwrap();
        Analyzer::new().check_formula(mrm, &f, UntilEngine::simulation(1000))
    }

    #[test]
    fn unknown_ap_is_an_error_with_typo_help() {
        let m = model();
        let r = lint(&m, "P(>= 0.5) [up U dwon]");
        let d = r.diagnostics().iter().find(|d| d.code == "F001").unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.suggestion.as_deref().unwrap().contains("down"));
    }

    #[test]
    fn declared_but_unused_ap_is_still_an_error() {
        let m = {
            let mut b = CtmcBuilder::new(1);
            b.transition(0, 0, 1.0);
            b.label(0, "up");
            let mut ctmc = b.build().unwrap();
            ctmc.labeling_mut().declare("ghost");
            Mrm::without_rewards(ctmc)
        };
        let r = lint(&m, "ghost");
        let d = r.diagnostics().iter().find(|d| d.code == "F001").unwrap();
        assert!(d.message.contains("declared but labels no state"));
    }

    #[test]
    fn supported_bounds_pass_cleanly() {
        let m = model();
        for f in [
            "P(>= 0.5) [up U down]",
            "P(>= 0.5) [up U[0,2] down]",
            "P(>= 0.5) [up U[0,2][0,10] down]",
            "P(>= 0.5) [up U[1,2] down]",   // two-phase decomposition
            "P(>= 0.5) [X[1,2][3,4] down]", // Next: general intervals OK
            "S(> 0.1) (up)",
        ] {
            let r = lint(&m, f);
            assert!(!r.has_errors(), "{f}: {r}");
        }
    }

    #[test]
    fn unsupported_bounds_error_matches_engine_matrix() {
        let m = model();
        // Time lower bound with reward bound: no exact engine...
        let r = lint(&m, "P(>= 0.5) [up U[1,2][0,10] down]");
        assert!(r.codes().contains(&"F002"));
        // ...but the simulation engine handles it.
        let r = lint_sim(&m, "P(>= 0.5) [up U[1,2][0,10] down]");
        assert!(!r.has_errors(), "{r}");
        // Reward lower bound: simulation only.
        let r = lint(&m, "P(>= 0.5) [up U[0,2][1,10] down]");
        assert!(r.codes().contains(&"F002"));
        assert!(!lint_sim(&m, "P(>= 0.5) [up U[0,2][1,10] down]").has_errors());
        // Unbounded time with bounded reward: no engine at all.
        let r = lint(&m, "P(>= 0.5) [up U[0,~][0,10] down]");
        assert!(r.codes().contains(&"F002"));
        assert!(lint_sim(&m, "P(>= 0.5) [up U[0,~][0,10] down]")
            .codes()
            .contains(&"F002"));
    }

    #[test]
    fn unsatisfiable_and_trivial_thresholds() {
        let m = model();
        assert!(lint(&m, "P(> 1) [up U down]").codes().contains(&"F101"));
        assert!(lint(&m, "S(< 0) (up)").codes().contains(&"F101"));
        assert!(lint(&m, "P(>= 0) [up U down]").codes().contains(&"F102"));
        assert!(lint(&m, "P(<= 1) [up U down]").codes().contains(&"F102"));
        // Sensible thresholds are quiet.
        let r = lint(&m, "P(>= 0.5) [up U down]");
        assert!(!r.codes().contains(&"F101"));
        assert!(!r.codes().contains(&"F102"));
    }

    #[test]
    fn vacuous_reward_bounds() {
        let m = model();
        assert!(lint(&m, "P(>= 0.5) [up U[0,2][0,0] down]")
            .codes()
            .contains(&"F103"));
        // Reward-free model: the same J=[0,0] is merely F104, not F103.
        let free = reward_free_model();
        let r = lint(&free, "P(>= 0.5) [up U[0,2][0,5] down]");
        assert!(r.codes().contains(&"F104"));
        assert!(!r.codes().contains(&"F103"));
        // No reward bound, no noise.
        assert!(!lint(&m, "P(>= 0.5) [up U[0,2] down]")
            .codes()
            .contains(&"F103"));
    }

    #[test]
    fn point_time_interval_notes() {
        let m = model();
        assert!(lint(&m, "P(>= 0.5) [up U[2,2] down]")
            .codes()
            .contains(&"F106"));
        assert!(!lint(&m, "P(>= 0.5) [up U[0,2] down]")
            .codes()
            .contains(&"F106"));
    }

    #[test]
    fn nesting_notes_count_inner_operators() {
        let m = model();
        let r = lint(&m, "P(> 0.9) [X (P(> 0.15) [X down])]");
        let d = r.diagnostics().iter().find(|d| d.code == "F105").unwrap();
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("1 probability"));
        // Flat formulas are quiet.
        assert!(!lint(&m, "P(> 0.9) [up U down]").codes().contains(&"F105"));
    }

    #[test]
    fn edit_distance_sanity() {
        assert_eq!(edit_distance("busy", "busy"), 0);
        assert_eq!(edit_distance("busy", "bussy"), 1);
        assert_eq!(edit_distance("dwon", "down"), 2);
        assert_eq!(closest("dwon", &["down", "up"]), Some("down"));
        assert_eq!(closest("xyz", &["down", "up"]), None);
    }
}
