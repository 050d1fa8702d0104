//! Rendering of checking results as the `--json` wire objects.
//!
//! One [`CheckOutcome`] (or failure) renders to exactly one JSON object on
//! one line. This module is the single source of truth for that shape: the
//! `mrmc` CLI prints these lines under `--json`, and `mrmc serve` uses the
//! very same renderer for its response records — a server-mode result is
//! byte-identical to the one-shot CLI line for the same check, which is
//! what the conformance suite pins.
//!
//! Strings and numbers are written by the workspace's one JSON writer,
//! [`mrmc_obs::json`]: strings are escaped per RFC 8259, and `f64`s print
//! in the `{:e}` scientific form (`null` when non-finite, which JSON
//! cannot represent).

use std::fmt::Write as _;

use mrmc_obs::json::{push_escaped, push_f64};
use mrmc_obs::RunMetrics;

use crate::error::CheckError;
use crate::outcome::{CheckOutcome, Verdict};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Format an `f64` as a JSON value (`null` for non-finite values, which
/// JSON cannot represent).
pub fn json_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// The stable lowercase name of a verdict, as used in the JSON output.
pub fn verdict_name(v: Verdict) -> &'static str {
    match v {
        Verdict::Holds => "holds",
        Verdict::Fails => "fails",
        Verdict::Unknown => "unknown",
    }
}

/// The stable `error_kind` discriminator of a failed check, as used in
/// the JSON output and for exit-code selection.
pub fn error_kind(e: &CheckError) -> &'static str {
    match e {
        CheckError::ToleranceNotMet { .. } => "tolerance_not_met",
        CheckError::Preflight(_) => "preflight",
        _ => "check_failed",
    }
}

/// One JSON object (a single line) describing a checked formula.
///
/// States are 1-indexed, matching the model file format. `metrics`, when
/// given, is embedded as a `metrics` object.
pub fn json_outcome(formula: &str, outcome: &CheckOutcome, metrics: Option<&RunMetrics>) -> String {
    let set = |states: Vec<usize>| {
        states
            .iter()
            .map(|s| (s + 1).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut out = format!(
        "{{\"formula\":\"{}\",\"satisfied\":[{}],\"unknown\":[{}]",
        json_escape(formula),
        set(outcome.satisfying_states().collect()),
        set(outcome.unknown_states().collect()),
    );
    if let Some(engine) = outcome.engine() {
        out.push_str(&format!(",\"engine\":\"{engine}\""));
    }
    if let Some(r) = outcome.reduction() {
        out.push_str(&format!(
            ",\"original_states\":{},\"reduced_states\":{}",
            r.original_states, r.reduced_states
        ));
    }
    if let Some(d) = outcome.dataflow() {
        out.push_str(",\"dataflow\":{");
        for (counter, value) in d.counts() {
            out.push_str(&format!("\"{}\":{value},", counter.name()));
        }
        out.push_str(&format!(
            "\"certificate_hash\":\"{:016x}\"}}",
            d.certificate_hash
        ));
    }
    if let Some(probs) = outcome.probabilities() {
        out.push_str(",\"states\":[");
        for (s, &p) in probs.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            // Written in place: a budgeted reply renders eight numbers
            // per state, and a `String` per number would dominate it.
            write!(out, "{{\"state\":{},\"probability\":", s + 1)
                .expect("writing to a String cannot fail");
            push_f64(&mut out, p);
            out.push_str(",\"verdict\":\"");
            out.push_str(verdict_name(outcome.verdict(s)));
            out.push('"');
            if let Some(errs) = outcome.error_bounds() {
                out.push_str(",\"error_bound\":");
                push_f64(&mut out, errs[s]);
            }
            if let Some(budgets) = outcome.budgets() {
                let b = &budgets[s];
                out.push_str(",\"budget\":{");
                for (name, value) in b.components() {
                    out.push('"');
                    out.push_str(name);
                    out.push_str("\":");
                    push_f64(&mut out, value);
                    out.push(',');
                }
                out.push_str("\"total\":");
                push_f64(&mut out, b.total());
                out.push_str(",\"dominant\":\"");
                out.push_str(b.dominant().0);
                out.push_str("\"}");
            }
            out.push('}');
        }
        out.push(']');
    }
    if let Some(m) = metrics {
        out.push_str(",\"metrics\":");
        out.push_str(&m.to_json());
    }
    out.push('}');
    out
}

/// One JSON object (a single line) describing a failed formula, with the
/// stable [`error_kind`] discriminator.
pub fn json_error(formula: &str, e: &CheckError) -> String {
    format!(
        "{{\"formula\":\"{}\",\"error\":\"{}\",\"error_kind\":\"{}\"}}",
        json_escape(formula),
        json_escape(&e.to_string()),
        error_kind(e)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_the_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
        assert_eq!(json_f64(0.5), "5e-1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn formulas_with_control_characters_render_parseable_json() {
        use crate::{CheckOptions, ModelChecker};
        use mrmc_ctmc::CtmcBuilder;
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 0.1).transition(1, 0, 0.9);
        b.label(0, "up").label(1, "down");
        let mrm = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
        let formula = "S(>= 0.85)\t(up)";
        let outcome = ModelChecker::new(mrm, CheckOptions::new())
            .check_str(formula)
            .unwrap();
        let line = json_outcome(formula, &outcome, None);
        assert!(line.contains("S(>= 0.85)\\u0009(up)"), "{line}");
        let parsed = mrmc_obs::json::parse(&line).expect("outcome line parses");
        assert_eq!(
            parsed
                .get("formula")
                .and_then(mrmc_obs::json::Value::as_str),
            Some(formula)
        );
    }

    #[test]
    fn error_lines_carry_the_kind() {
        let e = CheckError::ToleranceNotMet {
            requested: 1e-9,
            achieved: 1e-6,
        };
        let line = json_error("P(> 0.5) [a U[0,1] b]", &e);
        assert!(
            line.contains("\"error_kind\":\"tolerance_not_met\""),
            "{line}"
        );
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn dataflow_object_renders_for_sliced_until_runs() {
        use crate::{CheckOptions, ModelChecker};
        use mrmc_ctmc::CtmcBuilder;
        let build = || {
            let mut b = CtmcBuilder::new(2);
            b.transition(0, 1, 0.1).transition(1, 0, 0.9);
            b.label(0, "up").label(1, "down");
            mrmc_mrm::Mrm::without_rewards(b.build().unwrap())
        };
        let formula = "P(> 0.5) [up U down]";
        let outcome = ModelChecker::new(build(), CheckOptions::new())
            .check_str(formula)
            .unwrap();
        let line = json_outcome(formula, &outcome, None);
        assert!(line.contains("\"dataflow\":{\"scc_count\":"), "{line}");
        assert!(line.contains("\"qual_zero_states\":"), "{line}");
        assert!(line.contains("\"slice_states_removed\":"), "{line}");
        assert!(line.contains("\"certificate_hash\":\""), "{line}");
        // --no-slicing runs carry no dataflow object at all.
        let unsliced = ModelChecker::new(build(), CheckOptions::new().without_slicing())
            .check_str(formula)
            .unwrap();
        let line = json_outcome(formula, &unsliced, None);
        assert!(!line.contains("dataflow"), "{line}");
    }

    #[test]
    fn outcome_lines_are_single_json_objects() {
        use crate::{CheckOptions, ModelChecker};
        use mrmc_ctmc::CtmcBuilder;
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 0.1).transition(1, 0, 0.9);
        b.label(0, "up").label(1, "down");
        let mrm = mrmc_mrm::Mrm::without_rewards(b.build().unwrap());
        let outcome = ModelChecker::new(mrm, CheckOptions::new())
            .check_str("S(>= 0.85) (up)")
            .unwrap();
        let line = json_outcome("S(>= 0.85) (up)", &outcome, None);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"satisfied\":[1,2]"), "{line}");
        assert!(line.contains("\"verdict\":\"holds\""), "{line}");
    }
}
