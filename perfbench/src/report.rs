//! The result of one run and its one-line JSON rendering.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How the value was obtained (sample count, base of a ratio), for
    /// the human-readable lines.
    pub note: String,
}

/// What a run measured and how many of its operations went wrong.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations (checks or requests) whose results were verified.
    pub attempted: u64,
    /// Operations that errored, went unanswered or returned a wrong
    /// result.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Append a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64, note: String) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    /// Count one verified operation, and record `failure` if it failed.
    pub fn verify(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(f) = failure {
            self.failed += 1;
            self.failures.push(f);
        }
    }

    /// The final output line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads as 0 and the run is already marked failed.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                out,
                "\"{}\": {{\"value\": {value:e}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_obs::json::Value;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = RunResult::default();
        r.verify(None);
        r.verify(Some("wrong".into()));
        r.push("setup_s", "s", 0.0125, String::new());
        let line = r.to_json();
        let v = mrmc_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(1));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(0.0125));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
    }
}
