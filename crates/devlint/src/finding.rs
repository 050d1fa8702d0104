//! The devlint diagnostic vocabulary, mirroring the `mrmc-analysis`
//! Diagnostic model: stable codes, severities, a human rendering and a
//! `--json` rendering — but anchored at `file:line` instead of model
//! states, because the subject under analysis is the workspace's own
//! source tree.
//!
//! Codes are **stable**: CI and scripts match on them, so a code is never
//! renumbered or reused. The `D0xx` namespace covers determinism and
//! hermeticity hazards that are statically recognizable in source:
//!
//! * `D000` — suppression-pragma hygiene (malformed pragma, missing
//!   reason, unknown code);
//! * `D001` — iteration over `HashMap`/`HashSet` in engine/result-path
//!   crates, where hash order can reach outputs;
//! * `D002` — wall-clock reads (`Instant`/`SystemTime`) outside the
//!   bench/obs timing allowlist;
//! * `D003` — `thread::spawn` outside `thread::scope` (all parallelism
//!   must be scoped);
//! * `D004` — atomic-float emulation or float reductions over unordered
//!   data (must route through the Kahan/compensated helpers);
//! * `D005` — `unwrap()`/`expect()`/`panic!` in `mrmc-server`
//!   request-handling paths;
//! * `D006` — hermeticity gate: a non-workspace `[dependencies]` entry in
//!   a `Cargo.toml`;
//! * `D007` — *retired*: telemetry registry drift is now a compile
//!   error or an `mrmc-obs` unit-test failure (see `mrmc_obs::counters`),
//!   so no pass emits it and a pragma naming it is an unused `D000`;
//! * `D008` — workspace lint-gate: a crate missing `[lints] workspace =
//!   true`, or the root manifest missing `unsafe_code = "forbid"`.

use std::fmt;

/// How bad a finding is. Every D-code is `Error`-grade today (devlint is
/// deny-by-default in CI), but the model mirrors `mrmc-analysis` so
/// advisory passes can be added without reshaping the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Note,
    /// Suspicious: blocks only when warnings are denied.
    Warning,
    /// A determinism/hermeticity hazard; always blocks.
    Error,
}

impl Severity {
    /// Lower-case human label (`"error"`, `"warning"`, `"note"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single finding of a devlint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable code, e.g. `"D001"`. Never renumbered.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line the finding anchors to; `0` for file-global findings.
    pub line: usize,
    /// What is wrong, in one sentence.
    pub message: String,
    /// What to do about it, when a concrete suggestion exists.
    pub suggestion: Option<String>,
}

impl Finding {
    /// A finding anchored at `file:line`.
    pub fn new(
        code: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Finding {
            code,
            severity: Severity::Error,
            file: file.into(),
            line,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({}:{})",
            self.severity, self.code, self.message, self.file, self.line
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

/// Everything the devlint passes found, in pass order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    findings: Vec<Finding>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Append every finding of `other`.
    pub fn extend(&mut self, other: impl IntoIterator<Item = Finding>) {
        self.findings.extend(other);
    }

    /// The findings, in the order the passes produced them.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// `true` when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.findings.len()
    }

    /// Count of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when any Error-grade finding is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// The sorted, de-duplicated codes present — what the golden corpus
    /// asserts against.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.findings.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Render for terminals: one block per finding plus a summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.findings {
            writeln!(out, "{d}").expect("write to String");
        }
        let (e, w, n) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        );
        writeln!(
            out,
            "devlint: {e} error{}, {w} warning{}, {n} note{}",
            plural(e),
            plural(w),
            plural(n)
        )
        .expect("write to String");
        out
    }

    /// Render as a JSON object mirroring the `mrmc lint --json` schema:
    /// `{"diagnostics": [...], "errors": E, "warnings": W, "notes": N}`,
    /// with each diagnostic carrying `file` and `line` instead of model
    /// `states`.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"",
                d.code,
                d.severity,
                json_escape(&d.file),
                d.line,
                json_escape(&d.message),
            )
            .expect("write to String");
            if let Some(s) = &d.suggestion {
                write!(out, ",\"suggestion\":\"{}\"", json_escape(s)).expect("write to String");
            }
            out.push('}');
        }
        write!(
            out,
            "],\"errors\":{},\"warnings\":{},\"notes\":{}}}",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        )
        .expect("write to String");
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render_human().trim_end())
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_code_location_and_help() {
        let d = Finding::new(
            "D001",
            "crates/core/src/cache.rs",
            42,
            "hash-order iteration",
        )
        .with_suggestion("use a BTreeMap");
        let s = d.to_string();
        assert!(s.contains("error[D001]"));
        assert!(s.contains("crates/core/src/cache.rs:42"));
        assert!(s.contains("help: use a BTreeMap"));
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        r.push(Finding::new("D002", "a.rs", 1, "x"));
        r.push(Finding::new("D001", "b.rs", 2, "y"));
        r.push(Finding::new("D001", "b.rs", 3, "z"));
        assert!(r.has_errors());
        assert_eq!(r.len(), 3);
        assert_eq!(r.codes(), vec!["D001", "D002"]);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut r = Report::new();
        r.push(
            Finding::new("D006", "crates/x/Cargo.toml", 7, "external dep \"serde\"")
                .with_suggestion("vendor it"),
        );
        let j = r.render_json();
        assert!(j.starts_with("{\"diagnostics\":["));
        assert!(j.contains("\"code\":\"D006\""));
        assert!(j.contains("\"file\":\"crates/x/Cargo.toml\""));
        assert!(j.contains("\"line\":7"));
        assert!(j.contains("\\\"serde\\\""));
        assert!(j.ends_with("\"notes\":0}"));
        assert!(j.contains("\"errors\":1"));
    }

    #[test]
    fn human_rendering_has_summary() {
        let mut r = Report::new();
        r.push(Finding::new("D003", "a.rs", 9, "unscoped spawn"));
        let h = r.render_human();
        assert!(h.contains("error[D003]"));
        assert!(h.contains("devlint: 1 error, 0 warnings, 0 notes"));
    }
}
