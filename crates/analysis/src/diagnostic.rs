//! The diagnostic vocabulary: codes, severities, and the report they are
//! collected into.
//!
//! Codes are **stable**: scripts may match on them, so a code is never
//! renumbered or reused. The namespaces are
//!
//! * `M0xx` — model structure errors (unloadable or semantically invalid);
//! * `M1xx` — model structure warnings/notes (loadable but suspicious);
//! * `F0xx` — formula errors (cannot be checked against this model);
//! * `F1xx` — formula warnings/notes (checkable but vacuous or wasteful);
//! * `C0xx` — cost errors (a run is certain to fail);
//! * `C1xx` — cost warnings/notes (a run may explode or thrash).

use std::fmt;

use mrmc_obs::json;

/// How bad a diagnostic is.
///
/// The ordering is `Note < Warning < Error`, so `report.max_severity()`
/// compares naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: worth knowing, never blocks anything.
    Note,
    /// Suspicious: the run proceeds unless warnings are denied.
    Warning,
    /// Broken: checking would be meaningless or crash; always blocks.
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

/// A single finding of a lint pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"M103"`. Never renumbered.
    pub code: &'static str,
    /// How bad it is.
    pub severity: Severity,
    /// 1-indexed states the finding refers to (as written in the model
    /// files), truncated to a few representatives for large sets; empty
    /// for formula- or model-global findings.
    pub states: Vec<usize>,
    /// 1-based line of the offending record in the source file the
    /// finding points at (load diagnostics only); `None` when the finding
    /// has no single source location.
    pub line: Option<usize>,
    /// What is wrong, in one sentence.
    pub message: String,
    /// What to do about it, when a concrete suggestion exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A diagnostic without state references or suggestion.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            states: Vec::new(),
            line: None,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach 1-indexed state references.
    #[must_use]
    pub fn with_states(mut self, states: Vec<usize>) -> Self {
        self.states = states;
        self
    }

    /// Attach a 1-based source-file line number.
    #[must_use]
    pub fn with_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }

    /// Attach a suggestion.
    #[must_use]
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if !self.states.is_empty() {
            let refs: Vec<String> = self.states.iter().map(ToString::to_string).collect();
            write!(
                f,
                " (state{} {})",
                plural(self.states.len()),
                refs.join(", ")
            )?;
        }
        if let Some(l) = self.line {
            write!(f, " (line {l})")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  help: {s}")?;
        }
        Ok(())
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Everything the lint passes found, in pass order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Append a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append every diagnostic of `other`.
    pub fn extend(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// The findings, in the order the passes produced them.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// `true` when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Count of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// `true` when any Error-level diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Promote every Warning to an Error (the `--deny warnings` knob).
    pub fn deny_warnings(&mut self) {
        for d in &mut self.diagnostics {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }

    /// The sorted, de-duplicated codes present — what the golden corpus
    /// asserts against.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// Only the Error-level findings (for compact abort messages).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Render for terminals: one block per diagnostic plus a summary line.
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            writeln!(out, "{d}").expect("write to String");
        }
        let (e, w, n) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        );
        writeln!(
            out,
            "lint: {e} error{}, {w} warning{}, {n} note{}",
            plural(e),
            plural(w),
            plural(n)
        )
        .expect("write to String");
        out
    }

    /// Render as a JSON object mirroring the CLI `--json` schema:
    /// `{"diagnostics": [...], "errors": E, "warnings": W, "notes": N}`.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"states\":[{}],\"message\":",
                d.code,
                d.severity,
                d.states
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            )
            .expect("write to String");
            json::push_str(&mut out, &d.message);
            match d.line {
                Some(l) => write!(out, ",\"line\":{l}").expect("write to String"),
                None => out.push_str(",\"line\":null"),
            }
            if let Some(s) = &d.suggestion {
                out.push_str(",\"suggestion\":");
                json::push_str(&mut out, s);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn display_carries_code_states_and_help() {
        let d = Diagnostic::new("M103", Severity::Warning, "impulse on zero-rate transition")
            .with_states(vec![2, 5])
            .with_suggestion("remove the impulse entry");
        let s = d.to_string();
        assert!(s.contains("warning[M103]"));
        assert!(s.contains("states 2, 5"));
        assert!(s.contains("help: remove the impulse entry"));
    }

    #[test]
    fn line_numbers_render_in_both_formats() {
        let d = Diagnostic::new("M002", Severity::Error, "duplicate transition entry 1 -> 2")
            .with_line(5);
        assert_eq!(d.line, Some(5));
        assert!(d.to_string().contains("(line 5)"));
        let mut r = Report::new();
        r.push(d);
        assert!(r.render_json().contains("\"line\":5"));
        // Explicit null when no location is known, so the key is always
        // present and scripts never branch on its existence.
        let r2 = {
            let mut r = Report::new();
            r.push(Diagnostic::new("M001", Severity::Error, "x"));
            r
        };
        assert!(r2.render_json().contains("\"line\":null"));
    }

    #[test]
    fn report_counts_and_codes() {
        let mut r = Report::new();
        r.push(Diagnostic::new("F001", Severity::Error, "x"));
        r.push(Diagnostic::new("M106", Severity::Warning, "y"));
        r.push(Diagnostic::new("M106", Severity::Warning, "z"));
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 2);
        assert_eq!(r.codes(), vec!["F001", "M106"]);
        assert_eq!(r.errors().count(), 1);
    }

    #[test]
    fn deny_warnings_promotes() {
        let mut r = Report::new();
        r.push(Diagnostic::new("M106", Severity::Warning, "y"));
        r.push(Diagnostic::new("M107", Severity::Note, "z"));
        assert!(!r.has_errors());
        r.deny_warnings();
        assert!(r.has_errors());
        // Notes are never promoted.
        assert_eq!(r.count(Severity::Note), 1);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new("F001", Severity::Error, "unknown \"ap\"")
                .with_states(vec![1])
                .with_suggestion("declare it"),
        );
        let j = r.render_json();
        assert!(j.starts_with("{\"diagnostics\":["));
        assert!(j.contains("\"code\":\"F001\""));
        assert!(j.contains("\\\"ap\\\""));
        assert!(j.contains("\"states\":[1]"));
        assert!(j.contains("\"errors\":1"));
        assert!(j.ends_with("\"notes\":0}"));
    }

    #[test]
    fn human_rendering_has_summary() {
        let mut r = Report::new();
        r.push(Diagnostic::new("M101", Severity::Warning, "unreachable"));
        let h = r.render_human();
        assert!(h.contains("warning[M101]"));
        assert!(h.contains("lint: 0 errors, 1 warning, 0 notes"));
    }
}
