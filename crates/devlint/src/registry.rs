//! D007 — cross-registry sync between telemetry emission sites and the
//! `mrmc-obs` registries.
//!
//! The obs crate declares two closed registries: the counter-name
//! consts plus `COUNTER_NAMES` in `crates/obs/src/counters.rs`, and the
//! event-kind strings in `EVENT_KINDS` mirrored by `Event::kind()`'s
//! match arms in `crates/obs/src/event.rs`. PR 6 guarded them with
//! in-crate tests; devlint turns the same contract into a lint so a
//! drifted registry fails `mrmc devlint` (and CI) with a pointed
//! diagnostic instead of a distant test assertion:
//!
//! * a `pub const` counter name not listed in `COUNTER_NAMES`;
//! * a `Event::kind()` match arm returning a literal missing from
//!   `EVENT_KINDS`, or an `EVENT_KINDS` entry no arm returns;
//! * an `Event::Counter` emission outside the obs crate whose `name:`
//!   is a string literal instead of a `counters::*` const — literals
//!   bypass the registry and drift silently.
//!
//! This pass reads **raw** (unblanked) text: the registries are string
//! tables, so the string contents are the data.

use crate::finding::Finding;
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One workspace source file as the registry pass needs it: the raw
/// text (string literals intact) plus the parsed form (test regions).
pub struct SourceText {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// Raw file contents.
    pub raw: String,
    /// Lexed form (for `in_test` and suppression pragmas).
    pub parsed: SourceFile,
}

const COUNTERS_RS: &str = "crates/obs/src/counters.rs";
const EVENT_RS: &str = "crates/obs/src/event.rs";

// Spelled via concat! so devlint's own raw source never contains the
// contiguous needles it hunts for (the D007 pass reads unblanked text).
const EVENT_COUNTER_NEEDLE: &str = concat!("Event::", "Counter");
const NAME_FIELD_NEEDLE: &str = concat!("name", ":");

/// Run the D007 pass over the workspace's files. Findings are
/// unsuppressed; the caller applies pragmas.
pub fn lint_registry(files: &[SourceText]) -> Vec<Finding> {
    let mut out = Vec::new();
    if let Some(counters) = files.iter().find(|f| f.rel_path == COUNTERS_RS) {
        check_counter_registry(counters, &mut out);
    }
    if let Some(event) = files.iter().find(|f| f.rel_path == EVENT_RS) {
        check_event_kinds(event, &mut out);
    }
    for file in files {
        if !file.rel_path.starts_with("crates/obs/") {
            check_literal_counter_names(file, &mut out);
        }
    }
    out.sort_by(|a, b| (a.file.clone(), a.line, a.code).cmp(&(b.file.clone(), b.line, b.code)));
    out
}

/// Every `pub const NAME: &str = "…";` in counters.rs must appear in
/// the `COUNTER_NAMES` slice.
fn check_counter_registry(counters: &SourceText, out: &mut Vec<Finding>) {
    let mut consts: BTreeMap<String, usize> = BTreeMap::new();
    for (idx, line) in counters.raw.lines().enumerate() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("pub const ") {
            if let Some((name, ty)) = rest.split_once(':') {
                let name = name.trim();
                if ty.contains("str") && name.bytes().all(|b| b.is_ascii_uppercase() || b == b'_') {
                    consts.insert(name.to_string(), idx + 1);
                }
            }
        }
    }
    let listed = slice_region(&counters.raw, "COUNTER_NAMES")
        .map(|region| {
            idents_in(&region)
                .into_iter()
                .filter(|i| i.bytes().all(|b| b.is_ascii_uppercase() || b == b'_'))
                .collect::<BTreeSet<_>>()
        })
        .unwrap_or_default();
    for (name, line) in &consts {
        if name != "COUNTER_NAMES" && !listed.contains(name) {
            out.push(
                Finding::new(
                    "D007",
                    &counters.rel_path,
                    *line,
                    format!("counter const `{name}` is not listed in COUNTER_NAMES"),
                )
                .with_suggestion("add it to the COUNTER_NAMES registry slice"),
            );
        }
    }
}

/// `Event::kind()`'s `=> "literal"` arms and the `EVENT_KINDS` slice
/// must be the same set.
fn check_event_kinds(event: &SourceText, out: &mut Vec<Finding>) {
    let Some(kinds_region) = slice_region(&event.raw, "EVENT_KINDS") else {
        return;
    };
    let kinds: BTreeSet<String> = string_literals(&kinds_region).into_iter().collect();
    let kinds_line = event
        .raw
        .lines()
        .position(|l| l.contains("EVENT_KINDS"))
        .map_or(0, |i| i + 1);

    let mut arms: BTreeMap<String, usize> = BTreeMap::new();
    let mut in_kind_fn = false;
    let mut depth: i64 = 0;
    for (idx, line) in event.raw.lines().enumerate() {
        if !in_kind_fn && line.contains("fn kind") {
            in_kind_fn = true;
            depth = 0;
        }
        if in_kind_fn {
            if let Some((_, rhs)) = line.split_once("=>") {
                if let Some(lit) = string_literals(rhs).into_iter().next() {
                    arms.entry(lit).or_insert(idx + 1);
                }
            }
            for c in line.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            in_kind_fn = false;
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    if arms.is_empty() {
        return;
    }
    for (lit, line) in &arms {
        if !kinds.contains(lit) {
            out.push(
                Finding::new(
                    "D007",
                    &event.rel_path,
                    *line,
                    format!("Event::kind() returns `\"{lit}\"`, which is missing from EVENT_KINDS"),
                )
                .with_suggestion("add the kind to the EVENT_KINDS registry slice"),
            );
        }
    }
    for lit in &kinds {
        if !arms.contains_key(lit) {
            out.push(
                Finding::new(
                    "D007",
                    &event.rel_path,
                    kinds_line,
                    format!("EVENT_KINDS lists `\"{lit}\"`, but no Event::kind() arm returns it"),
                )
                .with_suggestion("remove the stale registry entry or add the event variant's arm"),
            );
        }
    }
}

/// `Event::Counter { name: "literal", … }` outside the obs crate: the
/// name must come from `mrmc_obs::counters::*` so the registry stays
/// the single source of truth.
fn check_literal_counter_names(file: &SourceText, out: &mut Vec<Finding>) {
    // Blanked lines, not raw: a comment discussing the pattern must not
    // match, and blanking preserves the `"` delimiters this check keys on.
    let code_lines = &file.parsed.code_lines;
    for (idx, line) in code_lines.iter().enumerate() {
        if file.parsed.in_test.get(idx).copied().unwrap_or(false) {
            continue;
        }
        if !line.contains(EVENT_COUNTER_NEEDLE) {
            continue;
        }
        // The `name:` field may sit on this line or a continuation.
        for (off, candidate) in code_lines[idx..].iter().take(6).enumerate() {
            let Some(pos) = candidate.find(NAME_FIELD_NEEDLE) else {
                continue;
            };
            let value = candidate[pos + NAME_FIELD_NEEDLE.len()..].trim_start();
            if value.starts_with('"') {
                out.push(
                    Finding::new(
                        "D007",
                        &file.rel_path,
                        idx + 1 + off,
                        "Event::Counter emitted with a literal name — it bypasses the COUNTER_NAMES registry",
                    )
                    .with_suggestion("use a const from mrmc_obs::counters instead of a string literal"),
                );
            }
            break;
        }
    }
}

/// The text from the line containing `marker` through the closing `];`.
fn slice_region(raw: &str, marker: &str) -> Option<String> {
    let mut region = String::new();
    let mut active = false;
    for line in raw.lines() {
        if !active && line.contains(marker) && line.contains('[') {
            active = true;
        }
        if active {
            region.push_str(line);
            region.push('\n');
            if line.contains("];") {
                return Some(region);
            }
        }
    }
    active.then_some(region)
}

/// All identifiers in `text`.
fn idents_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            cur.push(c);
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// All `"…"` literal contents in `text` (escape-naive, fine for
/// registry tables of plain identifiers).
fn string_literals(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur: Option<String> = None;
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match cur.as_mut() {
            None => {
                if c == '"' {
                    cur = Some(String::new());
                }
            }
            Some(s) => match c {
                '"' => {
                    out.push(std::mem::take(s));
                    cur = None;
                }
                '\\' => {
                    let _ = chars.next();
                }
                _ => s.push(c),
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn st(rel_path: &str, raw: &str) -> SourceText {
        SourceText {
            rel_path: rel_path.to_string(),
            raw: raw.to_string(),
            parsed: SourceFile::parse(rel_path, raw),
        }
    }

    #[test]
    fn unlisted_counter_const_is_flagged() {
        let counters = st(
            COUNTERS_RS,
            "pub const SCC_COUNT: &str = \"scc_count\";\npub const NEW_ONE: &str = \"new_one\";\npub const COUNTER_NAMES: &[&str] = &[SCC_COUNT];\n",
        );
        let f = lint_registry(&[counters]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "D007");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("NEW_ONE"));
    }

    #[test]
    fn listed_counter_consts_pass() {
        let counters = st(
            COUNTERS_RS,
            "pub const A: &str = \"a\";\npub const B: &str = \"b\";\npub const COUNTER_NAMES: &[&str] = &[\n    A,\n    B,\n];\n",
        );
        assert!(lint_registry(&[counters]).is_empty());
    }

    #[test]
    fn kind_arm_and_registry_must_agree() {
        let event = st(
            EVENT_RS,
            "pub const EVENT_KINDS: &[&str] = &[\"alpha\", \"gone\"];\nimpl Event {\n    pub fn kind(&self) -> &'static str {\n        match self {\n            Event::Alpha { .. } => \"alpha\",\n            Event::Beta { .. } => \"beta\",\n        }\n    }\n}\n",
        );
        let f = lint_registry(&[event]);
        let msgs: Vec<&str> = f.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(f.len(), 2);
        assert!(msgs.iter().any(|m| m.contains("beta")));
        assert!(msgs.iter().any(|m| m.contains("gone")));
    }

    #[test]
    fn literal_counter_name_outside_obs_is_flagged() {
        let user = st(
            "crates/core/src/x.rs",
            "fn f() {\n    emit(Event::Counter {\n        name: \"ad_hoc\",\n        value: 1,\n    });\n}\n",
        );
        let f = lint_registry(&[user]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].code, "D007");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn const_counter_name_outside_obs_passes() {
        let user = st(
            "crates/core/src/x.rs",
            "fn f() { emit(Event::Counter { name: counters::SAT_CACHE_HITS, value: 1 }); }\n",
        );
        assert!(lint_registry(&[user]).is_empty());
    }

    #[test]
    fn literal_counter_name_in_tests_is_fine() {
        let user = st(
            "crates/core/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { emit(Event::Counter { name: \"scratch\", value: 1 }); }\n}\n",
        );
        assert!(lint_registry(&[user]).is_empty());
    }
}
