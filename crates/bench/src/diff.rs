//! The perf-regression sentinel: compare two `BENCH_<group>.json`
//! snapshots (see [`crate::harness`] for the schema) and classify each
//! benchmark as unchanged, improved, or regressed.
//!
//! Wall-time comparisons are noise-aware on two axes:
//!
//! * **median-ratio tolerance** — a benchmark regresses only when
//!   `snapshot_median / baseline_median` exceeds
//!   [`DiffOptions::max_ratio`] (and improves only when it drops below
//!   the reciprocal);
//! * **absolute slack** — medians whose difference is below
//!   [`DiffOptions::min_delta_s`] never regress, because sub-microsecond
//!   micro-benchmarks routinely jitter by more than any useful ratio.
//!
//! Work counters carry no timing noise, so they are held to a **hard
//! equality check**: every integer-valued field of the `metrics` object
//! (solver sweeps, paths generated, grid cells, …) and every entry of its
//! nested `counters` map must match exactly. A counter drift with a flat
//! median is how an optimization quietly stops applying — the sentinel
//! treats it as seriously as a slowdown. The wall-time-valued members
//! (`phases`, the float-valued accuracy fields) and the throttle-dependent
//! `progress_events` are exempt.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mrmc_obs::json::{self, Value};

use crate::harness::fmt_time;

/// Tolerances for [`diff`]; `Default` gives the CI gate's settings.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// A benchmark regresses when `snapshot_median / baseline_median`
    /// exceeds this (and improves below its reciprocal).
    pub max_ratio: f64,
    /// Median differences smaller than this many seconds never count as
    /// regressions, whatever the ratio says.
    pub min_delta_s: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_ratio: 1.5,
            min_delta_s: 5e-6,
        }
    }
}

/// What the sentinel concluded about one benchmark id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Median within tolerance, counters identical.
    Ok,
    /// Median faster than the reciprocal tolerance.
    Improved,
    /// Median slower than [`DiffOptions::max_ratio`] allows.
    Regressed,
    /// Work counters drifted (hard check, no tolerance).
    CountersChanged,
    /// Present in the snapshot but not the baseline.
    Added,
    /// Present in the baseline but not the snapshot.
    Removed,
}

impl Status {
    /// Stable lower-case label used by both report formats.
    pub fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Improved => "improved",
            Status::Regressed => "regressed",
            Status::CountersChanged => "counters_changed",
            Status::Added => "added",
            Status::Removed => "removed",
        }
    }

    /// Whether this status fails the gate.
    pub fn is_failure(self) -> bool {
        matches!(self, Status::Regressed | Status::CountersChanged)
    }
}

/// One benchmark's comparison row.
#[derive(Debug, Clone)]
pub struct BenchDelta {
    /// Benchmark id, e.g. `omega/warm_cache/16`.
    pub id: String,
    /// The verdict for this id.
    pub status: Status,
    /// Baseline median seconds (absent for [`Status::Added`]).
    pub baseline_median_s: Option<f64>,
    /// Snapshot median seconds (absent for [`Status::Removed`]).
    pub snapshot_median_s: Option<f64>,
    /// `snapshot / baseline` median ratio when both sides exist.
    pub median_ratio: Option<f64>,
    /// Hard-counter drifts: `(name, baseline, snapshot)`.
    pub counter_changes: Vec<(String, u64, u64)>,
}

/// The full comparison of one snapshot pair.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Group name from the snapshot file.
    pub group: String,
    /// One row per benchmark id, in baseline order then added ids.
    pub deltas: Vec<BenchDelta>,
    /// The tolerances the verdicts were computed under.
    pub options: DiffOptions,
}

impl DiffReport {
    /// Whether any row fails the gate (regression or counter drift).
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.status.is_failure())
    }

    /// Human report: a header line plus one aligned row per benchmark.
    pub fn render_human(&self) -> String {
        let failures = self.deltas.iter().filter(|d| d.status.is_failure()).count();
        let mut out = format!(
            "bench diff `{}`: {} benchmarks, {} failing (max ratio {:.2}, slack {})\n",
            self.group,
            self.deltas.len(),
            failures,
            self.options.max_ratio,
            fmt_time(self.options.min_delta_s),
        );
        let width = self
            .deltas
            .iter()
            .map(|d| d.status.label().len())
            .max()
            .unwrap_or(2);
        for d in &self.deltas {
            let _ = write!(out, "  {:width$}  {}", d.status.label(), d.id);
            match (d.baseline_median_s, d.snapshot_median_s) {
                (Some(b), Some(s)) => {
                    let _ = write!(out, ": median {} -> {}", fmt_time(b), fmt_time(s));
                    if let Some(r) = d.median_ratio {
                        let _ = write!(out, " (x{r:.2})");
                    }
                }
                (Some(b), None) => {
                    let _ = write!(out, ": median {} -> (gone)", fmt_time(b));
                }
                (None, Some(s)) => {
                    let _ = write!(out, ": median (new) -> {}", fmt_time(s));
                }
                (None, None) => {}
            }
            out.push('\n');
            for (name, base, snap) in &d.counter_changes {
                let _ = writeln!(out, "{:width$}    counter {name}: {base} -> {snap}", "");
            }
        }
        out
    }

    /// Machine report with a fixed key order:
    /// `{"group":…,"max_ratio":…,"min_delta_s":…,"failing":N,"deltas":[…]}`.
    pub fn render_json(&self) -> String {
        let failures = self.deltas.iter().filter(|d| d.status.is_failure()).count();
        let mut out = String::from("{\"group\":");
        json::push_str(&mut out, &self.group);
        out.push_str(",\"max_ratio\":");
        json::push_f64(&mut out, self.options.max_ratio);
        out.push_str(",\"min_delta_s\":");
        json::push_f64(&mut out, self.options.min_delta_s);
        let _ = write!(out, ",\"failing\":{failures},\"deltas\":[");
        for (i, d) in self.deltas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            json::push_str(&mut out, &d.id);
            let _ = write!(out, ",\"status\":\"{}\"", d.status.label());
            for (key, v) in [
                ("baseline_median_s", d.baseline_median_s),
                ("snapshot_median_s", d.snapshot_median_s),
                ("median_ratio", d.median_ratio),
            ] {
                let _ = write!(out, ",\"{key}\":");
                match v {
                    Some(v) => json::push_f64(&mut out, v),
                    None => out.push_str("null"),
                }
            }
            out.push_str(",\"counter_changes\":{");
            for (j, (name, base, snap)) in d.counter_changes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_str(&mut out, name);
                let _ = write!(out, ":{{\"baseline\":{base},\"snapshot\":{snap}}}");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// One parsed benchmark entry: medians plus the hard-counter view of its
/// `metrics` object.
struct Entry {
    median_s: f64,
    counters: BTreeMap<String, u64>,
}

/// Counter names exempt from the hard check: `progress_events` depends on
/// the recorder's wall-clock throttle, not on the work done.
const SOFT_COUNTERS: [&str; 1] = ["progress_events"];

/// Flatten a `metrics` object into its hard-checked integer counters.
fn hard_counters(metrics: &Value) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Value::Obj(members) = metrics else {
        return out;
    };
    for (name, value) in members {
        if SOFT_COUNTERS.contains(&name.as_str()) {
            continue;
        }
        if name == "counters" {
            if let Value::Obj(inner) = value {
                for (inner_name, v) in inner {
                    if let Some(n) = v.as_u64() {
                        out.insert(format!("counters.{inner_name}"), n);
                    }
                }
            }
            continue;
        }
        // Integer-valued fields are work counters; float-valued fields
        // (residuals, tail bounds) and the `phases` object are timing- or
        // accuracy-shaped and stay out of the hard check.
        if let Some(n) = value.as_u64() {
            out.insert(name.clone(), n);
        }
    }
    out
}

/// Parse one snapshot document into `(group, id -> entry)`.
fn parse_snapshot(text: &str, what: &str) -> Result<(String, Vec<(String, Entry)>), String> {
    let doc = json::parse(text).map_err(|e| format!("{what}: invalid JSON: {e}"))?;
    let group = doc
        .get("group")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: missing `group`"))?
        .to_string();
    let Some(Value::Arr(benchmarks)) = doc.get("benchmarks") else {
        return Err(format!("{what}: missing `benchmarks` array"));
    };
    let mut entries = Vec::new();
    for b in benchmarks {
        let id = b
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{what}: benchmark without `id`"))?
            .to_string();
        let median_s = b
            .get("median_s")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{what}: `{id}` lacks `median_s`"))?;
        let counters = b.get("metrics").map(hard_counters).unwrap_or_default();
        entries.push((id, Entry { median_s, counters }));
    }
    Ok((group, entries))
}

/// Compare a snapshot against a baseline, both as JSON text.
pub fn diff(snapshot: &str, baseline: &str, options: DiffOptions) -> Result<DiffReport, String> {
    let (group, snap_entries) = parse_snapshot(snapshot, "snapshot")?;
    let (base_group, base_entries) = parse_snapshot(baseline, "baseline")?;
    if group != base_group {
        return Err(format!(
            "group mismatch: snapshot is `{group}`, baseline is `{base_group}`"
        ));
    }
    let snap: BTreeMap<&str, &Entry> = snap_entries
        .iter()
        .map(|(id, e)| (id.as_str(), e))
        .collect();
    let mut deltas = Vec::new();
    for (id, base) in &base_entries {
        let Some(snap_entry) = snap.get(id.as_str()) else {
            deltas.push(BenchDelta {
                id: id.clone(),
                status: Status::Removed,
                baseline_median_s: Some(base.median_s),
                snapshot_median_s: None,
                median_ratio: None,
                counter_changes: Vec::new(),
            });
            continue;
        };
        let ratio = if base.median_s > 0.0 {
            Some(snap_entry.median_s / base.median_s)
        } else {
            None
        };
        let names: std::collections::BTreeSet<&String> = base
            .counters
            .keys()
            .chain(snap_entry.counters.keys())
            .collect();
        let counter_changes: Vec<(String, u64, u64)> = names
            .into_iter()
            .filter_map(|name| {
                let b = base.counters.get(name).copied().unwrap_or(0);
                let s = snap_entry.counters.get(name).copied().unwrap_or(0);
                (b != s).then(|| (name.clone(), b, s))
            })
            .collect();
        let slow = ratio.is_some_and(|r| r > options.max_ratio)
            && snap_entry.median_s - base.median_s > options.min_delta_s;
        let status = if slow {
            Status::Regressed
        } else if !counter_changes.is_empty() {
            Status::CountersChanged
        } else if ratio.is_some_and(|r| r < 1.0 / options.max_ratio) {
            Status::Improved
        } else {
            Status::Ok
        };
        deltas.push(BenchDelta {
            id: id.clone(),
            status,
            baseline_median_s: Some(base.median_s),
            snapshot_median_s: Some(snap_entry.median_s),
            median_ratio: ratio,
            counter_changes,
        });
    }
    let base_ids: std::collections::BTreeSet<&str> =
        base_entries.iter().map(|(id, _)| id.as_str()).collect();
    for (id, entry) in &snap_entries {
        if !base_ids.contains(id.as_str()) {
            deltas.push(BenchDelta {
                id: id.clone(),
                status: Status::Added,
                baseline_median_s: None,
                snapshot_median_s: Some(entry.median_s),
                median_ratio: None,
                counter_changes: Vec::new(),
            });
        }
    }
    Ok(DiffReport {
        group,
        deltas,
        options,
    })
}

/// Compare two snapshot files on disk.
pub fn diff_files(
    snapshot: &Path,
    baseline: &Path,
    options: DiffOptions,
) -> Result<DiffReport, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read `{}`: {e}", p.display()))
    };
    diff(&read(snapshot)?, &read(baseline)?, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(group: &str, rows: &[(&str, f64, &str)]) -> String {
        let mut s = format!("{{\"group\":\"{group}\",\"benchmarks\":[");
        for (i, (id, median, metrics)) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":\"{id}\",\"samples\":10,\"min_s\":{median:e},\
                 \"median_s\":{median:e},\"mean_s\":{median:e},\"metrics\":{metrics}}}"
            ));
        }
        s.push_str("]}");
        s
    }

    #[test]
    fn identical_snapshots_pass() {
        let text = doc("g", &[("a/1", 1e-3, "null"), ("b/2", 2e-3, "null")]);
        let report = diff(&text, &text, DiffOptions::default()).unwrap();
        assert!(!report.has_regressions());
        assert!(report.deltas.iter().all(|d| d.status == Status::Ok));
        assert_eq!(report.deltas[0].median_ratio, Some(1.0));
    }

    #[test]
    fn double_median_is_flagged_as_regression() {
        let base = doc("g", &[("a/1", 1e-3, "null")]);
        let snap = doc("g", &[("a/1", 2e-3, "null")]);
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(report.has_regressions());
        assert_eq!(report.deltas[0].status, Status::Regressed);
        assert!(report.deltas[0].median_ratio.unwrap() > 1.9);
    }

    #[test]
    fn sub_slack_jitter_never_regresses() {
        // 3x ratio but only 100 ns absolute: micro-benchmark noise.
        let base = doc("g", &[("tiny/1", 5e-8, "null")]);
        let snap = doc("g", &[("tiny/1", 1.5e-7, "null")]);
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(!report.has_regressions(), "{}", report.render_human());
    }

    #[test]
    fn faster_is_improved_not_failing() {
        let base = doc("g", &[("a/1", 2e-3, "null")]);
        let snap = doc("g", &[("a/1", 1e-3, "null")]);
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(!report.has_regressions());
        assert_eq!(report.deltas[0].status, Status::Improved);
    }

    #[test]
    fn counter_drift_fails_hard_even_with_flat_median() {
        let base = doc(
            "g",
            &[(
                "a/1",
                1e-3,
                "{\"solver_iterations\":100,\"phases\":{\"solve\":1.0},\"counters\":{\"scc_count\":4}}",
            )],
        );
        let snap = doc(
            "g",
            &[(
                "a/1",
                1e-3,
                "{\"solver_iterations\":150,\"phases\":{\"solve\":9.0},\"counters\":{\"scc_count\":4}}",
            )],
        );
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(report.has_regressions());
        assert_eq!(report.deltas[0].status, Status::CountersChanged);
        assert_eq!(
            report.deltas[0].counter_changes,
            vec![("solver_iterations".to_string(), 100, 150)]
        );
    }

    #[test]
    fn phases_floats_and_progress_events_are_exempt() {
        let base = doc(
            "g",
            &[(
                "a/1",
                1e-3,
                "{\"solver_last_residual\":1e-10,\"progress_events\":3,\"phases\":{\"solve\":1.0}}",
            )],
        );
        let snap = doc(
            "g",
            &[(
                "a/1",
                1e-3,
                "{\"solver_last_residual\":9e-10,\"progress_events\":7,\"phases\":{\"solve\":2.0}}",
            )],
        );
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(!report.has_regressions(), "{}", report.render_human());
    }

    #[test]
    fn added_and_removed_ids_are_reported_but_pass() {
        let base = doc("g", &[("old/1", 1e-3, "null"), ("keep/1", 1e-3, "null")]);
        let snap = doc("g", &[("keep/1", 1e-3, "null"), ("new/1", 1e-3, "null")]);
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        assert!(!report.has_regressions());
        let by_id: BTreeMap<&str, Status> = report
            .deltas
            .iter()
            .map(|d| (d.id.as_str(), d.status))
            .collect();
        assert_eq!(by_id["old/1"], Status::Removed);
        assert_eq!(by_id["new/1"], Status::Added);
        assert_eq!(by_id["keep/1"], Status::Ok);
    }

    #[test]
    fn group_mismatch_is_an_error() {
        let a = doc("g1", &[("a/1", 1e-3, "null")]);
        let b = doc("g2", &[("a/1", 1e-3, "null")]);
        assert!(diff(&a, &b, DiffOptions::default())
            .unwrap_err()
            .contains("group mismatch"));
    }

    #[test]
    fn json_report_has_fixed_key_order_and_parses() {
        let base = doc("g", &[("a/1", 1e-3, "null")]);
        let snap = doc("g", &[("a/1", 2.5e-3, "null")]);
        let report = diff(&snap, &base, DiffOptions::default()).unwrap();
        let text = report.render_json();
        assert!(
            text.starts_with("{\"group\":\"g\",\"max_ratio\":1.5e0,\"min_delta_s\":5e-6,\"failing\":1,\"deltas\":[{\"id\":\"a/1\",\"status\":\"regressed\",\"baseline_median_s\":"),
            "{text}"
        );
        let parsed = json::parse(&text).unwrap();
        assert_eq!(parsed.get("failing").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn human_report_shows_ratio_and_counter_lines() {
        let base = doc("g", &[("a/1", 1e-3, "{\"nodes_explored\":5}")]);
        let snap = doc("g", &[("a/1", 3e-3, "{\"nodes_explored\":9}")]);
        let human = diff(&snap, &base, DiffOptions::default())
            .unwrap()
            .render_human();
        assert!(human.contains("regressed"), "{human}");
        assert!(human.contains("(x3.00)"), "{human}");
        assert!(human.contains("counter nodes_explored: 5 -> 9"), "{human}");
    }
}
