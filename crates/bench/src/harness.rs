//! A tiny in-tree micro-benchmark harness with a `criterion`-shaped API.
//!
//! The workspace must build with no network access, so the external
//! `criterion` crate is unavailable. This module provides the subset of its
//! surface the `benches/` files use — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::sample_size`] / [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`] / [`BenchmarkGroup::finish`],
//! [`BenchmarkId`], [`Bencher::iter`] and the [`criterion_group!`] /
//! [`criterion_main!`] macros — so a bench file ports by swapping its
//! import line only.
//!
//! Measurement model: after a short calibration run that picks an
//! iteration count filling roughly [`Criterion::target_sample_time`], each
//! benchmark takes `sample_size` timed samples and reports the minimum,
//! median, and mean per-iteration wall time. No statistics beyond that —
//! this harness exists to print honest numbers offline, not to replace a
//! statistics engine.
//!
//! # Perf snapshots
//!
//! Unless disabled with [`Criterion::without_snapshots`],
//! [`BenchmarkGroup::finish`] writes a machine-readable snapshot of the
//! group's results to `BENCH_<group>.json` at the repository root (the
//! group name is sanitized to `[A-Za-z0-9_-]`). The schema is one JSON
//! object per file:
//!
//! ```text
//! {
//!   "group": "<group name>",
//!   "benchmarks": [
//!     {
//!       "id": "<bench id>",          // e.g. "omega/17"
//!       "samples": <int>,            // timed samples taken
//!       "min_s": <float>,            // per-iteration wall seconds
//!       "median_s": <float>,
//!       "mean_s": <float>,
//!       "metrics": { ... } | null    // mrmc-obs RunMetrics JSON
//!     }, ...
//!   ]
//! }
//! ```
//!
//! `metrics` is the work-counter snapshot (paths generated, solver sweeps,
//! grid cells, …) captured by running the *calibration* iteration under a
//! [`MetricsRecorder`]; it is `null` when the
//! benchmark body emitted no telemetry events. The timed samples
//! themselves run with no recorder installed, so snapshotting never adds
//! overhead to the reported numbers.
//!
//! [`criterion_group!`]: crate::criterion_group
//! [`criterion_main!`]: crate::criterion_main

use std::fmt;
use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrmc::report::json_escape;
use mrmc_obs::{MetricsRecorder, RunMetrics};

/// Prevent the optimizer from deleting a benchmarked computation.
///
/// Re-exported under criterion's name so bench code reads identically.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark driver; one per bench binary.
#[derive(Debug, Clone)]
pub struct Criterion {
    default_sample_size: usize,
    target_sample_time: Duration,
    snapshots: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
            target_sample_time: Duration::from_millis(50),
            snapshots: true,
        }
    }
}

impl Criterion {
    /// Wall time each calibrated sample should roughly occupy.
    pub fn target_sample_time(&self) -> Duration {
        self.target_sample_time
    }

    /// Do not write `BENCH_<group>.json` snapshot files (used by the
    /// harness's own unit tests).
    #[must_use]
    pub fn without_snapshots(mut self) -> Self {
        self.snapshots = false;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        let name = name.into();
        eprintln!("\n== {name} ==");
        BenchmarkGroup {
            name,
            sample_size: self.default_sample_size,
            target_sample_time: self.target_sample_time,
            snapshots: self.snapshots,
            results: Vec::new(),
        }
    }
}

/// A two-part benchmark identifier: function name plus parameter value.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
    param: String,
}

impl BenchmarkId {
    /// Identifier `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            param: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.param)
    }
}

/// One finished benchmark's numbers, as persisted in the snapshot file.
#[derive(Debug, Clone)]
struct BenchResult {
    id: String,
    samples: usize,
    min: f64,
    median: f64,
    mean: f64,
    metrics: Option<RunMetrics>,
}

/// A named collection of benchmarks sharing sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    target_sample_time: Duration,
    snapshots: bool,
    results: Vec<BenchResult>,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark (minimum 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Run one benchmark under this group.
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size, self.target_sample_time);
        f(&mut b);
        b.report(&self.name, &id.to_string());
        if let Some(r) = b.into_result(id.to_string()) {
            self.results.push(r);
        }
        self
    }

    /// Run one parameterized benchmark under this group.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::new(self.sample_size, self.target_sample_time);
        f(&mut b, input);
        b.report(&self.name, &id.to_string());
        if let Some(r) = b.into_result(id.to_string()) {
            self.results.push(r);
        }
        self
    }

    /// End the group. Console reporting is eager (criterion API parity);
    /// this additionally persists the snapshot file (see the module docs)
    /// unless snapshots are disabled or the group ran nothing.
    pub fn finish(&mut self) {
        if !self.snapshots || self.results.is_empty() {
            return;
        }
        let path = snapshot_path(&self.name);
        match std::fs::write(&path, self.render_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    fn render_json(&self) -> String {
        let mut s = String::from("{\"group\":\"");
        s.push_str(&json_escape(&self.name));
        s.push_str("\",\"benchmarks\":[");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"id\":\"");
            s.push_str(&json_escape(&r.id));
            write!(
                s,
                "\",\"samples\":{},\"min_s\":{:e},\"median_s\":{:e},\"mean_s\":{:e},\"metrics\":",
                r.samples, r.min, r.median, r.mean
            )
            .unwrap();
            match &r.metrics {
                Some(m) => s.push_str(&m.to_json()),
                None => s.push_str("null"),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// `BENCH_<group>.json` at the repository root, with the group name
/// restricted to filename-safe characters.
fn snapshot_path(group: &str) -> PathBuf {
    let sanitized: String = group
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{sanitized}.json"))
}

/// Passed to each benchmark closure; [`Bencher::iter`] does the timing.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    target_sample_time: Duration,
    /// Per-iteration seconds, one entry per sample.
    samples: Vec<f64>,
    /// Work counters captured during the calibration iteration, when the
    /// benchmark body emitted any telemetry events.
    metrics: Option<RunMetrics>,
}

impl Bencher {
    fn new(sample_size: usize, target_sample_time: Duration) -> Self {
        Bencher {
            sample_size,
            target_sample_time,
            samples: Vec::new(),
            metrics: None,
        }
    }

    /// Measure `f`, storing per-iteration times for the final report.
    ///
    /// One calibration pass times a single iteration and derives how many
    /// iterations fill the target sample time; each of the `sample_size`
    /// samples then runs that many iterations. The calibration iteration
    /// runs under a [`MetricsRecorder`] so the snapshot file can report
    /// the work the benchmark does (paths, sweeps, grid cells); the timed
    /// samples run with no recorder installed.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Calibration: one warm-up iteration, also priming caches.
        let recorder = Arc::new(MetricsRecorder::new());
        let once = mrmc_obs::with_recorder(recorder.clone(), || {
            #[expect(
                clippy::disallowed_methods,
                reason = "timing is what a benchmark reports"
            )]
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64().max(1e-9)
        });
        let captured = recorder.take();
        self.metrics = (captured != RunMetrics::default()).then_some(captured);
        let per_sample = (self.target_sample_time.as_secs_f64() / once).clamp(1.0, 1e6) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            #[expect(
                clippy::disallowed_methods,
                reason = "timing is what a benchmark reports"
            )]
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(f());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() / per_sample as f64);
        }
    }

    /// Package the collected samples for the snapshot file; `None` when
    /// the closure never called [`iter`](Self::iter).
    fn into_result(self, id: String) -> Option<BenchResult> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Some(BenchResult {
            id,
            samples: sorted.len(),
            min: sorted[0],
            median: sorted[sorted.len() / 2],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            metrics: self.metrics,
        })
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            eprintln!("{group}/{id}: no samples (closure never called iter)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        eprintln!(
            "{group}/{id}: min {} | median {} | mean {} ({} samples)",
            fmt_time(min),
            fmt_time(median),
            fmt_time(mean),
            sorted.len()
        );
    }

    /// Minimum per-iteration seconds across samples (for speedup reports).
    pub fn min_sample(&self) -> Option<f64> {
        self.samples
            .iter()
            .copied()
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }
}

/// Render seconds with a human-appropriate unit.
pub fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Bundle benchmark functions into a group runner, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Produce a `main` that runs each group, mirroring criterion's macro of
/// the same name.
///
/// Cargo passes `--bench`/`--test` style flags to bench binaries with
/// `harness = false`; they are accepted and ignored, except `--list`,
/// which prints nothing and exits (so `cargo test --benches` stays quiet).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            if std::env::args().any(|a| a == "--list") {
                return;
            }
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher::new(5, Duration::from_millis(1));
        let mut count = 0u64;
        b.iter(|| {
            count += 1;
            count
        });
        assert_eq!(b.samples.len(), 5);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
        assert!(b.min_sample().is_some());
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default().without_snapshots();
        let mut group = c.benchmark_group("harness_selftest");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| 1 + 1);
            ran = true;
        });
        group.bench_with_input(BenchmarkId::new("with_input", 3), &3, |b, &x| {
            b.iter(|| x * 2);
        });
        group.finish();
        assert!(ran);
        assert_eq!(group.results.len(), 2);
        assert_eq!(group.results[0].id, "noop");
        assert_eq!(group.results[1].id, "with_input/3");
    }

    #[test]
    fn snapshot_json_has_the_documented_shape() {
        let mut c = Criterion::default().without_snapshots();
        let mut group = c.benchmark_group("shape");
        group.sample_size(2);
        group.bench_function("fast", |b| b.iter(|| 2 + 2));
        let json = group.render_json();
        assert!(json.starts_with("{\"group\":\"shape\",\"benchmarks\":["));
        for key in [
            "\"id\":\"fast\"",
            "\"samples\":2",
            "\"min_s\":",
            "\"median_s\":",
            "\"mean_s\":",
            "\"metrics\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No telemetry emitted by `2 + 2`: metrics must be null.
        assert!(json.contains("\"metrics\":null"), "{json}");
    }

    #[test]
    fn calibration_captures_metrics_when_events_flow() {
        let mut b = Bencher::new(2, Duration::from_millis(1));
        b.iter(|| {
            mrmc_obs::record(|| mrmc_obs::Event::Counter {
                name: mrmc_obs::counters::SCC_COUNT,
                value: 7,
            });
        });
        let m = b.metrics.as_ref().expect("calibration metrics captured");
        assert_eq!(m.counters[mrmc_obs::counters::SCC_COUNT], 7);
        let r = b.into_result("instrumented".into()).unwrap();
        assert!(r.metrics.is_some());
    }

    #[test]
    fn snapshot_paths_are_sanitized_and_rooted() {
        let p = snapshot_path("omega table/serial");
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(name, "BENCH_omega_table_serial.json");
        assert!(p.ends_with(format!("../../{name}")));
    }

    #[test]
    fn id_formats_with_slash() {
        assert_eq!(BenchmarkId::new("omega", 17).to_string(), "omega/17");
    }

    #[test]
    fn time_formatting_picks_units() {
        assert_eq!(fmt_time(2.0), "2.000 s");
        assert_eq!(fmt_time(2e-3), "2.000 ms");
        assert_eq!(fmt_time(2e-6), "2.000 µs");
        assert_eq!(fmt_time(2e-9), "2.0 ns");
    }
}
