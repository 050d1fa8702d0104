//! Hermetic telemetry substrate for the `mrmc` workspace.
//!
//! Every numerical layer of the checker — the sparse solvers, the Poisson
//! windows, the uniformization path exploration, the Omega recursion, the
//! discretization grid, the adaptive driver, the lumping refinement —
//! emits typed [`Event`]s through a thread-local, dynamically scoped
//! [`Recorder`]. The provided sinks:
//!
//! * [`NullRecorder`] — the no-op (equivalently: install nothing at all);
//! * [`MetricsRecorder`] — aggregates the stream into a [`RunMetrics`]
//!   snapshot (the CLI's `--metrics` table / JSON object);
//! * [`JsonlTraceRecorder`] — streams every event as one JSON line to a
//!   file (the CLI's `--trace <file>`);
//! * [`ProfileRecorder`] — folds the span stream into a hierarchical
//!   self/total wall-time tree with per-phase latency histograms (the
//!   CLI's `--profile [FILE]`).
//!
//! # The determinism contract
//!
//! Instrumentation is **observation-only**: emitting events never reorders
//! a floating-point operation, takes a different branch, or perturbs a
//! seed, so verdicts, probabilities, and error budgets are bit-for-bit
//! identical whether recording is on or off. Concretely:
//!
//! * emission sites only *read* values the engines computed anyway;
//! * wall-clock data appears only in [`Event::Span`] payloads (and the
//!   `phases` map of [`RunMetrics`]) — never in anything a verdict
//!   depends on.
//!
//! # The disabled hot path
//!
//! [`record`] takes a *closure*: when no recorder is installed the call is
//! one thread-local `Cell` read and the event is never even constructed,
//! so instrumenting a hot loop costs nothing in the default configuration.
//!
//! ```
//! use std::sync::Arc;
//! use mrmc_obs::counters::SCC_COUNT;
//! use mrmc_obs::{count, record, with_recorder, Event, MetricsRecorder};
//!
//! let metrics = Arc::new(MetricsRecorder::new());
//! with_recorder(metrics.clone(), || {
//!     record(|| Event::Counter { name: SCC_COUNT, value: 3 });
//!     count(SCC_COUNT, 1);
//! });
//! assert_eq!(metrics.snapshot().counters[SCC_COUNT], 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod hist;
pub mod json;
mod metrics;
mod profile;
mod registry;
mod sinks;

pub use event::{Event, EVENT_KINDS};
pub use hist::Histogram;
pub use metrics::MetricsRecorder;
pub use profile::{ProfileNode, ProfileRecorder, ProfileReport};
pub use registry::{counters, RunMetrics, SessionStats};
pub use sinks::{JsonlTraceRecorder, MultiRecorder, NullRecorder, ProgressRecorder};

use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A telemetry sink: receives every [`Event`] emitted while it is
/// installed (see [`with_recorder`]).
///
/// Implementations must be cheap and must never panic on any event — a
/// sink failure must not break a checking run.
pub trait Recorder: Send + Sync {
    /// Consume one event.
    fn record(&self, event: &Event);

    /// Push any buffered output (trace files) to its destination.
    fn flush(&self) {}

    /// `false` for sinks that ignore everything ([`NullRecorder`]):
    /// installing such a sink keeps the fast no-op path.
    fn is_enabled(&self) -> bool {
        true
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Install `recorder` as this thread's sink for the duration of `f`.
///
/// Scoping is dynamic and re-entrant: nested calls shadow the outer
/// recorder and restore it on exit (also on unwind). The recorder is
/// thread-local on purpose — engine worker threads spawned *inside* the
/// scope see no recorder and stay on the free no-op path, which is what
/// the determinism contract requires (only coordinators emit).
pub fn with_recorder<T>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore {
        previous: Option<Arc<dyn Recorder>>,
        was_enabled: bool,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            RECORDER.with(|r| *r.borrow_mut() = self.previous.take());
            ENABLED.with(|e| e.set(self.was_enabled));
        }
    }
    let enabled = recorder.is_enabled();
    let restore = Restore {
        previous: RECORDER.with(|r| r.borrow_mut().replace(recorder)),
        was_enabled: ENABLED.with(Cell::get),
    };
    ENABLED.with(|e| e.set(enabled));
    let out = f();
    drop(restore);
    out
}

/// `true` when a (non-null) recorder is installed on this thread.
///
/// Emission sites can use this to skip *computing* expensive event inputs,
/// not just constructing the event.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Emit one event to the installed recorder, if any.
///
/// The closure runs only when recording is enabled, so building the event
/// (allocation included) is free on the disabled path.
pub fn record(make: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    let event = make();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.record(&event);
        }
    });
}

/// Record an increment of `value` on the per-check counter `name`.
pub fn count(name: &'static counters::Counter, value: u64) {
    record(|| Event::Counter { name, value });
}

/// Ask the installed recorder to flush buffered output.
pub fn flush() {
    if !enabled() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow().as_ref() {
            rec.flush();
        }
    });
}

/// The process-wide profiling origin: pinned to the start instant of the
/// first span ever constructed, so every span's `end_s` is non-negative
/// and all spans of one process share a single timeline.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// A phase timer: records an [`Event::Span`] with the elapsed wall-clock
/// seconds and the close timestamp (seconds since the process-wide
/// origin) when dropped. Inert (no clock read at all) when recording is
/// disabled at construction time.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            #[expect(
                clippy::disallowed_methods,
                reason = "span timing is observation-only; no result reads it"
            )]
            let end = Instant::now();
            let seconds = end.duration_since(start).as_secs_f64();
            // The origin was pinned no later than `start`, so this is a
            // saturating-at-zero subtraction only in theory.
            let end_s = end
                .duration_since(*ORIGIN.get_or_init(|| start))
                .as_secs_f64();
            record(|| Event::Span {
                name: self.name,
                seconds,
                end_s,
            });
        }
    }
}

/// Start timing a named phase; the span reports itself when dropped.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(|| {
            #[expect(
                clippy::disallowed_methods,
                reason = "span timing is observation-only; no result reads it"
            )]
            let now = Instant::now();
            ORIGIN.get_or_init(|| now);
            now
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{MODELS_LOADED, SAT_CACHE_HITS, SAT_CACHE_MISSES};

    #[test]
    fn disabled_path_never_builds_events() {
        let mut built = false;
        record(|| {
            built = true;
            Event::RunSummary {
                formulas: 0,
                failures: 0,
            }
        });
        assert!(!built, "event closure ran without a recorder");
        assert!(!enabled());
    }

    #[test]
    fn scoped_install_and_restore() {
        let outer = Arc::new(MetricsRecorder::new());
        let inner = Arc::new(MetricsRecorder::new());
        with_recorder(outer.clone(), || {
            assert!(enabled());
            record(|| Event::Counter {
                name: SAT_CACHE_HITS,
                value: 1,
            });
            with_recorder(inner.clone(), || {
                record(|| Event::Counter {
                    name: SAT_CACHE_MISSES,
                    value: 1,
                });
            });
            record(|| Event::Counter {
                name: SAT_CACHE_HITS,
                value: 2,
            });
        });
        assert!(!enabled(), "recorder leaked past its scope");
        assert_eq!(outer.snapshot().counters[SAT_CACHE_HITS], 3);
        assert!(!outer.snapshot().counters.contains_key(SAT_CACHE_MISSES));
        assert_eq!(inner.snapshot().counters[SAT_CACHE_MISSES], 1);
    }

    #[test]
    fn null_recorder_keeps_the_fast_path() {
        with_recorder(Arc::new(NullRecorder), || {
            assert!(!enabled(), "null sink must not enable recording");
            let mut built = false;
            record(|| {
                built = true;
                Event::RunSummary {
                    formulas: 0,
                    failures: 0,
                }
            });
            assert!(!built);
        });
    }

    #[test]
    fn spans_report_on_drop() {
        let metrics = Arc::new(MetricsRecorder::new());
        with_recorder(metrics.clone(), || {
            let _s = span("phase_a");
        });
        let snap = metrics.snapshot();
        let (count, secs) = snap.phases["phase_a"];
        assert_eq!(count, 1);
        assert!(secs >= 0.0);
    }

    #[test]
    fn worker_threads_do_not_inherit_the_recorder() {
        let metrics = Arc::new(MetricsRecorder::new());
        with_recorder(metrics.clone(), || {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert!(!enabled(), "recorder crossed a thread boundary");
                    record(|| Event::Counter {
                        name: MODELS_LOADED,
                        value: 1,
                    });
                });
            });
        });
        assert!(metrics.snapshot().counters.is_empty());
    }
}
