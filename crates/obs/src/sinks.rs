//! Recorder sinks: the no-op recorder, the JSONL trace writer, the stderr
//! progress printer, and the fan-out combinator.

use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::Recorder;

/// The explicit no-op sink.
///
/// Installing `NullRecorder` is equivalent to installing no recorder at
/// all: [`record`](crate::record) still short-circuits on the thread-local
/// enabled flag *before* constructing the event, so the disabled hot path
/// costs one `Cell` read and nothing else. The type exists so callers can
/// treat "no telemetry" as just another sink (e.g. the determinism
/// property test swaps it against the trace sink).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: &Event) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Streams every event as one JSON object per line (JSONL) to a file.
///
/// Each line is `{"seq":N,"kind":"...",...}` with `seq` increasing from 0.
/// The writer is buffered; [`flush`](Recorder::flush) (also called on
/// drop) pushes everything to disk.
#[derive(Debug)]
pub struct JsonlTraceRecorder {
    inner: Mutex<TraceInner>,
}

#[derive(Debug)]
struct TraceInner {
    seq: u64,
    out: BufWriter<std::fs::File>,
}

impl JsonlTraceRecorder {
    /// Create (truncate) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlTraceRecorder {
            inner: Mutex::new(TraceInner {
                seq: 0,
                out: BufWriter::new(file),
            }),
        })
    }
}

impl Recorder for JsonlTraceRecorder {
    fn record(&self, event: &Event) {
        let mut inner = self.inner.lock().expect("trace lock");
        let mut line = String::with_capacity(96);
        write!(
            line,
            "{{\"seq\":{},\"kind\":\"{}\"",
            inner.seq,
            event.kind()
        )
        .unwrap();
        event.write_json_fields(&mut line);
        line.push_str("}\n");
        inner.seq += 1;
        // Trace I/O errors must never abort a checking run; drop the line.
        let _ = inner.out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.inner.lock().expect("trace lock").out.flush();
    }
}

impl Drop for JsonlTraceRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Prints a short progress line to stderr for every [`Event::Progress`]
/// event. Emission sites already throttle by count (never by wall
/// clock), so the line rate is bounded by construction and stderr output
/// is deterministic for a fixed event stream.
#[derive(Debug, Default)]
pub struct ProgressRecorder;

impl ProgressRecorder {
    /// A recorder that prints every progress event.
    pub fn new() -> Self {
        ProgressRecorder
    }

    /// The line this event prints, if any. Separated from
    /// [`Recorder::record`] so it is testable without capturing stderr.
    fn line(&self, event: &Event) -> Option<String> {
        let Event::Progress { phase, done, total } = event else {
            return None;
        };
        Some(format!("mrmc: progress: {phase} {done}/{total}"))
    }
}

impl Recorder for ProgressRecorder {
    fn record(&self, event: &Event) {
        if let Some(line) = self.line(event) {
            eprintln!("{line}");
        }
    }
}

/// Fans every event out to several sinks (metrics + trace + progress in
/// one run).
pub struct MultiRecorder {
    sinks: Vec<Arc<dyn Recorder>>,
}

impl MultiRecorder {
    /// Combine `sinks`; events are delivered in the given order.
    pub fn new(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        MultiRecorder { sinks }
    }
}

impl std::fmt::Debug for MultiRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MultiRecorder({} sinks)", self.sinks.len())
    }
}

impl Recorder for MultiRecorder {
    fn record(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }

    fn flush(&self) {
        for sink in &self.sinks {
            sink.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRecorder;

    #[test]
    fn trace_writes_seq_numbered_jsonl() {
        let path =
            std::env::temp_dir().join(format!("mrmc-obs-trace-{}.jsonl", std::process::id()));
        let trace = JsonlTraceRecorder::create(&path).unwrap();
        trace.record(&Event::Counter {
            name: crate::counters::SCC_COUNT,
            value: 1,
        });
        trace.record(&Event::RunSummary {
            formulas: 1,
            failures: 0,
        });
        trace.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"seq\":0,\"kind\":\"counter\""),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("{\"seq\":1,\"kind\":\"run_summary\""),
            "{}",
            lines[1]
        );
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_fans_out() {
        let a = Arc::new(MetricsRecorder::new());
        let b = Arc::new(MetricsRecorder::new());
        let multi = MultiRecorder::new(vec![a.clone(), b.clone()]);
        multi.record(&Event::Progress {
            phase: "states",
            done: 1,
            total: 2,
        });
        assert_eq!(a.snapshot().progress_events, 1);
        assert_eq!(b.snapshot().progress_events, 1);
    }

    #[test]
    fn progress_prints_only_progress_events() {
        let p = ProgressRecorder::new();
        assert_eq!(
            p.line(&Event::Progress {
                phase: "states",
                done: 1,
                total: 4,
            }),
            Some("mrmc: progress: states 1/4".to_owned())
        );
        assert_eq!(
            p.line(&Event::RunSummary {
                formulas: 1,
                failures: 0,
            }),
            None
        );
    }

    /// A sink that logs `(label, kind)` into a shared journal, for
    /// observing delivery order across sinks.
    struct TagSink {
        label: &'static str,
        journal: Arc<Mutex<Vec<(&'static str, &'static str)>>>,
    }

    impl Recorder for TagSink {
        fn record(&self, event: &Event) {
            self.journal
                .lock()
                .unwrap()
                .push((self.label, event.kind()));
        }
    }

    #[test]
    fn multi_delivers_each_event_to_every_sink_in_order() {
        let journal = Arc::new(Mutex::new(Vec::new()));
        let multi = MultiRecorder::new(vec![
            Arc::new(TagSink {
                label: "a",
                journal: journal.clone(),
            }),
            Arc::new(TagSink {
                label: "b",
                journal: journal.clone(),
            }),
        ]);
        multi.record(&Event::Counter {
            name: crate::counters::SCC_COUNT,
            value: 2,
        });
        multi.record(&Event::Progress {
            phase: "states",
            done: 1,
            total: 2,
        });
        multi.record(&Event::RunSummary {
            formulas: 1,
            failures: 0,
        });
        // Fan-out is depth-first per event: both sinks see event N before
        // either sees event N+1, and sinks are visited in construction
        // order — so trace/metrics/profile sinks observe identical
        // streams.
        assert_eq!(
            *journal.lock().unwrap(),
            vec![
                ("a", "counter"),
                ("b", "counter"),
                ("a", "progress"),
                ("b", "progress"),
                ("a", "run_summary"),
                ("b", "run_summary"),
            ]
        );
    }

    #[test]
    fn null_recorder_reports_disabled() {
        assert!(!NullRecorder.is_enabled());
        NullRecorder.record(&Event::RunSummary {
            formulas: 0,
            failures: 0,
        });
    }
}
