//! In-memory aggregation: [`MetricsRecorder`] folds the event stream into
//! a [`RunMetrics`] snapshot — scalars by their registered merge rules,
//! counter increments by addition — so merging the same events in any
//! grouping yields the same snapshot. Wall-clock data is confined to the
//! [`phases`](RunMetrics::phases) map; every other field is a
//! deterministic function of the (deterministic) event stream.

use std::fmt::Write as _;
use std::sync::Mutex;

use crate::event::Event;
use crate::json::{push_f64, push_str};
use crate::registry::Reading;
use crate::{Recorder, RunMetrics};

/// A snapshot holding only the given scalars.
macro_rules! delta {
    ($($field:ident: $value:expr),+) => {
        RunMetrics { $($field: $value,)+ ..RunMetrics::default() }
    };
}

impl RunMetrics {
    /// Fold one event into the snapshot: its scalars by their merge rules,
    /// a span into [`phases`](Self::phases), a counter increment into
    /// [`counters`](Self::counters).
    pub fn observe(&mut self, event: &Event) {
        let delta = match *event {
            Event::SolverSweep { .. } => delta!(solver_iterations: 1),
            Event::SolverDone { residual, .. } => {
                delta!(solver_solves: 1, solver_last_residual: residual)
            }
            Event::PoissonWindow {
                left,
                right,
                tail_bound,
                ..
            } => delta!(poisson_windows: 1, poisson_left: left, poisson_right: right,
                        poisson_tail_bound: tail_bound),
            Event::PathExploration {
                explored_nodes,
                explored_groups,
                stored_paths,
                truncated_paths,
                max_depth,
                num_classes,
                truncated_mass,
                ..
            } => delta!(nodes_explored: explored_nodes, path_groups: explored_groups,
                        paths_generated: stored_paths, paths_pruned: truncated_paths,
                        path_max_depth: max_depth, path_classes: num_classes,
                        truncated_mass: truncated_mass),
            Event::OmegaTable {
                requests,
                cache_entries,
                max_recursion_depth,
                ..
            } => delta!(omega_requests: requests, omega_cache_entries: cache_entries,
                        omega_max_depth: max_recursion_depth),
            Event::DiscretizationGrid {
                time_steps,
                reward_cells,
                ..
            } => delta!(grid_runs: 1, grid_time_steps: time_steps,
                        grid_reward_cells: reward_cells),
            Event::AdaptiveAttempt { .. } => delta!(adaptive_attempts: 1),
            Event::LumpingRefinement { rounds, .. } => delta!(lumping_rounds: rounds),
            Event::Progress { .. } => delta!(progress_events: 1),
            Event::Span { name, seconds, .. } => {
                let slot = self.phases.entry(name).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += seconds;
                return;
            }
            Event::Counter { name, value } => {
                *self.counters.entry(name).or_insert(0) += value;
                return;
            }
            Event::RunSummary { .. } => return,
        };
        self.merge_scalars(&delta);
    }

    /// Render the snapshot as one JSON object: every scalar in registry
    /// order, then `phases` and `counters` (the golden-shape contract
    /// pinned by the CLI tests).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (name, _, value) in self.scalars() {
            push_str(&mut s, name);
            s.push(':');
            match value {
                Reading::Count(v) => write!(s, "{v}").unwrap(),
                Reading::Real(v) => push_f64(&mut s, v),
            }
            s.push(',');
        }
        s.push_str("\"phases\":{");
        for (i, (name, (count, secs))) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str(&mut s, name);
            write!(s, ":{{\"count\":{count},\"seconds\":").unwrap();
            push_f64(&mut s, *secs);
            s.push('}');
        }
        s.push_str("},\"counters\":{");
        for (i, (counter, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str(&mut s, counter.name());
            write!(s, ":{value}").unwrap();
        }
        s.push_str("}}");
        s
    }

    /// Human-readable `(label, value)` rows for the non-zero labeled
    /// scalars in registry order, the Poisson window, the phases and the
    /// counters — the CLI's `--metrics` table.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        let mut rows: Vec<(String, String)> = self
            .scalars()
            .into_iter()
            .filter_map(|(_, label, value)| {
                let value = match value {
                    _ if label.is_empty() => return None,
                    Reading::Count(v) if v > 0 => v.to_string(),
                    Reading::Real(v) if v > 0.0 => format!("{v:e}"),
                    _ => return None,
                };
                Some((label.to_owned(), value))
            })
            .collect();
        if self.poisson_windows > 0 {
            rows.push((
                "poisson window".to_owned(),
                format!("[{}, {}]", self.poisson_left, self.poisson_right),
            ));
        }
        for (name, (n, secs)) in &self.phases {
            rows.push((format!("phase {name}"), format!("{secs:.6} s (x{n})")));
        }
        for (counter, value) in &self.counters {
            rows.push((counter.name().to_owned(), value.to_string()));
        }
        rows
    }
}

/// A [`Recorder`] that aggregates the event stream into [`RunMetrics`].
///
/// Thread-safe; [`take`](Self::take) returns the snapshot accumulated
/// since the last call and resets, which is how the CLI scopes metrics to
/// one formula.
#[derive(Debug, Default)]
pub struct MetricsRecorder {
    inner: Mutex<RunMetrics>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MetricsRecorder::default()
    }

    /// Clone the current snapshot without resetting.
    pub fn snapshot(&self) -> RunMetrics {
        self.inner.lock().expect("metrics lock").clone()
    }

    /// Return the accumulated snapshot and reset to zero.
    pub fn take(&self) -> RunMetrics {
        std::mem::take(&mut *self.inner.lock().expect("metrics lock"))
    }
}

impl Recorder for MetricsRecorder {
    fn record(&self, event: &Event) {
        self.inner.lock().expect("metrics lock").observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::SCC_COUNT;

    #[test]
    fn aggregation_is_monotone_and_shaped() {
        let m = MetricsRecorder::new();
        m.record(&Event::PathExploration {
            start_state: 0,
            explored_nodes: 10,
            explored_groups: 4,
            stored_paths: 4,
            truncated_paths: 6,
            max_depth: 3,
            num_classes: 2,
            truncated_mass: 1e-9,
        });
        m.record(&Event::PathExploration {
            start_state: 1,
            explored_nodes: 5,
            explored_groups: 5,
            stored_paths: 2,
            truncated_paths: 1,
            max_depth: 7,
            num_classes: 1,
            truncated_mass: 1e-12,
        });
        m.record(&Event::SolverDone {
            iterations: 3,
            residual: 1e-13,
            converged: true,
        });
        m.record(&Event::PoissonWindow {
            lambda_t: 5.0,
            left: 2,
            right: 20,
            tail_bound: 1e-10,
        });
        m.record(&Event::PoissonWindow {
            lambda_t: 50.0,
            left: 10,
            right: 90,
            tail_bound: 1e-10,
        });
        m.record(&Event::Span {
            name: "engine",
            seconds: 0.5,
            end_s: 0.5,
        });
        m.record(&Event::Counter {
            name: SCC_COUNT,
            value: 4,
        });
        m.record(&Event::Counter {
            name: SCC_COUNT,
            value: 2,
        });
        let s = m.snapshot();
        assert_eq!(s.paths_generated, 6);
        assert_eq!(s.paths_pruned, 7);
        assert_eq!(s.path_groups, 9);
        assert_eq!(s.path_max_depth, 7);
        assert_eq!(s.poisson_left, 2);
        assert_eq!(s.poisson_right, 90);
        assert_eq!(s.truncated_mass, 1e-9);
        assert_eq!(s.counters[SCC_COUNT], 6, "counter increments add up");
        assert_eq!(
            s.solver_last_residual, 1e-13,
            "later events keep the last residual"
        );
        assert_eq!(s.phases["engine"].0, 1);

        let json = s.to_json();
        for key in [
            "\"paths_generated\":6",
            "\"path_groups\":9",
            "\"paths_pruned\":7",
            "\"poisson_left\":2",
            "\"poisson_right\":90",
            "\"solver_iterations\":0",
            "\"grid_time_steps\":0",
            "\"adaptive_attempts\":0",
            "\"phases\":{\"engine\":{\"count\":1,\"seconds\":",
            "\"counters\":{\"scc_count\":6}",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }

        let taken = m.take();
        assert_eq!(taken.paths_generated, 6);
        assert_eq!(m.snapshot(), RunMetrics::default(), "take resets");
    }

    #[test]
    fn empty_json_still_has_every_key() {
        let json = RunMetrics::default().to_json();
        for key in [
            "solver_solves",
            "solver_iterations",
            "poisson_left",
            "poisson_right",
            "paths_generated",
            "path_groups",
            "paths_pruned",
            "grid_reward_cells",
            "adaptive_attempts",
            "lumping_rounds",
            "phases",
            "counters",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(RunMetrics::default().table_rows().is_empty());
    }
}
