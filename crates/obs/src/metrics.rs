//! In-memory aggregation: [`MetricsRecorder`] folds the event stream into
//! a [`RunMetrics`] snapshot.
//!
//! Aggregation is *monotone*: counts add up, extrema take the maximum (or
//! minimum, for the Poisson left point), so merging the same events in any
//! grouping yields the same snapshot. Wall-clock data is confined to the
//! [`phases`](RunMetrics::phases) map — every other field is a
//! deterministic function of the (deterministic) event stream.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use crate::counters::Counter;
use crate::event::Event;
use crate::json::{push_f64, push_str};
use crate::Recorder;

/// Aggregated work counters for one run (or one formula), produced by
/// [`MetricsRecorder`].
///
/// All fields are plain data; `Default` is the all-zero snapshot. The JSON
/// rendering ([`to_json`](Self::to_json)) always contains every key, zero
/// or not, so consumers can rely on the shape.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunMetrics {
    /// Linear solves completed.
    pub solver_solves: u64,
    /// Gauss–Seidel sweeps across all solves.
    pub solver_iterations: u64,
    /// Final residual of the last completed solve.
    pub solver_last_residual: f64,
    /// Fox–Glynn windows computed.
    pub poisson_windows: u64,
    /// Smallest left truncation point seen (0 when no window was computed).
    pub poisson_left: u64,
    /// Largest right truncation point seen.
    pub poisson_right: u64,
    /// Largest requested tail bound.
    pub poisson_tail_bound: f64,
    /// Path-tree nodes represented by the uniformization engine, merged
    /// or not.
    pub nodes_explored: u64,
    /// Groups the merged path exploration expanded; each stands for the
    /// nodes of one depth with identical subtrees (at most
    /// `nodes_explored`).
    pub path_groups: u64,
    /// Paths generated (stored into reward-count classes).
    pub paths_generated: u64,
    /// Paths pruned by the truncation rule.
    pub paths_pruned: u64,
    /// Deepest path expanded.
    pub path_max_depth: u64,
    /// Distinct `(k, j)` classes accumulated.
    pub path_classes: u64,
    /// Largest Eq. 4.6 truncated mass of any exploration.
    pub truncated_mass: f64,
    /// Omega conditional probabilities requested.
    pub omega_requests: u64,
    /// Omega memo-table entries (summed over evaluators).
    pub omega_cache_entries: u64,
    /// Deepest Omega recursion.
    pub omega_max_depth: u64,
    /// Discretization grids run: one per check (or per adaptive round),
    /// however many start states it answers; the Richardson companion at
    /// `2d` is not counted.
    pub grid_runs: u64,
    /// Time steps evolved, summed over the counted grids.
    pub grid_time_steps: u64,
    /// Largest reward-cell count of any grid.
    pub grid_reward_cells: u64,
    /// Adaptive-driver attempts.
    pub adaptive_attempts: u64,
    /// Lumping refinement rounds, summed over analyses.
    pub lumping_rounds: u64,
    /// Progress events observed.
    pub progress_events: u64,
    /// Per-phase wall-clock: name → (times entered, total seconds).
    pub phases: BTreeMap<&'static str, (u64, f64)>,
    /// Registered monotone counters, merged by maximum.
    pub counters: BTreeMap<&'static Counter, u64>,
}

impl RunMetrics {
    /// Fold one event into the snapshot.
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::SolverSweep { .. } => self.solver_iterations += 1,
            Event::SolverDone { residual, .. } => {
                self.solver_solves += 1;
                self.solver_last_residual = *residual;
            }
            Event::PoissonWindow {
                left,
                right,
                tail_bound,
                ..
            } => {
                self.poisson_left = if self.poisson_windows == 0 {
                    *left
                } else {
                    self.poisson_left.min(*left)
                };
                self.poisson_windows += 1;
                self.poisson_right = self.poisson_right.max(*right);
                self.poisson_tail_bound = self.poisson_tail_bound.max(*tail_bound);
            }
            Event::PathExploration {
                explored_nodes,
                explored_groups,
                stored_paths,
                truncated_paths,
                max_depth,
                num_classes,
                truncated_mass,
                ..
            } => {
                self.nodes_explored += explored_nodes;
                self.path_groups += explored_groups;
                self.paths_generated += stored_paths;
                self.paths_pruned += truncated_paths;
                self.path_max_depth = self.path_max_depth.max(*max_depth);
                self.path_classes += num_classes;
                self.truncated_mass = self.truncated_mass.max(*truncated_mass);
            }
            Event::OmegaTable {
                requests,
                cache_entries,
                max_recursion_depth,
                ..
            } => {
                self.omega_requests += requests;
                self.omega_cache_entries += cache_entries;
                self.omega_max_depth = self.omega_max_depth.max(*max_recursion_depth);
            }
            Event::DiscretizationGrid {
                time_steps,
                reward_cells,
                ..
            } => {
                self.grid_runs += 1;
                self.grid_time_steps += time_steps;
                self.grid_reward_cells = self.grid_reward_cells.max(*reward_cells);
            }
            Event::AdaptiveAttempt { .. } => self.adaptive_attempts += 1,
            Event::LumpingRefinement { rounds, .. } => self.lumping_rounds += rounds,
            Event::Progress { .. } => self.progress_events += 1,
            Event::Span { name, seconds, .. } => {
                let slot = self.phases.entry(name).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 += seconds;
            }
            Event::Counter { name, value } => {
                let slot = self.counters.entry(*name).or_insert(0);
                *slot = (*slot).max(*value);
            }
            Event::RunSummary { .. } => {}
        }
    }

    /// Render the snapshot as one JSON object with a fixed key set and
    /// order (the golden-shape contract pinned by the CLI tests).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let counts: [(&str, u64); 18] = [
            ("solver_solves", self.solver_solves),
            ("solver_iterations", self.solver_iterations),
            ("poisson_windows", self.poisson_windows),
            ("poisson_left", self.poisson_left),
            ("poisson_right", self.poisson_right),
            ("nodes_explored", self.nodes_explored),
            ("path_groups", self.path_groups),
            ("paths_generated", self.paths_generated),
            ("paths_pruned", self.paths_pruned),
            ("path_max_depth", self.path_max_depth),
            ("path_classes", self.path_classes),
            ("omega_requests", self.omega_requests),
            ("omega_cache_entries", self.omega_cache_entries),
            ("omega_max_depth", self.omega_max_depth),
            ("grid_runs", self.grid_runs),
            ("grid_time_steps", self.grid_time_steps),
            ("grid_reward_cells", self.grid_reward_cells),
            ("adaptive_attempts", self.adaptive_attempts),
        ];
        for (name, v) in counts {
            write!(s, "\"{name}\":{v},").unwrap();
        }
        for (name, v) in [
            ("solver_last_residual", self.solver_last_residual),
            ("poisson_tail_bound", self.poisson_tail_bound),
            ("truncated_mass", self.truncated_mass),
        ] {
            write!(s, "\"{name}\":").unwrap();
            push_f64(&mut s, v);
            s.push(',');
        }
        write!(
            s,
            "\"lumping_rounds\":{},\"progress_events\":{},",
            self.lumping_rounds, self.progress_events
        )
        .unwrap();
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

    /// Human-readable `(label, value)` rows for the non-zero metrics, in
    /// a stable order — the CLI's `--metrics` table.
    pub fn table_rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let counts = [
            ("paths generated", self.paths_generated),
            ("paths pruned", self.paths_pruned),
            ("nodes explored", self.nodes_explored),
            ("path groups", self.path_groups),
            ("path classes", self.path_classes),
            ("max path depth", self.path_max_depth),
            ("omega requests", self.omega_requests),
            ("omega cache entries", self.omega_cache_entries),
            ("omega max depth", self.omega_max_depth),
            ("poisson windows", self.poisson_windows),
        ];
        for (label, v) in counts {
            if v > 0 {
                rows.push((label.to_owned(), v.to_string()));
            }
        }
        if self.poisson_windows > 0 {
            rows.push((
                "poisson window".to_owned(),
                format!("[{}, {}]", self.poisson_left, self.poisson_right),
            ));
        }
        let counts = [
            ("solver solves", self.solver_solves),
            ("solver iterations", self.solver_iterations),
            ("grid runs", self.grid_runs),
            ("grid time steps", self.grid_time_steps),
            ("grid reward cells", self.grid_reward_cells),
            ("adaptive attempts", self.adaptive_attempts),
            ("lumping rounds", self.lumping_rounds),
        ];
        for (label, v) in counts {
            if v > 0 {
                rows.push((label.to_owned(), v.to_string()));
            }
        }
        if self.truncated_mass > 0.0 {
            rows.push((
                "truncated mass".to_owned(),
                format!("{:e}", self.truncated_mass),
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
        assert_eq!(s.counters[SCC_COUNT], 4, "counters merge by max");
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
            "\"counters\":{\"scc_count\":4}",
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
