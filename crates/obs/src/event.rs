//! Typed engine events.
//!
//! Every instrumentation point in the workspace emits one of these
//! variants. The variant set is a *stable public vocabulary*: the JSONL
//! trace format names each event by [`Event::kind`], scripts match on
//! those names, and the doc-sync test fails the build when a kind is
//! missing from `docs/USAGE.md` — so extend the enum deliberately and
//! document every addition.

use crate::counters::Counter;

/// The complete, ordered list of event-kind names ([`Event::kind`] values).
///
/// Used by the doc-sync test and by anything that wants to validate a
/// trace without constructing events. [`Event::kind`] indexes this array
/// with a literal per variant, so a variant without an entry fails to
/// build; a stale entry fails this module's unit test.
pub const EVENT_KINDS: [&str; 12] = [
    "solver_sweep",
    "solver_done",
    "poisson_window",
    "path_exploration",
    "omega_table",
    "discretization_grid",
    "adaptive_attempt",
    "lumping_refinement",
    "progress",
    "span",
    "counter",
    "run_summary",
];

/// One structured telemetry event from an engine layer.
///
/// Events are pure observations: emitting (or not emitting) them never
/// changes a computed probability, verdict, or budget. Wall-clock data
/// appears only in [`Event::Span`]; everything else is deterministic for
/// a fixed input, so traces of two identical runs differ only in their
/// `span` lines.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One Gauss–Seidel sweep of a linear solve (residual = max update).
    SolverSweep {
        /// 1-based sweep number within this solve.
        iteration: u64,
        /// Maximum absolute component update of this sweep.
        residual: f64,
    },
    /// A linear solve finished (or gave up).
    SolverDone {
        /// Sweeps performed (0 for a direct solve).
        iterations: u64,
        /// Final residual (update size, or `‖b − A·x‖∞` for a direct
        /// solve).
        residual: f64,
        /// Whether the tolerance was reached.
        converged: bool,
    },
    /// A Fox–Glynn Poisson window was computed.
    PoissonWindow {
        /// The Poisson parameter `Λt`.
        lambda_t: f64,
        /// Left truncation point.
        left: u64,
        /// Right truncation point.
        right: u64,
        /// Requested bound on the trimmed tail mass.
        tail_bound: f64,
    },
    /// One path exploration of the uniformization engine completed
    /// (Algorithm 4.7 statistics plus the Eq. 4.6 mass).
    PathExploration {
        /// Start state the exploration ran from.
        start_state: u64,
        /// Path-tree nodes represented, merged or not.
        explored_nodes: u64,
        /// Groups expanded: each stands for one or more path-tree nodes
        /// of one depth with identical subtrees.
        explored_groups: u64,
        /// Paths stored into `(k, j)` classes (generated).
        stored_paths: u64,
        /// Paths pruned by the truncation rule.
        truncated_paths: u64,
        /// Deepest path expanded.
        max_depth: u64,
        /// Distinct `(k, j)` reward-count classes.
        num_classes: u64,
        /// Truncated probability mass charged by Eq. 4.6.
        truncated_mass: f64,
    },
    /// Omega-algorithm table statistics for one batch of conditional
    /// probabilities (Algorithm 4.8).
    OmegaTable {
        /// Number of reward coefficients (the table's column dimension).
        coefficients: u64,
        /// Conditional probabilities evaluated (table rows requested).
        requests: u64,
        /// Memo-table entries across all evaluators.
        cache_entries: u64,
        /// Deepest recursion reached by any evaluation.
        max_recursion_depth: u64,
    },
    /// One discretization run's grid dimensions (Algorithm 4.6).
    DiscretizationGrid {
        /// Time steps evolved (`t/d`).
        time_steps: u64,
        /// Reward cells per state row.
        reward_cells: u64,
        /// Integer scaling applied to the rewards.
        reward_scale: f64,
        /// The step size `d` used.
        step: f64,
    },
    /// One attempt of the adaptive tolerance driver, with the achieved
    /// budget breakdown (absent when the attempt failed outright).
    AdaptiveAttempt {
        /// 1-based attempt number.
        round: u64,
        /// Which knob was tried (`"truncation"`, `"step"`, `"samples"`).
        knob: &'static str,
        /// The knob's value for this attempt.
        value: f64,
        /// Achieved total budget, when the attempt produced a result.
        achieved: Option<f64>,
        /// Named budget components of the attempt (empty when it failed).
        components: Vec<(&'static str, f64)>,
    },
    /// A lumpability partition-refinement run finished.
    LumpingRefinement {
        /// Refinement rounds until the fixpoint.
        rounds: u64,
        /// States of the model analyzed.
        states: u64,
        /// Blocks of the resulting partition.
        blocks: u64,
    },
    /// Coarse progress for long runs; emission is throttled *by count* at
    /// the source (never by wall clock), so the event stream stays
    /// deterministic.
    Progress {
        /// What is being counted (`"states"`, `"grid"`).
        phase: &'static str,
        /// Units completed.
        done: u64,
        /// Total units.
        total: u64,
    },
    /// A named phase timer. The only event carrying wall-clock data.
    Span {
        /// Phase name (`"preflight"`, `"reduction"`, `"engine"`, ...).
        name: &'static str,
        /// Elapsed wall-clock seconds.
        seconds: f64,
        /// Close timestamp: seconds since the process-wide profiling
        /// origin (the first span ever started). Together with `seconds`
        /// this locates the span on a shared timeline, which is what lets
        /// [`ProfileRecorder`](crate::ProfileRecorder) reconstruct the
        /// nesting tree from a flat close-ordered event stream.
        end_s: f64,
    },
    /// An increment of a registered per-check counter: the work of the
    /// emitting site alone. Sinks sum repeated observations.
    Counter {
        /// Which registered counter.
        name: &'static Counter,
        /// The increment.
        value: u64,
    },
    /// End-of-run marker: the final event of a CLI trace.
    RunSummary {
        /// Formulas checked.
        formulas: u64,
        /// Formulas that failed (error, preflight, or missed tolerance).
        failures: u64,
    },
}

impl Event {
    /// The stable kind name of this event (see [`EVENT_KINDS`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SolverSweep { .. } => EVENT_KINDS[0],
            Event::SolverDone { .. } => EVENT_KINDS[1],
            Event::PoissonWindow { .. } => EVENT_KINDS[2],
            Event::PathExploration { .. } => EVENT_KINDS[3],
            Event::OmegaTable { .. } => EVENT_KINDS[4],
            Event::DiscretizationGrid { .. } => EVENT_KINDS[5],
            Event::AdaptiveAttempt { .. } => EVENT_KINDS[6],
            Event::LumpingRefinement { .. } => EVENT_KINDS[7],
            Event::Progress { .. } => EVENT_KINDS[8],
            Event::Span { .. } => EVENT_KINDS[9],
            Event::Counter { .. } => EVENT_KINDS[10],
            Event::RunSummary { .. } => EVENT_KINDS[11],
        }
    }

    /// Serialize the event's payload (everything after `"kind"`) as JSON
    /// object members, appended to `out` with a leading comma per field.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        use crate::json::{push_f64, push_str};
        use std::fmt::Write;
        match self {
            Event::SolverSweep {
                iteration,
                residual,
            } => {
                write!(out, ",\"iteration\":{iteration},\"residual\":").unwrap();
                push_f64(out, *residual);
            }
            Event::SolverDone {
                iterations,
                residual,
                converged,
            } => {
                write!(out, ",\"iterations\":{iterations},\"residual\":").unwrap();
                push_f64(out, *residual);
                write!(out, ",\"converged\":{converged}").unwrap();
            }
            Event::PoissonWindow {
                lambda_t,
                left,
                right,
                tail_bound,
            } => {
                out.push_str(",\"lambda_t\":");
                push_f64(out, *lambda_t);
                write!(out, ",\"left\":{left},\"right\":{right},\"tail_bound\":").unwrap();
                push_f64(out, *tail_bound);
            }
            Event::PathExploration {
                start_state,
                explored_nodes,
                explored_groups,
                stored_paths,
                truncated_paths,
                max_depth,
                num_classes,
                truncated_mass,
            } => {
                write!(
                    out,
                    ",\"start_state\":{start_state},\"explored_nodes\":{explored_nodes},\
                     \"explored_groups\":{explored_groups},\"stored_paths\":{stored_paths},\
                     \"truncated_paths\":{truncated_paths},\"max_depth\":{max_depth},\
                     \"num_classes\":{num_classes},\"truncated_mass\":"
                )
                .unwrap();
                push_f64(out, *truncated_mass);
            }
            Event::OmegaTable {
                coefficients,
                requests,
                cache_entries,
                max_recursion_depth,
            } => {
                write!(
                    out,
                    ",\"coefficients\":{coefficients},\"requests\":{requests},\
                     \"cache_entries\":{cache_entries},\"max_recursion_depth\":{max_recursion_depth}"
                )
                .unwrap();
            }
            Event::DiscretizationGrid {
                time_steps,
                reward_cells,
                reward_scale,
                step,
            } => {
                write!(
                    out,
                    ",\"time_steps\":{time_steps},\"reward_cells\":{reward_cells},\"reward_scale\":"
                )
                .unwrap();
                push_f64(out, *reward_scale);
                out.push_str(",\"step\":");
                push_f64(out, *step);
            }
            Event::AdaptiveAttempt {
                round,
                knob,
                value,
                achieved,
                components,
            } => {
                write!(out, ",\"round\":{round},\"knob\":").unwrap();
                push_str(out, knob);
                out.push_str(",\"value\":");
                push_f64(out, *value);
                out.push_str(",\"achieved\":");
                match achieved {
                    Some(a) => push_f64(out, *a),
                    None => out.push_str("null"),
                }
                out.push_str(",\"components\":{");
                for (i, (name, v)) in components.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, name);
                    out.push(':');
                    push_f64(out, *v);
                }
                out.push('}');
            }
            Event::LumpingRefinement {
                rounds,
                states,
                blocks,
            } => {
                write!(
                    out,
                    ",\"rounds\":{rounds},\"states\":{states},\"blocks\":{blocks}"
                )
                .unwrap();
            }
            Event::Progress { phase, done, total } => {
                out.push_str(",\"phase\":");
                push_str(out, phase);
                write!(out, ",\"done\":{done},\"total\":{total}").unwrap();
            }
            Event::Span {
                name,
                seconds,
                end_s,
            } => {
                out.push_str(",\"name\":");
                push_str(out, name);
                out.push_str(",\"seconds\":");
                push_f64(out, *seconds);
                out.push_str(",\"end_s\":");
                push_f64(out, *end_s);
            }
            Event::Counter { name, value } => {
                out.push_str(",\"name\":");
                push_str(out, name.name());
                write!(out, ",\"value\":{value}").unwrap();
            }
            Event::RunSummary { formulas, failures } => {
                write!(out, ",\"formulas\":{formulas},\"failures\":{failures}").unwrap();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_kind_is_listed_exactly_once() {
        let sample = [
            Event::SolverSweep {
                iteration: 1,
                residual: 0.5,
            },
            Event::SolverDone {
                iterations: 3,
                residual: 1e-13,
                converged: true,
            },
            Event::PoissonWindow {
                lambda_t: 10.0,
                left: 2,
                right: 30,
                tail_bound: 1e-10,
            },
            Event::PathExploration {
                start_state: 0,
                explored_nodes: 10,
                explored_groups: 7,
                stored_paths: 4,
                truncated_paths: 2,
                max_depth: 5,
                num_classes: 3,
                truncated_mass: 1e-9,
            },
            Event::OmegaTable {
                coefficients: 3,
                requests: 12,
                cache_entries: 40,
                max_recursion_depth: 6,
            },
            Event::DiscretizationGrid {
                time_steps: 100,
                reward_cells: 50,
                reward_scale: 1.0,
                step: 0.01,
            },
            Event::AdaptiveAttempt {
                round: 1,
                knob: "truncation",
                value: 1e-8,
                achieved: Some(1e-7),
                components: vec![("path_truncation", 1e-7)],
            },
            Event::LumpingRefinement {
                rounds: 2,
                states: 5,
                blocks: 3,
            },
            Event::Progress {
                phase: "states",
                done: 1,
                total: 5,
            },
            Event::Span {
                name: "engine",
                seconds: 0.25,
                end_s: 1.25,
            },
            Event::Counter {
                name: crate::counters::MODELS_LOADED,
                value: 4,
            },
            Event::RunSummary {
                formulas: 2,
                failures: 0,
            },
        ];
        let kinds: Vec<&str> = sample.iter().map(Event::kind).collect();
        assert_eq!(kinds, EVENT_KINDS, "EVENT_KINDS out of sync with variants");
        for (i, kind) in kinds.iter().enumerate() {
            assert!(!kinds[..i].contains(kind), "duplicate kind {kind}");
        }
    }

    #[test]
    fn json_fields_are_well_formed_fragments() {
        let e = Event::AdaptiveAttempt {
            round: 2,
            knob: "step",
            value: 0.125,
            achieved: None,
            components: vec![],
        };
        let mut s = String::new();
        e.write_json_fields(&mut s);
        assert!(s.contains("\"achieved\":null"), "{s}");
        assert!(s.contains("\"components\":{}"), "{s}");
        let e = Event::Progress {
            phase: "grid",
            done: 50,
            total: 100,
        };
        let mut s = String::new();
        e.write_json_fields(&mut s);
        assert_eq!(s, ",\"phase\":\"grid\",\"done\":50,\"total\":100");
    }
}
