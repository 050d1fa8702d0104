//! The metric registry: every name the telemetry surface carries, declared
//! once in the `metrics!` table below, in three sections:
//!
//! * `scalars` — the [`RunMetrics`] fields in `--json` order, each with its
//!   merge rule within one check (`sum`, `max`, `min` or `last`; `min` and
//!   `last` name the count that says whether anything was observed) and
//!   its `--metrics` label (empty for keys shown only in JSON);
//! * `counters` — per-check [`Counter`]s, whose increments
//!   [`RunMetrics::counters`] sums;
//! * `session` — the [`SessionStats`] fields in `stats` reply order; those
//!   marked `+ check` are per-check counters too, the others are
//!   [`SessionCounter`]s, which a per-check event cannot carry.
//!
//! A new metric is one entry here, its emitting site and its USAGE row.

use std::collections::BTreeMap;

/// A registered counter name.
///
/// The field is private, so code outside `mrmc-obs` names counters only
/// through the constants of [`counters`]:
///
/// ```compile_fail
/// let ad_hoc = mrmc_obs::counters::Counter("ad_hoc");
/// ```
///
/// Counters order (and therefore render) by name.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(&'static str);

impl Counter {
    /// The name as it appears in metrics, traces, BENCH snapshots and the
    /// session's `stats` reply.
    pub const fn name(&self) -> &'static str {
        self.0
    }
}

/// A registered session-only counter name: a lifetime total of a
/// long-lived session ([`SessionStats`]), never a per-check increment.
///
/// It is a different type from [`Counter`], so a per-check event cannot
/// carry one:
///
/// ```compile_fail
/// let _ = mrmc_obs::Event::Counter {
///     name: mrmc_obs::counters::REQUESTS,
///     value: 1,
/// };
/// ```
///
/// while a per-check counter, including a session counter marked
/// `+ check` in the registry, can:
///
/// ```
/// let _ = mrmc_obs::Event::Counter {
///     name: mrmc_obs::counters::SAT_CACHE_HITS,
///     value: 1,
/// };
/// ```
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionCounter(&'static str);

impl SessionCounter {
    /// The name as it appears in the session's `stats` reply and the
    /// Prometheus exposition.
    pub const fn name(&self) -> &'static str {
        self.0
    }
}

/// One scalar of a [`RunMetrics`] snapshot, as the renderers see it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reading {
    Count(u64),
    Real(f64),
}

impl From<u64> for Reading {
    fn from(v: u64) -> Self {
        Reading::Count(v)
    }
}

impl From<f64> for Reading {
    fn from(v: f64) -> Self {
        Reading::Real(v)
    }
}

/// The combined value of scalar `$f` when snapshot `$b` folds into `$a`.
macro_rules! merged {
    ($a:ident, $b:ident, $f:ident, sum) => {
        $a.$f + $b.$f
    };
    ($a:ident, $b:ident, $f:ident, max) => {
        $a.$f.max($b.$f)
    };
    ($a:ident, $b:ident, $f:ident, min($seen:ident)) => {
        match ($a.$seen, $b.$seen) {
            (_, 0) => $a.$f,
            (0, _) => $b.$f,
            _ => $a.$f.min($b.$f),
        }
    };
    ($a:ident, $b:ident, $f:ident, last($seen:ident)) => {
        match $b.$seen {
            0 => $a.$f,
            _ => $b.$f,
        }
    };
}

/// A session counter marked `+ check`, which is also a per-check counter.
macro_rules! also_per_check {
    (check, $konst:ident) => {
        $konst
    };
}

/// The constant of a session counter: a [`Counter`] when it is marked
/// `+ check`, a [`SessionCounter`] otherwise.
macro_rules! session_counter {
    ($(#[doc = $doc:literal])+ $konst:ident = $name:ident check) => {
        $(#[doc = $doc])+
        pub const $konst: &Counter = &Counter(stringify!($name));
    };
    ($(#[doc = $doc:literal])+ $konst:ident = $name:ident) => {
        $(#[doc = $doc])+
        pub const $konst: &SessionCounter = &SessionCounter(stringify!($name));
    };
}

macro_rules! metrics {
    (
        scalars {
            $($(#[doc = $sdoc:literal])+
              $field:ident: $ty:ty = $rule:ident $(($seen:ident))?, $label:literal;)+
        }
        counters {
            $($(#[doc = $cdoc:literal])+ $ckonst:ident = $cname:ident;)+
        }
        session {
            $($(#[doc = $xdoc:literal])+ $xkonst:ident = $xname:ident $(+ $check:ident)?;)+
        }
    ) => {
        const NUM_SCALARS: usize = [$(stringify!($field)),+].len();
        const NUM_SESSION: usize = [$(stringify!($xname)),+].len();

        /// Aggregated work for one check (or one run), produced by
        /// [`MetricsRecorder`](crate::MetricsRecorder).
        ///
        /// All fields are plain data; `Default` is the all-zero snapshot.
        /// The JSON rendering ([`to_json`](Self::to_json)) always contains
        /// every key, zero or not, so consumers can rely on the shape.
        #[derive(Debug, Clone, PartialEq, Default)]
        pub struct RunMetrics {
            $($(#[doc = $sdoc])+ pub $field: $ty,)+
            /// Per-phase wall-clock: name → (times entered, total seconds).
            pub phases: BTreeMap<&'static str, (u64, f64)>,
            /// Per-check counters: the summed increments of every
            /// registered counter the run emitted.
            pub counters: BTreeMap<&'static Counter, u64>,
        }

        impl RunMetrics {
            /// Every scalar key with its merge rule, in rendering order.
            pub const SCALARS: [(&'static str, &'static str); NUM_SCALARS] =
                [$((stringify!($field), stringify!($rule))),+];

            /// Every scalar as `(key, table label, value)`, in rendering
            /// order; the label is empty for keys shown only in JSON.
            pub(crate) fn scalars(&self) -> [(&'static str, &'static str, Reading); NUM_SCALARS] {
                [$((stringify!($field), $label, Reading::from(self.$field))),+]
            }

            /// Fold the scalars of `delta` in, each by its merge rule.
            pub(crate) fn merge_scalars(&mut self, delta: &RunMetrics) {
                let ($($field,)+) = ($(merged!(self, delta, $field, $rule $(($seen))?),)+);
                $(self.$field = $field;)+
            }
        }

        /// The registered counter names.
        ///
        /// A [`Counter`] can only be constructed inside `mrmc-obs`, so an
        /// emitter elsewhere can only name a counter declared in the
        /// registry. Per-check counters are increments: a check emits what
        /// it did itself, and [`RunMetrics`] sums. Session-only counters
        /// are [`SessionCounter`]s, which no
        /// [`Event::Counter`](crate::Event::Counter) can carry.
        pub mod counters {
            pub use super::{Counter, SessionCounter};
            $($(#[doc = $cdoc])+ pub const $ckonst: &Counter = &Counter(stringify!($cname));)+
            $(session_counter!($(#[doc = $xdoc])+ $xkonst = $xname $($check)?);)+

            /// Every per-check counter: the `counters` section, then the
            /// session counters marked `+ check`.
            pub const PER_CHECK: &[&Counter] =
                &[$($ckonst,)+ $($(also_per_check!($check, $xkonst),)?)+];
        }

        /// A long-lived session's lifetime counter totals.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct SessionStats {
            $($(#[doc = $xdoc])+ pub $xname: u64,)+
        }

        impl SessionStats {
            /// Every counter as `(name, value)`, in field order: the
            /// server's `stats` reply and `metrics` exposition.
            pub fn counters(&self) -> [(&'static str, u64); NUM_SESSION] {
                [$((counters::$xkonst.name(), self.$xname)),+]
            }
        }
    };
}

metrics! {
    scalars {
        /// Linear solves completed, direct or iterative.
        solver_solves: u64 = sum, "solver solves";
        /// Iterative sweeps across all solves; a direct solve adds none.
        solver_iterations: u64 = sum, "solver iterations";
        /// Fox–Glynn windows computed.
        poisson_windows: u64 = sum, "poisson windows";
        /// Smallest left truncation point seen (0 when no window was
        /// computed).
        poisson_left: u64 = min(poisson_windows), "";
        /// Largest right truncation point seen.
        poisson_right: u64 = max, "";
        /// Path-tree nodes represented by the uniformization engine, merged
        /// or not.
        nodes_explored: u64 = sum, "nodes explored";
        /// Groups the merged path exploration expanded; each stands for the
        /// nodes of one depth with identical subtrees (at most
        /// `nodes_explored`).
        path_groups: u64 = sum, "path groups";
        /// Paths generated (stored into reward-count classes).
        paths_generated: u64 = sum, "paths generated";
        /// Paths pruned by the truncation rule.
        paths_pruned: u64 = sum, "paths pruned";
        /// Deepest path expanded.
        path_max_depth: u64 = max, "max path depth";
        /// Distinct `(k, j)` classes accumulated.
        path_classes: u64 = sum, "path classes";
        /// Omega conditional probabilities computed (cache misses).
        omega_requests: u64 = sum, "omega requests";
        /// Omega memo-table entries, summed over evaluators.
        omega_cache_entries: u64 = sum, "omega cache entries";
        /// Deepest Omega recursion.
        omega_max_depth: u64 = max, "omega max depth";
        /// Discretization grids run: one per check (or per adaptive round),
        /// however many start states it answers; the Richardson companion
        /// at `2d` is not counted.
        grid_runs: u64 = sum, "grid runs";
        /// Time steps evolved, summed over the counted grids.
        grid_time_steps: u64 = sum, "grid time steps";
        /// Largest reward-cell count of any grid.
        grid_reward_cells: u64 = max, "grid reward cells";
        /// Adaptive-driver attempts.
        adaptive_attempts: u64 = sum, "adaptive attempts";
        /// Final residual of the last completed solve.
        solver_last_residual: f64 = last(solver_solves), "";
        /// Largest requested tail bound.
        poisson_tail_bound: f64 = max, "";
        /// Largest Eq. 4.6 truncated mass of any exploration.
        truncated_mass: f64 = max, "truncated mass";
        /// Lumping refinement rounds, summed over analyses.
        lumping_rounds: u64 = sum, "lumping rounds";
        /// Progress events observed.
        progress_events: u64 = sum, "";
    }
    counters {
        /// SCCs the qualitative dataflow pass found in the model's rate
        /// graph (Tarjan condensation), summed over the check's until
        /// operators.
        SCC_COUNT = scc_count;
        /// States the qualitative analysis proved to satisfy an until
        /// operator with probability exactly 0 (the certain-zero set),
        /// summed over the check's until operators.
        QUAL_ZERO_STATES = qual_zero_states;
        /// States the qualitative analysis proved to satisfy an until
        /// operator with probability exactly 1 (the certain-one set; for
        /// bounded operators conservatively the goal states themselves),
        /// summed over the check's until operators.
        QUAL_ONE_STATES = qual_one_states;
        /// States formula-driven slicing removed from the numerical solve
        /// beyond the engines' own dead-state skip: certain-zero invariant
        /// states and certain-one non-goal states, pre-assigned their exact
        /// 0/1 verdicts. Summed over the check's until operators.
        SLICE_STATES_REMOVED = slice_states_removed;
    }
    session {
        /// Check requests served (successful or not).
        REQUESTS = requests;
        /// Distinct model contents parsed: a reload of unchanged files is
        /// served from the load-once store and does not count, changed
        /// content (same path, different bytes) does.
        MODELS_LOADED = models_loaded + check;
        /// Memoized `Sat` sub-results served from the session cache keyed
        /// by `(model_hash, subformula, options)` instead of re-running the
        /// engines.
        SAT_CACHE_HITS = sat_cache_hits + check;
        /// Engine-backed subformulas computed and stored in the `Sat`
        /// cache.
        SAT_CACHE_MISSES = sat_cache_misses + check;
        /// Lumping certificates (or certified absences of a quotient)
        /// reused for a model and observation already analyzed, instead of
        /// re-running partition refinement.
        CERT_CACHE_HITS = cert_cache_hits + check;
        /// Entries in the session's shared Omega-term cache (not the
        /// per-check `omega_cache_entries` scalar of
        /// [`RunMetrics`](crate::RunMetrics)).
        OMEGA_CACHE_ENTRIES = omega_cache_entries;
        /// Omega terms `Ω(r', k)` served from the installed Omega-term
        /// cache instead of being recomputed by the Omega recursion.
        OMEGA_CACHE_HITS = omega_cache_hits + check;
        /// SCC condensations served from the session cache instead of being
        /// recomputed by the dataflow pre-pass.
        SCC_CACHE_HITS = scc_cache_hits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_identifier_like() {
        let scalars = RunMetrics::SCALARS.map(|(name, _)| name);
        let per_check: Vec<&str> = counters::PER_CHECK.iter().map(|c| c.name()).collect();
        let session = SessionStats::default().counters().map(|(name, _)| name);
        for list in [&scalars[..], &per_check, &session] {
            for (i, name) in list.iter().enumerate() {
                assert!(
                    name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                    "{name}"
                );
                assert!(!list[..i].contains(name), "duplicate {name}");
            }
        }
    }

    #[test]
    fn scopes_follow_the_table() {
        assert!(counters::PER_CHECK.contains(&counters::SCC_COUNT));
        assert!(counters::PER_CHECK.contains(&counters::SAT_CACHE_HITS));
        // Session-only counters are `SessionCounter`s, so `PER_CHECK` (a
        // list of `Counter`s) cannot hold one; the `SessionCounter`
        // compile-fail doctest pins that.
        assert_eq!(counters::REQUESTS.name(), "requests");
        let stats = SessionStats {
            scc_cache_hits: 3,
            ..SessionStats::default()
        };
        assert_eq!(stats.counters()[0], ("requests", 0));
        assert_eq!(stats.counters()[NUM_SESSION - 1], ("scc_cache_hits", 3));
    }

    #[test]
    fn min_and_last_ignore_snapshots_without_observations() {
        let window = |left| RunMetrics {
            poisson_windows: 1,
            poisson_left: left,
            ..RunMetrics::default()
        };
        let mut m = RunMetrics::default();
        for delta in [window(4), RunMetrics::default(), window(0), window(9)] {
            m.merge_scalars(&delta);
        }
        assert_eq!((m.poisson_windows, m.poisson_left), (3, 0));
        m.merge_scalars(&RunMetrics {
            solver_solves: 1,
            solver_last_residual: 1e-9,
            ..RunMetrics::default()
        });
        m.merge_scalars(&window(2));
        assert_eq!(m.solver_last_residual, 1e-9);
    }
}
