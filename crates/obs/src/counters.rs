//! Well-known [`Event::Counter`](crate::Event::Counter) names.
//!
//! `Counter` events carry a free-form `&'static str` name, but the
//! counters the engines actually emit are part of the workspace's
//! observable surface: they appear in `--metrics` tables, in JSONL
//! traces, and in the committed `BENCH_*.json` snapshots, and they are
//! documented in `docs/USAGE.md` (a doc-sync test keeps the table in
//! step with [`COUNTER_NAMES`]). Emitters reference these constants
//! instead of repeating string literals so the name can never drift from
//! the documentation.
//!
//! Counters are merged by **maximum** in
//! [`RunMetrics`](crate::RunMetrics), so emitters report cumulative
//! totals and may safely re-emit.

/// Cumulative Omega-term cache hits: per-class conditional probabilities
/// `Ω(r', k)` served from an installed cache instead of being recomputed
/// by the Omega recursion.
pub const OMEGA_CACHE_HITS: &str = "omega_cache_hits";

/// Cumulative memoized-`Sat` cache hits over a session's lifetime:
/// engine-backed subformulas (`S`/`P` operators) whose full result —
/// probabilities, verdicts, budgets — was served from the session cache
/// keyed by `(model_hash, subformula, options)` instead of re-running the
/// engines.
pub const SAT_CACHE_HITS: &str = "sat_cache_hits";

/// Cumulative memoized-`Sat` cache misses: engine-backed subformulas that
/// had to be computed and were then stored for later requests.
pub const SAT_CACHE_MISSES: &str = "sat_cache_misses";

/// Cumulative lumping-certificate cache hits: `(model, formula)` pairs
/// whose verified certificate (or the verified absence of a nontrivial
/// quotient) was reused from the session instead of re-running partition
/// refinement.
pub const CERT_CACHE_HITS: &str = "cert_cache_hits";

/// Distinct model contents parsed into a session so far: a reload of
/// unchanged files is served from the load-once store and does not bump
/// this counter, while changed content (same path, different bytes) does.
pub const MODELS_LOADED: &str = "models_loaded";

/// Number of SCCs the qualitative dataflow pass found in the model's rate
/// graph (Tarjan condensation, computed once per model hash).
pub const SCC_COUNT: &str = "scc_count";

/// States the qualitative analysis proved to satisfy the current until
/// operator with probability exactly 0 (the certain-zero set).
pub const QUAL_ZERO_STATES: &str = "qual_zero_states";

/// States the qualitative analysis proved to satisfy the current until
/// operator with probability exactly 1 (the certain-one set; for bounded
/// operators conservatively the goal states themselves).
pub const QUAL_ONE_STATES: &str = "qual_one_states";

/// States formula-driven slicing removed from the numerical solve beyond
/// the engines' own dead-state skip: certain-zero invariant states and
/// certain-one non-goal states, pre-assigned their exact 0/1 verdicts.
pub const SLICE_STATES_REMOVED: &str = "slice_states_removed";

/// Every counter name the engines emit, for doc-sync and validation.
pub const COUNTER_NAMES: &[&str] = &[
    OMEGA_CACHE_HITS,
    SAT_CACHE_HITS,
    SAT_CACHE_MISSES,
    CERT_CACHE_HITS,
    MODELS_LOADED,
    SCC_COUNT,
    QUAL_ZERO_STATES,
    QUAL_ONE_STATES,
    SLICE_STATES_REMOVED,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_identifier_like() {
        for (i, name) in COUNTER_NAMES.iter().enumerate() {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{name}"
            );
            assert!(!COUNTER_NAMES[..i].contains(name), "duplicate {name}");
        }
    }
}
