//! The registered [`Event::Counter`](crate::Event::Counter) names.
//!
//! The counters the engines emit are part of the workspace's observable
//! surface: they appear in `--metrics` tables, in JSONL traces, and in
//! the committed `BENCH_*.json` snapshots, and they are documented in
//! `docs/USAGE.md` (a doc-sync test keeps the table in step with
//! [`COUNTER_NAMES`]). A [`Counter`] can only be constructed in this
//! module, so an emitter outside `mrmc-obs` can only name a counter
//! declared here, and each name is written once: the `counters!` list
//! below generates both the named constants and [`COUNTER_NAMES`].
//!
//! Counters are merged by **maximum** in
//! [`RunMetrics`](crate::RunMetrics), so emitters report cumulative
//! totals and may safely re-emit.

/// A registered counter name.
///
/// The field is private, so code outside `mrmc-obs` names counters only
/// through the constants of this module:
///
/// ```compile_fail
/// let ad_hoc = mrmc_obs::counters::Counter("ad_hoc");
/// ```
///
/// Counters order (and therefore render) by name.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(&'static str);

impl Counter {
    /// The name as it appears in metrics, traces and BENCH snapshots.
    pub const fn name(&self) -> &'static str {
        self.0
    }
}

/// Declare each counter once: a documented constant per entry, plus
/// [`COUNTER_NAMES`] listing every entry in declaration order.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $konst:ident = $name:literal;)+) => {
        $(
            $(#[doc = $doc])+
            pub const $konst: &Counter = &Counter($name);
        )+

        /// Every counter name the engines emit, for doc-sync and validation.
        pub const COUNTER_NAMES: &[&str] = &[$($name),+];
    };
}

counters! {
    /// Cumulative Omega-term cache hits: per-class conditional
    /// probabilities `Ω(r', k)` served from an installed cache instead of
    /// being recomputed by the Omega recursion.
    OMEGA_CACHE_HITS = "omega_cache_hits";

    /// Cumulative memoized-`Sat` cache hits over a session's lifetime:
    /// engine-backed subformulas (`S`/`P` operators) whose full result —
    /// probabilities, verdicts, budgets — was served from the session
    /// cache keyed by `(model_hash, subformula, options)` instead of
    /// re-running the engines.
    SAT_CACHE_HITS = "sat_cache_hits";

    /// Cumulative memoized-`Sat` cache misses: engine-backed subformulas
    /// that had to be computed and were then stored for later requests.
    SAT_CACHE_MISSES = "sat_cache_misses";

    /// Cumulative lumping-certificate cache hits: checks whose model and
    /// observation (relevant propositions plus rate and reward flags) had
    /// already been analyzed, so the verified certificate (or the verified
    /// absence of a nontrivial quotient) was reused from the session
    /// instead of re-running partition refinement.
    CERT_CACHE_HITS = "cert_cache_hits";

    /// Distinct model contents parsed into a session so far: a reload of
    /// unchanged files is served from the load-once store and does not
    /// bump this counter, while changed content (same path, different
    /// bytes) does.
    MODELS_LOADED = "models_loaded";

    /// Number of SCCs the qualitative dataflow pass found in the model's
    /// rate graph (Tarjan condensation, computed once per model hash).
    SCC_COUNT = "scc_count";

    /// States the qualitative analysis proved to satisfy the current until
    /// operator with probability exactly 0 (the certain-zero set).
    QUAL_ZERO_STATES = "qual_zero_states";

    /// States the qualitative analysis proved to satisfy the current until
    /// operator with probability exactly 1 (the certain-one set; for
    /// bounded operators conservatively the goal states themselves).
    QUAL_ONE_STATES = "qual_one_states";

    /// States formula-driven slicing removed from the numerical solve
    /// beyond the engines' own dead-state skip: certain-zero invariant
    /// states and certain-one non-goal states, pre-assigned their exact
    /// 0/1 verdicts.
    SLICE_STATES_REMOVED = "slice_states_removed";
}

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
