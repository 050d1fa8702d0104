//! Session memoization: `Sat` sub-results, SCC condensations, lumping
//! certificates and steady-state analyses.
//!
//! Every session cache — these four and the session's two model maps —
//! is one counted store: an ordered map behind a mutex, with hit and miss
//! counters. A lookup counts a hit or a miss, also as an increment of the
//! per-check counter the store registered for it; on a miss the value is
//! computed outside the lock (so a computation may itself consult the
//! store) and the first value inserted for a key wins. Entries are never
//! evicted. The Ω-term cache is not one of these stores: it lives in
//! `mrmc-numerics`, below this crate, and keys a two-level table by
//! coefficient list.
//!
//! The `Sat` cache stores the full result of every engine-backed subformula
//! (`S`/`P` operators) the recursion in `crate::sat` evaluates, keyed by
//! `(model content hash, canonical subformula text, options fingerprint)`.
//! All three key components pin everything a result depends on:
//!
//! * the **model hash** ([`model_hash`]) digests the transition structure
//!   (bitwise rate values), the labeling, and both reward structures, so
//!   two loads of byte-different files that parse to the same model share
//!   entries while *any* semantic change — a rate, a label, an impulse —
//!   produces a fresh key;
//! * the **subformula text** is the canonical printer rendering
//!   (round-trip tested in the CSRL corpus), so structurally identical
//!   subformulas share entries across enclosing formulas;
//! * the **options fingerprint** ([`options_fingerprint`]) digests every
//!   checking option — engine and its parameters, solver tolerances,
//!   adaptive tolerance, reduction policy.
//!
//! The chain-only caches key on less: SCC condensations on the model hash
//! alone, steady-state analyses on the model hash and the solver options.
//! Serving a hit is exact: the engines are deterministic functions of
//! `(model, subformula, options)`, so a cached value is bit-for-bit the
//! value a fresh run would produce.
//!
//! The caches reach the recursion explicitly, not through thread-local
//! installs: every check runs in a [`crate::CheckSession`], which bundles
//! its `Caches` with the model hash and options fingerprint into a
//! `Memo` and passes it down the check pipeline, the `Sat` recursion and
//! the operators.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mrmc_analysis::AnalysisInputs;
use mrmc_csrl::StateFormula;
use mrmc_ctmc::bscc::SccDecomposition;
use mrmc_ctmc::steady::SteadyStateAnalysis;
use mrmc_mrm::Mrm;
use mrmc_obs::counters::{Counter, CERT_CACHE_HITS, SAT_CACHE_HITS, SAT_CACHE_MISSES};
use mrmc_sparse::solver::SolverOptions;

use crate::error::CheckError;
use crate::lumping::LumpingCertificate;
use crate::options::CheckOptions;
use crate::sat::SatNode;

/// 64-bit FNV-1a, the workspace's hermetic content digest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    pub(crate) fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    pub(crate) fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Content hash of a model: every ingredient a checking result can depend
/// on, independent of the byte representation it was loaded from.
pub fn model_hash(mrm: &Mrm) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(mrm.num_states() as u64);
    for (row, col, rate) in mrm.ctmc().rates().iter() {
        h.write_u64(row as u64)
            .write_u64(col as u64)
            .write_f64(rate);
    }
    // Per-state label sets, sorted: the labeling's iteration order is an
    // implementation detail the hash must not observe.
    for state in 0..mrm.num_states() {
        let mut aps: Vec<&str> = mrm.labeling().of_state(state).collect();
        aps.sort_unstable();
        h.write_u64(aps.len() as u64);
        for ap in aps {
            h.write(ap.as_bytes()).write(&[0]);
        }
    }
    for &r in mrm.state_rewards().as_slice() {
        h.write_f64(r);
    }
    let mut impulses: Vec<(usize, usize, f64)> = mrm.impulse_rewards().iter().collect();
    impulses.sort_by_key(|&(from, to, _)| (from, to));
    h.write_u64(impulses.len() as u64);
    for (from, to, value) in impulses {
        h.write_u64(from as u64)
            .write_u64(to as u64)
            .write_f64(value);
    }
    h.finish()
}

/// Fingerprint of every checking option.
///
/// The options (engine knobs, solver tolerances, adaptive tolerance,
/// reduction policy, pre-flight) are digested via the `Debug` rendering,
/// whose `f64` formatting is shortest-round-trip and therefore value-exact.
pub fn options_fingerprint(options: &CheckOptions) -> u64 {
    Fnv::new().write(format!("{options:?}").as_bytes()).finish()
}

/// A counted memo table: a mutex-guarded ordered map plus hit and miss
/// tallies. Every session cache is one of these; entries are never
/// evicted, so `len()` is also the number of distinct keys ever stored.
#[derive(Debug)]
pub(crate) struct Store<K, V> {
    entries: Mutex<BTreeMap<K, V>>,
    hits: Tally,
    misses: Tally,
}

/// A lifetime total, plus the per-check counter that each bump also
/// increments when one is registered.
#[derive(Debug)]
struct Tally(AtomicU64, Option<&'static Counter>);

impl Tally {
    fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = self.1 {
            mrmc_obs::count(counter, 1);
        }
    }
}

impl<K, V> Store<K, V> {
    /// An empty store that registers `hit` and `miss` as the per-check
    /// counters its lookups increment (`None`: that side counts only its
    /// lifetime total).
    pub(crate) fn new(hit: Option<&'static Counter>, miss: Option<&'static Counter>) -> Self {
        Store {
            entries: Mutex::default(),
            hits: Tally(AtomicU64::new(0), hit),
            misses: Tally(AtomicU64::new(0), miss),
        }
    }
}

impl<K: Ord, V: Clone> Store<K, V> {
    fn entries(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        self.entries.lock().expect("session cache poisoned")
    }

    /// The value stored under `key`, computed by `compute` and stored on
    /// a miss.
    pub(crate) fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.get_or_try_insert_with(key, || Ok::<V, Infallible>(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// As [`get_or_insert_with`](Store::get_or_insert_with) for a
    /// fallible `compute`. The lookup counts a hit or a miss; a failed
    /// compute stores nothing. `compute` runs outside the lock, so it
    /// may itself use the store; when two threads race on one key, both
    /// get the value the first of them inserted.
    pub(crate) fn get_or_try_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let cached = self.entries().get(&key).cloned();
        if let Some(value) = cached {
            self.hits.bump();
            return Ok(value);
        }
        self.misses.bump();
        let value = compute()?;
        Ok(self.entries().entry(key).or_insert(value).clone())
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.entries().len()
    }

    /// Lifetime lookup hits.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.0.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.0.load(Ordering::Relaxed)
    }
}

/// Memoized `Sat` sub-results keyed by `(model hash, options fingerprint,
/// subformula text)` (counted as `sat_cache_hits` and `sat_cache_misses`).
pub(crate) type SatCache = Store<(u64, u64, String), SatNode>;

/// Tarjan SCC decompositions keyed by [`model_hash`]. The condensation
/// depends only on the model's rate graph (which the hash digests), so
/// one entry serves every formula and option set checked against the
/// same model — the qualitative dataflow pre-pass asks for it once per
/// until operator.
pub(crate) type SccCache = Store<u64, Arc<SccDecomposition>>;

/// Resolved reductions keyed by `(model hash, relevant propositions,
/// observation)` (the `cert_cache_hits` counter): exactly what the
/// lumping analysis reads, so formulas that differ only in thresholds,
/// time or reward bounds' values share one analysis. A value is a
/// verified, strictly smaller quotient's certificate with the quotient's
/// content hash, or `None`.
///
/// Negative results are stored too: re-running partition refinement to
/// re-discover that no quotient exists (or that verification fails) is
/// exactly the kind of per-request work a session exists to amortize.
pub(crate) type CertCache = Store<(u64, AnalysisInputs), Reduced>;

/// A verified quotient's certificate and content hash, or `None`.
pub(crate) type Reduced = Option<(Arc<LumpingCertificate>, u64)>;

/// Steady-state analyses (Algorithm 4.3's BSCC decomposition, per-BSCC
/// stationary vectors and reach weights) keyed by `(model hash, solver
/// iteration cap, solver tolerance bits)`. The analysis never reads Φ, so
/// every `S` operator on one chain — both runs of two-run widening
/// included — shares one entry.
pub(crate) type SteadyCache = Store<(u64, usize, u64), Arc<SteadyStateAnalysis>>;

/// The memo tables of one [`crate::CheckSession`].
#[derive(Debug)]
pub(crate) struct Caches {
    pub(crate) sat: SatCache,
    pub(crate) scc: SccCache,
    pub(crate) certs: CertCache,
    pub(crate) steady: SteadyCache,
}

impl Default for Caches {
    fn default() -> Self {
        Caches {
            sat: Store::new(Some(SAT_CACHE_HITS), Some(SAT_CACHE_MISSES)),
            scc: Store::new(None, None),
            certs: Store::new(Some(CERT_CACHE_HITS), None),
            steady: Store::new(None, None),
        }
    }
}

impl Caches {
    /// A view of these tables for checks of the model with content hash
    /// `model_hash` under `options`.
    pub(crate) fn memo(&self, model_hash: u64, options: &CheckOptions) -> Memo<'_> {
        Memo {
            caches: self,
            model_hash,
            options_fp: options_fingerprint(options),
        }
    }
}

/// The session memos one check reads and writes, scoped to the model
/// the recursion runs on and the active options. It is passed by value
/// from [`crate::CheckSession::check`] through the `Sat` recursion into
/// the operators.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Memo<'a> {
    pub(crate) caches: &'a Caches,
    /// Content hash of the model the recursion runs on (the quotient's
    /// hash when checking on a certified quotient).
    pub(crate) model_hash: u64,
    /// [`options_fingerprint`] of the active [`CheckOptions`].
    pub(crate) options_fp: u64,
}

impl Memo<'_> {
    /// The memoized result of the engine-backed subformula `formula`,
    /// computed by `compute` and stored on a miss.
    pub(crate) fn sat(
        &self,
        formula: &StateFormula,
        compute: impl FnOnce() -> Result<SatNode, CheckError>,
    ) -> Result<SatNode, CheckError> {
        let key = (self.model_hash, self.options_fp, formula.to_string());
        self.caches.sat.get_or_try_insert_with(key, compute)
    }

    /// The resolved reduction for `formula` on this memo's model,
    /// computed by `analyze` on a miss and shared by every formula with
    /// the same [`AnalysisInputs`].
    pub(crate) fn certificate(
        &self,
        formula: &StateFormula,
        analyze: impl FnOnce() -> Reduced,
    ) -> Reduced {
        let key = (self.model_hash, AnalysisInputs::of(formula));
        self.caches.certs.get_or_insert_with(key, analyze)
    }

    /// The SCC decomposition of `mrm`, this memo's model: a pure function
    /// of the rate graph, computed once per model hash.
    pub(crate) fn condensation(&self, mrm: &Mrm) -> Arc<SccDecomposition> {
        self.caches.scc.get_or_insert_with(self.model_hash, || {
            Arc::new(SccDecomposition::new(mrm.ctmc().rates()))
        })
    }

    /// The steady-state analysis of this memo's model under `solver`,
    /// computed by `analyze` on a miss.
    pub(crate) fn steady(
        &self,
        solver: SolverOptions,
        analyze: impl FnOnce() -> Result<Arc<SteadyStateAnalysis>, CheckError>,
    ) -> Result<Arc<SteadyStateAnalysis>, CheckError> {
        let key = (
            self.model_hash,
            solver.max_iterations,
            solver.tolerance.to_bits(),
        );
        self.caches.steady.get_or_try_insert_with(key, analyze)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UntilEngine;

    #[test]
    fn model_hash_distinguishes_semantic_changes() {
        use mrmc_ctmc::CtmcBuilder;
        let build = |rate: f64, label: &str, reward: f64| {
            let mut b = CtmcBuilder::new(2);
            b.transition(0, 1, rate).transition(1, 0, 0.9);
            b.label(0, label).label(1, "down");
            let ctmc = b.build().unwrap();
            let n = ctmc.num_states();
            Mrm::new(
                ctmc,
                mrmc_mrm::StateRewards::new(vec![reward; n]).unwrap(),
                mrmc_mrm::ImpulseRewards::new(),
            )
            .unwrap()
        };
        let base = model_hash(&build(0.1, "up", 1.0));
        assert_eq!(base, model_hash(&build(0.1, "up", 1.0)), "not stable");
        assert_ne!(base, model_hash(&build(0.2, "up", 1.0)), "rate ignored");
        assert_ne!(base, model_hash(&build(0.1, "on", 1.0)), "label ignored");
        assert_ne!(
            base,
            model_hash(&build(0.1, "up", 2.0)),
            "state reward ignored"
        );
    }

    #[test]
    fn fingerprint_splits_on_knobs() {
        let base = CheckOptions::new();
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&CheckOptions::new()),
            "not stable"
        );
        assert_ne!(
            options_fingerprint(&base),
            options_fingerprint(&base.with_engine(UntilEngine::uniformization(1e-10))),
            "engine knob must split the cache"
        );
        assert_ne!(
            options_fingerprint(&base),
            options_fingerprint(&base.with_tolerance(1e-6)),
            "tolerance must split the cache"
        );
    }

    #[test]
    fn store_counts_hits_and_misses() {
        let store: Store<u32, &str> = Store::new(None, None);
        assert_eq!(store.get_or_insert_with(1, || "one"), "one");
        assert_eq!(
            store.get_or_insert_with(1, || panic!("a hit must not recompute")),
            "one"
        );
        assert_eq!(store.get_or_insert_with(2, || "two"), "two");
        assert_eq!((store.hits(), store.misses(), store.len()), (1, 2, 2));
    }

    #[test]
    fn counting_store_records_one_increment_per_lookup() {
        use mrmc_obs::counters::{SAT_CACHE_HITS, SAT_CACHE_MISSES};
        let store: Store<u32, u32> = Store::new(Some(SAT_CACHE_HITS), Some(SAT_CACHE_MISSES));
        store.get_or_insert_with(1, || 10);
        let metrics = Arc::new(mrmc_obs::MetricsRecorder::new());
        mrmc_obs::with_recorder(metrics.clone(), || {
            for key in [1, 1, 2] {
                store.get_or_insert_with(key, || 20);
            }
        });
        let counters = metrics.take().counters;
        assert_eq!(
            (counters[SAT_CACHE_HITS], counters[SAT_CACHE_MISSES]),
            (2, 1)
        );
        assert_eq!((store.hits(), store.misses()), (2, 2));
    }

    #[test]
    fn failed_compute_is_a_miss_and_stores_nothing() {
        let store: Store<u32, u32> = Store::new(None, None);
        assert_eq!(store.get_or_try_insert_with(1, || Err("boom")), Err("boom"));
        assert_eq!((store.hits(), store.misses(), store.len()), (0, 1, 0));
        // The failure is not remembered: the next lookup computes again.
        assert_eq!(store.get_or_try_insert_with(1, || Ok::<_, ()>(7)), Ok(7));
        assert_eq!(store.get_or_try_insert_with(1, || Err(())), Ok(7));
        assert_eq!((store.hits(), store.misses(), store.len()), (1, 2, 1));
    }

    #[test]
    fn racing_computes_return_the_first_inserted_value() {
        use std::sync::mpsc;
        let store: Store<u32, u32> = Store::new(None, None);
        let (missed_tx, missed_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let (slow, fast) = std::thread::scope(|scope| {
            // The slow computation misses first and inserts last.
            let store = &store;
            let slow = scope.spawn(move || {
                store.get_or_insert_with(1, || {
                    missed_tx.send(()).unwrap();
                    done_rx.recv().unwrap();
                    10
                })
            });
            missed_rx.recv().unwrap();
            let fast = store.get_or_insert_with(1, || 20);
            done_tx.send(()).unwrap();
            (slow.join().unwrap(), fast)
        });
        assert_eq!((slow, fast), (20, 20));
        assert_eq!((store.hits(), store.misses(), store.len()), (0, 2, 1));
    }

    fn memo(caches: &Caches, model_hash: u64) -> Memo<'_> {
        caches.memo(model_hash, &CheckOptions::new())
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let caches = Caches::default();
        let formula = mrmc_csrl::parse("S(> 0.5) (up)").unwrap();
        let compute = || Ok(SatNode::sets(vec![true], vec![false]));
        memo(&caches, 7).sat(&formula, compute).unwrap();
        assert_eq!((caches.sat.hits(), caches.sat.misses()), (0, 1));
        let node = memo(&caches, 7)
            .sat(&formula, || panic!("a hit must not recompute"))
            .unwrap();
        assert_eq!((caches.sat.hits(), caches.sat.misses()), (1, 1));
        assert_eq!(node, SatNode::sets(vec![true], vec![false]));
        // A different model hash misses.
        memo(&caches, 8).sat(&formula, compute).unwrap();
        assert_eq!((caches.sat.hits(), caches.sat.misses()), (1, 2));
        assert_eq!(caches.sat.len(), 2);
    }

    #[test]
    fn scc_cache_memoizes_by_model_hash() {
        use mrmc_ctmc::CtmcBuilder;
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let caches = Caches::default();
        assert_eq!(caches.scc.len(), 0);
        let memo = memo(&caches, model_hash(&m));
        let (a, b) = (memo.condensation(&m), memo.condensation(&m));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be served");
        assert_eq!((caches.scc.hits(), caches.scc.misses()), (1, 1));
        assert_eq!(caches.scc.len(), 1);
        assert_eq!(a.num_components(), 1);
    }
}
