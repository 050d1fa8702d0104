//! Session-scoped memoization of `Sat` sub-results.
//!
//! A [`SatCache`] stores the full result of every engine-backed subformula
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
//! Serving a hit is exact: the engines are deterministic functions of
//! `(model, subformula, options)`, so a cached triple is bit-for-bit the
//! triple a fresh run would produce. The cache is installed with dynamic
//! scoping ([`with_sat_cache`]), mirroring `mrmc_obs::with_recorder` and
//! `mrmc_numerics::omega::with_omega_cache`: one-shot callers
//! ([`crate::ModelChecker`]) install nothing and keep the exact historical
//! behavior, while [`crate::CheckSession`] installs its cache around each
//! request.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mrmc_mrm::Mrm;

use crate::options::CheckOptions;
use crate::sat::Extras;

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

/// Digest `bytes` with FNV-1a (used for the load-once file store).
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    Fnv::new().write(bytes).finish()
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
    hash_bytes(format!("{options:?}").as_bytes())
}

/// The cache context: which model (by content hash) and which options the
/// results being read/written belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SatCtx {
    /// Content hash of the model the recursion is running on (the
    /// quotient's hash when checking on a certified quotient).
    pub model_hash: u64,
    /// [`options_fingerprint`] of the active [`CheckOptions`].
    pub options_fp: u64,
}

/// One memoized sub-result: the full triple the recursion produced.
pub(crate) type CachedSat = (Vec<bool>, Vec<bool>, Option<Extras>);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct SatKey {
    model_hash: u64,
    options_fp: u64,
    formula: String,
}

/// A shareable store of memoized `Sat` sub-results with hit/miss
/// accounting (surfaced as the `sat_cache_hits`/`sat_cache_misses`
/// counters in the `mrmc_obs::counters` registry).
#[derive(Debug, Default)]
pub struct SatCache {
    entries: Mutex<BTreeMap<SatKey, CachedSat>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SatCache {
    /// An empty cache.
    pub fn new() -> Self {
        SatCache::default()
    }

    pub(crate) fn get(&self, ctx: SatCtx, formula: &str) -> Option<CachedSat> {
        let entries = self.entries.lock().expect("sat cache poisoned");
        let v = entries
            .get(&SatKey {
                model_hash: ctx.model_hash,
                options_fp: ctx.options_fp,
                formula: formula.to_string(),
            })
            .cloned();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    pub(crate) fn insert(&self, ctx: SatCtx, formula: String, value: CachedSat) {
        let mut entries = self.entries.lock().expect("sat cache poisoned");
        entries.insert(
            SatKey {
                model_hash: ctx.model_hash,
                options_fp: ctx.options_fp,
                formula,
            },
            value,
        );
    }

    /// Number of memoized sub-results.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("sat cache poisoned").len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

thread_local! {
    static INSTALLED: RefCell<Option<(Arc<SatCache>, SatCtx)>> = const { RefCell::new(None) };
}

/// Install `cache` (with its model/options context) as this thread's
/// `Sat` memo for the duration of `f`.
///
/// Scoping is dynamic and re-entrant, mirroring
/// [`mrmc_numerics::omega::with_omega_cache`]: nested calls shadow the
/// outer cache and restore it on exit (also on unwind). While installed,
/// the recursion in `crate::sat` serves engine-backed subformulas from
/// the cache and stores misses — results are bit-identical to an uncached
/// run.
pub fn with_sat_cache<T>(cache: Arc<SatCache>, ctx: SatCtx, f: impl FnOnce() -> T) -> T {
    struct Restore {
        previous: Option<(Arc<SatCache>, SatCtx)>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED.with(|c| *c.borrow_mut() = self.previous.take());
        }
    }
    let restore = Restore {
        previous: INSTALLED.with(|c| c.borrow_mut().replace((cache, ctx))),
    };
    let out = f();
    drop(restore);
    out
}

/// The cache and context installed on this thread, if any.
pub(crate) fn installed() -> Option<(Arc<SatCache>, SatCtx)> {
    INSTALLED.with(|c| c.borrow().clone())
}

/// A shareable store of Tarjan SCC decompositions keyed by
/// [`model_hash`], with hit/miss accounting. The condensation depends
/// only on the model's rate graph (which the hash digests), so one entry
/// serves every formula and option set checked against the same model —
/// the qualitative dataflow pre-pass asks for it once per until operator.
#[derive(Debug, Default)]
pub struct SccCache {
    entries: Mutex<BTreeMap<u64, Arc<mrmc_ctmc::bscc::SccDecomposition>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SccCache {
    /// An empty cache.
    pub fn new() -> Self {
        SccCache::default()
    }

    /// Number of memoized decompositions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("scc cache poisoned").len()
    }

    /// `true` when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn get_or_compute(
        &self,
        hash: u64,
        compute: impl FnOnce() -> mrmc_ctmc::bscc::SccDecomposition,
    ) -> Arc<mrmc_ctmc::bscc::SccDecomposition> {
        if let Some(scc) = self
            .entries
            .lock()
            .expect("scc cache poisoned")
            .get(&hash)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return scc;
        }
        // Compute outside the lock; a racing thread may duplicate the
        // work, but both arrive at the identical decomposition.
        let scc = Arc::new(compute());
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("scc cache poisoned")
            .entry(hash)
            .or_insert_with(|| scc.clone())
            .clone()
    }
}

thread_local! {
    static INSTALLED_SCC: RefCell<Option<Arc<SccCache>>> = const { RefCell::new(None) };
}

/// Install `cache` as this thread's condensation store for the duration
/// of `f` — dynamic scoping exactly like [`with_sat_cache`]. One-shot
/// callers install nothing and recompute per request;
/// [`crate::CheckSession`] installs its cache around each check so the
/// Tarjan pass runs once per model hash.
pub fn with_scc_cache<T>(cache: Arc<SccCache>, f: impl FnOnce() -> T) -> T {
    struct Restore {
        previous: Option<Arc<SccCache>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            INSTALLED_SCC.with(|c| *c.borrow_mut() = self.previous.take());
        }
    }
    let restore = Restore {
        previous: INSTALLED_SCC.with(|c| c.borrow_mut().replace(cache)),
    };
    let out = f();
    drop(restore);
    out
}

/// The SCC decomposition of `mrm`'s rate graph: served from the installed
/// [`SccCache`] (keyed by [`model_hash`]) when one is in scope, computed
/// fresh otherwise. The decomposition is a pure function of the rate
/// graph, so a cached value is identical to a recomputed one.
pub(crate) fn condensation_for(mrm: &Mrm) -> Arc<mrmc_ctmc::bscc::SccDecomposition> {
    let compute = || mrmc_ctmc::bscc::SccDecomposition::new(mrm.ctmc().rates());
    match INSTALLED_SCC.with(|c| c.borrow().clone()) {
        Some(cache) => cache.get_or_compute(model_hash(mrm), compute),
        None => Arc::new(compute()),
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
    fn cache_counts_hits_and_misses() {
        let cache = SatCache::new();
        let ctx = SatCtx {
            model_hash: 7,
            options_fp: 9,
        };
        assert!(cache.get(ctx, "S(> 0.5) (up)").is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(
            ctx,
            "S(> 0.5) (up)".to_string(),
            (vec![true], vec![false], None),
        );
        let (sat, unknown, extras) = cache.get(ctx, "S(> 0.5) (up)").unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(sat, vec![true]);
        assert_eq!(unknown, vec![false]);
        assert!(extras.is_none());
        // A different model hash misses.
        let other = SatCtx {
            model_hash: 8,
            options_fp: 9,
        };
        assert!(cache.get(other, "S(> 0.5) (up)").is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn scc_cache_memoizes_by_model_hash() {
        use mrmc_ctmc::CtmcBuilder;
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let cache = Arc::new(SccCache::new());
        assert!(cache.is_empty());
        let (a, b) = with_scc_cache(cache.clone(), || {
            (condensation_for(&m), condensation_for(&m))
        });
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be served");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert_eq!(a.num_components(), 1);
        // Uninstalled: computed fresh, cache untouched.
        let fresh = condensation_for(&m);
        assert_eq!(fresh.num_components(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn install_is_scoped_and_reentrant() {
        let outer = Arc::new(SatCache::new());
        let inner = Arc::new(SatCache::new());
        let ctx = SatCtx {
            model_hash: 1,
            options_fp: 2,
        };
        assert!(installed().is_none());
        with_sat_cache(outer.clone(), ctx, || {
            assert!(Arc::ptr_eq(&installed().unwrap().0, &outer));
            with_sat_cache(inner.clone(), ctx, || {
                assert!(Arc::ptr_eq(&installed().unwrap().0, &inner));
            });
            assert!(Arc::ptr_eq(&installed().unwrap().0, &outer));
        });
        assert!(installed().is_none());
    }
}
