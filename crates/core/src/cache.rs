//! Session memoization: `Sat` sub-results, SCC condensations and lumping
//! certificates.
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
//! triple a fresh run would produce.
//!
//! The caches reach the recursion explicitly, not through thread-local
//! installs: [`crate::CheckSession`] bundles them with the model hash
//! and options fingerprint into a `Memo` and passes it down the check
//! pipeline, the `Sat` recursion and the until operators. One-shot
//! checks ([`crate::ModelChecker`]) pass no memo, hash nothing, and
//! compute every result fresh.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mrmc_csrl::StateFormula;
use mrmc_mrm::Mrm;

use crate::error::CheckError;
use crate::options::CheckOptions;
use crate::sat::Extras;
use crate::session::CertOutcome;

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

    fn get(&self, key: &SatKey) -> Option<CachedSat> {
        let v = self
            .entries
            .lock()
            .expect("sat cache poisoned")
            .get(key)
            .cloned();
        if v.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    fn insert(&self, key: SatKey, value: CachedSat) {
        self.entries
            .lock()
            .expect("sat cache poisoned")
            .insert(key, value);
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

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CertKey {
    model_hash: u64,
    formula: String,
}

/// A shareable store of resolved reductions keyed by `(model hash,
/// formula)`, with hit accounting (the `cert_cache_hits` counter).
///
/// Negative results are stored too: re-running partition refinement to
/// re-discover that no quotient exists (or that verification fails) is
/// exactly the kind of per-request work a session exists to amortize.
#[derive(Debug, Default)]
pub(crate) struct CertCache {
    entries: Mutex<BTreeMap<CertKey, CertOutcome>>,
    hits: AtomicU64,
}

impl CertCache {
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn get_or_analyze(&self, key: CertKey, analyze: impl FnOnce() -> CertOutcome) -> CertOutcome {
        let cached = self
            .entries
            .lock()
            .expect("cert cache poisoned")
            .get(&key)
            .cloned();
        if let Some(outcome) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return outcome;
        }
        let outcome = analyze();
        self.entries
            .lock()
            .expect("cert cache poisoned")
            .entry(key)
            .or_insert(outcome)
            .clone()
    }
}

/// The session memos one check reads and writes, scoped to the model
/// the recursion runs on and the active options. It is passed by value
/// from [`crate::CheckSession::check`] through the `Sat` recursion into
/// the until operators; one-shot checks pass none and compute everything
/// fresh.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Memo<'a> {
    pub(crate) sat: &'a SatCache,
    pub(crate) scc: &'a SccCache,
    pub(crate) certs: &'a CertCache,
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
        compute: impl FnOnce() -> Result<CachedSat, CheckError>,
    ) -> Result<CachedSat, CheckError> {
        let key = SatKey {
            model_hash: self.model_hash,
            options_fp: self.options_fp,
            formula: formula.to_string(),
        };
        if let Some(hit) = self.sat.get(&key) {
            return Ok(hit);
        }
        let value = compute()?;
        self.sat.insert(key, value.clone());
        Ok(value)
    }

    /// The resolved reduction for `formula` on this memo's model,
    /// computed by `analyze` on a miss.
    pub(crate) fn certificate(
        &self,
        formula: &StateFormula,
        analyze: impl FnOnce() -> CertOutcome,
    ) -> CertOutcome {
        self.certs.get_or_analyze(
            CertKey {
                model_hash: self.model_hash,
                formula: formula.to_string(),
            },
            analyze,
        )
    }
}

/// The SCC decomposition of `mrm`'s rate graph: served from the memo's
/// [`SccCache`] under its model hash when there is a memo, computed fresh
/// otherwise. The decomposition is a pure function of the rate graph, so
/// a cached value is identical to a recomputed one.
pub(crate) fn condensation_for(
    mrm: &Mrm,
    memo: Option<Memo<'_>>,
) -> Arc<mrmc_ctmc::bscc::SccDecomposition> {
    let compute = || mrmc_ctmc::bscc::SccDecomposition::new(mrm.ctmc().rates());
    match memo {
        Some(memo) => memo.scc.get_or_compute(memo.model_hash, compute),
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

    /// Fresh session caches, viewed through a memo per model hash.
    #[derive(Default)]
    struct Caches {
        sat: SatCache,
        scc: SccCache,
        certs: CertCache,
    }

    impl Caches {
        fn memo(&self, model_hash: u64) -> Memo<'_> {
            Memo {
                sat: &self.sat,
                scc: &self.scc,
                certs: &self.certs,
                model_hash,
                options_fp: 9,
            }
        }
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let caches = Caches::default();
        let formula = mrmc_csrl::parse("S(> 0.5) (up)").unwrap();
        let compute = || Ok((vec![true], vec![false], None));
        caches.memo(7).sat(&formula, compute).unwrap();
        assert_eq!((caches.sat.hits(), caches.sat.misses()), (0, 1));
        let (sat, unknown, extras) = caches
            .memo(7)
            .sat(&formula, || panic!("a hit must not recompute"))
            .unwrap();
        assert_eq!((caches.sat.hits(), caches.sat.misses()), (1, 1));
        assert_eq!(sat, vec![true]);
        assert_eq!(unknown, vec![false]);
        assert!(extras.is_none());
        // A different model hash misses.
        caches.memo(8).sat(&formula, compute).unwrap();
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
        assert!(caches.scc.is_empty());
        let memo = caches.memo(model_hash(&m));
        let (a, b) = (
            condensation_for(&m, Some(memo)),
            condensation_for(&m, Some(memo)),
        );
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be served");
        assert_eq!((caches.scc.hits(), caches.scc.misses()), (1, 1));
        assert_eq!(caches.scc.len(), 1);
        assert_eq!(a.num_components(), 1);
        // Without a memo: computed fresh, cache untouched.
        let fresh = condensation_for(&m, None);
        assert_eq!(fresh.num_components(), 1);
        assert_eq!(caches.scc.len(), 1);
    }
}
