//! The checking engine: [`CheckSession`].
//!
//! Every check runs in a session. A long-lived session outlives many
//! requests over many models and amortizes everything that is a pure
//! function of its inputs; [`ModelChecker`](crate::ModelChecker) is the
//! one-shot case, a fresh session per check, so it keeps nothing between
//! checks. A session holds:
//!
//! * **load-once models** — model files are digested and parsed at most
//!   once per distinct *content*; a reload of unchanged files is a hash
//!   lookup, while changed content (same path, different bytes) yields a
//!   fresh entry and can never be served stale results;
//! * **persisted lumping certificates** — the partition-refinement
//!   analysis and its independent verification run once per model and
//!   [`AnalysisInputs`](mrmc_analysis::AnalysisInputs) (the formula's
//!   relevant propositions and its observation), and the verified
//!   certificate (or the verified absence of a quotient) is reused by
//!   every later formula with the same inputs;
//! * **a session-scoped Omega-term cache** — the
//!   [`OmegaTermCache`] promoted
//!   from per-adaptive-run to session scope, so `Ω(r', k)` tables are
//!   shared across formulas, models (the cache keys on the coefficient
//!   list), and requests;
//! * **memoized `Sat` sub-results** — every engine-backed subformula's
//!   full result, keyed by `(model_hash, subformula, options)` (see
//!   [`crate::cache`]), counted as `sat_cache_hits`/`sat_cache_misses`;
//! * **chain-only analyses** — the Tarjan SCC decomposition the
//!   qualitative dataflow pre-pass slices with, computed once per model
//!   hash, and the steady-state analysis every `S` operator folds its Φ
//!   over, computed once per model hash and solver options.
//!
//! The two model maps and the Sat, SCC, certificate and steady-state
//! caches are all one type, the counted store of [`crate::cache`]. A
//! lookup also records an increment of the store's per-check counter, so
//! a check's metrics hold its own lookups even while other threads share
//! the session; [`SessionStats`] holds the lifetime totals
//! (`models_loaded` is the content store's entry count). The Ω-term cache
//! is the exception: a two-level table owned by `mrmc-numerics`, below
//! this crate.
//!
//! A check runs one pipeline, `run_check`: the pre-flight gate, the
//! certified reduction, then the `Sat` recursion, all handed a `Memo` over
//! the session's caches explicitly. Only the Ω cache is still dynamically
//! scoped (`with_omega_cache`), because the numerics engine entry points
//! carry it implicitly in their signatures.
//!
//! Every cache is exact: the engines are deterministic functions of
//! `(model, formula, options)`, so a warm session's results are
//! bit-for-bit identical to a fresh session's (pinned by
//! `tests/server_conformance.rs`). The session is `Sync` — requests may
//! be checked from many threads concurrently, which is what
//! `mrmc-server` does on its worker pool.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrmc_csrl::StateFormula;
use mrmc_mrm::io::LoadError;
use mrmc_mrm::Mrm;
use mrmc_numerics::omega::{with_omega_cache, OmegaTermCache};
use mrmc_obs::counters::MODELS_LOADED;
pub use mrmc_obs::SessionStats;

use crate::cache::{self, Caches, Memo, Reduced, Store};
use crate::error::CheckError;
use crate::lumping;
use crate::options::{CheckOptions, Reduction};
use crate::outcome::{CheckOutcome, ReductionInfo};
use crate::sat::Ctx;

/// A model registered with a [`CheckSession`]: the parsed MRM plus its
/// content hash (see [`crate::cache::model_hash`]).
///
/// Handles are cheap to clone (the model is shared) and remain valid for
/// the life of the session. Two handles compare equal exactly when they
/// denote the same model content.
#[derive(Debug, Clone)]
pub struct ModelHandle {
    mrm: Arc<Mrm>,
    hash: u64,
}

impl ModelHandle {
    /// Hash `mrm` and wrap it in a handle.
    pub(crate) fn new(mrm: Mrm) -> Self {
        ModelHandle {
            hash: cache::model_hash(&mrm),
            mrm: Arc::new(mrm),
        }
    }

    /// The model.
    pub fn mrm(&self) -> &Mrm {
        &self.mrm
    }

    /// The model's content hash — the key every session cache is scoped
    /// by. Stable across loads of byte-different files that parse to the
    /// same model; different for any semantic change.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for ModelHandle {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
    }
}

impl Eq for ModelHandle {}

/// The check pipeline behind [`CheckSession::check`]: the pre-flight
/// gate, the certified reduction and the `Sat` recursion, each under its
/// telemetry span. `memo` carries the session's caches keyed to `mrm`'s
/// content hash.
fn run_check(
    mrm: &Mrm,
    options: &CheckOptions,
    formula: &StateFormula,
    memo: Memo<'_>,
) -> Result<CheckOutcome, CheckError> {
    if options.preflight {
        let _span = mrmc_obs::span("preflight");
        let report = mrmc_analysis::preflight(mrm, formula, options.until_engine);
        if report.has_errors() {
            return Err(CheckError::Preflight(report));
        }
    }
    let reduced = {
        let _span = mrmc_obs::span("reduction");
        reduction(mrm, options.reduction, formula, memo)
    };
    let _span = mrmc_obs::span("engine");
    match reduced {
        Some((cert, quotient_hash)) => {
            let info = ReductionInfo {
                original_states: mrm.num_states(),
                reduced_states: cert.quotient.num_states(),
            };
            let ctx = Ctx {
                mrm: &cert.quotient,
                options,
                memo: Memo {
                    model_hash: quotient_hash,
                    ..memo
                },
            };
            Ok(ctx.satisfy(formula)?.lift(&cert.partition, info))
        }
        None => Ctx { mrm, options, memo }.satisfy(formula),
    }
}

/// The verified certificate a check reduces with, plus the quotient's
/// content hash, resolved through the memo's certificate cache. `None`
/// when checking runs on the full model: no strictly smaller quotient
/// exists for this formula, or its certificate failed independent
/// verification.
fn reduction(mrm: &Mrm, policy: Reduction, formula: &StateFormula, memo: Memo<'_>) -> Reduced {
    if policy == Reduction::Off {
        return None;
    }
    memo.certificate(formula, || {
        // The certificate without the lint-only attribution of
        // `lumping::analyze`.
        let cert = lumping::certify(mrm, formula).filter(|cert| cert.verify(mrm).is_ok())?;
        let quotient_hash = cache::model_hash(&cert.quotient);
        Some((Arc::new(cert), quotient_hash))
    })
}

/// A reusable checking engine with session-scoped caches; see the module
/// docs for what is amortized and why every cache is exact.
#[derive(Debug)]
pub struct CheckSession {
    /// Load-once file store: digest of the four files' bytes → handle.
    by_file_digest: Store<u64, ModelHandle>,
    /// Structural store: model content hash → handle (dedups
    /// [`insert`](CheckSession::insert) and byte-different reloads).
    by_content: Store<u64, ModelHandle>,
    caches: Caches,
    omega: Arc<OmegaTermCache>,
    requests: AtomicU64,
}

impl Default for CheckSession {
    fn default() -> Self {
        CheckSession {
            by_file_digest: Store::new(None, None),
            by_content: Store::new(None, Some(MODELS_LOADED)),
            caches: Caches::default(),
            omega: Arc::default(),
            requests: AtomicU64::new(0),
        }
    }
}

impl CheckSession {
    /// A fresh session with empty caches.
    pub fn new() -> Self {
        CheckSession::default()
    }

    /// Register an in-memory model, deduplicating by content hash.
    pub fn insert(&self, mrm: Mrm) -> ModelHandle {
        let handle = ModelHandle::new(mrm);
        self.by_content
            .get_or_insert_with(handle.hash, || handle.clone())
    }

    /// Load a model from the four files of the thesis' tool, once per
    /// distinct content.
    ///
    /// The files are always re-read (that is what detects a mutated model
    /// behind an unchanged path), but parsing, validation, and every
    /// downstream cache key off the content: unchanged bytes return the
    /// existing handle, changed bytes produce a fresh one — the old
    /// entry's memoized results can never be served for the new content.
    ///
    /// # Errors
    ///
    /// [`LoadError`] as for [`mrmc_mrm::io::load_model`].
    pub fn load_files(
        &self,
        tra: impl AsRef<Path>,
        lab: impl AsRef<Path>,
        rewr: impl AsRef<Path>,
        rewi: impl AsRef<Path>,
    ) -> Result<ModelHandle, LoadError> {
        let (tra, lab, rewr, rewi) = (tra.as_ref(), lab.as_ref(), rewr.as_ref(), rewi.as_ref());
        let mut digest = cache::Fnv::new();
        for path in [tra, lab, rewr, rewi] {
            let bytes = std::fs::read(path).map_err(|source| LoadError::Io {
                path: path.to_path_buf(),
                source,
            })?;
            digest.write_u64(bytes.len() as u64).write(&bytes);
        }
        let digest = digest.finish();
        self.by_file_digest.get_or_try_insert_with(digest, || {
            Ok(self.insert(mrmc_mrm::io::load_model(tra, lab, rewr, rewi)?))
        })
    }

    /// Run the static pre-flight lint for `formula` against `model` and
    /// the engine configured in `options` (the same report
    /// [`check`](CheckSession::check) gates on).
    pub fn preflight(
        &self,
        model: &ModelHandle,
        formula: &StateFormula,
        options: &CheckOptions,
    ) -> mrmc_analysis::Report {
        mrmc_analysis::preflight(model.mrm(), formula, options.until_engine)
    }

    /// Compute `Sat(Φ)` for a parsed formula, serving every sub-result
    /// the session has already computed from its caches.
    ///
    /// Unless [`CheckOptions::without_preflight`] was used, the static
    /// pre-flight lint runs first and Error-grade findings abort with
    /// [`CheckError::Preflight`] before any numerical engine starts.
    ///
    /// Under the default [`Reduction::Auto`] policy, the check then
    /// analyzes the model for a formula-preserving lumping
    /// ([`mrmc_analysis::lumping`]); when a strictly smaller quotient
    /// exists *and* its certificate passes independent verification, the
    /// engines run on the quotient and the per-block results are lifted
    /// back to the full state space. The reduction is exact (bitwise), and
    /// [`CheckOutcome::reduction`] records when it was applied.
    ///
    /// The outcome is bit-for-bit what a fresh session would produce.
    ///
    /// # Errors
    ///
    /// [`CheckError`] for pre-flight lint errors (unknown atomic
    /// propositions, unsupported bounds — reported with stable diagnostic
    /// codes) or numerical failures.
    pub fn check(
        &self,
        model: &ModelHandle,
        formula: &StateFormula,
        options: &CheckOptions,
    ) -> Result<CheckOutcome, CheckError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let memo = self.caches.memo(model.content_hash(), options);
        with_omega_cache(self.omega.clone(), || {
            run_check(model.mrm(), options, formula, memo)
        })
    }

    /// Parse and check a formula given in concrete syntax.
    ///
    /// # Errors
    ///
    /// [`CheckError::Parse`] for syntax errors, otherwise as
    /// [`check`](CheckSession::check).
    pub fn check_str(
        &self,
        model: &ModelHandle,
        formula: &str,
        options: &CheckOptions,
    ) -> Result<CheckOutcome, CheckError> {
        let parsed = mrmc_csrl::parse(formula)?;
        self.check(model, &parsed, options)
    }

    /// The session's lifetime counter totals. Every counter is monotone
    /// over the session's lifetime.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            requests: self.requests.load(Ordering::Relaxed),
            models_loaded: self.by_content.len() as u64,
            sat_cache_hits: self.caches.sat.hits(),
            sat_cache_misses: self.caches.sat.misses(),
            cert_cache_hits: self.caches.certs.hits(),
            omega_cache_entries: self.omega.len() as u64,
            omega_cache_hits: self.omega.hits(),
            scc_cache_hits: self.caches.scc.hits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelChecker;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_models::cluster::{cluster, ClusterConfig};
    use mrmc_models::tmr::{tmr, TmrConfig};
    use mrmc_models::wavelan::wavelan;

    fn two_state(rate: f64) -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, rate).transition(1, 0, 0.9);
        b.label(0, "up").label(1, "down");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn insert_dedups_by_content() {
        let session = CheckSession::new();
        let a = session.insert(two_state(0.1));
        let b = session.insert(two_state(0.1));
        let c = session.insert(two_state(0.2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(session.stats().models_loaded, 2);
    }

    #[test]
    fn session_results_match_one_shot_and_repeat_hits_cache() {
        let session = CheckSession::new();
        let options = CheckOptions::new();
        let handle = session.insert(two_state(0.1));
        let formula = "S(>= 0.85) (up)";

        let one_shot = ModelChecker::new(two_state(0.1), options)
            .check_str(formula)
            .unwrap();
        let cold = session.check_str(&handle, formula, &options).unwrap();
        assert_eq!(one_shot, cold);
        let after_cold = session.stats();
        assert_eq!(after_cold.sat_cache_hits, 0);
        assert!(after_cold.sat_cache_misses > 0);

        let hot = session.check_str(&handle, formula, &options).unwrap();
        assert_eq!(one_shot, hot);
        let after_hot = session.stats();
        assert!(after_hot.sat_cache_hits > 0, "{after_hot:?}");
        assert_eq!(after_hot.sat_cache_misses, after_cold.sat_cache_misses);
        assert!(after_hot.cert_cache_hits > after_cold.cert_cache_hits);
        assert_eq!(after_hot.requests, 2);
    }

    #[test]
    fn different_options_do_not_share_entries() {
        let session = CheckSession::new();
        let handle = session.insert(two_state(0.1));
        let formula = "P(> 0.05) [up U[0,1] down]";
        let defaults = CheckOptions::new();
        let tighter = CheckOptions::new().with_engine(crate::UntilEngine::uniformization(1e-10));
        session.check_str(&handle, formula, &defaults).unwrap();
        let misses = session.stats().sat_cache_misses;
        session.check_str(&handle, formula, &tighter).unwrap();
        assert!(
            session.stats().sat_cache_misses > misses,
            "a different engine knob must not hit the cache"
        );
    }

    #[test]
    fn shared_subformulas_hit_across_enclosing_formulas() {
        let session = CheckSession::new();
        let handle = session.insert(two_state(0.1));
        let options = CheckOptions::new();
        session
            .check_str(&handle, "S(>= 0.85) (up)", &options)
            .unwrap();
        // The same S-subformula embedded under a conjunction is served
        // from the cache.
        session
            .check_str(&handle, "(S(>= 0.85) (up)) && up", &options)
            .unwrap();
        assert!(session.stats().sat_cache_hits > 0);
    }

    #[test]
    fn load_files_is_load_once_and_detects_mutation() {
        let dir = std::env::temp_dir().join(format!("mrmc-session-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, content: &str| {
            let p = dir.join(name);
            std::fs::write(&p, content).unwrap();
            p
        };
        let tra = write("m.tra", "STATES 2\nTRANSITIONS 2\n1 2 0.5\n2 1 1.5\n");
        let lab = write("m.lab", "#DECLARATION\nup down\n#END\n1 up\n2 down\n");
        let rewr = write("m.rewr", "1 2.0\n2 0.0\n");
        let rewi = write("m.rewi", "TRANSITIONS 0\n");

        let session = CheckSession::new();
        let a = session.load_files(&tra, &lab, &rewr, &rewi).unwrap();
        let b = session.load_files(&tra, &lab, &rewr, &rewi).unwrap();
        assert_eq!(a, b);
        assert_eq!(session.stats().models_loaded, 1);

        // Same path, different content: a fresh handle.
        std::fs::write(&tra, "STATES 2\nTRANSITIONS 2\n1 2 0.75\n2 1 1.5\n").unwrap();
        let c = session.load_files(&tra, &lab, &rewr, &rewi).unwrap();
        assert_ne!(a, c);
        assert_eq!(session.stats().models_loaded, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn negative_certificates_are_cached_under_auto() {
        let session = CheckSession::new();
        let handle = session.insert(two_state(0.1));
        let options = CheckOptions::new();
        // The two-state chain has no nontrivial quotient for this formula.
        let first = session
            .check_str(&handle, "S(>= 0.85) (up)", &options)
            .unwrap();
        let one_shot = ModelChecker::new(two_state(0.1), options)
            .check_str("S(>= 0.85) (up)")
            .unwrap();
        assert_eq!(first, one_shot);
        assert_eq!(first.reduction(), None);
        assert_eq!(session.stats().cert_cache_hits, 0);
        let second = session
            .check_str(&handle, "S(>= 0.85) (up)", &options)
            .unwrap();
        assert_eq!(first, second);
        assert!(session.stats().cert_cache_hits > 0);
    }

    #[test]
    fn formulas_with_one_observation_share_one_analysis() {
        let mrm = cluster(&ClusterConfig::new(4));
        let session = CheckSession::new();
        let handle = session.insert(mrm.clone());
        let options = CheckOptions::new();
        let checked = |formula: &str| {
            let before = session.stats().cert_cache_hits;
            let outcome = session.check_str(&handle, formula, &options).unwrap();
            let one_shot = ModelChecker::new(mrm.clone(), options)
                .check_str(formula)
                .unwrap();
            assert_eq!(format!("{outcome:?}"), format!("{one_shot:?}"), "{formula}");
            session.stats().cert_cache_hits - before
        };
        // Same propositions, same observation: one analysis, reused.
        assert_eq!(checked("S(> 0.9) (premium)"), 0);
        assert_eq!(checked("S(< 0.5) (premium)"), 1);
        // A different proposition set is a different analysis.
        assert_eq!(checked("S(> 0.9) (minimum)"), 0);
        // So is a nontrivial reward bound, which makes rewards observable;
        // two different nontrivial bounds share again.
        assert_eq!(checked("P(>= 0.1) [TT U[0,1] down]"), 0);
        assert_eq!(checked("P(>= 0.1) [TT U[0,1][0,2] down]"), 0);
        assert_eq!(checked("P(< 0.3) [TT U[0,1][0,3] down]"), 1);
    }

    /// Run `check` under a metrics recorder: its outcome, and how many
    /// times each telemetry phase was entered.
    fn with_phase_counts(
        check: impl FnOnce() -> Result<CheckOutcome, CheckError>,
    ) -> (CheckOutcome, Vec<(&'static str, u64)>) {
        let metrics = Arc::new(mrmc_obs::MetricsRecorder::new());
        let outcome = mrmc_obs::with_recorder(metrics.clone(), check).unwrap();
        let phases = metrics
            .snapshot()
            .phases
            .into_iter()
            .map(|(name, (count, _))| (name, count))
            .collect();
        (outcome, phases)
    }

    #[test]
    fn one_shot_and_cold_session_run_the_same_pipeline() {
        // No formula repeats a subformula, so a cold session computes
        // every node exactly as the one-shot checker does.
        let cases = [
            (
                tmr(&TmrConfig::classic()),
                vec![
                    "P(> 0.1) [TT U[0,1][0,10] failed]",
                    "P(> 0.01) [allUp U[0,2] failed]",
                    "S(> 0.5) (allUp)",
                ],
            ),
            (
                cluster(&ClusterConfig::new(2)),
                vec![
                    "P(>= 0.1) [TT U[0,1] down]",
                    "P(>= 0.0) [backbone_up U[0,1][0,5] down]",
                    "P(>= 0.5) [TT U down]",
                ],
            ),
            (
                wavelan(),
                vec!["P(> 0.01) [TT U[0,0.5][0,2] busy]", "S(> 0.1) (idle)"],
            ),
        ];
        let options = CheckOptions::new();
        let mut reduced = 0;
        for (mrm, formulas) in cases {
            for formula in formulas {
                let one_shot = with_phase_counts(|| {
                    ModelChecker::new(mrm.clone(), options).check_str(formula)
                });
                let session = CheckSession::new();
                let handle = session.insert(mrm.clone());
                let cold = with_phase_counts(|| session.check_str(&handle, formula, &options));
                assert_eq!(one_shot, cold, "`{formula}`");
                reduced += usize::from(cold.0.reduction().is_some());
            }
        }
        assert!(reduced > 0, "no case exercised the quotient path");
    }

    #[test]
    fn model_checker_keeps_nothing_between_checks() {
        use mrmc_obs::counters::{SAT_CACHE_HITS, SAT_CACHE_MISSES};
        let checker = ModelChecker::new(two_state(0.1), CheckOptions::new());
        let formula = mrmc_csrl::parse("S(>= 0.85) (up)").unwrap();
        for _ in 0..2 {
            let metrics = Arc::new(mrmc_obs::MetricsRecorder::new());
            mrmc_obs::with_recorder(metrics.clone(), || checker.check(&formula)).unwrap();
            let counters = metrics.take().counters;
            let count = |c| counters.get(c).copied().unwrap_or(0);
            assert_eq!((count(SAT_CACHE_MISSES), count(SAT_CACHE_HITS)), (1, 0));
        }
    }

    #[test]
    fn concurrent_checks_count_only_their_own_lookups() {
        use mrmc_obs::counters::{CERT_CACHE_HITS, SAT_CACHE_HITS, SAT_CACHE_MISSES};
        let session = CheckSession::new();
        let handle = session.insert(tmr(&TmrConfig::classic()));
        let options = CheckOptions::new();
        let before = session.stats();
        let batches = [
            [
                "S(> 0.5) (allUp)",
                "P(> 0.1) [TT U[0,1][0,10] failed]",
                "S(> 0.5) (allUp)",
            ],
            [
                "P(> 0.1) [TT U[0,1][0,10] failed]",
                "S(> 0.9) (allUp)",
                "S(> 0.9) (allUp)",
            ],
        ];
        let snapshots: Vec<mrmc_obs::RunMetrics> = std::thread::scope(|scope| {
            let workers: Vec<_> = batches
                .iter()
                .map(|batch| {
                    let (session, handle) = (&session, &handle);
                    scope.spawn(move || {
                        let metrics = Arc::new(mrmc_obs::MetricsRecorder::new());
                        mrmc_obs::with_recorder(metrics.clone(), || {
                            for formula in batch {
                                session.check_str(handle, formula, &options).unwrap();
                            }
                        });
                        metrics.take()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let after = session.stats();
        let count = |m: &mrmc_obs::RunMetrics, c| m.counters.get(c).copied().unwrap_or(0);
        for m in &snapshots {
            // Three checks, one top-level `Sat` lookup each, and the
            // repeated formula of each batch is a hit.
            assert_eq!(count(m, SAT_CACHE_HITS) + count(m, SAT_CACHE_MISSES), 3);
            assert!(count(m, SAT_CACHE_HITS) >= 1, "{:?}", m.counters);
        }
        for (counter, total) in [
            (SAT_CACHE_HITS, after.sat_cache_hits - before.sat_cache_hits),
            (
                SAT_CACHE_MISSES,
                after.sat_cache_misses - before.sat_cache_misses,
            ),
            (
                CERT_CACHE_HITS,
                after.cert_cache_hits - before.cert_cache_hits,
            ),
        ] {
            let summed: u64 = snapshots.iter().map(|m| count(m, counter)).sum();
            assert_eq!(summed, total, "{}", counter.name());
        }
        assert_eq!(after.requests - before.requests, 6);
    }

    #[test]
    fn memo_reaches_nested_recursion() {
        let session = CheckSession::new();
        let handle = session.insert(two_state(0.1));
        session
            .check_str(
                &handle,
                "(S(>= 0.85) (up)) && (S(>= 0.85) (up))",
                &CheckOptions::new(),
            )
            .unwrap();
        let stats = session.stats();
        assert_eq!((stats.sat_cache_misses, stats.sat_cache_hits), (1, 1));
    }
}
