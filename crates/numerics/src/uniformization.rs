//! Uniformization-based evaluation of time- and reward-bounded until
//! (Section 4.6) and of the performability distribution `Pr{Y(t) ≤ r}`
//! (Eq. 4.4).
//!
//! The pipeline for `P^M(s, Φ U^{[0,t]}_{[0,r]} Ψ)`:
//!
//! 1. make all `(¬Φ ∨ Ψ)`-states absorbing (Theorems 4.1/4.3);
//! 2. uniformize the absorbed MRM (Definition 4.2);
//! 3. generate paths depth-first with truncation probability `w`
//!    (Algorithm 4.7), aggregating by `(k, j)` reward-count classes;
//! 4. per class, evaluate the conditional probability
//!    `Pr{Y(t) ≤ r | n, k, j}` with the Omega algorithm (Eq. 4.9,
//!    Algorithm 4.8);
//! 5. sum `P(σ, t) · Pr{Y(t) ≤ r | σ}` over the stored classes (Eq. 4.5) and
//!    report the truncation error bound (Eq. 4.6).

use mrmc_ctmc::poisson;
use mrmc_mrm::{transform::make_absorbing, Mrm, UniformizedMrm};

use crate::budget::ErrorBudget;
use crate::error::NumericsError;
use crate::kahan::KahanSum;
use crate::omega::{self, TermRequest};
use crate::path_classes::PathClasses;
use crate::reward_structure::RewardClasses;

/// Options for the uniformization engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformOptions {
    /// The path truncation probability `w`: paths with
    /// `P(σ, t) < w` are discarded (Definition 4.6). Default `1e-8`, the
    /// thesis tool's default.
    pub truncation: f64,
    /// Explicit uniformization rate `Λ`; `None` picks
    /// `1.02 · max_s E(s)`.
    pub lambda: Option<f64>,
    /// Hard cap on the exploration depth (a safety net; the truncation
    /// probability is the intended control). Default `1_000_000`.
    pub max_depth: u64,
    /// Use potential-based pruning instead of the thesis' literal rule.
    ///
    /// The thesis discards a prefix σ as soon as `P(σ, t) = ψ_n(Λt)·P(σ)`
    /// falls below `w` — but for `n` below the Poisson mode the weight of an
    /// *extension* of σ can exceed `P(σ, t)`, so the literal rule
    /// over-truncates whenever `e^{−Λt} < w` (visible as the error blow-up
    /// at large `t` in Table 5.3). With this flag a prefix is discarded only
    /// when `P(σ)·max_{m ≥ n} ψ_m(Λt) < w`. Off by default for fidelity;
    /// the ablation bench compares both rules.
    pub improved_pruning: bool,
}

impl UniformOptions {
    /// The defaults used by the thesis tool: `w = 1e-8`, automatic `Λ`.
    pub fn new() -> Self {
        UniformOptions {
            truncation: 1e-8,
            lambda: None,
            max_depth: 1_000_000,
            improved_pruning: false,
        }
    }

    /// Replace the truncation probability `w`.
    pub fn with_truncation(mut self, w: f64) -> Self {
        self.truncation = w;
        self
    }

    /// Pin the uniformization rate.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Enable potential-based pruning (see
    /// [`improved_pruning`](UniformOptions::improved_pruning)).
    pub fn with_improved_pruning(mut self) -> Self {
        self.improved_pruning = true;
        self
    }
}

impl Default for UniformOptions {
    fn default() -> Self {
        UniformOptions::new()
    }
}

/// The outcome of a uniformization-based until evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct UntilResult {
    /// The computed probability (Eq. 4.5), clamped into `[0, 1]`.
    pub probability: f64,
    /// The truncation error bound `E` (Eq. 4.6). Kept as the engine-native
    /// bound; equals `budget.path_truncation`.
    pub error_bound: f64,
    /// The full error decomposition. For this engine the Eq. 4.6 mass
    /// already covers the Poisson tail of every discarded path suffix
    /// (each pruned prefix is charged `P(σ)·Pr{N ≥ n}`), so
    /// `budget.poisson_tail` is zero and the only other component is the
    /// floating-point accumulation of the Omega evaluation and final fold.
    pub budget: ErrorBudget,
    /// Number of distinct `(k, j)` path classes stored.
    pub num_classes: usize,
    /// Number of DFS nodes expanded.
    pub explored_nodes: u64,
    /// Number of stored (Ψ-ending) path prefixes.
    pub stored_paths: u64,
    /// Number of truncated path prefixes contributing to the error bound.
    pub truncated_paths: u64,
    /// Deepest path length reached.
    pub max_depth: u64,
}

impl UntilResult {
    /// An exact result (`t = 0` membership tests and dead start states):
    /// no exploration, zero budget.
    fn trivial(probability: f64) -> Self {
        UntilResult {
            probability,
            error_bound: 0.0,
            budget: ErrorBudget::zero(),
            num_classes: 0,
            explored_nodes: 0,
            stored_paths: 0,
            truncated_paths: 0,
            max_depth: 0,
        }
    }
}

fn validate_inputs(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    options: &UniformOptions,
) -> Result<(), NumericsError> {
    let n = mrm.num_states();
    if phi.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: phi.len(),
        });
    }
    if psi.len() != n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: psi.len(),
        });
    }
    if start >= n {
        return Err(NumericsError::SizeMismatch {
            expected: n,
            found: start,
        });
    }
    if !(t.is_finite() && t >= 0.0) {
        return Err(NumericsError::InvalidParameter {
            name: "t",
            value: t,
            requirement: "must be finite and non-negative",
        });
    }
    if r.is_nan() || r < 0.0 {
        return Err(NumericsError::InvalidParameter {
            name: "r",
            value: r,
            requirement: "must be non-negative",
        });
    }
    if !(options.truncation > 0.0 && options.truncation < 1.0) {
        return Err(NumericsError::InvalidParameter {
            name: "truncation",
            value: options.truncation,
            requirement: "must be in (0, 1)",
        });
    }
    Ok(())
}

/// Evaluate `P^M(start, Φ U^{[0,t]}_{[0,r]} Ψ)` by uniformization.
///
/// `phi` and `psi` are characteristic vectors of the Φ- and Ψ-states; `r`
/// may be `f64::INFINITY` (the reward bound then never binds and the result
/// matches plain time-bounded until).
///
/// # Errors
///
/// [`NumericsError`] for size mismatches, bad parameters, or model problems.
pub fn until_probability(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    start: usize,
    options: UniformOptions,
) -> Result<UntilResult, NumericsError> {
    validate_inputs(mrm, phi, psi, t, r, start, &options)?;
    if t == 0.0 {
        // At time zero the accumulated reward is zero: the formula holds iff
        // the start state is a Ψ-state.
        return Ok(UntilResult::trivial(if psi[start] { 1.0 } else { 0.0 }));
    }

    // Theorem 4.1: absorb (¬Φ ∨ Ψ)-states.
    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    let absorbed = make_absorbing(mrm, &absorb)?;
    let uni = UniformizedMrm::new(&absorbed, options.lambda)?;
    let classes_def = RewardClasses::new(&uni);

    let mut table = PoissonTable::new(uni.lambda() * t);
    let _span = mrmc_obs::span("path");
    let classes = explore(&uni, &classes_def, phi, psi, start, &mut table, &options);
    record_exploration(start, &classes);
    evaluate_classes(&classes, &classes_def, &mut table, t, r)
}

/// Emit the path-exploration telemetry for one start state (no-op without
/// an installed recorder).
fn record_exploration(start: usize, classes: &PathClasses) {
    mrmc_obs::record(|| mrmc_obs::Event::PathExploration {
        start_state: start as u64,
        explored_nodes: classes.explored_nodes(),
        stored_paths: classes.stored_paths(),
        truncated_paths: classes.truncated_paths(),
        max_depth: classes.max_depth(),
        num_classes: classes.num_classes() as u64,
        truncated_mass: classes.error_bound(),
    });
}

/// Evaluate `P^M(s, Φ U^{[0,t]}_{[0,r]} Ψ)` for **every** state, sharing
/// the absorbed model, its uniformization and the reward-class structure
/// across start states (the per-state work is then only the path
/// exploration itself).
///
/// States satisfying neither Φ nor Ψ get probability zero without any
/// exploration.
///
/// # Errors
///
/// See [`until_probability`].
pub fn until_probabilities_all(
    mrm: &Mrm,
    phi: &[bool],
    psi: &[bool],
    t: f64,
    r: f64,
    options: UniformOptions,
) -> Result<Vec<UntilResult>, NumericsError> {
    validate_inputs(mrm, phi, psi, t, r, 0, &options)?;
    let n = mrm.num_states();
    let zero = |is_psi: bool| UntilResult::trivial(if is_psi { 1.0 } else { 0.0 });
    if t == 0.0 {
        return Ok((0..n).map(|s| zero(psi[s])).collect());
    }

    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    let absorbed = make_absorbing(mrm, &absorb)?;
    let uni = UniformizedMrm::new(&absorbed, options.lambda)?;
    let classes_def = RewardClasses::new(&uni);
    // λt is the same for every start state, so one table serves them all.
    let mut table = PoissonTable::new(uni.lambda() * t);

    let mut out = Vec::with_capacity(n);
    // Progress is throttled by state count, not wall clock, so the event
    // sequence is reproducible: at most ~100 progress lines per sweep.
    let progress_step = (n as u64).div_ceil(100).max(1);
    for s in 0..n {
        if !phi[s] && !psi[s] {
            out.push(zero(false));
        } else {
            let _span = mrmc_obs::span("path");
            let classes = explore(&uni, &classes_def, phi, psi, s, &mut table, &options);
            record_exploration(s, &classes);
            out.push(evaluate_classes(&classes, &classes_def, &mut table, t, r)?);
        }
        if (s as u64 + 1).is_multiple_of(progress_step) || s + 1 == n {
            mrmc_obs::record(|| mrmc_obs::Event::Progress {
                phase: "states",
                done: s as u64 + 1,
                total: n as u64,
            });
        }
    }
    Ok(out)
}

/// Evaluate the performability distribution `Pr{Y(t) ≤ r}` from `start`
/// (Eq. 4.4) — no state restriction and no absorbing transformation.
///
/// # Errors
///
/// See [`until_probability`].
pub fn performability(
    mrm: &Mrm,
    t: f64,
    r: f64,
    start: usize,
    options: UniformOptions,
) -> Result<UntilResult, NumericsError> {
    let all = vec![true; mrm.num_states()];
    validate_inputs(mrm, &all, &all, t, r, start, &options)?;
    if t == 0.0 {
        return Ok(UntilResult::trivial(1.0));
    }
    let uni = UniformizedMrm::new(mrm, options.lambda)?;
    let classes_def = RewardClasses::new(&uni);
    let mut table = PoissonTable::new(uni.lambda() * t);
    let classes = explore(&uni, &classes_def, &all, &all, start, &mut table, &options);
    record_exploration(start, &classes);
    evaluate_classes(&classes, &classes_def, &mut table, t, r)
}

/// Run Algorithm 4.7 (depth-first path generation) and return the aggregated
/// path classes. Exposed publicly so the exploration itself can be tested
/// and benchmarked (Figure 4.3).
#[allow(clippy::too_many_arguments)]
pub fn generate_path_classes(
    uni: &UniformizedMrm,
    classes_def: &RewardClasses,
    phi: &[bool],
    psi: &[bool],
    start: usize,
    lambda_t: f64,
    options: &UniformOptions,
) -> PathClasses {
    let mut table = PoissonTable::new(lambda_t);
    explore(uni, classes_def, phi, psi, start, &mut table, options)
}

/// [`generate_path_classes`] reading its Poisson factors from `table`.
fn explore(
    uni: &UniformizedMrm,
    classes_def: &RewardClasses,
    phi: &[bool],
    psi: &[bool],
    start: usize,
    table: &mut PoissonTable,
    options: &UniformOptions,
) -> PathClasses {
    let lambda_t = table.lambda_t;
    let mode_pmf = options
        .improved_pruning
        .then(|| table.pmf(lambda_t.floor() as u64));
    let mut dfs = PathDfs {
        uni,
        rc: classes_def,
        phi,
        psi,
        table,
        w: options.truncation,
        max_depth: options.max_depth,
        mode_pmf,
    };

    let mut out = PathClasses::new();
    if !phi[start] && !psi[start] {
        return out;
    }
    let root_weight = (-lambda_t).exp();
    let root_pruned = match dfs.mode_pmf {
        None => root_weight < dfs.w,
        Some(mode) => mode < dfs.w,
    };
    if root_pruned {
        // Even the empty path is below the truncation probability: the
        // whole computation is truncated mass.
        out.add_error(1.0);
        return out;
    }

    let mut counts = Counts {
        k: vec![0; classes_def.num_state_classes()],
        j: vec![0; classes_def.num_impulse_classes()],
    };
    counts.k[classes_def.state_class(start)] = 1;
    dfs.visit(&mut out, &mut counts, start, 0, 1.0, root_weight);
    out
}

/// `Pr{N ≥ n}` and `ψ_n(Λt)` for `N ~ Poisson(Λt)`, indexed by the depth
/// `n` and filled lazily as deep as the DFS goes.
///
/// Both depend only on `n`, not on the path, yet the DFS needs a tail for
/// every pruned child and a pmf for every class. Each entry is the direct
/// [`poisson::upper_tail`] / [`poisson::pmf`] call — never a ratio
/// recurrence — so a lookup is bitwise the same as the call it replaces.
struct PoissonTable {
    lambda_t: f64,
    tail: Vec<f64>,
    pmf: Vec<f64>,
}

impl PoissonTable {
    fn new(lambda_t: f64) -> Self {
        PoissonTable {
            lambda_t,
            tail: Vec::new(),
            pmf: Vec::new(),
        }
    }

    /// `Pr{N ≥ n}`.
    fn tail(&mut self, n: u64) -> f64 {
        let lambda_t = self.lambda_t;
        fill_to(&mut self.tail, n, |i| poisson::upper_tail(lambda_t, i))
    }

    /// `ψ_n(Λt) = Pr{N = n}`.
    fn pmf(&mut self, n: u64) -> f64 {
        let lambda_t = self.lambda_t;
        fill_to(&mut self.pmf, n, |i| poisson::pmf(lambda_t, i))
    }
}

/// `column[n]`, first extending `column` with `entry(i)` for each missing
/// index `i ≤ n`.
fn fill_to(column: &mut Vec<f64>, n: u64, entry: impl Fn(u64) -> f64) -> f64 {
    let n = n as usize;
    if n >= column.len() {
        column.extend((column.len()..=n).map(|i| entry(i as u64)));
    }
    column[n]
}

/// Everything the depth-first search of Algorithm 4.7 reads, plus the
/// Poisson table it extends.
struct PathDfs<'a> {
    uni: &'a UniformizedMrm,
    rc: &'a RewardClasses,
    phi: &'a [bool],
    psi: &'a [bool],
    table: &'a mut PoissonTable,
    w: f64,
    max_depth: u64,
    /// `max_m ψ_m(Λt)` for potential-based pruning (`None` = literal rule).
    mode_pmf: Option<f64>,
}

/// The `(k, j)` reward-count vectors of the prefix being expanded. Kept
/// behind one reference so the recursive `visit` passes few arguments.
struct Counts {
    k: Vec<u32>,
    j: Vec<u32>,
}

impl PathDfs<'_> {
    /// Expand the prefix ending in `s` at depth `n`, with
    /// `path_prob = P(σ)` and `weighted = P(σ, t)`.
    fn visit(
        &mut self,
        out: &mut PathClasses,
        counts: &mut Counts,
        s: usize,
        n: u64,
        path_prob: f64,
        weighted: f64,
    ) {
        out.count_node(n);
        if self.psi[s] {
            out.store(&counts.k, &counts.j, path_prob);
        }
        let lambda_t = self.table.lambda_t;
        let next_factor = lambda_t / (n + 1) as f64;
        for (target, p, impulse) in self.uni.transitions(s) {
            // Line 1 of Algorithm 4.7: (¬Φ ∧ ¬Ψ)-states end exploration and
            // can never satisfy the formula — no error contribution either.
            if !self.phi[target] && !self.psi[target] {
                continue;
            }
            let child_path = path_prob * p;
            let child_weighted = weighted * next_factor * p;
            // Literal rule: prune on P(σ, t) < w. Potential rule: prune only
            // when no extension of σ can reach weight w any more.
            let prune = match self.mode_pmf {
                None => child_weighted < self.w,
                Some(mode) => {
                    let best = if (n + 1) as f64 >= lambda_t {
                        child_weighted
                    } else {
                        child_path * mode
                    };
                    best < self.w
                }
            };
            if prune || n + 1 > self.max_depth {
                // Eq. 4.6: discarding σ' and all suffixes loses at most
                // P(σ')·Pr{N ≥ n + 1} probability mass.
                out.add_error(child_path * self.table.tail(n + 1));
                continue;
            }
            let sc = self.rc.state_class(target);
            let ic = self.rc.impulse_class(impulse);
            counts.k[sc] += 1;
            counts.j[ic] += 1;
            self.visit(out, counts, target, n + 1, child_path, child_weighted);
            counts.k[sc] -= 1;
            counts.j[ic] -= 1;
        }
    }
}

/// Combine stored path classes into the final probability (Eq. 4.5) using
/// the Omega algorithm for the conditional probabilities (Eq. 4.9).
///
/// Two phases: the per-class terms `ψ_n(Λt)·P(σ)·Ω(r', k)`
/// ([`omega::omega_terms`]), then a single ordered Kahan-compensated sum
/// over classes in `BTreeMap` key order.
fn evaluate_classes(
    classes: &PathClasses,
    classes_def: &RewardClasses,
    table: &mut PoissonTable,
    t: f64,
    r: f64,
) -> Result<UntilResult, NumericsError> {
    let r_min = classes_def.min_state_reward();

    let entries: Vec<_> = classes.iter().collect();
    let requests: Vec<TermRequest<'_>> = entries
        .iter()
        .map(|(key, path_prob)| {
            let n = key.path_length();
            // r' = r/t − r_{K+1} − (1/t)·Σ_i i_i·j_i   (Eq. 4.9/4.10).
            let r_prime = if r.is_infinite() {
                f64::INFINITY
            } else {
                r / t - r_min - classes_def.impulse_total(&key.j) / t
            };
            TermRequest {
                r_prime,
                k: &key.k,
                weight: table.pmf(n) * path_prob,
            }
        })
        .collect();
    let terms = omega::omega_terms(&requests, classes_def.omega_coefficients())?;

    // First-order floating-point error model alongside the Eq. 4.5 fold:
    // each term `ψ_n(Λt)·P(σ)·Ω(r', k)` is produced by O(n + L) operations
    // (L omega coefficients, the pmf product, the r' setup), each bounded
    // relative to the term's magnitude; the compensated fold itself adds at
    // most `2ε` per unit of summed magnitude, and the log-space Poisson pmf
    // carries ~1e-13 relative error from the Lanczos `ln_gamma` — budgeted
    // at 1e-12 for headroom. Pure post-processing of the ordered term list.
    let eps = f64::EPSILON;
    let num_coeffs = classes_def.omega_coefficients().len() as f64;
    let mut probability = KahanSum::new();
    let mut float_accumulation = 0.0;
    let mut magnitude = 0.0;
    for (term, (key, _)) in terms.iter().zip(&entries) {
        probability.add(*term);
        let ops = key.path_length() as f64 + num_coeffs + 2.0;
        float_accumulation += term.abs() * ops * eps;
        magnitude += term.abs();
    }
    float_accumulation += (2.0 * eps + 1e-12) * magnitude;

    let budget = ErrorBudget {
        path_truncation: classes.error_bound(),
        float_accumulation,
        ..ErrorBudget::zero()
    };
    Ok(UntilResult {
        probability: probability.value().clamp(0.0, 1.0),
        error_bound: classes.error_bound(),
        budget,
        num_classes: classes.num_classes(),
        explored_nodes: classes.explored_nodes(),
        stored_paths: classes.stored_paths(),
        truncated_paths: classes.truncated_paths(),
        max_depth: classes.max_depth(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    fn wavelan() -> Mrm {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 0.1);
        b.transition(1, 0, 0.05).transition(1, 2, 5.0);
        b.transition(2, 1, 12.0)
            .transition(2, 3, 1.5)
            .transition(2, 4, 0.75);
        b.transition(3, 2, 10.0);
        b.transition(4, 2, 15.0);
        b.label(0, "off");
        b.label(1, "sleep");
        b.label(2, "idle");
        b.label(3, "busy");
        b.label(4, "busy");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 80.0, 1319.0, 1675.0, 1425.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 0.02).unwrap();
        iota.set(1, 2, 0.32975).unwrap();
        iota.set(2, 3, 0.42545).unwrap();
        iota.set(2, 4, 0.36195).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    /// A two-state chain 0 →(λ) 1 with 1 absorbing.
    fn two_state(lambda: f64) -> Mrm {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, lambda);
        b.label(0, "a");
        b.label(1, "goal");
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn reward_free_until_matches_exponential_cdf() {
        let m = two_state(2.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        for &t in &[0.1, 0.5, 1.0, 2.0] {
            let res = until_probability(
                &m,
                &phi,
                &psi,
                t,
                f64::INFINITY,
                0,
                UniformOptions::new().with_truncation(1e-12),
            )
            .unwrap();
            let expect = 1.0 - (-2.0 * t).exp();
            assert!(
                (res.probability - expect).abs() < 1e-8,
                "t = {t}: {} vs {expect} (err bound {})",
                res.probability,
                res.error_bound
            );
        }
    }

    #[test]
    fn example_3_6_until_with_rewards() {
        // P(3, idle U^[0,2]_[0,2000] busy) = 0.15789… (closed form in the
        // thesis; the reward bound permits staying idle for up to
        // a ≈ 1.516 h before jumping).
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        // e^{-Λt} ≈ 4e-13 bounds every P(σ, t) from above at the root, so
        // the truncation probability must sit well below it.
        let res = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            UniformOptions::new()
                .with_truncation(1e-16)
                .with_lambda(14.25),
        )
        .unwrap();
        assert!(
            (res.probability - 0.15789).abs() < 2e-4,
            "got {} (error bound {})",
            res.probability,
            res.error_bound
        );
    }

    #[test]
    fn example_3_6_without_reward_bound_is_larger() {
        // Without the reward bound the probability is
        // (λ_IR + λ_IT)/E(3) · (1 − e^{−E(3)·2}) ≈ 0.157894…
        // With the generous bound of 2000 the values are extremely close;
        // with a small bound the probability drops.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let opts = UniformOptions::new()
            .with_truncation(1e-17)
            .with_lambda(14.25);
        let generous = until_probability(&m, &phi, &psi, 2.0, f64::INFINITY, 2, opts)
            .unwrap()
            .probability;
        let tight = until_probability(&m, &phi, &psi, 2.0, 700.0, 2, opts)
            .unwrap()
            .probability;
        let tiny = until_probability(&m, &phi, &psi, 2.0, 0.3, 2, opts)
            .unwrap()
            .probability;
        assert!(tight < generous);
        assert!(tiny < tight);
        // With r = 0.3 even a single impulse (0.42545) exceeds the bound
        // unless the jump happens at reward < 0.3 − impulse < 0: impossible.
        assert!(tiny < 1e-9, "tiny = {tiny}");
    }

    #[test]
    fn psi_start_state_counts_when_it_stays() {
        // Starting in a Ψ-state: the until holds if we are still there at
        // time t — in the absorbed model, always (Ψ-states are absorbing).
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let res = until_probability(&m, &phi, &psi, 1.0, f64::INFINITY, 1, UniformOptions::new())
            .unwrap();
        assert!((res.probability - 1.0).abs() < 1e-7);
    }

    #[test]
    fn dead_start_state_gives_zero() {
        let m = two_state(1.0);
        let phi = vec![false, false];
        let psi = vec![false, true];
        let res = until_probability(&m, &phi, &psi, 1.0, 10.0, 0, UniformOptions::new()).unwrap();
        assert_eq!(res.probability, 0.0);
        assert_eq!(res.explored_nodes, 0);
    }

    #[test]
    fn t_zero_is_membership_test() {
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        let r0 = until_probability(&m, &phi, &psi, 0.0, 5.0, 0, UniformOptions::new()).unwrap();
        assert_eq!(r0.probability, 0.0);
        let r1 = until_probability(&m, &phi, &psi, 0.0, 5.0, 1, UniformOptions::new()).unwrap();
        assert_eq!(r1.probability, 1.0);
    }

    #[test]
    fn tighter_truncation_reduces_error_bound() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let loose = until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            2000.0,
            2,
            UniformOptions::new().with_truncation(1e-5),
        )
        .unwrap();
        let tight = until_probability(
            &m,
            &phi,
            &psi,
            0.5,
            2000.0,
            2,
            UniformOptions::new().with_truncation(1e-10),
        )
        .unwrap();
        assert!(tight.error_bound < loose.error_bound);
        assert!(tight.explored_nodes >= loose.explored_nodes);
        // Both estimates agree within the looser error bound.
        assert!((tight.probability - loose.probability).abs() <= loose.error_bound + 1e-12);
    }

    #[test]
    fn probability_is_monotone_in_reward_bound() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let opts = UniformOptions::new()
            .with_truncation(1e-15)
            .with_lambda(14.25);
        let mut prev = 0.0;
        for &r in &[0.0, 100.0, 500.0, 1000.0, 2000.0, 5000.0] {
            let p = until_probability(&m, &phi, &psi, 2.0, r, 2, opts)
                .unwrap()
                .probability;
            assert!(p + 1e-9 >= prev, "r = {r}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn performability_distribution_is_monotone_and_reaches_one() {
        // Path exploration on the *un-absorbed* model is exponential in Λt
        // (the thesis' own complexity caveat), so keep the horizon short.
        let m = wavelan();
        let opts = UniformOptions::new().with_truncation(1e-7);
        // Pr{Y(0.2) ≤ r} from the sleep state (state 1).
        let mut prev = 0.0;
        for &r in &[0.0, 10.0, 50.0, 200.0, 1000.0] {
            let p = performability(&m, 0.2, r, 1, opts).unwrap().probability;
            assert!(p + 1e-9 >= prev, "r = {r}");
            prev = p;
        }
        let total = performability(&m, 0.2, f64::INFINITY, 1, opts).unwrap();
        assert!(
            (total.probability - 1.0).abs() <= total.error_bound + 1e-6,
            "{} vs error {}",
            total.probability,
            total.error_bound
        );
    }

    #[test]
    fn figure_4_3_exploration_order_and_classes() {
        // Make (¬idle ∨ busy)-states absorbing and explore from state 3
        // (0-indexed 2) to depth 2 — the setting of Figure 4.3.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let absorb: Vec<bool> = phi.iter().zip(&psi).map(|(&p, &q)| !p || q).collect();
        let absorbed = make_absorbing(&m, &absorb).unwrap();
        let uni = UniformizedMrm::new(&absorbed, None).unwrap();
        let rc = RewardClasses::new(&uni);
        let opts = UniformOptions {
            truncation: 1e-30,
            max_depth: 2,
            ..UniformOptions::new()
        };
        let classes = generate_path_classes(&uni, &rc, &phi, &psi, 2, uni.lambda() * 1.0, &opts);
        // Paths of length ≤ 2 ending in busy: 3→4, 3→5, 3→3→4, 3→3→5
        // (3→4→4 and 3→5→5 continue via the absorbing self-loops).
        assert!(classes.stored_paths() >= 4);
        assert!(classes.num_classes() >= 2);
        // The truncated frontier contributes error mass.
        assert!(classes.error_bound() > 0.0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let m = two_state(1.0);
        let phi = vec![true, true];
        let psi = vec![false, true];
        assert!(matches!(
            until_probability(&m, &[true], &psi, 1.0, 1.0, 0, UniformOptions::new()),
            Err(NumericsError::SizeMismatch { .. })
        ));
        assert!(matches!(
            until_probability(&m, &phi, &psi, -1.0, 1.0, 0, UniformOptions::new()),
            Err(NumericsError::InvalidParameter { name: "t", .. })
        ));
        assert!(matches!(
            until_probability(&m, &phi, &psi, 1.0, -1.0, 0, UniformOptions::new()),
            Err(NumericsError::InvalidParameter { name: "r", .. })
        ));
        assert!(matches!(
            until_probability(
                &m,
                &phi,
                &psi,
                1.0,
                1.0,
                0,
                UniformOptions::new().with_truncation(0.0)
            ),
            Err(NumericsError::InvalidParameter {
                name: "truncation",
                ..
            })
        ));
        assert!(matches!(
            until_probability(&m, &phi, &psi, 1.0, 1.0, 9, UniformOptions::new()),
            Err(NumericsError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn improved_pruning_rescues_large_lambda_t() {
        // At t = 2 with Λ ≈ 14.5, e^{−Λt} < 1e-12: the literal rule prunes
        // the root and returns 0 with error bound 1; the potential rule
        // still recovers the probability.
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let literal = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            UniformOptions::new().with_truncation(1e-12),
        )
        .unwrap();
        assert_eq!(literal.probability, 0.0);
        assert_eq!(literal.error_bound, 1.0);

        let improved = until_probability(
            &m,
            &phi,
            &psi,
            2.0,
            2000.0,
            2,
            UniformOptions::new()
                .with_truncation(1e-12)
                .with_improved_pruning(),
        )
        .unwrap();
        assert!(
            (improved.probability - 0.15789).abs() < 1e-3,
            "got {}",
            improved.probability
        );
    }

    #[test]
    fn explicit_lambda_matches_automatic() {
        let m = wavelan();
        let phi = m.labeling().states_with("idle");
        let psi = m.labeling().states_with("busy");
        let auto = until_probability(
            &m,
            &phi,
            &psi,
            1.0,
            2000.0,
            2,
            UniformOptions::new().with_truncation(1e-11),
        )
        .unwrap();
        let pinned = until_probability(
            &m,
            &phi,
            &psi,
            1.0,
            2000.0,
            2,
            UniformOptions::new()
                .with_truncation(1e-11)
                .with_lambda(20.0),
        )
        .unwrap();
        assert!(
            (auto.probability - pinned.probability).abs()
                <= auto.error_bound + pinned.error_bound + 1e-9
        );
    }

    /// Every table entry is the direct `poisson` call, bit for bit, on
    /// both sides of `n = λt` (the `cdf` branch of `upper_tail` below it,
    /// the right-tail sum above), however the table was extended.
    #[test]
    fn poisson_table_entries_are_the_direct_calls() {
        for &lambda_t in &[0.5, 5.1, 52.07, 520.7] {
            let mut table = PoissonTable::new(lambda_t);
            for depth in [0, 3, 64, 1000] {
                table.tail(depth);
                table.pmf(depth);
            }
            for n in 0..=1000u64 {
                assert_eq!(
                    table.tail(n).to_bits(),
                    poisson::upper_tail(lambda_t, n).to_bits(),
                    "tail, λt = {lambda_t}, n = {n}"
                );
                assert_eq!(
                    table.pmf(n).to_bits(),
                    poisson::pmf(lambda_t, n).to_bits(),
                    "pmf, λt = {lambda_t}, n = {n}"
                );
            }
        }
    }
}

#[cfg(test)]
mod all_states_tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    #[test]
    fn all_states_matches_per_state_calls() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(0, 2, 0.5)
            .transition(1, 2, 2.0);
        b.label(0, "a").label(1, "a").label(2, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        let phi = m.labeling().states_with("a");
        let psi = m.labeling().states_with("goal");
        let opts = UniformOptions::new().with_truncation(1e-11);
        let all = until_probabilities_all(&m, &phi, &psi, 1.0, 50.0, opts).unwrap();
        for (s, combined) in all.iter().enumerate() {
            let single = until_probability(&m, &phi, &psi, 1.0, 50.0, s, opts).unwrap();
            assert_eq!(*combined, single, "state {s}");
        }
    }

    #[test]
    fn all_states_skips_dead_states() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0).transition(1, 2, 1.0);
        b.label(2, "goal");
        let m = Mrm::without_rewards(b.build().unwrap());
        // Φ excludes state 1 entirely.
        let phi = vec![true, false, true];
        let psi = vec![false, false, true];
        let opts = UniformOptions::new();
        let all = until_probabilities_all(&m, &phi, &psi, 1.0, 1.0, opts).unwrap();
        assert_eq!(all[1].probability, 0.0);
        assert_eq!(all[1].explored_nodes, 0);
        // t = 0 short-circuit: membership test.
        let t0 = until_probabilities_all(&m, &phi, &psi, 0.0, 1.0, opts).unwrap();
        assert_eq!(t0[2].probability, 1.0);
        assert_eq!(t0[0].probability, 0.0);
    }
}
