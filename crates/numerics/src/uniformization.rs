//! Uniformization-based evaluation of time- and reward-bounded until
//! (Section 4.6) and of the performability distribution `Pr{Y(t) ≤ r}`
//! (Eq. 4.4).
//!
//! The pipeline for `P^M(s, Φ U^{[0,t]}_{[0,r]} Ψ)`:
//!
//! 1. make all `(¬Φ ∨ Ψ)`-states absorbing (Theorems 4.1/4.3);
//! 2. uniformize the absorbed MRM (Definition 4.2);
//! 3. generate paths with truncation probability `w` (Algorithm 4.7),
//!    level-synchronous and merged: prefixes whose subtrees are identical
//!    are expanded once, as one group; paths are aggregated by `(k, j)`
//!    reward-count classes;
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
    /// Number of path-tree nodes represented, merged or not: the nodes a
    /// per-path depth-first search would expand.
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
/// [`NumericsError`] for size mismatches, bad parameters, or model
/// problems; [`NumericsError::PathCountOverflow`] when the paths the
/// exploration stands for outgrow the `u64` work counters.
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
    let rules = Rules::new(&uni, &classes_def, phi, psi, &options, &mut table);
    let classes = explore(&rules, start, &mut table)?;
    record_exploration(start, &classes);
    evaluate_classes(&classes, &classes_def, &mut table, t, r)
}

/// Emit the path-exploration telemetry for one start state (no-op without
/// an installed recorder).
fn record_exploration(start: usize, classes: &PathClasses) {
    mrmc_obs::record(|| mrmc_obs::Event::PathExploration {
        start_state: start as u64,
        explored_nodes: classes.explored_nodes(),
        explored_groups: classes.explored_groups(),
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
    let rules = Rules::new(&uni, &classes_def, phi, psi, &options, &mut table);

    let mut out = Vec::with_capacity(n);
    // Progress is throttled by state count, not wall clock, so the event
    // sequence is reproducible: at most ~100 progress lines per sweep.
    let progress_step = (n as u64).div_ceil(100).max(1);
    for s in 0..n {
        if !phi[s] && !psi[s] {
            out.push(zero(false));
        } else {
            let _span = mrmc_obs::span("path");
            let classes = explore(&rules, s, &mut table)?;
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
    let rules = Rules::new(&uni, &classes_def, &all, &all, &options, &mut table);
    let classes = explore(&rules, start, &mut table)?;
    record_exploration(start, &classes);
    evaluate_classes(&classes, &classes_def, &mut table, t, r)
}

/// Run Algorithm 4.7 (path generation) and return the aggregated path
/// classes. Exposed publicly so the exploration itself can be tested and
/// benchmarked (Figure 4.3).
///
/// # Errors
///
/// [`NumericsError::PathCountOverflow`] when the paths it stands for
/// outgrow the `u64` work counters.
pub fn generate_path_classes(
    uni: &UniformizedMrm,
    classes_def: &RewardClasses,
    phi: &[bool],
    psi: &[bool],
    start: usize,
    lambda_t: f64,
    options: &UniformOptions,
) -> Result<PathClasses, NumericsError> {
    let mut table = PoissonTable::new(lambda_t);
    let rules = Rules::new(uni, classes_def, phi, psi, options, &mut table);
    explore(&rules, start, &mut table)
}

/// [`generate_path_classes`] reading its Poisson factors from `table`.
///
/// The exploration is level-synchronous and merged. A path-tree node's
/// whole subtree is fixed by `(s, n, k, j, P(σ), P(σ, t))`: that key
/// decides every prune test, every stored class, every Eq. 4.6 term and
/// every child key. So the depth-`n` frontier keeps one [`Group`] per
/// distinct key, with the number `m` of prefixes it stands for, and
/// expanding a group does what expanding one such node does, `m` times
/// over: every count grows by `m`, the stored mass is `m·P(σ)` and the
/// error term is `m·(P(σ')·Pr{N ≥ n+1})`. Groups keep first-seen order,
/// so the run is deterministic.
///
/// Children whose subtrees end within [`SHORT`] levels are expanded
/// depth-first on the spot instead of joining the frontier.
fn explore(
    rules: &Rules<'_>,
    start: usize,
    table: &mut PoissonTable,
) -> Result<PathClasses, NumericsError> {
    let Rules {
        classes_def,
        phi,
        psi,
        lambda_t,
        ..
    } = *rules;
    let num_k = classes_def.num_state_classes();
    let num_j = classes_def.num_impulse_classes();
    let mut out = PathClasses::new(num_k, num_j);
    if !phi[start] && !psi[start] {
        return Ok(out);
    }
    let root_weight = (-lambda_t).exp();
    let root_pruned = match rules.mode_pmf {
        None => root_weight < rules.w,
        Some(mode) => mode < rules.w,
    };
    if root_pruned {
        // Even the empty path is below the truncation probability: the
        // whole computation is truncated mass.
        out.add_error(1.0, 1)?;
        return Ok(out);
    }

    assert!(u32::try_from(phi.len()).is_ok(), "fewer than 2^32 states");
    let mut packing = Packing::new(num_k + num_j, 1);
    let mut key = vec![0; packing.words];
    packing.add(&mut key, classes_def.state_class(start));
    let mut level = Level::new(packing.words, MAX_FRONTIER_GROUPS);
    let mut next = Level::new(packing.words, MAX_FRONTIER_GROUPS);
    let mut sink = Sink {
        out,
        stored: Stored::new(packing.words),
    };
    let root = Group {
        state: start as u32,
        path_prob: 1.0,
        weighted: root_weight,
        multiplicity: 1,
    };
    level.add(root, &key)?;

    let mut frames = vec![Vec::new(); SHORT];
    let mut n = 0;
    while !level.groups.is_empty() {
        // The deepest node expanded while this depth is (a child and) a
        // short subtree below it, at depth n + 1 + SHORT; none of its
        // counts exceeds n + 2 + SHORT.
        let max = n + 2 + SHORT as u64;
        if packing.max_count() < max {
            let wider = Packing::new(packing.width(), max);
            level.repack(&packing, &wider);
            sink.stored.repack(&packing, &wider);
            next.clear(wider.words);
            packing = wider;
            key.resize(packing.words, 0);
        }
        let depths: Vec<Depth> = (n..=n + 1 + SHORT as u64)
            .map(|d| Depth::new(d, table))
            .collect();
        let words = packing.words;
        for (g, &group) in level.groups.iter().enumerate() {
            let parent_key = &level.keys[g * words..][..words];
            rules.expand(
                group,
                &depths[0],
                parent_key,
                &packing,
                &mut sink,
                |sink, child, a, b| {
                    key.copy_from_slice(parent_key);
                    packing.add(&mut key, a);
                    packing.add(&mut key, b);
                    match rules.height(&child, &depths[1..]) {
                        Some(height) => rules.expand_short(
                            child,
                            &depths[1..],
                            height,
                            &key,
                            &mut frames,
                            &packing,
                            sink,
                        ),
                        None => next.add(child, &key),
                    }
                },
            )?;
        }
        std::mem::swap(&mut level, &mut next);
        next.clear(words);
        n += 1;
    }
    Ok(sink.out)
}

/// A child whose subtree ends within this many levels below it is
/// expanded depth-first on the spot instead of joining the frontier:
/// near the pruning horizon, looking up duplicates costs more than
/// expanding each of them.
const SHORT: usize = 2;

/// Where expansions put what they find: the path classes, and the
/// index of the stored ones.
struct Sink {
    out: PathClasses,
    stored: Stored,
}

/// What the explorations of one check read while they expand nodes: the
/// model, the pruning rule and bounds on the transition probabilities
/// ahead.
struct Rules<'a> {
    uni: &'a UniformizedMrm,
    classes_def: &'a RewardClasses,
    phi: &'a [bool],
    psi: &'a [bool],
    /// The truncation probability.
    w: f64,
    lambda_t: f64,
    mode_pmf: Option<f64>,
    max_depth: u64,
    /// `max_p[h][s]`: the largest probability of a transition that the
    /// exploration follows `h` steps after a visit to `s`, if any, for
    /// `h ≤ SHORT`.
    max_p: Vec<Vec<Option<f64>>>,
}

/// The factors of one depth `n`.
struct Depth {
    n: u64,
    /// `Λt / (n + 1)`, the step from `P(σ, t)` to a child's.
    next_factor: f64,
    /// `Pr{N ≥ n + 1}`, the Eq. 4.6 factor of a pruned child.
    tail: f64,
}

impl Depth {
    fn new(n: u64, table: &mut PoissonTable) -> Self {
        Depth {
            n,
            next_factor: table.lambda_t / (n + 1) as f64,
            tail: table.tail(n + 1),
        }
    }
}

impl<'a> Rules<'a> {
    fn new(
        uni: &'a UniformizedMrm,
        classes_def: &'a RewardClasses,
        phi: &'a [bool],
        psi: &'a [bool],
        options: &UniformOptions,
        table: &mut PoissonTable,
    ) -> Self {
        // `max_p[h][s]`: the largest probability of a transition followed
        // `h` steps after a visit to `s`, if there is one.
        let followed = |s: usize| {
            uni.transitions(s)
                .filter(|&(target, _, _)| phi[target] || psi[target])
        };
        let mut max_p: Vec<Vec<Option<f64>>> = vec![(0..phi.len())
            .map(|s| followed(s).map(|(_, p, _)| p).reduce(f64::max))
            .collect()];
        for h in 1..=SHORT {
            let after = (0..phi.len())
                .map(|s| {
                    followed(s)
                        .filter_map(|(target, _, _)| max_p[h - 1][target])
                        .reduce(f64::max)
                })
                .collect();
            max_p.push(after);
        }
        let lambda_t = table.lambda_t;
        Rules {
            uni,
            classes_def,
            phi,
            psi,
            w: options.truncation,
            lambda_t,
            // `max_m ψ_m(Λt)` for potential-based pruning (`None` =
            // literal rule).
            mode_pmf: options
                .improved_pruning
                .then(|| table.pmf(lambda_t.floor() as u64)),
            max_depth: options.max_depth,
            max_p,
        }
    }

    /// The child of `node` at depth `depth.n` through a transition of
    /// probability `p` into `target`.
    fn child(node: &Group, depth: &Depth, target: u32, p: f64) -> Group {
        Group {
            state: target,
            path_prob: node.path_prob * p,
            weighted: node.weighted * depth.next_factor * p,
            multiplicity: node.multiplicity,
        }
    }

    /// Whether the node `node` at depth `n` is discarded. Literal rule:
    /// `P(σ, t) < w`. Potential rule: no extension of σ can reach weight
    /// `w` any more.
    fn prunes(&self, node: &Group, n: u64) -> bool {
        let best = match self.mode_pmf {
            Some(mode) if (n as f64) < self.lambda_t => node.path_prob * mode,
            _ => node.weighted,
        };
        best < self.w || n > self.max_depth
    }

    /// How many levels below `node`, at depth `depths[0].n`, can hold
    /// kept nodes, if fewer than `depths.len()`. Both prune tests grow
    /// with the transition probabilities (rounding is monotone), so a
    /// chain of the likeliest transitions bounds every descendant.
    fn height(&self, node: &Group, depths: &[Depth]) -> Option<usize> {
        let mut bound = *node;
        for (height, (depth, max_p)) in depths.iter().zip(&self.max_p).enumerate() {
            let Some(p) = max_p[node.state as usize] else {
                return Some(height);
            };
            bound = Self::child(&bound, depth, 0, p);
            if self.prunes(&bound, depth.n + 1) {
                return Some(height);
            }
        }
        None
    }

    /// Expand `node`, at depth `depths[0].n` with class `key`, and its
    /// whole subtree, which ends within `height` levels below it,
    /// depth-first. `frames` holds a class buffer per level below.
    #[expect(
        clippy::too_many_arguments,
        reason = "the subtree's root, depth table, height, class key and frame buffers are all distinct state"
    )]
    fn expand_short(
        &self,
        node: Group,
        depths: &[Depth],
        height: usize,
        key: &[u64],
        frames: &mut [Vec<u64>],
        packing: &Packing,
        sink: &mut Sink,
    ) -> Result<(), NumericsError> {
        let Some((child_key, frames)) = frames.split_first_mut().filter(|_| height > 0) else {
            return self.expand(node, &depths[0], key, packing, sink, |_, _, _, _| {
                unreachable!("no child outlives the height bound")
            });
        };
        self.expand(node, &depths[0], key, packing, sink, |sink, child, a, b| {
            child_key.clear();
            child_key.extend_from_slice(key);
            packing.add(child_key, a);
            packing.add(child_key, b);
            self.expand_short(
                child,
                &depths[1..],
                height - 1,
                child_key,
                frames,
                packing,
                sink,
            )
        })
    }

    /// Expand `node`, `m` path-tree nodes at depth `depth.n` of class
    /// `key`: count them, store their mass if they end in a Ψ-state and
    /// charge their pruned children to Eq. 4.6. Each surviving child goes
    /// to `keep` with the state-reward and impulse-reward classes it adds.
    fn expand(
        &self,
        node: Group,
        depth: &Depth,
        key: &[u64],
        packing: &Packing,
        sink: &mut Sink,
        mut keep: impl FnMut(&mut Sink, Group, usize, usize) -> Result<(), NumericsError>,
    ) -> Result<(), NumericsError> {
        let (s, m) = (node.state as usize, node.multiplicity);
        let mass = m as f64;
        sink.out.count_group(depth.n, m)?;
        let num_k = self.classes_def.num_state_classes();
        if self.psi[s] {
            let slot = sink.stored.slot(key, packing, num_k, &mut sink.out);
            sink.out.store(slot, mass * node.path_prob, m)?;
        }
        // Eq. 4.6: discarding σ' and all suffixes loses at most
        // P(σ')·Pr{N ≥ n + 1} probability mass. Summed per node.
        let (mut pruned, mut pruned_mass) = (0, 0.0);
        for (target, p, impulse) in self.uni.transitions(s) {
            // Line 1 of Algorithm 4.7: (¬Φ ∧ ¬Ψ)-states end exploration
            // and can never satisfy the formula — no error contribution
            // either.
            if !self.phi[target] && !self.psi[target] {
                continue;
            }
            let child = Self::child(&node, depth, target as u32, p);
            if self.prunes(&child, depth.n + 1) {
                pruned += 1;
                pruned_mass += child.path_prob * depth.tail;
            } else {
                let b = num_k + self.classes_def.impulse_class(impulse);
                keep(sink, child, self.classes_def.state_class(target), b)?;
            }
        }
        if pruned > 0 {
            let paths = m
                .checked_mul(pruned)
                .ok_or(NumericsError::PathCountOverflow)?;
            sink.out.add_error(mass * pruned_mass, paths)?;
        }
        Ok(())
    }
}

/// `Pr{N ≥ n}` and `ψ_n(Λt)` for `N ~ Poisson(Λt)`, indexed by the depth
/// `n` and filled lazily as deep as the exploration goes.
///
/// Both depend only on `n`, not on the path, yet the exploration needs a
/// tail for every pruned child and a pmf for every class. Each entry is the direct
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

/// How a `k ‖ j` count vector packs into `u64` words: `bits` bits per
/// count, none straddling two words. A count grows by adding its unit, a
/// shifted one, to its word.
struct Packing {
    bits: u32,
    words: usize,
    /// The word of each count and its unit.
    units: Vec<(usize, u64)>,
}

impl Packing {
    /// The packing of `width` counts of at most `max` each.
    fn new(width: usize, max: u64) -> Self {
        let bits = u64::BITS - max.leading_zeros();
        let per_word = (u64::BITS / bits) as usize;
        Packing {
            bits,
            words: width.div_ceil(per_word).max(1),
            units: (0..width)
                .map(|i| (i / per_word, 1 << ((i % per_word) as u32 * bits)))
                .collect(),
        }
    }

    fn width(&self) -> usize {
        self.units.len()
    }

    /// The largest count the packing holds.
    fn max_count(&self) -> u64 {
        u64::MAX >> (u64::BITS - self.bits)
    }

    /// Add one to count `i` of `key`.
    fn add(&self, key: &mut [u64], i: usize) {
        let (word, unit) = self.units[i];
        key[word] += unit;
    }

    /// Count `i` of `key`.
    fn get(&self, key: &[u64], i: usize) -> u32 {
        let (word, unit) = self.units[i];
        ((key[word] >> unit.trailing_zeros()) & self.max_count()) as u32
    }
}

/// Groups beyond this many at one depth fail the exploration with
/// [`NumericsError::FrontierTooWide`] instead of exhausting memory. A
/// group costs at least 56 bytes (its record, a class word and its index
/// slots); the widest Table 5.7 frontier holds 4 625 groups.
const MAX_FRONTIER_GROUPS: usize = 1 << 22;

/// One depth of the merged exploration: its groups in first-seen order,
/// each with its packed `k ‖ j` class.
struct Level {
    groups: Vec<Group>,
    /// The packed class of each group, `words` words per group.
    keys: Vec<u64>,
    words: usize,
    index: Index,
    /// The most groups the level may hold.
    max_groups: usize,
}

/// `m` path-tree nodes at one depth with the same state, class, `P(σ)`
/// and `P(σ, t)`, hence identical subtrees.
#[derive(Clone, Copy)]
struct Group {
    state: u32,
    path_prob: f64,
    weighted: f64,
    multiplicity: u64,
}

impl Group {
    fn hash(&self, key: &[u64]) -> u64 {
        let head = [
            u64::from(self.state),
            self.path_prob.to_bits(),
            self.weighted.to_bits(),
        ];
        hash_words(head.into_iter().chain(key.iter().copied()))
    }

    fn same_node(&self, other: &Group) -> bool {
        self.state == other.state
            && self.path_prob.to_bits() == other.path_prob.to_bits()
            && self.weighted.to_bits() == other.weighted.to_bits()
    }
}

impl Level {
    /// An empty level of at most `max_groups` groups, for classes of
    /// `words` words.
    fn new(words: usize, max_groups: usize) -> Self {
        Level {
            groups: Vec::new(),
            keys: Vec::new(),
            words,
            index: Index::default(),
            max_groups,
        }
    }

    /// Empty the level for classes of `words` words, keeping its
    /// allocations.
    fn clear(&mut self, words: usize) {
        self.groups.clear();
        self.keys.clear();
        self.words = words;
        self.index.clear();
    }

    /// Add `group` of class `key`: merged into the group with the same
    /// node key, or kept as a new group at the end.
    fn add(&mut self, group: Group, key: &[u64]) -> Result<(), NumericsError> {
        let (groups, keys, words) = (&self.groups, &self.keys, self.words);
        let key_of = |g: u32| &keys[g as usize * words..][..words];
        self.index
            .reserve_one(|g| groups[g as usize].hash(key_of(g)));
        let is_same = |g: u32| groups[g as usize].same_node(&group) && key_of(g) == key;
        match self.index.find(group.hash(key), is_same) {
            Ok(g) => {
                let other = &mut self.groups[g as usize];
                other.multiplicity = other
                    .multiplicity
                    .checked_add(group.multiplicity)
                    .ok_or(NumericsError::PathCountOverflow)?;
            }
            Err(at) => {
                if self.groups.len() == self.max_groups {
                    return Err(NumericsError::FrontierTooWide {
                        groups: self.max_groups,
                    });
                }
                self.index.insert(at);
                self.groups.push(group);
                self.keys.extend_from_slice(key);
            }
        }
        Ok(())
    }

    /// Re-pack the classes of the groups from `from` to `to`. The group
    /// index is not needed any more: the level is only expanded from here
    /// on.
    fn repack(&mut self, from: &Packing, to: &Packing) {
        self.keys = repack(&self.keys, from, to);
        self.words = to.words;
        self.index.clear();
    }
}

/// `keys`, packed by `from`, packed by `to` instead.
fn repack(keys: &[u64], from: &Packing, to: &Packing) -> Vec<u64> {
    let mut out = vec![0; keys.len() / from.words * to.words];
    for (key, wider) in keys
        .chunks_exact(from.words)
        .zip(out.chunks_exact_mut(to.words))
    {
        for (i, &(word, unit)) in to.units.iter().enumerate() {
            wider[word] += u64::from(from.get(key, i)) * unit;
        }
    }
    out
}

/// The classes stored so far: their [`PathClasses`] slots, in
/// first-seen order, with their packed classes. Classes of different
/// depths never coincide (`Σ k = n + 1`), so one index serves every
/// depth.
struct Stored {
    slots: Vec<usize>,
    /// `words` words per class.
    keys: Vec<u64>,
    words: usize,
    index: Index,
}

impl Stored {
    fn new(words: usize) -> Self {
        Stored {
            slots: Vec::new(),
            keys: Vec::new(),
            words,
            index: Index::default(),
        }
    }

    fn clear(&mut self, words: usize) {
        self.slots.clear();
        self.keys.clear();
        self.words = words;
        self.index.clear();
    }

    /// The position of class `key`, or where to insert it.
    fn find(&mut self, key: &[u64]) -> Result<usize, (usize, u64)> {
        let (keys, words) = (&self.keys, self.words);
        let key_of = |c: u32| &keys[c as usize * words..][..words];
        self.index
            .reserve_one(|c| hash_words(key_of(c).iter().copied()));
        self.index
            .find(hash_words(key.iter().copied()), |c| key_of(c) == key)
            .map(|c| c as usize)
    }

    fn insert(&mut self, at: (usize, u64), key: &[u64], slot: usize) {
        self.index.insert(at);
        self.keys.extend_from_slice(key);
        self.slots.push(slot);
    }

    /// Re-pack the classes from `from` to `to`.
    fn repack(&mut self, from: &Packing, to: &Packing) {
        let keys = repack(&self.keys, from, to);
        let slots = std::mem::take(&mut self.slots);
        self.clear(to.words);
        for (key, slot) in keys.chunks_exact(to.words).zip(slots) {
            let at = self.find(key).expect_err("stored classes are distinct");
            self.insert(at, key, slot);
        }
    }

    /// The [`PathClasses`] slot of class `key`, created on first use.
    fn slot(
        &mut self,
        key: &[u64],
        packing: &Packing,
        num_k: usize,
        out: &mut PathClasses,
    ) -> usize {
        match self.find(key) {
            Ok(c) => self.slots[c],
            Err(at) => {
                let counts: Vec<u32> = (0..packing.width()).map(|i| packing.get(key, i)).collect();
                let slot = out.add_class(&counts[..num_k], &counts[num_k..]);
                self.insert(at, key, slot);
                slot
            }
        }
    }
}

/// A lookup-only open-addressing index over the positions `0..len` of a
/// `Vec` held elsewhere. It is never iterated, so the `Vec` alone fixes
/// every order.
#[derive(Default)]
struct Index {
    /// Entries, `EMPTY` marking a free slot: the high half of the entry's
    /// hash above its position, so most mismatches are told apart without
    /// reading the `Vec`. The length is a power of two at least twice
    /// `len`.
    slots: Vec<u64>,
    len: u32,
}

const EMPTY: u64 = u64::MAX;

/// The slot entry of position `i` hashed `h`.
fn entry(h: u64, i: u32) -> u64 {
    (h & !u64::from(u32::MAX)) | u64::from(i)
}

impl Index {
    fn clear(&mut self) {
        if self.len > 0 {
            self.slots.fill(EMPTY);
            self.len = 0;
        }
    }

    /// Make room for one more entry, re-placing the existing ones by
    /// `hash_of(position)` when the table grows.
    fn reserve_one(&mut self, hash_of: impl Fn(u32) -> u64) {
        if 2 * (self.len as usize + 1) <= self.slots.len() {
            return;
        }
        let capacity = (2 * self.slots.len()).max(16);
        self.slots = vec![EMPTY; capacity];
        for i in 0..self.len {
            let h = hash_of(i);
            let mut at = h as usize & (capacity - 1);
            while self.slots[at] != EMPTY {
                at = (at + 1) & (capacity - 1);
            }
            self.slots[at] = entry(h, i);
        }
    }

    /// The position `i` with `is(i)` among the entries hashed `h`, or
    /// the free slot where a new entry hashed `h` belongs. Call
    /// [`reserve_one`](Self::reserve_one) first.
    fn find(&self, h: u64, is: impl Fn(u32) -> bool) -> Result<u32, (usize, u64)> {
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        let tag = entry(h, 0);
        loop {
            match self.slots[at] {
                EMPTY => return Err((at, h)),
                e if entry(e, 0) == tag && is(e as u32) => return Ok(e as u32),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Record the next position, `len`, at the free slot `found` by
    /// [`find`](Self::find), and return it.
    fn insert(&mut self, (at, h): (usize, u64)) -> u32 {
        let i = self.len;
        assert!(i < u32::MAX - 1, "fewer than 2^32 - 1 entries per depth");
        self.slots[at] = entry(h, i);
        self.len += 1;
        i
    }
}

/// Fold 64-bit words FxHash-style, then mix with the murmur3 finalizer so
/// the low bits that pick an [`Index`] slot depend on every input bit.
fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0u64;
    for w in words {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

/// Combine stored path classes into the final probability (Eq. 4.5) using
/// the Omega algorithm for the conditional probabilities (Eq. 4.9).
///
/// Two phases: the per-class terms `ψ_n(Λt)·P(σ)·Ω(r', k)`
/// ([`omega::omega_terms`]), then a single ordered Kahan-compensated sum
/// over classes in `(k, j)` key order.
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
                r / t - r_min - classes_def.impulse_total(key.j) / t
            };
            TermRequest {
                r_prime,
                k: key.k,
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
        let classes =
            generate_path_classes(&uni, &rc, &phi, &psi, 2, uni.lambda() * 1.0, &opts).unwrap();
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

/// The per-path depth-first search of Algorithm 4.7 that the merged
/// exploration replaced, kept as the reference the equivalence tests
/// compare against.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::*;

    /// [`explore`], one path-tree node at a time.
    pub(super) fn explore(
        uni: &UniformizedMrm,
        rc: &RewardClasses,
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
            rc,
            phi,
            psi,
            table,
            w: options.truncation,
            max_depth: options.max_depth,
            mode_pmf,
            out: PathClasses::new(rc.num_state_classes(), rc.num_impulse_classes()),
            slot_of: BTreeMap::new(),
            k: vec![0; rc.num_state_classes()],
            j: vec![0; rc.num_impulse_classes()],
        };
        if !phi[start] && !psi[start] {
            return dfs.out;
        }
        let root_weight = (-lambda_t).exp();
        let root_pruned = match dfs.mode_pmf {
            None => root_weight < dfs.w,
            Some(mode) => mode < dfs.w,
        };
        if root_pruned {
            dfs.out.add_error(1.0, 1).unwrap();
            return dfs.out;
        }
        dfs.k[rc.state_class(start)] = 1;
        dfs.visit(start, 0, 1.0, root_weight);
        dfs.out
    }

    struct PathDfs<'a> {
        uni: &'a UniformizedMrm,
        rc: &'a RewardClasses,
        phi: &'a [bool],
        psi: &'a [bool],
        table: &'a mut PoissonTable,
        w: f64,
        max_depth: u64,
        mode_pmf: Option<f64>,
        out: PathClasses,
        /// Slot of each class, keyed by `k ‖ j`.
        slot_of: BTreeMap<Vec<u32>, usize>,
        /// The `(k, j)` counts of the prefix being expanded.
        k: Vec<u32>,
        j: Vec<u32>,
    }

    impl PathDfs<'_> {
        /// Expand the prefix ending in `s` at depth `n`, with
        /// `path_prob = P(σ)` and `weighted = P(σ, t)`.
        fn visit(&mut self, s: usize, n: u64, path_prob: f64, weighted: f64) {
            self.out.count_group(n, 1).unwrap();
            if self.psi[s] {
                let (k, j, out) = (&self.k, &self.j, &mut self.out);
                let slot = *self
                    .slot_of
                    .entry([k.as_slice(), j].concat())
                    .or_insert_with(|| out.add_class(k, j));
                self.out.store(slot, path_prob, 1).unwrap();
            }
            let lambda_t = self.table.lambda_t;
            let next_factor = lambda_t / (n + 1) as f64;
            for (target, p, impulse) in self.uni.transitions(s) {
                if !self.phi[target] && !self.psi[target] {
                    continue;
                }
                let child_path = path_prob * p;
                let child_weighted = weighted * next_factor * p;
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
                    let tail = self.table.tail(n + 1);
                    self.out.add_error(child_path * tail, 1).unwrap();
                    continue;
                }
                let sc = self.rc.state_class(target);
                let ic = self.rc.impulse_class(impulse);
                self.k[sc] += 1;
                self.j[ic] += 1;
                self.visit(target, n + 1, child_path, child_weighted);
                self.k[sc] -= 1;
                self.j[ic] -= 1;
            }
        }
    }
}

/// The merged, level-synchronous exploration against the per-path DFS
/// reference: every work counter and the class set exactly equal, every
/// probability and bound within 1e-14 relative.
#[cfg(test)]
mod merged_exploration_tests {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_models::random::{random_mrm, RandomMrmConfig};
    use mrmc_models::tmr::{tmr, TmrConfig};
    use mrmc_models::wavelan::wavelan;

    /// `|a − b| / max(|a|, |b|)`, zero when both are zero.
    fn rel(a: f64, b: f64) -> f64 {
        let scale = a.abs().max(b.abs());
        if scale == 0.0 {
            0.0
        } else {
            (a - b).abs() / scale
        }
    }

    /// Explore from every live state of `uni` both ways and compare;
    /// returns the largest relative deviation seen and whether any two
    /// prefixes merged.
    fn assert_matches_reference(
        name: &str,
        uni: &UniformizedMrm,
        phi: &[bool],
        psi: &[bool],
        t: f64,
        r: f64,
        options: &UniformOptions,
    ) -> (f64, bool) {
        let rc = RewardClasses::new(uni);
        let mut table = PoissonTable::new(uni.lambda() * t);
        let mut worst = 0.0f64;
        let mut merged_any = false;
        for start in (0..phi.len()).filter(|&s| phi[s] || psi[s]) {
            let ctx = format!("{name}, start {start}");
            let rules = Rules::new(uni, &rc, phi, psi, options, &mut table);
            let merged = explore(&rules, start, &mut table).unwrap();
            let dfs = reference::explore(uni, &rc, phi, psi, start, &mut table, options);
            assert_eq!(merged.explored_nodes(), dfs.explored_nodes(), "{ctx}");
            assert_eq!(merged.stored_paths(), dfs.stored_paths(), "{ctx}");
            assert_eq!(merged.truncated_paths(), dfs.truncated_paths(), "{ctx}");
            assert_eq!(merged.num_classes(), dfs.num_classes(), "{ctx}");
            assert_eq!(merged.max_depth(), dfs.max_depth(), "{ctx}");
            assert_eq!(dfs.explored_groups(), dfs.explored_nodes(), "{ctx}");
            assert!(merged.explored_groups() <= merged.explored_nodes(), "{ctx}");
            merged_any |= merged.explored_groups() < merged.explored_nodes();
            for ((mk, mp), (dk, dp)) in merged.iter().zip(dfs.iter()) {
                assert_eq!(mk, dk, "{ctx}: class sets differ");
                worst = worst.max(rel(mp, dp));
            }
            worst = worst.max(rel(merged.error_bound(), dfs.error_bound()));

            let a = evaluate_classes(&merged, &rc, &mut table, t, r).unwrap();
            let b = evaluate_classes(&dfs, &rc, &mut table, t, r).unwrap();
            assert_eq!(
                (a.num_classes, a.explored_nodes, a.stored_paths),
                (b.num_classes, b.explored_nodes, b.stored_paths),
                "{ctx}"
            );
            worst = worst
                .max(rel(a.probability, b.probability))
                .max(rel(a.error_bound, b.error_bound))
                .max(rel(
                    a.budget.float_accumulation,
                    b.budget.float_accumulation,
                ));
        }
        assert!(worst <= 1e-14, "{name}: relative deviation {worst:e}");
        (worst, merged_any)
    }

    /// The until pipeline's model: `(¬Φ ∨ Ψ)`-states absorbing, `Λ`
    /// pinned to the absorbed model's largest exit rate (the thesis'
    /// choice) unless `options` fixes it.
    fn until_case(
        name: &str,
        mrm: &Mrm,
        phi: &[bool],
        psi: &[bool],
        t: f64,
        r: f64,
        options: UniformOptions,
    ) -> (f64, bool) {
        let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
        let absorbed = make_absorbing(mrm, &absorb).unwrap();
        let max_exit = absorbed
            .ctmc()
            .exit_rates()
            .iter()
            .fold(0.0f64, |a, &e| a.max(e));
        let uni = UniformizedMrm::new(&absorbed, options.lambda.or(Some(max_exit))).unwrap();
        assert_matches_reference(name, &uni, phi, psi, t, r, &options)
    }

    fn tmr_dependability(t: f64, w: f64, improved: bool) -> (f64, bool) {
        let m = tmr(&TmrConfig::classic());
        let phi = m.labeling().states_with("Sup");
        let psi = m.labeling().states_with("failed");
        let mut options = UniformOptions::new().with_truncation(w).with_lambda(0.0505);
        options.improved_pruning = improved;
        let name = format!("TMR t = {t}, w = {w:e}, improved = {improved}");
        until_case(&name, &m, &phi, &psi, t, 3000.0, options)
    }

    /// The largest deviation of `cases`, asserting that some prefixes
    /// merged (or the comparison would not exercise the merging).
    fn summarize(what: &str, cases: impl IntoIterator<Item = (f64, bool)>) {
        let (worst, merged) = cases
            .into_iter()
            .fold((0.0f64, false), |(w, m), (cw, cm)| (w.max(cw), m || cm));
        assert!(merged, "{what}: no two prefixes merged");
        eprintln!("{what}: largest relative deviation {worst:e}");
    }

    #[test]
    fn table_5_3_and_5_4_rows_match_the_reference() {
        summarize(
            "Tables 5.3/5.4",
            [
                // Table 5.3, t = 300 (constant w = 1e-11).
                tmr_dependability(300.0, 1e-11, false),
                // Table 5.4, t = 350.
                tmr_dependability(350.0, 1e-10, false),
                tmr_dependability(200.0, 1e-8, true),
            ],
        );
    }

    #[test]
    fn tmr11_reachability_matches_the_reference_from_every_state() {
        // Constant rates under the literal rule, variable rates under the
        // potential rule.
        let cases = [
            (TmrConfig::with_modules(11), false),
            (TmrConfig::with_modules(11).variable(), true),
        ]
        .map(|(config, improved)| {
            let m = tmr(&config);
            let phi = vec![true; m.num_states()];
            let psi = m.labeling().states_with("allUp");
            let mut options = UniformOptions::new().with_truncation(1e-8);
            options.improved_pruning = improved;
            let name = format!("TMR(11) reachability, improved = {improved}");
            until_case(&name, &m, &phi, &psi, 100.0, 2000.0, options)
        });
        summarize("Tables 5.5/5.7", cases);
    }

    #[test]
    fn impulse_models_match_the_reference() {
        // `tt U transmit`: the idle–sleep and idle–receive cycles, with
        // impulses on 1 → 2 and 2 → 3, give prefixes that merge.
        let m = wavelan();
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("transmit");
        let mut cases = vec![
            until_case(
                "WaveLAN",
                &m,
                &phi,
                &psi,
                0.5,
                500.0,
                UniformOptions::new().with_truncation(1e-8),
            ),
            until_case(
                "WaveLAN, improved",
                &m,
                &phi,
                &psi,
                0.5,
                500.0,
                UniformOptions::new()
                    .with_truncation(1e-8)
                    .with_improved_pruning(),
            ),
        ];

        let config = RandomMrmConfig {
            states: 7,
            extra_transitions_per_state: 1.5,
            max_rate: 2.0,
            reward_levels: vec![0.0, 1.0, 3.0],
            impulse_levels: vec![0.0, 0.5, 2.0],
            goal_fraction: 0.3,
        };
        for seed in 0..6 {
            let m = random_mrm(seed, &config);
            let phi = vec![true; m.num_states()];
            let psi = m.labeling().states_with("goal");
            let mut options = UniformOptions::new().with_truncation(1e-7);
            options.improved_pruning = seed % 2 == 1;
            let name = format!("random seed {seed}");
            cases.push(until_case(&name, &m, &phi, &psi, 1.0, 3.0, options));
        }
        summarize("impulse models", cases);
    }

    #[test]
    fn performability_matches_the_reference() {
        // No absorbing transformation: every state stores at every depth.
        let m = wavelan();
        let all = vec![true; m.num_states()];
        let uni = UniformizedMrm::new(&m, None).unwrap();
        summarize(
            "WaveLAN performability",
            [false, true].map(|improved| {
                let mut options = UniformOptions::new().with_truncation(1e-7);
                options.improved_pruning = improved;
                let name = format!("WaveLAN performability, improved = {improved}");
                assert_matches_reference(&name, &uni, &all, &all, 0.2, 50.0, &options)
            }),
        );
    }

    /// A level refuses a group past its cap instead of growing, but still
    /// merges duplicates when full.
    #[test]
    fn a_full_level_fails_instead_of_growing() {
        let group = |state: u32| Group {
            state,
            path_prob: 0.5,
            weighted: 0.25,
            multiplicity: 1,
        };
        let mut level = Level::new(1, 2);
        level.add(group(0), &[1]).unwrap();
        level.add(group(1), &[1]).unwrap();
        level.add(group(0), &[1]).unwrap();
        assert_eq!(level.groups[0].multiplicity, 2);
        assert_eq!(
            level.add(group(0), &[2]),
            Err(NumericsError::FrontierTooWide { groups: 2 })
        );
        assert_eq!(level.groups.len(), 2);
    }

    /// Two states with equal rewards, no impulses and `Λ = 2μ`: every step
    /// has probability ½, so depth `n` holds 2 groups standing for `2^n`
    /// paths. The counts follow the closed form while they fit a `u64`;
    /// past that the exploration fails instead of wrapping.
    #[test]
    fn path_counts_that_outgrow_u64_fail_instead_of_wrapping() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        let options = |depth: u64| UniformOptions {
            truncation: 1e-300,
            lambda: Some(2.0),
            max_depth: depth,
            improved_pruning: false,
        };
        for depth in [0, 1, 2, 10, 40, 60] {
            let res = performability(&m, 0.5, f64::INFINITY, 0, options(depth)).unwrap();
            let nodes = (1u64 << (depth + 1)) - 1;
            assert_eq!(res.explored_nodes, nodes, "depth {depth}");
            assert_eq!(res.stored_paths, nodes, "depth {depth}");
            assert_eq!(res.truncated_paths, 1 << (depth + 1), "depth {depth}");
            assert_eq!(res.max_depth, depth);
            assert_eq!(res.num_classes as u64, depth + 1);
            assert!((res.probability - 1.0).abs() <= res.error_bound + 1e-12);
        }
        for depth in [64, 100, 1000] {
            assert_eq!(
                performability(&m, 0.5, f64::INFINITY, 0, options(depth)),
                Err(NumericsError::PathCountOverflow),
                "depth {depth}"
            );
        }
    }
}
