//! Lumpability analysis: formula-adaptive, certificate-backed state-space
//! reduction (`R` codes).
//!
//! For a model `M` and a CSRL formula `Φ`, this module computes the
//! coarsest partition of the state space this analysis can *prove* to
//! preserve the semantics of `Φ` — an ordinary (strong) lumping quotient —
//! and packages the proof as a [`LumpingCertificate`] that an independent
//! `O(m)` verifier re-checks before any engine is allowed to trust it.
//!
//! # Formula-adaptive observation
//!
//! What must be preserved depends on what `Φ` can observe
//! ([`Observation::of`]):
//!
//! * a pure boolean formula over atomic propositions observes only the
//!   labeling — the initial partition groups states by their *relevant*
//!   propositions (those occurring in `Φ`) and no further refinement is
//!   needed;
//! * an `S`/`P` operator observes the transition law — blocks are refined
//!   until all members agree, bit-for-bit, on their aggregate rate into
//!   every other block;
//! * a nontrivial accumulated-reward bound `J` additionally observes the
//!   reward structure — members must agree on the state-reward rate and on
//!   the impulse earned towards every other block (and intra-block
//!   impulses must be zero, since a jump inside a block is invisible in
//!   the quotient but would still accumulate reward).
//!
//! # Exactness
//!
//! All comparisons are **bitwise** on the `f64` representation
//! ([`f64::to_bits`]), and aggregate rates are summed in the row order of
//! the sparse matrix, exactly as [`mrmc_mrm::transform::quotient`] and the
//! certificate verifier sum them. The quotient therefore reproduces the
//! full model's arithmetic *exactly* — no new rounding is introduced, so
//! checking the quotient and lifting the result is bit-reproducible.
//!
//! # Cost
//!
//! Refinement runs synchronous rounds, each splitting every block by the
//! signatures of the previous partition, but a round pays only for what
//! the previous one changed: blocks are contiguous ranges of one state
//! array, a split block keeps its largest part under its id, and only the
//! states a move can have affected are signed again (see `refine`).
//! Signatures are flat words in one buffer, grouped by hashing slices of
//! it. The quotient takes its labels as whole label sets
//! ([`Labeling::lumped`](mrmc_ctmc::Labeling::lumped)), and a reward-blind
//! one is built from the chain without copying it. [`certify`] — what the
//! checker calls — runs one refinement; [`analyze`] adds two more for a
//! reward-observing formula, to attribute blocked merges for the lint.
//!
//! # Diagnostics
//!
//! The [`pass`] (registered by `mrmc lint --lumping`, *not* part of the
//! default set) reports:
//!
//! * `R001` (error) — a certificate failed re-verification (a bug trap:
//!   analysis and verifier disagree);
//! * `R101` (note) — the model is lumpable for this formula, with the
//!   original and reduced state counts;
//! * `R102` (note) — no nontrivial quotient exists for this formula;
//! * `R103` (note) — state rewards block further lumping, with an example
//!   pair of states separated only by their reward rates;
//! * `R104` (note) — impulse rewards block further lumping, with an
//!   example pair.

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

use mrmc_csrl::{PathFormula, StateFormula};
use mrmc_mrm::transform::{quotient, quotient_reward_free};
use mrmc_mrm::{Mrm, Partition};
use mrmc_sparse::CsrMatrix;

use crate::{Diagnostic, LintContext, Pass, Report, Scope, Severity};

/// Which aspects of a model a formula can observe — and a lumping must
/// therefore preserve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Observation {
    /// The formula contains an `S` or `P` operator, so the transition law
    /// (and hence aggregate inter-block rates) is observable.
    pub rates: bool,
    /// Some path operator carries a nontrivial accumulated-reward bound
    /// `J ≠ [0, ∞)`, so state and impulse rewards are observable.
    pub rewards: bool,
}

impl Observation {
    /// What `formula` observes, by structural walk.
    pub fn of(formula: &StateFormula) -> Self {
        let mut obs = Observation {
            rates: false,
            rewards: false,
        };
        formula.visit(&mut |f, _| match f {
            StateFormula::Steady { .. } => obs.rates = true,
            StateFormula::Prob { path, .. } => {
                obs.rates = true;
                let (PathFormula::Next { reward, .. } | PathFormula::Until { reward, .. }) =
                    path.as_ref();
                obs.rewards |= !reward.is_trivial();
            }
            _ => {}
        });
        obs
    }
}

/// The result of [`analyze`]: the proven partition, its certificate (when
/// it actually reduces the model), and attribution for what blocked
/// further lumping.
#[derive(Debug, Clone)]
pub struct LumpingAnalysis {
    /// What the analysis read of the formula.
    pub inputs: AnalysisInputs,
    /// The coarsest partition the analysis proved safe.
    pub partition: Partition,
    /// The checkable certificate; `None` when the partition is the
    /// identity (nothing to reduce, nothing to certify).
    pub certificate: Option<LumpingCertificate>,
    /// An example pair of states kept apart *only* by their state-reward
    /// rates (0-indexed), when reward observation split a rate-lumpable
    /// pair.
    pub reward_blocked: Option<(usize, usize)>,
    /// An example pair of states kept apart *only* by impulse rewards
    /// (0-indexed).
    pub impulse_blocked: Option<(usize, usize)>,
}

/// Everything [`analyze`] reads of a formula: its relevant atomic
/// propositions and what it observes. Two formulas with equal inputs get
/// identical analyses (partition, certificate, blockers) on the same
/// model, so a cache of analyses is keyed by these inputs, not by the
/// formula.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AnalysisInputs {
    /// The atomic propositions occurring in the formula, sorted and
    /// deduplicated.
    pub relevant_aps: Vec<String>,
    /// What the formula observes.
    pub observation: Observation,
}

impl AnalysisInputs {
    /// The inputs [`analyze`] takes from `formula`.
    pub fn of(formula: &StateFormula) -> Self {
        AnalysisInputs {
            relevant_aps: formula
                .propositions()
                .into_iter()
                .map(str::to_owned)
                .collect(),
            observation: Observation::of(formula),
        }
    }
}

/// Compute the coarsest provable `Φ`-preserving lumping of `mrm`, with
/// attribution for what blocked further lumping.
///
/// The result depends on `formula` only through its
/// [`AnalysisInputs`]. The algorithm is partition refinement: start from
/// the coarsest partition compatible with the formula's atomic
/// propositions (plus the state-reward rate when rewards are observed),
/// then repeatedly split blocks whose members disagree on their signature
/// — the bitwise aggregate rate into every other block and, when rewards
/// are observed, the set of impulse values earned towards every other
/// block. At the fixpoint, remaining impulse-uniformity violations (a
/// state earning two different impulses towards one block, or a nonzero
/// impulse inside a block) trigger a split of the *receiving* block and
/// the refinement restarts; every such split strictly increases the block
/// count, so the loop terminates.
///
/// When rewards are observed, the attribution (`reward_blocked`,
/// `impulse_blocked`) takes two more refinement runs, at the rates-only
/// and rates-plus-state-rewards levels; they share the transposed rate
/// matrix with the main run. A caller that needs only the certificate
/// calls [`certify`], which runs the main refinement alone.
pub fn analyze(mrm: &Mrm, formula: &StateFormula) -> LumpingAnalysis {
    let inputs = AnalysisInputs::of(formula);
    let AnalysisInputs {
        relevant_aps,
        observation,
    } = &inputs;
    let preds = observation.rates.then(|| mrm.ctmc().rates().transpose());
    let preds = preds.as_ref();

    let partition = coarsest(mrm, &inputs, preds);

    // Rewards are observed only under a path operator, so `preds` is set.
    let (reward_blocked, impulse_blocked) = if observation.rewards {
        let (p_rate, _) = refine(mrm, relevant_aps, preds, false, false);
        let (p_state, _) = refine(mrm, relevant_aps, preds, true, false);
        (
            first_split_pair(&p_rate, &p_state),
            first_split_pair(&p_state, &partition),
        )
    } else {
        (None, None)
    };

    let certificate = build_certificate(mrm, &partition, &inputs);
    LumpingAnalysis {
        inputs,
        partition,
        certificate,
        reward_blocked,
        impulse_blocked,
    }
}

/// The certificate of [`analyze`] alone: the same partition and
/// quotient, without the attribution runs that only the `R103`/`R104`
/// diagnostics read. `None` when the coarsest provable partition is the
/// identity. This is what a checker reducing a model calls.
pub fn certify(mrm: &Mrm, formula: &StateFormula) -> Option<LumpingCertificate> {
    let inputs = AnalysisInputs::of(formula);
    let preds = inputs
        .observation
        .rates
        .then(|| mrm.ctmc().rates().transpose());
    let partition = coarsest(mrm, &inputs, preds.as_ref());
    build_certificate(mrm, &partition, &inputs)
}

/// The coarsest partition at the observation level of `inputs`; `preds`
/// is the transposed rate matrix, given exactly when rates are observed.
fn coarsest(mrm: &Mrm, inputs: &AnalysisInputs, preds: Option<&CsrMatrix>) -> Partition {
    let rewards = inputs.observation.rewards;
    refine(mrm, &inputs.relevant_aps, preds, rewards, rewards).0
}

/// The coarsest partition matching the requested observation level, and
/// the number of refinement rounds it took. Rates are observed when
/// `preds` (the transposed rate matrix) is given; without it the result
/// is the initial partition.
///
/// Each round splits every block by the members' signatures relative to
/// the current partition, exactly as re-signing every state would, but it
/// costs only what changed:
///
/// * blocks are contiguous ranges of one state array ([`Blocks`]), so a
///   block's dirty members and a clean one are found without a scan;
/// * a block that splits keeps its largest group under its id, and only
///   the other groups move — each at most half the block;
/// * the next round signs only the predecessors of moved states and the
///   moved states that still have a successor in the block they left (a
///   jump that was inside the block is now visible), plus one clean
///   member per block they sit in. Every other state's signature is its
///   previous one, block ids included, so the clean members of a block
///   agree with each other.
///
/// Splits are applied at the end of the round, so the rounds, the
/// row-order sums and the final partition are those of re-signing every
/// state every round; the block ids are renumbered canonically once, at
/// the end.
fn refine(
    mrm: &Mrm,
    relevant_aps: &[String],
    preds: Option<&CsrMatrix>,
    use_state_rewards: bool,
    use_impulses: bool,
) -> (Partition, u64) {
    let n = mrm.num_states();
    let initial = initial_blocks(mrm, relevant_aps, use_state_rewards);
    let Some(preds) = preds else {
        return (Partition::from_assignment(&initial), 0);
    };

    let mut blocks = Blocks::new(initial);
    for s in 0..n {
        blocks.mark(s);
    }
    let mut scratch = Scratch {
        sums: vec![0.0; n],
        ..Scratch::default()
    };
    let mut rounds = 0u64;
    loop {
        loop {
            rounds += 1;
            round(mrm, &mut blocks, use_impulses, &mut scratch);
            if scratch.moved.is_empty() {
                break;
            }
            blocks.mark_after_moves(mrm, preds, &scratch.moved);
        }
        if !use_impulses {
            break;
        }
        let Some((source, block)) = find_impulse_violation(mrm, &blocks) else {
            break;
        };
        split_by_incoming_impulse(mrm, &mut blocks, source, block, &mut scratch);
        blocks.mark_after_moves(mrm, preds, &scratch.moved);
    }
    mrmc_obs::record(|| mrmc_obs::Event::LumpingRefinement {
        rounds,
        states: n as u64,
        blocks: blocks.start.len() as u64,
    });
    (Partition::from_assignment(&blocks.block_of), rounds)
}

/// The partition by relevant propositions (and state-reward rate when
/// `use_state_rewards`), before any rate refinement: each state's block,
/// numbered by first appearance.
fn initial_blocks(mrm: &Mrm, relevant_aps: &[String], use_state_rewards: bool) -> Vec<usize> {
    let has: Vec<Vec<bool>> = relevant_aps
        .iter()
        .map(|ap| mrm.labeling().states_with(ap))
        .collect();
    let mut sigs = Signatures::default();
    for s in 0..mrm.num_states() {
        for chunk in has.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, h)| w | u64::from(h[s]) << i);
            sigs.push(word);
        }
        if use_state_rewards {
            sigs.push(mrm.state_reward(s).to_bits());
        }
        sigs.finish_entry();
    }
    let mut groups = Vec::new();
    sigs.group(&mut groups);
    groups
}

/// Signatures stored flat, one entry per signed state: entry `i` is
/// `words[ends[i - 1]..ends[i]]`. Grouping hashes these word slices, so a
/// signature costs no allocation of its own.
#[derive(Default)]
struct Signatures {
    words: Vec<u64>,
    ends: Vec<usize>,
}

impl Signatures {
    fn clear(&mut self) {
        self.words.clear();
        self.ends.clear();
    }

    fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Close the entry the words pushed since the last call form.
    fn finish_entry(&mut self) {
        self.ends.push(self.words.len());
    }

    /// Reset `groups` to the group of every entry: equal signatures share
    /// a group, and groups are numbered by first appearance.
    fn group(&self, groups: &mut Vec<usize>) {
        let mut ids: HashMap<&[u64], usize> = HashMap::with_capacity(self.ends.len());
        groups.clear();
        let mut start = 0;
        for &end in &self.ends {
            let next = ids.len();
            groups.push(*ids.entry(&self.words[start..end]).or_insert(next));
            start = end;
        }
    }
}

/// Reusable buffers of a refinement. `sums` has one all-zero slot per
/// possible block and is left all-zero.
#[derive(Default)]
struct Scratch {
    sums: Vec<f64>,
    targets: Vec<usize>,
    impulses: Vec<(usize, u64)>,
    sigs: Signatures,
    groups: Vec<usize>,
    /// The states the last split moved, each with the block it left.
    moved: Vec<(usize, usize)>,
}

/// One refinement round: sign the dirty states of every touched block
/// (and one clean member each), group them by signature and apply every
/// split at once, leaving the moved states in `scratch.moved`.
fn round(mrm: &Mrm, blocks: &mut Blocks, use_impulses: bool, scratch: &mut Scratch) {
    let Scratch {
        sums,
        targets,
        impulses,
        sigs,
        groups,
        moved,
    } = scratch;
    sigs.clear();
    blocks.sign_touched(sigs, |s, sigs| {
        let rows = (sums.as_mut_slice(), &mut *targets, &mut *impulses);
        sign(mrm, &blocks.block_of, s, use_impulses, rows, sigs);
    });
    sigs.group(groups);
    moved.clear();
    blocks.split_touched(groups, moved);
}

/// Append the signature of `s` relative to `block_of` to `sigs`: its
/// block, then its aggregate rate bits into every other block in block
/// order (summed in row order, so bit-reproducible) and, with
/// `use_impulses`, the number of target blocks first and, per target
/// block, the sorted distinct impulse bits earned there (the implicit
/// zero of impulse-free transitions included), each list prefixed by its
/// block and length. Members of one block with equal signatures stay
/// together.
fn sign(
    mrm: &Mrm,
    block_of: &[usize],
    s: usize,
    use_impulses: bool,
    (sums, targets, impulses): (&mut [f64], &mut Vec<usize>, &mut Vec<(usize, u64)>),
    sigs: &mut Signatures,
) {
    let b = block_of[s];
    for (t, r) in mrm.ctmc().rates().row(s) {
        let c = block_of[t];
        if c == b {
            continue;
        }
        if sums[c] == 0.0 {
            targets.push(c);
        }
        sums[c] += r;
        if use_impulses {
            impulses.push((c, mrm.impulse_reward(s, t).to_bits()));
        }
    }
    targets.sort_unstable();
    sigs.push(b as u64);
    if use_impulses {
        sigs.push(targets.len() as u64);
    }
    for &c in targets.iter() {
        sigs.push(c as u64);
        sigs.push(sums[c].to_bits());
    }
    for &c in targets.iter() {
        sums[c] = 0.0;
    }
    targets.clear();
    if use_impulses {
        impulses.sort_unstable();
        impulses.dedup();
        for run in impulses.chunk_by(|x, y| x.0 == y.0) {
            sigs.push(run[0].0 as u64);
            sigs.push(run.len() as u64);
            for &(_, v) in run {
                sigs.push(v);
            }
        }
        impulses.clear();
    }
    sigs.finish_entry();
}

/// The partition [`refine`] works on. Every block's members occupy one
/// contiguous range of `elems`, its *dirty* members (those to sign next
/// round) first: block `b` is `elems[start[b]..end[b]]` and its dirty
/// members are `elems[start[b]..dirty_end[b]]`.
struct Blocks {
    block_of: Vec<usize>,
    elems: Vec<usize>,
    /// The position of every state in `elems`.
    pos: Vec<usize>,
    start: Vec<usize>,
    dirty_end: Vec<usize>,
    end: Vec<usize>,
    /// The blocks with a dirty member, in the order they got their first.
    touched: Vec<usize>,
}

impl Blocks {
    /// The blocks of `block_of` (ids `0..k`, each used), none dirty.
    fn new(block_of: Vec<usize>) -> Self {
        let k = block_of.iter().max().map_or(0, |&b| b + 1);
        let mut end = vec![0; k];
        for &b in &block_of {
            end[b] += 1;
        }
        let mut start = Vec::with_capacity(k);
        let mut at = 0;
        for size in &mut end {
            start.push(at);
            at += *size;
            *size = at;
        }
        let mut fill = start.clone();
        let mut elems = vec![0; block_of.len()];
        let mut pos = vec![0; block_of.len()];
        for (s, &b) in block_of.iter().enumerate() {
            elems[fill[b]] = s;
            pos[s] = fill[b];
            fill[b] += 1;
        }
        Blocks {
            block_of,
            elems,
            pos,
            dirty_end: start.clone(),
            start,
            end,
            touched: Vec::new(),
        }
    }

    /// Make `s` dirty: swap it into its block's dirty prefix.
    fn mark(&mut self, s: usize) {
        let b = self.block_of[s];
        let (p, d) = (self.pos[s], self.dirty_end[b]);
        if p < d {
            return;
        }
        if d == self.start[b] {
            self.touched.push(b);
        }
        let other = self.elems[d];
        self.elems.swap(p, d);
        self.pos[s] = d;
        self.pos[other] = p;
        self.dirty_end[b] = d + 1;
    }

    /// Mark what a round's moves can have changed: the predecessors of
    /// every moved state, and each moved state that still has a successor
    /// in the block it left (`moved` holds `(state, block it left)`).
    fn mark_after_moves(&mut self, mrm: &Mrm, preds: &CsrMatrix, moved: &[(usize, usize)]) {
        for &(s, left) in moved {
            for (p, _) in preds.row(s) {
                self.mark(p);
            }
            if mrm
                .ctmc()
                .rates()
                .row(s)
                .any(|(t, _)| self.block_of[t] == left)
            {
                self.mark(s);
            }
        }
    }

    /// Call `sign` on one clean member (when there is one) and then every
    /// dirty member of each touched block, closing an entry after each.
    fn sign_touched(&self, sigs: &mut Signatures, mut sign: impl FnMut(usize, &mut Signatures)) {
        for &b in &self.touched {
            let d = self.dirty_end[b];
            if d < self.end[b] {
                sign(self.elems[d], sigs);
            }
            for &s in &self.elems[self.start[b]..d] {
                sign(s, sigs);
            }
        }
    }

    /// Split every touched block by `groups`, the group of each entry
    /// [`sign_touched`](Blocks::sign_touched) produced (clean members
    /// share the clean entry's group). A block keeps its largest group,
    /// the lowest-numbered on ties, under its id; every other group
    /// becomes a new block and its members are appended to `moved` with
    /// the block they left. Afterwards no state is dirty.
    fn split_touched(&mut self, groups: &[usize], moved: &mut Vec<(usize, usize)>) {
        let touched = std::mem::take(&mut self.touched);
        let mut entries = groups;
        let (mut count, mut order, mut next, mut buf) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for &b in &touched {
            let (start, dirty_end, end) = (self.start[b], self.dirty_end[b], self.end[b]);
            self.dirty_end[b] = start;
            let clean = end - dirty_end;
            let (block_entries, rest) =
                entries.split_at(usize::from(clean > 0) + dirty_end - start);
            entries = rest;
            // A signature leads with its block, so the block's groups are
            // the consecutive ids from its first entry's; local id 0 is the
            // clean members' group when there are any.
            let base = block_entries[0];
            let num = block_entries.iter().max().map_or(0, |&g| g - base + 1);
            if num == 1 {
                continue;
            }
            let dirty = &block_entries[usize::from(clean > 0)..];
            count.clear();
            count.resize(num, 0);
            for &g in dirty {
                count[g - base] += 1;
            }
            let size = |g: usize| count[g] + if clean > 0 && g == 0 { clean } else { 0 };
            let keeper = (0..num)
                .max_by_key(|&g| (size(g), std::cmp::Reverse(g)))
                .expect("a split block has groups");
            // Lay the dirty prefix out group by group, the clean members'
            // group last, next to the clean members it owns.
            order.clear();
            order.extend(usize::from(clean > 0)..num);
            if clean > 0 {
                order.push(0);
            }
            next.clear();
            next.resize(num, 0);
            let mut at = start;
            for &g in &order {
                next[g] = at;
                at += count[g];
            }
            buf.clear();
            buf.extend_from_slice(&self.elems[start..dirty_end]);
            for (&s, &g) in buf.iter().zip(dirty) {
                let p = &mut next[g - base];
                self.elems[*p] = s;
                self.pos[s] = *p;
                *p += 1;
            }
            let mut at = start;
            for &g in &order {
                let range = at..at + size(g);
                at = range.end;
                if g == keeper {
                    self.start[b] = range.start;
                    self.dirty_end[b] = range.start;
                    self.end[b] = range.end;
                    continue;
                }
                let new = self.start.len();
                self.start.push(range.start);
                self.dirty_end.push(range.start);
                self.end.push(range.end);
                for &s in &self.elems[range] {
                    self.block_of[s] = new;
                    moved.push((s, b));
                }
            }
        }
    }
}

/// Find a `(source state, block to split)` pair witnessing an impulse
/// uniformity violation: either `source` earns two different impulses
/// towards the block, or it earns a nonzero impulse *inside* it. States
/// are scanned in index order, each row in row order.
fn find_impulse_violation(mrm: &Mrm, blocks: &Blocks) -> Option<(usize, usize)> {
    let block_of = &blocks.block_of;
    // `first[c]`: the state that last reached block `c` and the impulse
    // bits it earned there first.
    let mut first: Vec<(usize, u64)> = vec![(usize::MAX, 0); blocks.start.len()];
    for s in 0..mrm.num_states() {
        let b = block_of[s];
        for (t, _) in mrm.ctmc().rates().row(s) {
            let c = block_of[t];
            let v = mrm.impulse_reward(s, t).to_bits();
            if c == b {
                if v != 0 {
                    return Some((s, b));
                }
            } else if first[c].0 == s {
                if first[c].1 != v {
                    return Some((s, c));
                }
            } else {
                first[c] = (s, v);
            }
        }
    }
    None
}

/// Split `block` by the impulse its members receive from `source` (a
/// member without a `source` transition is its own group), leaving the
/// moved states in `scratch.moved`. Any valid lumping must separate
/// members receiving different impulses from the same state, so this
/// never splits a pair the coarsest valid partition could keep together —
/// and it always splits the witnessing pair, so the outer loop makes
/// progress.
fn split_by_incoming_impulse(
    mrm: &Mrm,
    blocks: &mut Blocks,
    source: usize,
    block: usize,
    scratch: &mut Scratch,
) {
    for p in blocks.start[block]..blocks.end[block] {
        blocks.mark(blocks.elems[p]);
    }
    let received: BTreeMap<usize, u64> = mrm
        .ctmc()
        .rates()
        .row(source)
        .filter(|&(t, _)| blocks.block_of[t] == block)
        .map(|(t, _)| (t, mrm.impulse_reward(source, t).to_bits()))
        .collect();
    let Scratch {
        sigs,
        groups,
        moved,
        ..
    } = scratch;
    sigs.clear();
    blocks.sign_touched(sigs, |t, sigs| {
        match received.get(&t) {
            Some(&v) => {
                sigs.push(1);
                sigs.push(v);
            }
            None => sigs.push(0),
        }
        sigs.finish_entry();
    });
    sigs.group(groups);
    moved.clear();
    blocks.split_touched(groups, moved);
}

/// The first (lowest-index) pair of states sharing a `coarse` block but
/// split apart in `fine`; `fine` must refine `coarse`.
fn first_split_pair(coarse: &Partition, fine: &Partition) -> Option<(usize, usize)> {
    let mut first_seen: Vec<Option<(usize, usize)>> = vec![None; coarse.num_blocks()];
    for s in 0..coarse.num_states() {
        match first_seen[coarse.block_of(s)] {
            None => first_seen[coarse.block_of(s)] = Some((s, fine.block_of(s))),
            Some((s0, fb0)) => {
                if fine.block_of(s) != fb0 {
                    return Some((s0, s));
                }
            }
        }
    }
    None
}

/// The certificate for `partition`; `None` for the identity (nothing to
/// reduce) or a partition the quotient cannot be built for.
fn build_certificate(
    mrm: &Mrm,
    partition: &Partition,
    inputs: &AnalysisInputs,
) -> Option<LumpingCertificate> {
    if partition.is_identity() {
        return None;
    }
    let observation = inputs.observation;
    let reduced = if observation.rewards {
        quotient(mrm, partition).ok()?
    } else {
        // The formula cannot observe rewards, so the quotient is built
        // reward-free: cheaper to check, and the verifier can insist on it.
        quotient_reward_free(mrm, partition).ok()?
    };
    Some(LumpingCertificate {
        partition: partition.clone(),
        quotient: reduced,
        relevant_aps: inputs.relevant_aps.clone(),
        observes_rates: observation.rates,
        observes_rewards: observation.rewards,
    })
}

/// A checkable lumping certificate: the partition, the quotient model it
/// claims to induce, and what the certified formula class observes.
///
/// The certificate is plain data. Nothing downstream trusts the analysis
/// that produced it — [`LumpingCertificate::verify`] re-validates every
/// claim against the original model in `O(m)` with bitwise comparisons,
/// and `mrmc-core` refuses to check on a quotient whose certificate does
/// not verify.
#[derive(Debug, Clone)]
pub struct LumpingCertificate {
    /// The claimed lumping.
    pub partition: Partition,
    /// The claimed quotient model (reward-free when rewards are not
    /// observed).
    pub quotient: Mrm,
    /// The atomic propositions whose per-state truth must survive the
    /// quotient, sorted.
    pub relevant_aps: Vec<String>,
    /// Whether aggregate inter-block rates are part of the claim.
    pub observes_rates: bool,
    /// Whether state and impulse rewards are part of the claim.
    pub observes_rewards: bool,
}

impl LumpingCertificate {
    /// Re-validate the certificate against `mrm`.
    ///
    /// Checks, in order: the partition covers the state space and the
    /// quotient has one state per block; every state agrees with its block
    /// on every relevant proposition; when rates are observed, every
    /// state's aggregate rate into every other block equals the quotient
    /// row **bitwise** (sums accumulated in row order, exactly as the
    /// quotient was built); when rewards are observed, every state matches
    /// its block's state-reward rate bitwise, every inter-block transition
    /// carries exactly the block-pair impulse, and intra-block impulses
    /// are zero; when rewards are *not* observed, the quotient must be
    /// reward-free.
    ///
    /// Runs in `O(n·|AP| + m)`.
    ///
    /// # Errors
    ///
    /// The first [`CertificateError`] encountered, identifying the
    /// offending state or transition.
    pub fn verify(&self, mrm: &Mrm) -> Result<(), CertificateError> {
        let n = mrm.num_states();
        if self.partition.num_states() != n {
            return Err(CertificateError::PartitionSize {
                states: n,
                partitioned: self.partition.num_states(),
            });
        }
        let k = self.partition.num_blocks();
        if self.quotient.num_states() != k {
            return Err(CertificateError::QuotientSize {
                blocks: k,
                quotient_states: self.quotient.num_states(),
            });
        }
        if !self.observes_rewards && !self.quotient.is_reward_free() {
            return Err(CertificateError::UnexpectedRewards);
        }

        let holds = |m: &Mrm| -> Vec<Vec<bool>> {
            let labeling = m.labeling();
            self.relevant_aps
                .iter()
                .map(|ap| labeling.states_with(ap))
                .collect()
        };
        let (full, reduced) = (holds(mrm), holds(&self.quotient));
        for s in 0..n {
            let b = self.partition.block_of(s);
            for ((ap, full), reduced) in self.relevant_aps.iter().zip(&full).zip(&reduced) {
                if full[s] != reduced[b] {
                    return Err(CertificateError::LabelMismatch {
                        state: s,
                        ap: ap.clone(),
                    });
                }
            }
        }

        if self.observes_rates {
            let mut sums = vec![0.0_f64; k];
            let mut touched: Vec<usize> = Vec::new();
            for s in 0..n {
                let b = self.partition.block_of(s);
                for (t, r) in mrm.ctmc().rates().row(s) {
                    let c = self.partition.block_of(t);
                    if c == b {
                        continue;
                    }
                    if sums[c] == 0.0 {
                        touched.push(c);
                    }
                    sums[c] += r;
                }
                let qrates = self.quotient.ctmc().rates();
                let mut ok = qrates.row_nnz(b) == touched.len();
                for &c in &touched {
                    if qrates.get(b, c).to_bits() != sums[c].to_bits() {
                        ok = false;
                    }
                    sums[c] = 0.0;
                }
                touched.clear();
                if !ok {
                    return Err(CertificateError::RateMismatch { state: s, block: b });
                }
            }
        }

        if self.observes_rewards {
            for s in 0..n {
                let b = self.partition.block_of(s);
                if mrm.state_reward(s).to_bits() != self.quotient.state_reward(b).to_bits() {
                    return Err(CertificateError::StateRewardMismatch { state: s });
                }
                for (t, _) in mrm.ctmc().rates().row(s) {
                    let c = self.partition.block_of(t);
                    let v = mrm.impulse_reward(s, t);
                    if c == b {
                        if v != 0.0 {
                            return Err(CertificateError::IntraBlockImpulse { from: s, to: t });
                        }
                    } else if v.to_bits() != self.quotient.impulse_reward(b, c).to_bits() {
                        return Err(CertificateError::ImpulseMismatch { from: s, to: t });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a [`LumpingCertificate`] failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The partition covers a different number of states than the model.
    PartitionSize {
        /// States in the model.
        states: usize,
        /// States covered by the partition.
        partitioned: usize,
    },
    /// The quotient has a different number of states than the partition
    /// has blocks.
    QuotientSize {
        /// Blocks in the partition.
        blocks: usize,
        /// States in the claimed quotient.
        quotient_states: usize,
    },
    /// The certificate claims rewards are unobservable but the quotient
    /// carries rewards.
    UnexpectedRewards,
    /// A state disagrees with its block on a relevant proposition.
    LabelMismatch {
        /// The offending state.
        state: usize,
        /// The proposition in question.
        ap: String,
    },
    /// A state's aggregate rates into other blocks do not match the
    /// quotient row of its block bitwise.
    RateMismatch {
        /// The offending state.
        state: usize,
        /// Its block.
        block: usize,
    },
    /// A state's reward rate differs from its block's.
    StateRewardMismatch {
        /// The offending state.
        state: usize,
    },
    /// A transition's impulse differs from the block-pair impulse.
    ImpulseMismatch {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
    },
    /// A nonzero impulse inside a block.
    IntraBlockImpulse {
        /// Source state.
        from: usize,
        /// Target state.
        to: usize,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::PartitionSize {
                states,
                partitioned,
            } => write!(
                f,
                "partition covers {partitioned} states but the model has {states}"
            ),
            CertificateError::QuotientSize {
                blocks,
                quotient_states,
            } => write!(
                f,
                "quotient has {quotient_states} states for a {blocks}-block partition"
            ),
            CertificateError::UnexpectedRewards => {
                write!(f, "reward-blind certificate carries a rewarded quotient")
            }
            CertificateError::LabelMismatch { state, ap } => write!(
                f,
                "state {state} disagrees with its block on proposition \"{ap}\""
            ),
            CertificateError::RateMismatch { state, block } => write!(
                f,
                "aggregate rates of state {state} do not match quotient row of block {block}"
            ),
            CertificateError::StateRewardMismatch { state } => {
                write!(f, "state reward of state {state} differs from its block's")
            }
            CertificateError::ImpulseMismatch { from, to } => write!(
                f,
                "impulse on transition {from} -> {to} differs from its block pair's"
            ),
            CertificateError::IntraBlockImpulse { from, to } => write!(
                f,
                "nonzero impulse on intra-block transition {from} -> {to}"
            ),
        }
    }
}

impl Error for CertificateError {}

/// The lumpability lint pass. **Not** part of
/// [`Analyzer::default_passes`](crate::Analyzer::default_passes) — register
/// [`PASS`] explicitly (the CLI does under `mrmc lint --lumping`).
pub fn pass(ctx: &LintContext<'_>, report: &mut Report) {
    let Some(formula) = ctx.formula else { return };
    let analysis = analyze(ctx.mrm, formula);
    let n = ctx.mrm.num_states();
    let k = analysis.partition.num_blocks();
    match &analysis.certificate {
        Some(cert) => {
            if let Err(e) = cert.verify(ctx.mrm) {
                report.push(Diagnostic::new(
                    "R001",
                    Severity::Error,
                    format!("lumping certificate failed verification: {e}"),
                ));
                return;
            }
            report.push(
                Diagnostic::new(
                    "R101",
                    Severity::Note,
                    format!("model is lumpable: {n} -> {k} states for this formula"),
                )
                .with_suggestion(
                    "the checker applies this verified reduction automatically; \
                     pass --no-reduction to disable it",
                ),
            );
        }
        None => {
            report.push(Diagnostic::new(
                "R102",
                Severity::Note,
                format!(
                    "no nontrivial quotient: the coarsest provable partition for this formula \
                     keeps all {n} states"
                ),
            ));
        }
    }
    if let Some((a, b)) = analysis.reward_blocked {
        report.push(
            Diagnostic::new(
                "R103",
                Severity::Note,
                "state rewards block further lumping between otherwise-lumpable states",
            )
            .with_states(vec![a + 1, b + 1]),
        );
    }
    if let Some((a, b)) = analysis.impulse_blocked {
        report.push(
            Diagnostic::new(
                "R104",
                Severity::Note,
                "impulse rewards block further lumping between otherwise-lumpable states",
            )
            .with_states(vec![a + 1, b + 1]),
        );
    }
}

/// The pass descriptor for [`Analyzer::register`](crate::Analyzer::register).
pub const PASS: Pass = Pass {
    name: "lumpability",
    scope: Scope::Formula,
    run: pass,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analyzer;
    use mrmc_ctmc::CtmcBuilder;
    use mrmc_models::{tmr, TmrConfig};
    use mrmc_mrm::{ImpulseRewards, StateRewards};

    fn parse(s: &str) -> StateFormula {
        mrmc_csrl::parse(s).unwrap()
    }

    /// 0 → {1, 2} → 3 → 0 with the middle states lumpable for anything.
    fn diamond(rewards: [f64; 4], imp1: f64, imp2: f64) -> Mrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(rewards.to_vec()).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(1, 3, imp1).unwrap();
        iota.set(2, 3, imp2).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn observation_tracks_operators_and_reward_bounds() {
        assert_eq!(
            Observation::of(&parse("goal || !mid")),
            Observation {
                rates: false,
                rewards: false
            }
        );
        assert_eq!(
            Observation::of(&parse("P(>= 0.5) [TT U[0,1] goal]")),
            Observation {
                rates: true,
                rewards: false
            }
        );
        assert_eq!(
            Observation::of(&parse("P(>= 0.5) [TT U[0,1][0,2] goal]")),
            Observation {
                rates: true,
                rewards: true
            }
        );
        assert_eq!(
            Observation::of(&parse("S(< 0.1) (goal)")),
            Observation {
                rates: true,
                rewards: false
            }
        );
    }

    #[test]
    fn pure_ap_formula_lumps_by_labels_alone() {
        // TMR's rate structure does not lump, but a boolean formula cannot
        // see it: the partition is the proposition partition.
        let m = tmr(&TmrConfig::classic());
        let a = analyze(&m, &parse("Sup"));
        assert_eq!(a.partition.num_blocks(), 2);
        let cert = a.certificate.expect("reduction exists");
        assert!(cert.quotient.is_reward_free());
        cert.verify(&m).unwrap();
    }

    #[test]
    fn rate_observing_formula_refines_by_rates() {
        let m = tmr(&TmrConfig::classic());
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] failed]"));
        // The classic TMR rate structure admits no nontrivial lumping.
        assert!(a.partition.is_identity());
        assert!(a.certificate.is_none());
    }

    #[test]
    fn lumpable_rate_structure_reduces_under_probabilistic_formula() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(a.partition.num_blocks(), 3);
        let cert = a.certificate.expect("mid states merge");
        assert!(cert.quotient.is_reward_free());
        cert.verify(&m).unwrap();
    }

    #[test]
    fn reward_bound_keeps_rewards_and_still_lumps_when_uniform() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_eq!(a.partition.num_blocks(), 3);
        let cert = a.certificate.expect("mid states merge");
        assert!(!cert.quotient.is_reward_free());
        assert_eq!(cert.quotient.state_reward(cert.partition.block_of(1)), 5.0);
        cert.verify(&m).unwrap();
        assert_eq!(a.reward_blocked, None);
        assert_eq!(a.impulse_blocked, None);
    }

    #[test]
    fn state_rewards_block_lumping_with_example_pair() {
        let m = diamond([0.0, 5.0, 6.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert!(a.partition.is_identity());
        assert_eq!(a.reward_blocked, Some((1, 2)));
        assert_eq!(a.impulse_blocked, None);
        // A reward-blind formula still lumps the same model.
        let b = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(b.partition.num_blocks(), 3);
    }

    #[test]
    fn impulse_rewards_block_lumping_with_example_pair() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.7);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert!(a.partition.is_identity());
        assert_eq!(a.reward_blocked, None);
        assert_eq!(a.impulse_blocked, Some((1, 2)));
    }

    #[test]
    fn non_uniform_impulses_from_one_state_split_the_target_block() {
        // 0 reaches both mid states with different impulses: any valid
        // reward-observing lumping must keep 1 and 2 apart.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 1.0).unwrap();
        iota.set(0, 2, 2.0).unwrap();
        let m = Mrm::new(ctmc, rho, iota).unwrap();
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_ne!(a.partition.block_of(1), a.partition.block_of(2));
        if let Some(cert) = &a.certificate {
            cert.verify(&m).unwrap();
        }
    }

    #[test]
    fn intra_block_impulse_forces_a_split() {
        // 1 and 2 would merge, but 1 → 2 carries an impulse that a quotient
        // could not account for.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0).transition(1, 2, 1.0);
        b.transition(2, 3, 2.0).transition(2, 1, 1.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(1, 2, 3.0).unwrap();
        let m = Mrm::new(ctmc, rho, iota).unwrap();

        // Reward-blind: 1 and 2 lump (the impulse is invisible).
        let blind = analyze(&m, &parse("P(>= 0.5) [TT U[0,1] goal]"));
        assert_eq!(blind.partition.block_of(1), blind.partition.block_of(2));
        blind.certificate.unwrap().verify(&m).unwrap();

        // Reward-observing: they must stay apart.
        let full = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        assert_ne!(full.partition.block_of(1), full.partition.block_of(2));
        if let Some(cert) = &full.certificate {
            cert.verify(&m).unwrap();
        }
    }

    #[test]
    fn corrupted_certificates_are_rejected() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"));
        let cert = a.certificate.unwrap();
        cert.verify(&m).unwrap();

        // Wrong partition size.
        let mut bad = cert.clone();
        bad.partition = Partition::identity(3);
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::PartitionSize { .. })
        ));

        // Quotient with tampered rates.
        let mut bad = cert.clone();
        let mut qb = CtmcBuilder::new(3);
        qb.transition(0, 1, 2.5); // was 2.0
        qb.transition(1, 2, 2.0);
        qb.transition(2, 0, 0.5);
        qb.label(1, "mid").label(2, "goal");
        bad.quotient = Mrm::new(
            qb.build().unwrap(),
            StateRewards::new(vec![0.0, 5.0, 1.0]).unwrap(),
            {
                let mut i = ImpulseRewards::new();
                i.set(1, 2, 0.5).unwrap();
                i
            },
        )
        .unwrap();
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::RateMismatch { .. })
        ));

        // Quotient with a mislabeled block.
        let mut bad = cert.clone();
        let mut qb = CtmcBuilder::new(3);
        qb.transition(0, 1, 2.0);
        qb.transition(1, 2, 2.0);
        qb.transition(2, 0, 0.5);
        qb.label(0, "goal").label(1, "mid");
        bad.quotient = Mrm::new(
            qb.build().unwrap(),
            StateRewards::new(vec![0.0, 5.0, 1.0]).unwrap(),
            {
                let mut i = ImpulseRewards::new();
                i.set(1, 2, 0.5).unwrap();
                i
            },
        )
        .unwrap();
        assert!(matches!(
            bad.verify(&m),
            Err(CertificateError::LabelMismatch { .. })
        ));

        // Partition merging states with different rewards.
        let mut bad = cert;
        bad.partition = Partition::from_assignment(&[0, 0, 1, 2]);
        assert!(bad.verify(&m).is_err());
    }

    #[test]
    fn reward_blind_certificate_must_be_reward_free() {
        let m = diamond([0.0, 5.0, 5.0, 1.0], 0.5, 0.5);
        let a = analyze(&m, &parse("goal"));
        let mut cert = a.certificate.unwrap();
        cert.verify(&m).unwrap();
        cert.quotient = quotient(&m, &cert.partition).unwrap();
        assert!(matches!(
            cert.verify(&m),
            Err(CertificateError::UnexpectedRewards)
        ));
    }

    #[test]
    fn pass_reports_lumpable_models_and_blockers() {
        let mut analyzer = Analyzer::empty();
        analyzer.register(PASS);

        let m = tmr(&TmrConfig::classic());
        let report = analyzer.check_formula(&m, &parse("Sup"), Default::default());
        assert_eq!(report.codes(), vec!["R101"]);
        assert!(report.render_human().contains("5 -> 2 states"));

        let report = analyzer.check_formula(
            &m,
            &parse("P(>= 0.5) [TT U[0,1] failed]"),
            Default::default(),
        );
        assert_eq!(report.codes(), vec!["R102"]);

        let blocked = diamond([0.0, 5.0, 6.0, 1.0], 0.5, 0.7);
        let report = analyzer.check_formula(
            &blocked,
            &parse("P(>= 0.5) [TT U[0,1][0,2] goal]"),
            Default::default(),
        );
        assert_eq!(report.codes(), vec!["R102", "R103"]);
        // The example pair is reported 1-indexed.
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code == "R103")
            .unwrap();
        assert_eq!(d.states, vec![2, 3]);
    }

    /// The refinement that re-signs every state every round on a
    /// canonically renumbered [`Partition`], kept as the reference the
    /// incremental [`refine`] must reproduce. Returns the partition, the
    /// rounds and the number of impulse-violation restarts.
    fn reference_refine(
        mrm: &Mrm,
        relevant_aps: &[String],
        use_rates: bool,
        use_state_rewards: bool,
        use_impulses: bool,
    ) -> (Partition, u64, u64) {
        let mut partition = reference_initial_partition(mrm, relevant_aps, use_state_rewards);
        if !use_rates {
            return (partition, 0, 0);
        }
        let (mut rounds, mut restarts) = (0u64, 0u64);
        loop {
            loop {
                rounds += 1;
                let refined = split_by_signature(mrm, &partition, use_impulses);
                if refined.num_blocks() == partition.num_blocks() {
                    break;
                }
                partition = refined;
            }
            if !use_impulses {
                return (partition, rounds, restarts);
            }
            let Some((source, block)) = reference_impulse_violation(mrm, &partition) else {
                return (partition, rounds, restarts);
            };
            restarts += 1;
            partition = reference_split_by_incoming_impulse(mrm, &partition, source, block);
        }
    }

    /// The reference's initial partition: keyed by the relevant
    /// propositions' membership and, with `use_state_rewards`, the reward
    /// bits.
    fn reference_initial_partition(
        mrm: &Mrm,
        relevant_aps: &[String],
        use_state_rewards: bool,
    ) -> Partition {
        let mut keys: HashMap<(Vec<bool>, u64), usize> = HashMap::new();
        let assignment: Vec<usize> = (0..mrm.num_states())
            .map(|s| {
                let aps: Vec<bool> = relevant_aps
                    .iter()
                    .map(|ap| mrm.labeling().has(s, ap))
                    .collect();
                let rho = if use_state_rewards {
                    mrm.state_reward(s).to_bits()
                } else {
                    0
                };
                let next = keys.len();
                *keys.entry((aps, rho)).or_insert(next)
            })
            .collect();
        Partition::from_assignment(&assignment)
    }

    /// The reference's impulse-uniformity check, as `find_impulse_violation`.
    fn reference_impulse_violation(mrm: &Mrm, partition: &Partition) -> Option<(usize, usize)> {
        for s in 0..mrm.num_states() {
            let b = partition.block_of(s);
            let mut per_block: HashMap<usize, u64> = HashMap::new();
            for (t, _) in mrm.ctmc().rates().row(s) {
                let c = partition.block_of(t);
                let v = mrm.impulse_reward(s, t).to_bits();
                if c == b {
                    if v != 0 {
                        return Some((s, b));
                    }
                } else if let Some(&prev) = per_block.get(&c) {
                    if prev != v {
                        return Some((s, c));
                    }
                } else {
                    per_block.insert(c, v);
                }
            }
        }
        None
    }

    /// The reference's restart split, as `split_by_incoming_impulse`.
    fn reference_split_by_incoming_impulse(
        mrm: &Mrm,
        partition: &Partition,
        source: usize,
        block: usize,
    ) -> Partition {
        let mut from_source: HashMap<usize, u64> = HashMap::new();
        for (t, _) in mrm.ctmc().rates().row(source) {
            if partition.block_of(t) == block {
                from_source.insert(t, mrm.impulse_reward(source, t).to_bits());
            }
        }
        let k = partition.num_blocks();
        let mut keys: HashMap<Option<u64>, usize> = HashMap::new();
        let mut assignment = partition.assignment().to_vec();
        for (t, slot) in assignment.iter_mut().enumerate() {
            if *slot == block {
                let next = keys.len();
                *slot = k + *keys.entry(from_source.get(&t).copied()).or_insert(next);
            }
        }
        Partition::from_assignment(&assignment)
    }

    /// One reference round: group states by their current block plus
    /// their per-target-block signature.
    fn split_by_signature(mrm: &Mrm, partition: &Partition, use_impulses: bool) -> Partition {
        #[derive(Hash, PartialEq, Eq)]
        struct Signature {
            block: usize,
            rates: Vec<(usize, u64)>,
            impulses: Vec<(usize, Vec<u64>)>,
        }

        let n = mrm.num_states();
        let k = partition.num_blocks();
        let mut sums = vec![0.0_f64; k];
        let mut touched: Vec<usize> = Vec::new();
        let mut keys: HashMap<Signature, usize> = HashMap::new();
        let assignment: Vec<usize> = (0..n)
            .map(|s| {
                let b = partition.block_of(s);
                let mut impulse_map: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                for (t, r) in mrm.ctmc().rates().row(s) {
                    let c = partition.block_of(t);
                    if c == b {
                        continue;
                    }
                    if sums[c] == 0.0 {
                        touched.push(c);
                    }
                    sums[c] += r;
                    if use_impulses {
                        impulse_map
                            .entry(c)
                            .or_default()
                            .push(mrm.impulse_reward(s, t).to_bits());
                    }
                }
                touched.sort_unstable();
                let rates: Vec<(usize, u64)> =
                    touched.iter().map(|&c| (c, sums[c].to_bits())).collect();
                for &c in &touched {
                    sums[c] = 0.0;
                }
                touched.clear();
                let impulses: Vec<(usize, Vec<u64>)> = impulse_map
                    .into_iter()
                    .map(|(c, mut vs)| {
                        vs.sort_unstable();
                        vs.dedup();
                        (c, vs)
                    })
                    .collect();
                let next = keys.len();
                *keys
                    .entry(Signature {
                        block: b,
                        rates,
                        impulses,
                    })
                    .or_insert(next)
            })
            .collect();
        Partition::from_assignment(&assignment)
    }

    /// The model from `non_uniform_impulses_from_one_state_split_the_target_block`
    /// or, with `intra`, from `intra_block_impulse_forces_a_split`: both
    /// reach the impulse-violation restart.
    fn impulse_restart_model(intra: bool) -> Mrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        if intra {
            b.transition(1, 2, 1.0).transition(2, 1, 1.0);
        }
        b.label(1, "mid").label(2, "mid");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        if intra {
            iota.set(1, 2, 3.0).unwrap();
        } else {
            iota.set(0, 1, 1.0).unwrap();
            iota.set(0, 2, 2.0).unwrap();
        }
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    /// A restart whose split must propagate: state 0 earns different
    /// impulses towards 1 and 2, and the otherwise identical 3 and 4 move
    /// into 1 and 2 respectively, so they separate only once the restart
    /// has split 1 from 2.
    fn restart_propagates_model() -> Mrm {
        let mut b = CtmcBuilder::new(6);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 5, 2.0).transition(2, 5, 2.0);
        b.transition(3, 1, 1.0).transition(4, 2, 1.0);
        b.transition(5, 0, 0.5)
            .transition(5, 3, 0.5)
            .transition(5, 4, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(3, "pre").label(4, "pre");
        b.label(5, "goal");
        let ctmc = b.build().unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 1.0).unwrap();
        iota.set(0, 2, 2.0).unwrap();
        Mrm::new(ctmc, StateRewards::new(vec![0.0; 6]).unwrap(), iota).unwrap()
    }

    /// Two sources whose rates into one block are 0.1, 0.2 and 0.3 in
    /// opposite row orders: `(0.1 + 0.2) + 0.3` and `(0.3 + 0.2) + 0.1`
    /// differ in the last bit, so the bitwise refinement keeps 0 and 1
    /// apart.
    fn interleaved_sums_model() -> Mrm {
        let mut b = CtmcBuilder::new(6);
        b.transition(0, 2, 0.1)
            .transition(0, 3, 0.2)
            .transition(0, 4, 0.3);
        b.transition(1, 2, 0.3)
            .transition(1, 3, 0.2)
            .transition(1, 4, 0.1);
        for t in 2..5 {
            b.transition(t, 5, 1.0);
        }
        b.transition(5, 0, 1.0).transition(5, 1, 1.0);
        b.label(0, "src").label(1, "src");
        for t in 2..5 {
            b.label(t, "mid");
        }
        Mrm::without_rewards(b.build().unwrap())
    }

    /// Round 1 splits `u` (state 1) from `v1..v3` (2..4); round 2 re-signs
    /// its predecessors `b1..b3` (5..7) but not `b4, b5` (8, 9), which
    /// move to `v1`: the dirty group of block `b` outnumbers its clean
    /// one, so the clean members move and the dirty ones keep the id.
    fn dirty_keeper_model() -> Mrm {
        let mut b = CtmcBuilder::new(10);
        b.transition(1, 0, 2.0);
        for v in 2..5 {
            b.transition(v, 0, 1.0);
        }
        for s in 5..8 {
            b.transition(s, 1, 1.0);
        }
        for s in 8..10 {
            b.transition(s, 2, 1.0);
        }
        for s in 1..10 {
            b.transition(0, s, 1.0);
        }
        b.label(0, "goal");
        for t in 1..5 {
            b.label(t, "t");
        }
        for s in 5..10 {
            b.label(s, "b");
        }
        Mrm::without_rewards(b.build().unwrap())
    }

    /// Round 1 moves `a1, a2` (1, 2) out of the block they share with
    /// `b1..b3` (3..5). Only `a1` jumps to `b1`, inside the old block, so
    /// only the newly visible rate separates it from `a2`: nothing `a1`
    /// reaches moved.
    fn left_behind_successor_model() -> Mrm {
        let mut b = CtmcBuilder::new(6);
        b.transition(1, 0, 2.0).transition(2, 0, 2.0);
        for s in 3..6 {
            b.transition(s, 0, 1.0);
        }
        b.transition(1, 3, 1.0);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.label(0, "goal");
        for s in 1..6 {
            b.label(s, "x");
        }
        Mrm::without_rewards(b.build().unwrap())
    }

    #[test]
    fn refinement_keeps_row_order_sums_bitwise() {
        let m = interleaved_sums_model();
        assert_ne!((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1);
        let preds = m.ctmc().rates().transpose();
        let (p, _) = refine(&m, &aps_of(&["mid", "src"]), Some(&preds), false, false);
        assert_ne!(p.block_of(0), p.block_of(1));
        assert_eq!(p.block_of(2), p.block_of(4));
    }

    #[test]
    fn a_dirty_group_can_keep_the_block_id() {
        let m = dirty_keeper_model();
        let preds = m.ctmc().rates().transpose();
        let initial = initial_blocks(&m, &aps_of(&["b", "goal", "t"]), false);
        let mut blocks = Blocks::new(initial);
        for s in 0..m.num_states() {
            blocks.mark(s);
        }
        let mut scratch = Scratch {
            sums: vec![0.0; m.num_states()],
            ..Scratch::default()
        };
        // Round 1: `u` leaves `v1..v3`.
        round(&m, &mut blocks, false, &mut scratch);
        assert_eq!(scratch.moved, vec![(1, blocks.block_of[2])]);
        blocks.mark_after_moves(&m, &preds, &scratch.moved);
        // Round 2: `b1..b3` are dirty, `b4, b5` clean, and the clean pair
        // is the group that moves.
        round(&m, &mut blocks, false, &mut scratch);
        let b = blocks.block_of[5];
        let mut moved = scratch.moved.clone();
        moved.sort_unstable();
        assert_eq!(moved, vec![(8, b), (9, b)]);
        assert!((5..8).all(|s| blocks.block_of[s] == b));
    }

    #[test]
    fn a_successor_left_in_the_old_block_splits_a_moved_pair() {
        let m = left_behind_successor_model();
        let preds = m.ctmc().rates().transpose();
        let (p, _) = refine(&m, &aps_of(&["x"]), Some(&preds), false, false);
        assert_ne!(p.block_of(1), p.block_of(2));
        assert_eq!(p.block_of(3), p.block_of(5));
    }

    fn aps_of(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn incremental_refinement_matches_full_re_signing() {
        use mrmc_models::cluster::{cluster, ClusterConfig};
        use mrmc_models::random::{random_mrm, RandomMrmConfig};
        use mrmc_models::wavelan::wavelan;

        let singles = |m: &Mrm| -> Vec<Vec<String>> {
            let mut sets = vec![Vec::new()];
            sets.extend(
                m.labeling()
                    .declared()
                    .into_iter()
                    .map(|ap| vec![ap.to_owned()]),
            );
            sets
        };
        let aps = aps_of;
        let mut corpus: Vec<(String, Mrm, Vec<Vec<String>>)> = Vec::new();
        let m = tmr(&TmrConfig::classic());
        corpus.push(("tmr".into(), m.clone(), singles(&m)));
        let m = wavelan();
        corpus.push(("wavelan".into(), m.clone(), singles(&m)));
        for n in [4, 8] {
            corpus.push((
                format!("cluster{n}"),
                cluster(&ClusterConfig::new(n)),
                vec![
                    Vec::new(),
                    aps(&["premium"]),
                    aps(&["down"]),
                    aps(&["backbone_up"]),
                    aps(&["minimum", "premium"]),
                ],
            ));
        }
        // The five `(Φ, Ψ)` proposition sets of the cluster-analysis
        // benchmark's unbounded untils.
        corpus.push((
            "cluster16".into(),
            cluster(&ClusterConfig::new(16)),
            vec![
                aps(&["backbone_up", "down"]),
                aps(&["backbone_up", "premium"]),
                aps(&["backbone_up", "minimum"]),
                aps(&["backbone_up", "premium"]),
                aps(&["backbone_up", "down", "premium"]),
            ],
        ));
        for (name, m) in [
            ("interleaved_sums", interleaved_sums_model()),
            ("dirty_keeper", dirty_keeper_model()),
            ("left_behind_successor", left_behind_successor_model()),
        ] {
            let sets = singles(&m);
            corpus.push((name.into(), m, sets));
        }
        for seed in 0..8 {
            let config = RandomMrmConfig {
                states: 20 + 10 * seed as usize,
                // Few rate values, so rate signatures collide and blocks
                // survive several rounds.
                max_rate: 1.0,
                ..RandomMrmConfig::default()
            };
            corpus.push((
                format!("random{seed}"),
                random_mrm(seed, &config),
                vec![Vec::new(), aps(&["goal"])],
            ));
        }
        corpus.push((
            "restart".into(),
            impulse_restart_model(false),
            singles(&impulse_restart_model(false)),
        ));
        corpus.push((
            "restart_propagates".into(),
            restart_propagates_model(),
            singles(&restart_propagates_model()),
        ));
        corpus.push((
            "restart_intra".into(),
            impulse_restart_model(true),
            singles(&impulse_restart_model(true)),
        ));

        let mut restarts = 0;
        for (name, m, ap_sets) in &corpus {
            let preds = m.ctmc().rates().transpose();
            for relevant in ap_sets {
                for (rates, state_rewards, impulses) in [
                    (false, false, false),
                    (true, false, false),
                    (true, true, false),
                    (true, true, true),
                ] {
                    let (expected, expected_rounds, r) =
                        reference_refine(m, relevant, rates, state_rewards, impulses);
                    restarts += r;
                    let got = refine(
                        m,
                        relevant,
                        rates.then_some(&preds),
                        state_rewards,
                        impulses,
                    );
                    assert_eq!(
                        got,
                        (expected, expected_rounds),
                        "{name} {relevant:?} rates={rates} rewards={state_rewards} impulses={impulses}"
                    );
                }
            }
        }
        assert!(
            restarts > 0,
            "no case reached the impulse-violation restart"
        );
    }

    #[test]
    fn analysis_inputs_ignore_everything_analyze_does_not_read() {
        let inputs = |s: &str| AnalysisInputs::of(&parse(s));
        // Thresholds, comparison operators and repeated propositions are
        // invisible to the analysis.
        assert_eq!(inputs("S(> 0.9) (premium)"), inputs("S(< 0.5) (premium)"));
        assert_eq!(
            inputs("P(>= 0.5) [a U[0,1] b]"),
            inputs("P(< 0.1) [b U[0,7] (a && b)]")
        );
        // The proposition set, the rate flag and a nontrivial reward
        // bound are not.
        assert_ne!(inputs("S(> 0.9) (premium)"), inputs("S(> 0.9) (minimum)"));
        assert_ne!(inputs("premium"), inputs("S(> 0.9) (premium)"));
        assert_ne!(
            inputs("P(>= 0.5) [a U[0,1] b]"),
            inputs("P(>= 0.5) [a U[0,1][0,2] b]")
        );
    }

    #[test]
    fn certificate_errors_display() {
        for e in [
            CertificateError::PartitionSize {
                states: 4,
                partitioned: 3,
            },
            CertificateError::QuotientSize {
                blocks: 2,
                quotient_states: 3,
            },
            CertificateError::UnexpectedRewards,
            CertificateError::LabelMismatch {
                state: 1,
                ap: "up".into(),
            },
            CertificateError::RateMismatch { state: 1, block: 0 },
            CertificateError::StateRewardMismatch { state: 2 },
            CertificateError::ImpulseMismatch { from: 0, to: 1 },
            CertificateError::IntraBlockImpulse { from: 0, to: 1 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
