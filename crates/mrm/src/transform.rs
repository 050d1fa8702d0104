//! Model transformations: the `M[Φ]` make-absorbing transformation
//! (Definition 4.1) and the lumping quotient `M/∼`.
//!
//! For `M[Φ]`, all Φ-states become absorbing and reward-free: their
//! outgoing rates, state rewards, and outgoing impulse rewards are set to
//! zero. The transformation is idempotent and composes as
//! `M[Φ][Ψ] = M[Φ ∨ Ψ]`.
//!
//! The quotient collapses each block of a [`Partition`] into one state;
//! see [`quotient`] for the exact construction. The quotient is purely
//! mechanical — *whether* a partition is a valid lumping is certified
//! separately (the `mrmc-analysis` crate's lumpability analysis and its
//! certificate verifier).

use mrmc_ctmc::{Ctmc, CtmcBuilder};

use crate::error::MrmError;
use crate::mrm::Mrm;
use crate::partition::Partition;
use crate::rewards::{ImpulseRewards, StateRewards};

/// Produce `M[Φ]` for the Φ-states given by the characteristic vector
/// `absorb`.
///
/// # Errors
///
/// [`MrmError::RewardSizeMismatch`] when `absorb.len()` differs from the
/// number of states; reconstruction errors are propagated (they indicate a
/// bug rather than bad input, since the source model already validated).
pub fn make_absorbing(mrm: &Mrm, absorb: &[bool]) -> Result<Mrm, MrmError> {
    let n = mrm.num_states();
    if absorb.len() != n {
        return Err(MrmError::RewardSizeMismatch {
            states: n,
            rewarded: absorb.len(),
        });
    }

    let mut b = CtmcBuilder::new(n);
    #[expect(clippy::needless_range_loop, reason = "s also indexes the rate matrix")]
    for s in 0..n {
        if absorb[s] {
            continue;
        }
        for (t, r) in mrm.ctmc().rates().row(s) {
            b.transition(s, t, r);
        }
    }
    for s in 0..n {
        for ap in mrm.labeling().of_state(s) {
            b.label(s, ap);
        }
    }
    let ctmc: Ctmc = b.build()?;

    let rho = StateRewards::new(
        (0..n)
            .map(|s| if absorb[s] { 0.0 } else { mrm.state_reward(s) })
            .collect(),
    )?;
    let mut iota = ImpulseRewards::new();
    for (from, to, v) in mrm.impulse_rewards().iter() {
        if !absorb[from] {
            iota.set(from, to, v)?;
        }
    }
    Mrm::new(ctmc, rho, iota)
}

/// The quotient `M/∼` collapsing each partition block into one state.
///
/// Per block `B` with representative `rep(B)` (the lowest member):
///
/// * **rates** — `R̂(B, C) = Σ_{t ∈ C} R(rep(B), t)` for every block
///   `C ≠ B`, summed in the representative's row order (so the sums are
///   bit-reproducible); intra-block transitions are dropped — for an
///   ordinarily lumpable partition they only re-randomize inside the
///   block and do not affect the aggregated law;
/// * **labels** — a block keeps exactly the propositions common to *all*
///   its members ([`Labeling::lumped`](mrmc_ctmc::Labeling::lumped));
///   the declared vocabulary is preserved;
/// * **state rewards** — the representative's reward;
/// * **impulse rewards** — the representative's outgoing impulses, mapped
///   to block pairs (intra-block impulses are dropped; a valid lumping
///   certificate requires them to be zero anyway).
///
/// Per-state results computed on the quotient lift back to the original
/// state space with [`Partition::lift`].
///
/// # Errors
///
/// [`MrmError::PartitionSizeMismatch`] when the partition does not cover
/// the state space; reconstruction errors are propagated.
pub fn quotient(mrm: &Mrm, partition: &Partition) -> Result<Mrm, MrmError> {
    let ctmc = quotient_chain(mrm, partition)?;
    let k = partition.num_blocks();
    let rho = StateRewards::new(
        (0..k)
            .map(|block| mrm.state_reward(partition.representative(block)))
            .collect(),
    )?;
    let mut iota = ImpulseRewards::new();
    for (from, to, v) in mrm.impulse_rewards().iter() {
        let fb = partition.block_of(from);
        if from == partition.representative(fb) && partition.block_of(to) != fb {
            iota.set(fb, partition.block_of(to), v)?;
        }
    }
    Mrm::new(ctmc, rho, iota)
}

/// The [`quotient`] of `mrm`'s labeled chain alone, with every reward
/// zero: equal to `quotient(&Mrm::without_rewards(mrm.ctmc().clone()),
/// partition)` without copying the chain. This is the quotient a lumping
/// that cannot observe rewards certifies.
///
/// # Errors
///
/// As for [`quotient`].
pub fn quotient_reward_free(mrm: &Mrm, partition: &Partition) -> Result<Mrm, MrmError> {
    Ok(Mrm::without_rewards(quotient_chain(mrm, partition)?))
}

/// The rates and labels of [`quotient`].
fn quotient_chain(mrm: &Mrm, partition: &Partition) -> Result<Ctmc, MrmError> {
    let n = mrm.num_states();
    if partition.num_states() != n {
        return Err(MrmError::PartitionSizeMismatch {
            states: n,
            partitioned: partition.num_states(),
        });
    }
    let k = partition.num_blocks();

    let mut b = CtmcBuilder::new(k);
    let mut sums = vec![0.0_f64; k];
    let mut touched: Vec<usize> = Vec::new();
    for block in 0..k {
        let rep = partition.representative(block);
        for (t, r) in mrm.ctmc().rates().row(rep) {
            let c = partition.block_of(t);
            if c == block {
                continue;
            }
            if sums[c] == 0.0 {
                touched.push(c);
            }
            sums[c] += r;
        }
        touched.sort_unstable();
        for &c in &touched {
            b.transition(block, c, sums[c]);
            sums[c] = 0.0;
        }
        touched.clear();
    }
    let mut ctmc = b.build()?;
    *ctmc.labeling_mut() = mrm.labeling().lumped(partition.assignment(), k);
    Ok(ctmc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrm::test_models::wavelan;

    #[test]
    fn example_4_1_busy_states_absorbing() {
        let m = wavelan();
        let busy = m.labeling().states_with("busy");
        let a = make_absorbing(&m, &busy).unwrap();

        // busy-states 3 and 4 lose all outgoing rates and rewards.
        assert!(a.ctmc().is_absorbing(3));
        assert!(a.ctmc().is_absorbing(4));
        assert_eq!(a.state_reward(3), 0.0);
        assert_eq!(a.state_reward(4), 0.0);
        // Other states keep everything.
        assert_eq!(a.ctmc().rates().get(2, 3), 1.5);
        assert_eq!(a.state_reward(2), 1319.0);
        assert_eq!(a.impulse_reward(2, 3), 0.42545);
        // Labels survive.
        assert!(a.labeling().has(3, "busy"));
    }

    #[test]
    fn transformation_is_idempotent() {
        let m = wavelan();
        let busy = m.labeling().states_with("busy");
        let once = make_absorbing(&m, &busy).unwrap();
        let twice = make_absorbing(&once, &busy).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn composition_equals_union() {
        // M[Φ][Ψ] = M[Φ ∨ Ψ].
        let m = wavelan();
        let busy = m.labeling().states_with("busy");
        let off = m.labeling().states_with("off");
        let union: Vec<bool> = busy.iter().zip(&off).map(|(&a, &b)| a || b).collect();

        let sequential = make_absorbing(&make_absorbing(&m, &busy).unwrap(), &off).unwrap();
        let joint = make_absorbing(&m, &union).unwrap();
        assert_eq!(sequential, joint);
    }

    #[test]
    fn absorbing_nothing_changes_nothing_but_impulses_of_removed_rows() {
        let m = wavelan();
        let none = vec![false; m.num_states()];
        let a = make_absorbing(&m, &none).unwrap();
        assert_eq!(a, m);
    }

    #[test]
    fn absorbing_everything_zeroes_the_model() {
        let m = wavelan();
        let all = vec![true; m.num_states()];
        let a = make_absorbing(&m, &all).unwrap();
        for s in 0..a.num_states() {
            assert!(a.ctmc().is_absorbing(s));
            assert_eq!(a.state_reward(s), 0.0);
        }
        assert!(a.impulse_rewards().is_empty());
    }

    #[test]
    fn wrong_length_rejected() {
        let m = wavelan();
        assert!(matches!(
            make_absorbing(&m, &[true]),
            Err(MrmError::RewardSizeMismatch { .. })
        ));
    }

    /// A hand-lumpable diamond: 0 → {1, 2} → 3 → 0 where the middle states
    /// agree on rates, labels, rewards and impulses.
    fn diamond() -> Mrm {
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 1.0).transition(0, 2, 1.0);
        b.transition(1, 3, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 0, 0.5);
        b.label(1, "mid").label(2, "mid");
        b.label(1, "left");
        b.label(3, "goal");
        let ctmc = b.build().unwrap();
        let rho = StateRewards::new(vec![0.0, 5.0, 5.0, 1.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(1, 3, 0.5).unwrap();
        iota.set(2, 3, 0.5).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }

    #[test]
    fn quotient_collapses_a_lumpable_block() {
        let m = diamond();
        let p = Partition::from_assignment(&[0, 1, 1, 2]);
        let q = quotient(&m, &p).unwrap();
        assert_eq!(q.num_states(), 3);
        // Rates aggregate into the merged block and out of its rep.
        assert_eq!(q.ctmc().rates().get(0, 1), 2.0);
        assert_eq!(q.ctmc().rates().get(1, 2), 2.0);
        assert_eq!(q.ctmc().rates().get(2, 0), 0.5);
        // Only block-uniform labels survive; `left` held in state 1 alone.
        assert!(q.labeling().has(1, "mid"));
        assert!(!q.labeling().has(1, "left"));
        assert!(q.labeling().has(2, "goal"));
        // Declared vocabulary is preserved even for dropped labels.
        assert!(q.labeling().declared().contains(&"left"));
        // Rewards come from the representative.
        assert_eq!(q.state_reward(1), 5.0);
        assert_eq!(q.impulse_reward(1, 2), 0.5);
    }

    #[test]
    fn quotient_under_identity_is_the_model_without_self_loops() {
        let m = diamond();
        let q = quotient(&m, &Partition::identity(4)).unwrap();
        assert_eq!(q, m);
    }

    #[test]
    fn quotient_drops_intra_block_transitions() {
        // Merge 1 and 3: the 1 → 3 transition (and its impulse) vanish.
        let m = diamond();
        let p = Partition::from_assignment(&[0, 1, 2, 1]);
        let q = quotient(&m, &p).unwrap();
        assert_eq!(q.num_states(), 3);
        assert_eq!(q.ctmc().rates().get(1, 1), 0.0);
        assert_eq!(q.impulse_reward(1, 1), 0.0);
        // The representative's inter-block structure stays: 1 → 0 is absent
        // but 3 → 0 belongs to the non-representative member, so the merged
        // block keeps only rep state 1's outgoing rows.
        assert_eq!(q.ctmc().rates().get(1, 0), 0.0);
    }

    #[test]
    fn quotient_wrong_size_rejected() {
        let m = diamond();
        assert!(matches!(
            quotient(&m, &Partition::identity(2)),
            Err(MrmError::PartitionSizeMismatch { states: 4, .. })
        ));
    }

    #[test]
    fn incoming_impulses_to_absorbed_states_survive() {
        // Only *outgoing* rewards of absorbed states are cleared: the impulse
        // earned on entering an absorbed state still counts (Theorem 4.1
        // relies on this).
        let m = wavelan();
        let busy = m.labeling().states_with("busy");
        let a = make_absorbing(&m, &busy).unwrap();
        assert_eq!(a.impulse_reward(2, 3), 0.42545);
        assert_eq!(a.impulse_reward(2, 4), 0.36195);
    }
}
