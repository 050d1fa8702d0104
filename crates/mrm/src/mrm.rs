//! The Markov reward model `M = ((S, R, Label), ρ, ι)` (Definition 3.1).

use mrmc_ctmc::{Ctmc, Labeling};

use crate::error::MrmError;
use crate::rewards::{ImpulseRewards, StateRewards};

/// A Markov reward model: a labeled CTMC augmented with a state reward
/// structure `ρ` and an impulse reward structure `ι`.
///
/// Invariants enforced at construction:
///
/// * `ρ` covers exactly the chain's states and is non-negative;
/// * `ι` is non-negative and mentions only existing states;
/// * `ι(s, s) = 0` whenever `R(s, s) > 0` (Definition 3.1 forbids impulse
///   rewards on self-loops, since a self-transition is indistinguishable
///   from continued residence).
#[derive(Debug, Clone, PartialEq)]
pub struct Mrm {
    ctmc: Ctmc,
    state_rewards: StateRewards,
    impulse_rewards: ImpulseRewards,
}

impl Mrm {
    /// Assemble and validate a reward model.
    ///
    /// # Errors
    ///
    /// * [`MrmError::RewardSizeMismatch`] — `ρ` or `ι` refers to states the
    ///   chain does not have;
    /// * [`MrmError::SelfLoopImpulse`] — a non-zero `ι(s, s)` on a state with
    ///   a positive self-loop rate.
    pub fn new(
        ctmc: Ctmc,
        state_rewards: StateRewards,
        impulse_rewards: ImpulseRewards,
    ) -> Result<Self, MrmError> {
        let n = ctmc.num_states();
        if state_rewards.len() != n {
            return Err(MrmError::RewardSizeMismatch {
                states: n,
                rewarded: state_rewards.len(),
            });
        }
        if impulse_rewards.min_states() > n {
            return Err(MrmError::RewardSizeMismatch {
                states: n,
                rewarded: impulse_rewards.min_states(),
            });
        }
        for (from, to, value) in impulse_rewards.iter() {
            if from == to && ctmc.rates().get(from, to) > 0.0 {
                return Err(MrmError::SelfLoopImpulse { state: from, value });
            }
        }
        Ok(Mrm {
            ctmc,
            state_rewards,
            impulse_rewards,
        })
    }

    /// A reward-free model (all rewards zero) over the given chain.
    pub fn without_rewards(ctmc: Ctmc) -> Self {
        let n = ctmc.num_states();
        Mrm {
            ctmc,
            state_rewards: StateRewards::zero(n),
            impulse_rewards: ImpulseRewards::new(),
        }
    }

    /// The underlying labeled CTMC.
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The labeling of the underlying chain.
    pub fn labeling(&self) -> &Labeling {
        self.ctmc.labeling()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.ctmc.num_states()
    }

    /// The state reward structure `ρ`.
    pub fn state_rewards(&self) -> &StateRewards {
        &self.state_rewards
    }

    /// The impulse reward structure `ι`.
    pub fn impulse_rewards(&self) -> &ImpulseRewards {
        &self.impulse_rewards
    }

    /// `ρ(state)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn state_reward(&self, state: usize) -> f64 {
        self.state_rewards.get(state)
    }

    /// `ι(from, to)`.
    pub fn impulse_reward(&self, from: usize, to: usize) -> f64 {
        self.impulse_rewards.get(from, to)
    }

    /// `true` when the model carries no rewards at all (both structures
    /// zero); such models reduce to plain CSL model checking.
    pub fn is_reward_free(&self) -> bool {
        self.state_rewards.is_zero() && self.impulse_rewards.is_empty()
    }

    /// Decompose into parts (chain, `ρ`, `ι`), e.g. for transformation.
    pub fn into_parts(self) -> (Ctmc, StateRewards, ImpulseRewards) {
        (self.ctmc, self.state_rewards, self.impulse_rewards)
    }
}

#[cfg(test)]
pub(crate) mod test_models {
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    /// The WaveLAN modem MRM of Example 3.1 (states 0..=4 for 1..=5),
    /// with the rates of Example 4.2. Rewards in mW / mJ.
    pub fn wavelan() -> Mrm {
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
        b.label(3, "receive").label(3, "busy");
        b.label(4, "transmit").label(4, "busy");
        let ctmc = b.build().unwrap();

        let rho = StateRewards::new(vec![0.0, 80.0, 1319.0, 1675.0, 1425.0]).unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 1, 0.02).unwrap();
        iota.set(1, 2, 0.32975).unwrap();
        iota.set(2, 3, 0.42545).unwrap();
        iota.set(2, 4, 0.36195).unwrap();
        Mrm::new(ctmc, rho, iota).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::test_models::wavelan;
    use super::*;
    use mrmc_ctmc::CtmcBuilder;

    #[test]
    fn wavelan_reward_structure() {
        let m = wavelan();
        assert_eq!(m.num_states(), 5);
        assert_eq!(m.state_reward(2), 1319.0);
        assert_eq!(m.impulse_reward(2, 3), 0.42545);
        assert_eq!(m.impulse_reward(3, 2), 0.0);
        assert!(!m.is_reward_free());
        assert!(m.labeling().has(3, "busy"));
    }

    #[test]
    fn self_loop_impulse_rejected() {
        let mut b = CtmcBuilder::new(1);
        b.transition(0, 0, 1.0);
        let ctmc = b.build().unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 0, 5.0).unwrap();
        assert!(matches!(
            Mrm::new(ctmc, StateRewards::zero(1), iota),
            Err(MrmError::SelfLoopImpulse { state: 0, .. })
        ));
    }

    #[test]
    fn self_loop_impulse_allowed_without_self_loop_rate() {
        // ι(s, s) on a pair with R(s, s) = 0 is irrelevant and accepted.
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        let mut iota = ImpulseRewards::new();
        iota.set(0, 0, 5.0).unwrap();
        assert!(Mrm::new(ctmc, StateRewards::zero(2), iota).is_ok());
    }

    #[test]
    fn reward_size_mismatch_rejected() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let ctmc = b.build().unwrap();
        assert!(matches!(
            Mrm::new(ctmc.clone(), StateRewards::zero(3), ImpulseRewards::new()),
            Err(MrmError::RewardSizeMismatch { .. })
        ));
        let mut iota = ImpulseRewards::new();
        iota.set(5, 6, 1.0).unwrap();
        assert!(matches!(
            Mrm::new(ctmc, StateRewards::zero(2), iota),
            Err(MrmError::RewardSizeMismatch { .. })
        ));
    }

    #[test]
    fn without_rewards_is_reward_free() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0);
        let m = Mrm::without_rewards(b.build().unwrap());
        assert!(m.is_reward_free());
        assert_eq!(m.state_reward(0), 0.0);
    }

    #[test]
    fn into_parts_roundtrip() {
        let m = wavelan();
        let states = m.num_states();
        let (c, r, i) = m.into_parts();
        let rebuilt = Mrm::new(c, r, i).unwrap();
        assert_eq!(rebuilt.num_states(), states);
    }
}
