//! The state and impulse reward structures of Definition 3.1.

use std::collections::BTreeMap;

use crate::error::MrmError;

/// The state reward structure `ρ : S → ℝ≥0`.
///
/// Residing `t` time units in state `s` earns `ρ(s)·t`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateRewards {
    rates: Vec<f64>,
}

impl StateRewards {
    /// Wrap a per-state reward vector.
    ///
    /// # Errors
    ///
    /// [`MrmError::InvalidStateReward`] for negative or non-finite entries.
    pub fn new(rates: Vec<f64>) -> Result<Self, MrmError> {
        for (state, &value) in rates.iter().enumerate() {
            if !(value.is_finite() && value >= 0.0) {
                return Err(MrmError::InvalidStateReward { state, value });
            }
        }
        Ok(StateRewards { rates })
    }

    /// All-zero rewards over `num_states` states.
    pub fn zero(num_states: usize) -> Self {
        StateRewards {
            rates: vec![0.0; num_states],
        }
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `true` when no states are covered.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// `ρ(state)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn get(&self, state: usize) -> f64 {
        self.rates[state]
    }

    /// The underlying per-state reward slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.rates
    }

    /// `true` when every reward is zero.
    pub fn is_zero(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// `true` when every reward is an integer (required by the
    /// discretization engine after scaling, Section 4.4.1).
    pub fn all_integer(&self) -> bool {
        self.rates.iter().all(|&r| r.fract() == 0.0)
    }
}

/// The impulse reward structure `ι : S × S → ℝ≥0`.
///
/// Taking the transition `s → s'` earns `ι(s, s')` instantaneously. Pairs
/// never set default to zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImpulseRewards {
    map: BTreeMap<(usize, usize), f64>,
}

impl ImpulseRewards {
    /// An empty (all-zero) impulse structure.
    pub fn new() -> Self {
        ImpulseRewards::default()
    }

    /// Set `ι(from, to) = value`.
    ///
    /// Setting a value of zero removes the entry.
    ///
    /// # Errors
    ///
    /// [`MrmError::InvalidImpulseReward`] for negative or non-finite values.
    pub fn set(&mut self, from: usize, to: usize, value: f64) -> Result<&mut Self, MrmError> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(MrmError::InvalidImpulseReward { from, to, value });
        }
        if value == 0.0 {
            self.map.remove(&(from, to));
        } else {
            self.map.insert((from, to), value);
        }
        Ok(self)
    }

    /// `ι(from, to)`, zero when unset.
    pub fn get(&self, from: usize, to: usize) -> f64 {
        self.map.get(&(from, to)).copied().unwrap_or(0.0)
    }

    /// Iterate over the non-zero impulses as `(from, to, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.map.iter().map(|(&(f, t), &v)| (f, t, v))
    }

    /// Number of non-zero impulses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when every impulse is zero.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Largest state index mentioned plus one (zero when empty); used for
    /// size validation against a model.
    pub fn min_states(&self) -> usize {
        self.map
            .keys()
            .map(|&(f, t)| f.max(t) + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_rewards_validate() {
        assert!(StateRewards::new(vec![0.0, 1.5, 2.0]).is_ok());
        assert!(matches!(
            StateRewards::new(vec![1.0, -0.5]),
            Err(MrmError::InvalidStateReward { state: 1, .. })
        ));
        assert!(matches!(
            StateRewards::new(vec![f64::INFINITY]),
            Err(MrmError::InvalidStateReward { state: 0, .. })
        ));
    }

    #[test]
    fn zero_and_flags() {
        let z = StateRewards::zero(3);
        assert!(z.is_zero());
        assert!(z.all_integer());
        assert_eq!(z.len(), 3);
        let r = StateRewards::new(vec![1.0, 2.5]).unwrap();
        assert!(!r.is_zero());
        assert!(!r.all_integer());
        assert_eq!(r.as_slice(), &[1.0, 2.5]);
    }

    #[test]
    fn impulse_rewards_set_get() {
        let mut i = ImpulseRewards::new();
        i.set(0, 1, 2.5).unwrap();
        assert_eq!(i.get(0, 1), 2.5);
        assert_eq!(i.get(1, 0), 0.0);
        assert_eq!(i.len(), 1);
        // Overwrite with zero removes.
        i.set(0, 1, 0.0).unwrap();
        assert!(i.is_empty());
    }

    #[test]
    fn impulse_rewards_validate() {
        let mut i = ImpulseRewards::new();
        assert!(matches!(
            i.set(0, 1, -1.0),
            Err(MrmError::InvalidImpulseReward { .. })
        ));
        assert!(matches!(
            i.set(0, 1, f64::NAN),
            Err(MrmError::InvalidImpulseReward { .. })
        ));
    }

    #[test]
    fn iter_and_min_states() {
        let mut i = ImpulseRewards::new();
        i.set(2, 5, 1.0).unwrap();
        i.set(0, 1, 3.0).unwrap();
        let all: Vec<_> = i.iter().collect();
        assert_eq!(all, vec![(0, 1, 3.0), (2, 5, 1.0)]);
        assert_eq!(i.min_states(), 6);
        assert_eq!(ImpulseRewards::new().min_states(), 0);
    }
}
