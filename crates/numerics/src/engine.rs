//! The until engine and Algorithm 4.5's choice of method.
//!
//! Which method evaluates `Φ U^I_J Ψ` depends only on the shape of `I`
//! and `J` and on the configured engine. [`UntilEngine::route`] makes that
//! decision once; the checker's dispatch, the pre-flight's bound-support
//! and cost passes and the qualitative-slicing lint all read its
//! [`UntilRoute`] instead of testing the bounds themselves.

use mrmc_csrl::Interval;

use crate::discretization::DiscretizationOptions;
use crate::monte_carlo::SimulationOptions;
use crate::uniformization::UniformOptions;

/// Which engine evaluates time- and reward-bounded until formulas
/// (the `[u|d] = f` switch of the thesis tool's command line).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UntilEngine {
    /// Uniformization with level-synchronous, merged path generation and
    /// the given truncation probability `w` (Section 4.6). The tool's
    /// default with `w = 1e-8`.
    Uniformization(UniformOptions),
    /// Discretization with the given step `d` (Section 4.5).
    Discretization(DiscretizationOptions),
    /// Monte-Carlo simulation (beyond the paper): a statistical *estimate*
    /// with no deterministic error bound — probability-bound verdicts near
    /// the bound are unreliable. Intended for validation and for models too
    /// large for the exact engines.
    Simulation(SimulationOptions),
}

impl UntilEngine {
    /// Uniformization with truncation probability `w`.
    pub fn uniformization(w: f64) -> Self {
        UntilEngine::Uniformization(UniformOptions::new().with_truncation(w))
    }

    /// Discretization with step `d`.
    pub fn discretization(d: f64) -> Self {
        UntilEngine::Discretization(DiscretizationOptions::with_step(d))
    }

    /// Monte-Carlo simulation with the given sample count.
    pub fn simulation(samples: u64) -> Self {
        UntilEngine::Simulation(SimulationOptions::with_samples(samples))
    }

    /// The method that evaluates `Φ U^I_J Ψ` (`I = time`, `J = reward`)
    /// under this engine, following the property classes of Algorithm 4.5.
    ///
    /// A non-zero lower bound has an exact method only when `J` is
    /// trivial (the two-phase decomposition, `[Bai03]`); otherwise only the
    /// simulation engine, whose trajectory semantics evaluate any closed
    /// interval, handles it, and only for a finite `sup I`. A bounded
    /// reward with unbounded time has no method at all (Chapter 6).
    pub fn route(&self, time: &Interval, reward: &Interval) -> UntilRoute {
        if time.lo() != 0.0 || reward.lo() != 0.0 {
            return match (self, reward.is_trivial(), time.is_upper_unbounded()) {
                (_, true, true) => UntilRoute::TimeFrom { t1: time.lo() },
                (_, true, false) => UntilRoute::TimeInterval {
                    t1: time.lo(),
                    t2: time.hi(),
                },
                (UntilEngine::Simulation(sopts), false, false) => UntilRoute::Simulated(*sopts),
                _ if reward.lo() != 0.0 => UntilRoute::Unsupported(Unsupported::RewardLowerBound),
                _ => UntilRoute::Unsupported(Unsupported::TimeLowerBoundWithReward),
            };
        }
        match (time.is_upper_unbounded(), reward.is_upper_unbounded()) {
            (true, true) => UntilRoute::Reachability,
            (true, false) => UntilRoute::Unsupported(Unsupported::UnboundedTimeWithReward),
            (false, true) => UntilRoute::TimeBounded { t: time.hi() },
            (false, false) => UntilRoute::RewardBounded {
                t: time.hi(),
                r: reward.hi(),
            },
        }
    }
}

impl Default for UntilEngine {
    fn default() -> Self {
        UntilEngine::Uniformization(UniformOptions::new())
    }
}

/// How one until operator is evaluated: the outcome of
/// [`UntilEngine::route`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UntilRoute {
    /// P0, `I = J = [0, ∞)`: unbounded reachability over the embedded
    /// DTMC (Eq. 3.8).
    Reachability,
    /// P1, `I = [0, t]`, `J = [0, ∞)`: Fox–Glynn uniformization
    /// ([`baseline::until_time_bounded`](crate::baseline::until_time_bounded)).
    TimeBounded {
        /// `sup I`.
        t: f64,
    },
    /// `I = [t1, t2]` with `t1 > 0`, `J = [0, ∞)`: two Fox–Glynn phases
    /// ([`baseline::until_time_interval`](crate::baseline::until_time_interval)).
    TimeInterval {
        /// `inf I`.
        t1: f64,
        /// `sup I`.
        t2: f64,
    },
    /// `I = [t1, ∞)` with `t1 > 0`, `J = [0, ∞)`: unbounded reachability
    /// as phase 2, the Φ-constrained backward transient as phase 1.
    TimeFrom {
        /// `inf I`.
        t1: f64,
    },
    /// P2, `I = [0, t]`, `J = [0, r]`: the configured engine.
    RewardBounded {
        /// `sup I`.
        t: f64,
        /// `sup J`.
        r: f64,
    },
    /// A lower bound combined with a reward bound and a finite `sup I`
    /// under the simulation engine, whose options it carries:
    /// trajectory-level estimation of the general intervals.
    Simulated(SimulationOptions),
    /// No engine evaluates this bound shape.
    Unsupported(Unsupported),
}

impl UntilRoute {
    /// Whether the checker slices this operator with a qualitative
    /// certificate before the engine runs: P0 and P2 only.
    pub fn slices(&self) -> bool {
        matches!(
            self,
            UntilRoute::Reachability | UntilRoute::RewardBounded { .. }
        )
    }
}

/// Why [`UntilEngine::route`] found no method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unsupported {
    /// `inf J > 0` outside the simulation engine, or with `sup I = ∞`.
    RewardLowerBound,
    /// `inf I > 0` with a non-trivial `J` outside the simulation engine,
    /// or with `sup I = ∞`.
    TimeLowerBoundWithReward,
    /// `sup I = ∞` with `sup J < ∞` (Chapter 6).
    UnboundedTimeWithReward,
}

impl Unsupported {
    /// The checker's one-line description of the unsupported shape.
    pub fn what(self) -> &'static str {
        match self {
            Unsupported::RewardLowerBound => {
                "reward lower bound (only the simulation engine supports it)"
            }
            Unsupported::TimeLowerBoundWithReward => {
                "time lower bound combined with a reward bound (only the simulation engine supports it)"
            }
            Unsupported::UnboundedTimeWithReward => "unbounded time with a bounded reward",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn routes_follow_algorithm_4_5() {
        let u = UntilEngine::default();
        let s = UntilEngine::simulation(100);
        let inf = f64::INFINITY;
        let all = Interval::unbounded();
        assert_eq!(u.route(&all, &all), UntilRoute::Reachability);
        assert_eq!(
            u.route(&iv(0.0, 3.0), &all),
            UntilRoute::TimeBounded { t: 3.0 }
        );
        assert_eq!(
            u.route(&iv(1.0, 3.0), &all),
            UntilRoute::TimeInterval { t1: 1.0, t2: 3.0 }
        );
        assert_eq!(
            u.route(&iv(2.0, 2.0), &all),
            UntilRoute::TimeInterval { t1: 2.0, t2: 2.0 }
        );
        assert_eq!(
            u.route(&iv(1.0, inf), &all),
            UntilRoute::TimeFrom { t1: 1.0 }
        );
        assert_eq!(
            u.route(&iv(0.0, 3.0), &iv(0.0, 0.0)),
            UntilRoute::RewardBounded { t: 3.0, r: 0.0 }
        );
        assert_eq!(
            u.route(&all, &iv(0.0, 5.0)),
            UntilRoute::Unsupported(Unsupported::UnboundedTimeWithReward)
        );
        assert_eq!(
            s.route(&all, &iv(0.0, 5.0)),
            UntilRoute::Unsupported(Unsupported::UnboundedTimeWithReward)
        );
        assert_eq!(
            u.route(&iv(1.0, 3.0), &iv(0.0, 5.0)),
            UntilRoute::Unsupported(Unsupported::TimeLowerBoundWithReward)
        );
        assert_eq!(
            u.route(&iv(0.0, 3.0), &iv(1.0, 5.0)),
            UntilRoute::Unsupported(Unsupported::RewardLowerBound)
        );
        let simulated = UntilRoute::Simulated(SimulationOptions::with_samples(100));
        assert_eq!(s.route(&iv(1.0, 3.0), &iv(0.0, 5.0)), simulated);
        assert_eq!(s.route(&iv(0.0, 3.0), &iv(1.0, inf)), simulated);
        assert_eq!(
            s.route(&iv(1.0, inf), &iv(1.0, 5.0)),
            UntilRoute::Unsupported(Unsupported::RewardLowerBound)
        );
    }

    #[test]
    fn only_p0_and_p2_slice() {
        let u = UntilEngine::default();
        let all = Interval::unbounded();
        assert!(u.route(&all, &all).slices());
        assert!(u.route(&iv(0.0, 1.0), &iv(0.0, 1.0)).slices());
        assert!(!u.route(&iv(0.0, 1.0), &all).slices());
        assert!(!u.route(&iv(1.0, 2.0), &all).slices());
        assert!(!u.route(&iv(1.0, f64::INFINITY), &all).slices());
        let s = UntilEngine::simulation(100);
        assert!(!s.route(&iv(1.0, 2.0), &iv(0.0, 1.0)).slices());
    }
}
