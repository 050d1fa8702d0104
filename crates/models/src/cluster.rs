//! A dependable cluster of workstations — the classic CSL benchmarking
//! model (two sub-clusters of `N` workstations joined by a switched
//! backbone), here as a Markov reward model with repair costs.
//!
//! This is beyond the thesis' own case studies; it provides a
//! parameterizable state space of `(N+1)² × 8` states for scaling tests
//! and benches.
//!
//! # State space
//!
//! `(left, right, l_switch, r_switch, backbone)` with `left/right ∈ 0..=N`
//! working workstations per side and three binary component conditions,
//! encoded into a single index.
//!
//! # Parameters and rewards
//!
//! Workstations fail per-unit (`ws_failure_rate · working`), switches and
//! the backbone fail at their own rates; one shared repair unit fixes one
//! broken thing at a time with priority backbone → switches → workstations.
//! State rewards model operational cost (higher in degraded states);
//! repairs carry impulse costs.
//!
//! # Labels
//!
//! * `premium` — at least `3N/4` workstations connected and operational;
//! * `minimum` — at least `N/4` connected;
//! * `down` — below minimum;
//! * `backbone_up`, and `{k}left`/`{k}right` per working count.

use mrmc_ctmc::CtmcBuilder;
use mrmc_mrm::{ImpulseRewards, Mrm, StateRewards};

/// Parameters of the cluster model.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Workstations per sub-cluster (`N ≥ 1`).
    pub workstations: usize,
    /// Per-workstation failure rate.
    pub ws_failure_rate: f64,
    /// Switch failure rate.
    pub switch_failure_rate: f64,
    /// Backbone failure rate.
    pub backbone_failure_rate: f64,
    /// Repair rate of the single repair unit.
    pub repair_rate: f64,
    /// Base operational cost rate.
    pub base_cost: f64,
    /// Extra cost rate per failed workstation.
    pub per_failed_ws_cost: f64,
    /// Impulse cost per repair action.
    pub repair_impulse: f64,
}

impl ClusterConfig {
    /// The traditional parameterization (failure rates per hour) scaled to
    /// a given cluster size.
    pub fn new(workstations: usize) -> Self {
        ClusterConfig {
            workstations,
            ws_failure_rate: 0.002,
            switch_failure_rate: 0.00025,
            backbone_failure_rate: 0.0002,
            repair_rate: 0.5,
            base_cost: 2.0,
            per_failed_ws_cost: 1.0,
            repair_impulse: 4.0,
        }
    }

    /// Number of states: `(N+1)² · 8`.
    pub fn num_states(&self) -> usize {
        (self.workstations + 1) * (self.workstations + 1) * 8
    }

    /// Encode a configuration into a state index.
    ///
    /// # Panics
    ///
    /// Panics if `left` or `right` exceeds the workstation count.
    pub fn state(
        &self,
        left: usize,
        right: usize,
        l_switch_up: bool,
        r_switch_up: bool,
        backbone_up: bool,
    ) -> usize {
        assert!(left <= self.workstations && right <= self.workstations);
        let n1 = self.workstations + 1;
        let flags = usize::from(l_switch_up)
            | (usize::from(r_switch_up) << 1)
            | (usize::from(backbone_up) << 2);
        (left * n1 + right) * 8 + flags
    }

    /// The fully-operational start state.
    pub fn all_up(&self) -> usize {
        self.state(self.workstations, self.workstations, true, true, true)
    }

    fn decode(&self, state: usize) -> (usize, usize, bool, bool, bool) {
        let n1 = self.workstations + 1;
        let flags = state % 8;
        let lr = state / 8;
        (
            lr / n1,
            lr % n1,
            flags & 1 != 0,
            flags & 2 != 0,
            flags & 4 != 0,
        )
    }

    /// Number of workstations currently *connected* (a side counts only
    /// when its switch is up; the two sides see each other through the
    /// backbone, but local service needs only the local switch).
    fn connected(&self, left: usize, right: usize, ls: bool, rs: bool, bb: bool) -> usize {
        let l = if ls { left } else { 0 };
        let r = if rs { right } else { 0 };
        if bb {
            l + r
        } else {
            // Without the backbone only the larger working side serves.
            l.max(r)
        }
    }
}

/// Build the cluster MRM.
///
/// # Panics
///
/// Panics if `workstations` is zero.
pub fn cluster(config: &ClusterConfig) -> Mrm {
    assert!(config.workstations >= 1, "need at least one workstation");
    let n = config.num_states();
    let n_ws = config.workstations;
    let mut b = CtmcBuilder::new(n);
    let mut iota = ImpulseRewards::new();
    let mut rewards = vec![0.0; n];

    #[expect(
        clippy::needless_range_loop,
        reason = "state is decoded, not just an index"
    )]
    for state in 0..n {
        let (left, right, ls, rs, bb) = config.decode(state);

        // Failures.
        if left > 0 {
            b.transition(
                state,
                config.state(left - 1, right, ls, rs, bb),
                left as f64 * config.ws_failure_rate,
            );
        }
        if right > 0 {
            b.transition(
                state,
                config.state(left, right - 1, ls, rs, bb),
                right as f64 * config.ws_failure_rate,
            );
        }
        if ls {
            b.transition(
                state,
                config.state(left, right, false, rs, bb),
                config.switch_failure_rate,
            );
        }
        if rs {
            b.transition(
                state,
                config.state(left, right, ls, false, bb),
                config.switch_failure_rate,
            );
        }
        if bb {
            b.transition(
                state,
                config.state(left, right, ls, rs, false),
                config.backbone_failure_rate,
            );
        }

        // One repair unit, priority backbone → switches → workstations.
        let repair_target = if !bb {
            Some(config.state(left, right, ls, rs, true))
        } else if !ls {
            Some(config.state(left, right, true, rs, bb))
        } else if !rs {
            Some(config.state(left, right, ls, true, bb))
        } else if left < n_ws {
            Some(config.state(left + 1, right, ls, rs, bb))
        } else if right < n_ws {
            Some(config.state(left, right + 1, ls, rs, bb))
        } else {
            None
        };
        if let Some(target) = repair_target {
            b.transition(state, target, config.repair_rate);
            iota.set(state, target, config.repair_impulse)
                .expect("valid impulse");
        }

        // Labels and rewards.
        let connected = config.connected(left, right, ls, rs, bb);
        let total = 2 * n_ws;
        if 4 * connected >= 3 * total {
            b.label(state, "premium");
        }
        if 4 * connected >= total {
            b.label(state, "minimum");
        } else {
            b.label(state, "down");
        }
        if bb {
            b.label(state, "backbone_up");
        }
        b.label(state, format!("{left}left"));
        b.label(state, format!("{right}right"));

        let failed = (n_ws - left) + (n_ws - right);
        rewards[state] = config.base_cost + config.per_failed_ws_cost * failed as f64;
    }

    let ctmc = b.build().expect("the cluster model is well-formed");
    let rho = StateRewards::new(rewards).expect("costs are non-negative");
    Mrm::new(ctmc, rho, iota).expect("the cluster MRM is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::steady::SteadyStateAnalysis;
    use mrmc_sparse::solver::SolverOptions;

    #[test]
    fn encode_decode_roundtrip() {
        let c = ClusterConfig::new(3);
        for left in 0..=3 {
            for right in 0..=3 {
                for flags in 0..8usize {
                    let (ls, rs, bb) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
                    let s = c.state(left, right, ls, rs, bb);
                    assert!(s < c.num_states());
                    assert_eq!(c.decode(s), (left, right, ls, rs, bb));
                }
            }
        }
    }

    #[test]
    fn structure_of_the_small_cluster() {
        let c = ClusterConfig::new(2);
        let m = cluster(&c);
        assert_eq!(m.num_states(), 72);
        let all_up = c.all_up();
        assert!(m.labeling().has(all_up, "premium"));
        assert!(m.labeling().has(all_up, "minimum"));
        // From all-up: 2 ws failures per side, 2 switch failures, backbone.
        assert_eq!(m.ctmc().rates().row(all_up).count(), 5);
        // All-down state repairs the backbone first.
        let all_down = c.state(0, 0, false, false, false);
        let repaired = c.state(0, 0, false, false, true);
        assert!(m.ctmc().rates().get(all_down, repaired) > 0.0);
        assert_eq!(m.impulse_reward(all_down, repaired), 4.0);
    }

    #[test]
    fn premium_requires_three_quarters() {
        let c = ClusterConfig::new(2);
        let m = cluster(&c);
        // 3 of 4 connected: premium.
        let s = c.state(2, 1, true, true, true);
        assert!(m.labeling().has(s, "premium"));
        // 2 of 4: minimum but not premium.
        let s = c.state(1, 1, true, true, true);
        assert!(!m.labeling().has(s, "premium"));
        assert!(m.labeling().has(s, "minimum"));
        // Dead switch disconnects a whole side.
        let s = c.state(2, 2, false, true, true);
        assert!(!m.labeling().has(s, "premium"));
        // Dead backbone: only the larger side serves.
        let s = c.state(2, 2, true, true, false);
        assert!(!m.labeling().has(s, "premium"));
        assert!(m.labeling().has(s, "minimum"));
    }

    #[test]
    fn long_run_availability_is_high() {
        let c = ClusterConfig::new(2);
        let m = cluster(&c);
        let analysis = SteadyStateAnalysis::new(m.ctmc(), SolverOptions::new()).unwrap();
        let p = analysis.probability_from(c.all_up(), &m.labeling().states_with("minimum"));
        assert!(p > 0.99, "long-run minimum-QoS availability = {p}");
    }

    #[test]
    fn rewards_track_failures() {
        let c = ClusterConfig::new(2);
        let m = cluster(&c);
        assert_eq!(m.state_reward(c.all_up()), 2.0);
        assert_eq!(m.state_reward(c.state(1, 0, true, true, true)), 5.0);
    }

    #[test]
    fn scales_to_bigger_clusters() {
        let c = ClusterConfig::new(8);
        let m = cluster(&c);
        assert_eq!(m.num_states(), 81 * 8);
        // Spot-check stochastic sanity: all exit rates finite and positive
        // except none (every state has a repair or failure available).
        for s in 0..m.num_states() {
            assert!(m.ctmc().exit_rate(s) > 0.0, "state {s} is absorbing");
        }
    }
}
