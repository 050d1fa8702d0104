//! An M/M/1/K queue with server breakdowns as a Markov reward model — the
//! classic performability workload (beyond the thesis' own case studies;
//! used for stress tests and scaling benches).
//!
//! # State space
//!
//! `(j, up)` for `j ∈ 0..=K` jobs in the system and a binary server
//! condition: state index `j` when the server is up, `K + 1 + j` when it is
//! down (`2·(K+1)` states total).
//!
//! # Transitions
//!
//! * arrivals `j → j+1` at `arrival_rate` (in both server conditions;
//!   arrivals to a full queue are lost);
//! * services `j → j−1` at `service_rate`, **impulse** `service_reward`
//!   per completed job (revenue);
//! * breakdowns `up → down` at `failure_rate`;
//! * repairs `down → up` at `repair_rate`, **impulse** `repair_cost`.
//!
//! # Rewards
//!
//! State reward `holding_cost · j`, plus `downtime_cost` while the server
//! is down. Labels: `empty`, `full`, `up`, `down`, and `jobs{j}`.

use mrmc_ctmc::CtmcBuilder;
use mrmc_mrm::{ImpulseRewards, Mrm, StateRewards};

/// Parameters of the breakdown queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Buffer capacity `K` (≥ 1).
    pub capacity: usize,
    /// Poisson arrival rate `λ`.
    pub arrival_rate: f64,
    /// Service rate `μ` (only while the server is up).
    pub service_rate: f64,
    /// Server breakdown rate.
    pub failure_rate: f64,
    /// Server repair rate.
    pub repair_rate: f64,
    /// Holding cost per job per time unit.
    pub holding_cost: f64,
    /// Extra cost rate while the server is down.
    pub downtime_cost: f64,
    /// Impulse earned per service completion.
    pub service_reward: f64,
    /// Impulse cost per repair.
    pub repair_cost: f64,
}

impl QueueConfig {
    /// A moderately loaded default: `K = 5`, `λ = 0.8`, `μ = 1.0`,
    /// breakdowns at `0.02`, repairs at `0.5`.
    pub fn new(capacity: usize) -> Self {
        QueueConfig {
            capacity,
            arrival_rate: 0.8,
            service_rate: 1.0,
            failure_rate: 0.02,
            repair_rate: 0.5,
            holding_cost: 1.0,
            downtime_cost: 5.0,
            service_reward: 2.0,
            repair_cost: 10.0,
        }
    }

    /// State index for `jobs` in the system with the server up.
    ///
    /// # Panics
    ///
    /// Panics if `jobs > capacity`.
    pub fn up_state(&self, jobs: usize) -> usize {
        assert!(jobs <= self.capacity, "at most {} jobs", self.capacity);
        jobs
    }

    /// State index for `jobs` in the system with the server down.
    ///
    /// # Panics
    ///
    /// Panics if `jobs > capacity`.
    pub fn down_state(&self, jobs: usize) -> usize {
        assert!(jobs <= self.capacity, "at most {} jobs", self.capacity);
        self.capacity + 1 + jobs
    }

    /// Total number of states (`2·(K+1)`).
    pub fn num_states(&self) -> usize {
        2 * (self.capacity + 1)
    }
}

/// Build the breakdown-queue MRM.
///
/// # Panics
///
/// Panics if `capacity` is zero or any rate/cost is negative (developer
/// inputs).
pub fn queue(config: &QueueConfig) -> Mrm {
    assert!(config.capacity >= 1, "capacity must be at least 1");
    let k = config.capacity;
    let mut b = CtmcBuilder::new(config.num_states());

    for j in 0..=k {
        let up = config.up_state(j);
        let down = config.down_state(j);
        if j < k {
            b.transition(up, config.up_state(j + 1), config.arrival_rate);
            b.transition(down, config.down_state(j + 1), config.arrival_rate);
        }
        if j > 0 {
            b.transition(up, config.up_state(j - 1), config.service_rate);
        }
        if config.failure_rate > 0.0 {
            b.transition(up, down, config.failure_rate);
        }
        b.transition(down, up, config.repair_rate);

        for s in [up, down] {
            b.label(s, format!("jobs{j}"));
            if j == 0 {
                b.label(s, "empty");
            }
            if j == k {
                b.label(s, "full");
            }
        }
        b.label(up, "up");
        b.label(down, "down");
    }
    let ctmc = b.build().expect("the queue model is well-formed");

    let mut rewards = vec![0.0; config.num_states()];
    for j in 0..=k {
        rewards[config.up_state(j)] = config.holding_cost * j as f64;
        rewards[config.down_state(j)] = config.holding_cost * j as f64 + config.downtime_cost;
    }
    let rho = StateRewards::new(rewards).expect("costs are non-negative");

    let mut iota = ImpulseRewards::new();
    for j in 1..=k {
        iota.set(
            config.up_state(j),
            config.up_state(j - 1),
            config.service_reward,
        )
        .expect("valid impulse");
    }
    for j in 0..=k {
        iota.set(config.down_state(j), config.up_state(j), config.repair_cost)
            .expect("valid impulse");
    }
    Mrm::new(ctmc, rho, iota).expect("the queue MRM is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrmc_ctmc::steady::SteadyStateAnalysis;
    use mrmc_sparse::solver::SolverOptions;

    #[test]
    fn structure() {
        let c = QueueConfig::new(3);
        let m = queue(&c);
        assert_eq!(m.num_states(), 8);
        assert_eq!(m.ctmc().rates().get(c.up_state(0), c.up_state(1)), 0.8);
        assert_eq!(m.ctmc().rates().get(c.up_state(2), c.up_state(1)), 1.0);
        assert_eq!(m.ctmc().rates().get(c.down_state(1), c.up_state(1)), 0.5);
        // No service while down.
        assert_eq!(m.ctmc().rates().get(c.down_state(2), c.down_state(1)), 0.0);
        // No arrival past capacity.
        assert_eq!(m.ctmc().rates().get(c.up_state(3), c.up_state(3)), 0.0);
        assert!(m.labeling().has(c.up_state(3), "full"));
        assert!(m.labeling().has(c.down_state(0), "empty"));
    }

    #[test]
    fn rewards_and_impulses() {
        let c = QueueConfig::new(3);
        let m = queue(&c);
        assert_eq!(m.state_reward(c.up_state(2)), 2.0);
        assert_eq!(m.state_reward(c.down_state(2)), 7.0);
        assert_eq!(m.impulse_reward(c.up_state(2), c.up_state(1)), 2.0);
        assert_eq!(m.impulse_reward(c.down_state(1), c.up_state(1)), 10.0);
        assert_eq!(m.impulse_reward(c.up_state(1), c.up_state(2)), 0.0);
    }

    #[test]
    fn reliable_queue_matches_birth_death_steady_state() {
        // M/M/1/K (no breakdowns): π_j ∝ ρ^j with ρ = λ/μ.
        let c = QueueConfig {
            failure_rate: 0.0,
            ..QueueConfig::new(4)
        };
        let m = queue(&c);
        let analysis = SteadyStateAnalysis::new(m.ctmc(), SolverOptions::new()).unwrap();
        let rho = c.arrival_rate / c.service_rate;
        let norm: f64 = (0..=4).map(|j| rho.powi(j)).sum();
        for j in 0..=4usize {
            let mut target = vec![false; m.num_states()];
            target[c.up_state(j)] = true;
            let p = analysis.probability_from(c.up_state(0), &target);
            let exact = rho.powi(j as i32) / norm;
            assert!((p - exact).abs() < 1e-8, "j = {j}: {p} vs {exact}");
        }
    }

    #[test]
    fn down_states_unreachable_in_reliable_queue() {
        let c = QueueConfig {
            failure_rate: 0.0,
            ..QueueConfig::new(2)
        };
        let m = queue(&c);
        let analysis = SteadyStateAnalysis::new(m.ctmc(), SolverOptions::new()).unwrap();
        let down = m.labeling().states_with("down");
        assert_eq!(analysis.probability_from(c.up_state(0), &down), 0.0);
    }

    #[test]
    fn breakdowns_create_down_time() {
        let c = QueueConfig::new(2);
        let m = queue(&c);
        let analysis = SteadyStateAnalysis::new(m.ctmc(), SolverOptions::new()).unwrap();
        let down = m.labeling().states_with("down");
        let p = analysis.probability_from(c.up_state(0), &down);
        // Roughly failure/(failure+repair) = 0.02/0.52 ≈ 0.038.
        assert!(p > 0.01 && p < 0.1, "P(down) = {p}");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn job_index_overflow_panics() {
        QueueConfig::new(2).up_state(3);
    }
}
