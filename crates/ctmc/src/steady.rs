//! Steady-state analysis of CTMCs (Sections 2.4.2, 3.7 and 4.2).
//!
//! For a strongly connected chain, the stationary distribution solves
//! `π·Q = 0, Σπ = 1`. For a general chain the thesis' Eq. 3.2 applies:
//! decompose into BSCCs, solve each BSCC in isolation, and weight by the
//! probabilities of eventually entering each BSCC.

use mrmc_sparse::solver::{power_iteration, SolverOptions};
use mrmc_sparse::{vector, CooBuilder};

use crate::bscc::SccDecomposition;
use crate::ctmc::Ctmc;
use crate::error::ModelError;
use crate::reach;

/// Stationary distribution of a strongly connected CTMC by Gauss–Seidel on
/// the balance equations `π_i·(E(i) − R(i,i)) = Σ_{j≠i} π_j·R(j,i)`, with a
/// power-iteration fallback on the uniformized chain when Gauss–Seidel
/// stalls.
///
/// # Errors
///
/// Propagates solver failures; callers are expected to pass a chain that is
/// actually strongly connected (use [`SteadyStateAnalysis`] otherwise).
pub fn steady_state_strongly_connected(
    ctmc: &Ctmc,
    options: SolverOptions,
) -> Result<Vec<f64>, ModelError> {
    let n = ctmc.num_states();
    if n == 1 {
        return Ok(vec![1.0]);
    }
    let rt = ctmc.rates().transpose();
    let exit = ctmc.exit_rates();

    // Effective hold rate excluding self-loops; zero means the state cannot
    // be left, which contradicts strong connectedness for n > 1 — fall back
    // to power iteration which will surface the failure.
    let mut denom = vec![0.0; n];
    let mut degenerate = false;
    for i in 0..n {
        denom[i] = exit[i] - ctmc.rates().get(i, i);
        if denom[i] <= 0.0 {
            degenerate = true;
        }
    }

    if !degenerate {
        let mut pi = vec![1.0 / n as f64; n];
        for sweep in 0..options.max_iterations {
            let mut delta = 0.0_f64;
            for i in 0..n {
                let mut acc = 0.0;
                for (j, r) in rt.row(i) {
                    if j != i {
                        acc += pi[j] * r;
                    }
                }
                let next = acc / denom[i];
                delta = delta.max((next - pi[i]).abs());
                pi[i] = next;
            }
            mrmc_obs::record(|| mrmc_obs::Event::SolverSweep {
                iteration: sweep as u64 + 1,
                residual: delta,
            });
            if !vector::normalize_l1(&mut pi) {
                break;
            }
            if delta <= options.tolerance {
                vector::clamp_unit(&mut pi);
                let s = vector::sum(&pi);
                vector::scale(&mut pi, 1.0 / s);
                mrmc_obs::record(|| mrmc_obs::Event::SolverDone {
                    iterations: sweep as u64 + 1,
                    residual: delta,
                    converged: true,
                });
                return Ok(pi);
            }
        }
    }

    // Fallback: power iteration on the uniformized chain (aperiodic by
    // construction since Λ strictly dominates the exit rates).
    let (uni, _) = ctmc.uniformized(None)?;
    let start = vec![1.0 / n as f64; n];
    Ok(power_iteration(uni.probabilities(), &start, options)?)
}

/// One bottom strongly connected component together with its local
/// stationary distribution.
#[derive(Debug, Clone)]
pub struct BsccSteadyState {
    /// Global state indices of the component, sorted.
    pub states: Vec<usize>,
    /// Stationary probability of each state, aligned with `states`.
    pub distribution: Vec<f64>,
}

/// The full steady-state decomposition of a (possibly reducible) CTMC:
/// per-BSCC stationary vectors plus, for every state, the probability of
/// eventually entering each BSCC (Eq. 3.2).
#[derive(Debug, Clone)]
pub struct SteadyStateAnalysis {
    num_states: usize,
    bsccs: Vec<BsccSteadyState>,
    /// `reach[b][s]` = `P(s, ◇ B_b)`.
    reach: Vec<Vec<f64>>,
}

impl SteadyStateAnalysis {
    /// Run the decomposition: BSCC detection, one stationary solve per BSCC,
    /// and one reachability solve per BSCC.
    ///
    /// # Errors
    ///
    /// Propagates construction and solver failures.
    pub fn new(ctmc: &Ctmc, options: SolverOptions) -> Result<Self, ModelError> {
        let scc = SccDecomposition::new(ctmc.rates());
        let embedded = ctmc.embedded_dtmc();
        let n = ctmc.num_states();

        let mut bsccs = Vec::new();
        let mut reach_vectors = Vec::new();
        for (_, states) in scc.bsccs() {
            let distribution = if states.len() == 1 {
                vec![1.0]
            } else {
                let sub = restrict(ctmc, states)?;
                steady_state_strongly_connected(&sub, options)?
            };
            let mut target = vec![false; n];
            for &s in states {
                target[s] = true;
            }
            let r = reach::reach_probability(embedded.probabilities(), &target, options)?;
            bsccs.push(BsccSteadyState {
                states: states.to_vec(),
                distribution,
            });
            reach_vectors.push(r);
        }
        Ok(SteadyStateAnalysis {
            num_states: n,
            bsccs,
            reach: reach_vectors,
        })
    }

    /// Number of states of the analysed chain.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The BSCCs with their local stationary distributions.
    pub fn bsccs(&self) -> &[BsccSteadyState] {
        &self.bsccs
    }

    /// The long-run probability `π(from, target)` of Eq. 3.2:
    /// `Σ_B P(from, ◇B) · Σ_{s' ∈ B ∩ target} π^B(s')`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `target.len()` is out of bounds.
    pub fn probability_from(&self, from: usize, target: &[bool]) -> f64 {
        assert!(from < self.num_states, "state out of bounds");
        assert_eq!(target.len(), self.num_states, "target length mismatch");
        self.weigh(from, &self.target_masses(target))
    }

    /// [`probability_from`](Self::probability_from) for every start state,
    /// bit for bit, in one pass: each BSCC's target mass is summed once
    /// instead of once per state.
    ///
    /// # Panics
    ///
    /// Panics if `target.len()` is not the number of states.
    pub fn probabilities(&self, target: &[bool]) -> Vec<f64> {
        assert_eq!(target.len(), self.num_states, "target length mismatch");
        let masses = self.target_masses(target);
        (0..self.num_states)
            .map(|from| self.weigh(from, &masses))
            .collect()
    }

    /// Per BSCC, `Σ_{s' ∈ B ∩ target} π^B(s')`.
    fn target_masses(&self, target: &[bool]) -> Vec<f64> {
        self.bsccs
            .iter()
            .map(|info| {
                info.states
                    .iter()
                    .zip(&info.distribution)
                    .filter(|(&s, _)| target[s])
                    .map(|(_, &p)| p)
                    .sum()
            })
            .collect()
    }

    /// `Σ_B P(from, ◇B) · masses[B]`, clamped to `[0, 1]`.
    fn weigh(&self, from: usize, masses: &[f64]) -> f64 {
        let mut total = 0.0;
        for (reach, &mass) in self.reach.iter().zip(masses) {
            if mass > 0.0 {
                total += reach[from] * mass;
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// The full long-run state distribution started from `from`.
    pub fn distribution_from(&self, from: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.num_states];
        for (b, info) in self.bsccs.iter().enumerate() {
            let w = self.reach[b][from];
            for (&s, &p) in info.states.iter().zip(&info.distribution) {
                out[s] += w * p;
            }
        }
        out
    }
}

/// Restrict a CTMC to a subset of states (assumed closed under transitions,
/// which holds for a BSCC).
fn restrict(ctmc: &Ctmc, states: &[usize]) -> Result<Ctmc, ModelError> {
    let mut local = vec![usize::MAX; ctmc.num_states()];
    for (i, &s) in states.iter().enumerate() {
        local[s] = i;
    }
    let mut b = CooBuilder::new(states.len(), states.len());
    for &s in states {
        for (t, r) in ctmc.rates().row(s) {
            debug_assert_ne!(local[t], usize::MAX, "BSCC not closed");
            if local[t] != usize::MAX {
                b.push(local[s], local[t], r);
            }
        }
    }
    Ctmc::new(
        b.build().expect("restricted matrix is well-formed"),
        crate::label::Labeling::new(states.len()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    #[test]
    fn two_state_birth_death() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0).transition(1, 0, 3.0);
        let c = b.build().unwrap();
        let pi = steady_state_strongly_connected(&c, SolverOptions::new()).unwrap();
        assert!((pi[0] - 0.75).abs() < 1e-9);
        assert!((pi[1] - 0.25).abs() < 1e-9);
    }

    #[test]
    fn example_3_5_full_pipeline() {
        // Figure 3.2 as a CTMC. `S(≥0.3)(b)` for s1: π(s1, Sat(b)) = 8/21.
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 2.0).transition(0, 4, 1.0);
        b.transition(1, 0, 1.0).transition(1, 2, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 2, 1.0);
        b.label(3, "b");
        let c = b.build().unwrap();

        let analysis = SteadyStateAnalysis::new(&c, SolverOptions::new()).unwrap();
        let target = c.labeling().states_with("b");
        let p = analysis.probability_from(0, &target);
        assert!((p - 8.0 / 21.0).abs() < 1e-9, "got {p}");

        // π^B1(s4) = 2/3, P(s1, ◇B1) = 4/7.
        let b1 = analysis
            .bsccs()
            .iter()
            .position(|i| i.states == vec![2, 3])
            .unwrap();
        let info = &analysis.bsccs()[b1];
        let idx_s4 = info.states.iter().position(|&s| s == 3).unwrap();
        assert!((info.distribution[idx_s4] - 2.0 / 3.0).abs() < 1e-9);
        assert!((analysis.reach[b1][0] - 4.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_match_probability_from_bitwise() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let check = |c: &Ctmc, target: &[bool]| {
            let analysis = SteadyStateAnalysis::new(c, SolverOptions::new()).unwrap();
            let one_by_one: Vec<f64> = (0..c.num_states())
                .map(|s| analysis.probability_from(s, target))
                .collect();
            assert_eq!(bits(&analysis.probabilities(target)), bits(&one_by_one));
        };
        // Figure 3.2.
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 2.0).transition(0, 4, 1.0);
        b.transition(1, 0, 1.0).transition(1, 2, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 2, 1.0);
        let fig = b.build().unwrap();
        check(&fig, &[false, false, false, true, false]);
        check(&fig, &[true, false, true, true, true]);
        // Seeded reducible chains: a random transient part draining into
        // several random closed classes.
        let mut rng = mrmc_sparse::rng::Xoshiro256StarStar::seed_from_u64(0x57EAD);
        for _ in 0..20 {
            let n = 12 + rng.range_usize(20);
            let closed = 4 + rng.range_usize(n / 2);
            let mut b = CtmcBuilder::new(n);
            for s in 0..n {
                for _ in 0..3 {
                    // Closed states only move among the closed block's
                    // classes of three; transient ones go anywhere.
                    let t = if s < closed {
                        (s / 3) * 3 + rng.range_usize(3.min(closed - (s / 3) * 3))
                    } else {
                        rng.range_usize(n)
                    };
                    if t != s {
                        b.transition(s, t, rng.range_f64(0.1, 5.0));
                    }
                }
            }
            let c = b.build().unwrap();
            let target: Vec<bool> = (0..n).map(|_| rng.range_usize(3) == 0).collect();
            check(&c, &target);
        }
    }

    #[test]
    fn distribution_from_sums_to_one() {
        let mut b = CtmcBuilder::new(5);
        b.transition(0, 1, 2.0).transition(0, 4, 1.0);
        b.transition(1, 0, 1.0).transition(1, 2, 2.0);
        b.transition(2, 3, 2.0);
        b.transition(3, 2, 1.0);
        let c = b.build().unwrap();
        let analysis = SteadyStateAnalysis::new(&c, SolverOptions::new()).unwrap();
        for s in 0..5 {
            let d = analysis.distribution_from(s);
            assert!((vector::sum(&d) - 1.0).abs() < 1e-8, "from {s}");
        }
    }

    #[test]
    fn strongly_connected_chain_single_bscc() {
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0)
            .transition(1, 2, 1.0)
            .transition(2, 0, 1.0);
        let c = b.build().unwrap();
        let analysis = SteadyStateAnalysis::new(&c, SolverOptions::new()).unwrap();
        assert_eq!(analysis.bsccs().len(), 1);
        let d = analysis.distribution_from(0);
        for p in d {
            assert!((p - 1.0 / 3.0).abs() < 1e-8);
        }
    }

    #[test]
    fn absorbing_state_takes_all_mass() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 5.0);
        let c = b.build().unwrap();
        let analysis = SteadyStateAnalysis::new(&c, SolverOptions::new()).unwrap();
        let d = analysis.distribution_from(0);
        assert_eq!(d, vec![0.0, 1.0]);
    }

    #[test]
    fn initial_state_matters_for_reducible_chain() {
        // Two absorbing states; probability splits by the first jump.
        let mut b = CtmcBuilder::new(3);
        b.transition(0, 1, 1.0).transition(0, 2, 3.0);
        let c = b.build().unwrap();
        let analysis = SteadyStateAnalysis::new(&c, SolverOptions::new()).unwrap();
        let d0 = analysis.distribution_from(0);
        assert!((d0[1] - 0.25).abs() < 1e-9);
        assert!((d0[2] - 0.75).abs() < 1e-9);
        let d1 = analysis.distribution_from(1);
        assert_eq!(d1, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn self_loops_do_not_disturb_steady_state() {
        // Self-loops leave the stationary distribution unchanged.
        let mut a = CtmcBuilder::new(2);
        a.transition(0, 1, 1.0).transition(1, 0, 3.0);
        let plain = a.build().unwrap();
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 1.0)
            .transition(1, 0, 3.0)
            .transition(0, 0, 7.0)
            .transition(1, 1, 2.0);
        let looped = b.build().unwrap();
        let p1 = steady_state_strongly_connected(&plain, SolverOptions::new()).unwrap();
        let p2 = steady_state_strongly_connected(&looped, SolverOptions::new()).unwrap();
        for (u, v) in p1.iter().zip(&p2) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn gauss_seidel_agrees_with_power_iteration() {
        // A mildly stiff 4-state chain.
        let mut b = CtmcBuilder::new(4);
        b.transition(0, 1, 100.0)
            .transition(1, 2, 0.01)
            .transition(2, 3, 5.0)
            .transition(3, 0, 1.0)
            .transition(1, 0, 2.0)
            .transition(2, 1, 0.5);
        let c = b.build().unwrap();
        let gs = steady_state_strongly_connected(&c, SolverOptions::new()).unwrap();
        let (uni, _) = c.uniformized(None).unwrap();
        let pw = power_iteration(uni.probabilities(), &[0.25; 4], SolverOptions::new()).unwrap();
        for (u, v) in gs.iter().zip(&pw) {
            assert!((u - v).abs() < 1e-7, "{gs:?} vs {pw:?}");
        }
    }
}
