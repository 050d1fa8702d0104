//! The labeled continuous-time Markov chain (Definition 2.1).

use mrmc_sparse::{CooBuilder, CsrMatrix};

use crate::dtmc::Dtmc;
use crate::error::ModelError;
use crate::label::Labeling;

/// A labeled CTMC `C = (S, R, Label)` (Definition 2.1 of the thesis).
///
/// `R : S × S → ℝ≥0` is the rate matrix; there is a transition `s → s'` iff
/// `R(s, s') > 0`. Self-transitions are permitted, as the thesis' definition
/// explicitly allows. The labeling assigns atomic propositions to states.
///
/// Construct through [`crate::CtmcBuilder`] or [`Ctmc::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ctmc {
    rates: CsrMatrix,
    labeling: Labeling,
    exit_rates: Vec<f64>,
}

impl Ctmc {
    /// Build a CTMC from a rate matrix and a labeling.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyModel`] — zero states;
    /// * [`ModelError::NonSquareMatrix`] — non-square rate matrix;
    /// * [`ModelError::NegativeEntry`] — a negative rate;
    /// * [`ModelError::LabelingSizeMismatch`] — labeling covers the wrong
    ///   number of states.
    pub fn new(rates: CsrMatrix, labeling: Labeling) -> Result<Self, ModelError> {
        if rates.nrows() == 0 {
            return Err(ModelError::EmptyModel);
        }
        if rates.nrows() != rates.ncols() {
            return Err(ModelError::NonSquareMatrix {
                nrows: rates.nrows(),
                ncols: rates.ncols(),
            });
        }
        if labeling.num_states() != rates.nrows() {
            return Err(ModelError::LabelingSizeMismatch {
                states: rates.nrows(),
                labeled: labeling.num_states(),
            });
        }
        for (r, c, v) in rates.iter() {
            if v < 0.0 {
                return Err(ModelError::NegativeEntry {
                    from: r,
                    to: c,
                    value: v,
                });
            }
        }
        let exit_rates = rates.row_sums();
        Ok(Ctmc {
            rates,
            labeling,
            exit_rates,
        })
    }

    /// Number of states `|S|`.
    pub fn num_states(&self) -> usize {
        self.rates.nrows()
    }

    /// The rate matrix `R`.
    pub fn rates(&self) -> &CsrMatrix {
        &self.rates
    }

    /// The labeling function.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Mutable access to the labeling (used by the checker to attach
    /// auxiliary propositions such as `atB` for BSCC reachability).
    pub fn labeling_mut(&mut self) -> &mut Labeling {
        &mut self.labeling
    }

    /// Total exit rate `E(s) = Σ_{s'} R(s, s')` of every state.
    pub fn exit_rates(&self) -> &[f64] {
        &self.exit_rates
    }

    /// Total exit rate of one state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of bounds.
    pub fn exit_rate(&self, state: usize) -> f64 {
        self.exit_rates[state]
    }

    /// `true` when the state has no outgoing transition (Definition 3.2).
    pub fn is_absorbing(&self, state: usize) -> bool {
        self.exit_rates[state] == 0.0
    }

    /// The embedded (jump) DTMC. Absorbing states receive a probability-one
    /// self-loop so the result is stochastic.
    pub fn embedded_dtmc(&self) -> Dtmc {
        let n = self.num_states();
        let mut b = CooBuilder::with_capacity(n, n, self.rates.nnz() + n);
        for s in 0..n {
            let e = self.exit_rates[s];
            if e == 0.0 {
                b.push(s, s, 1.0);
            } else {
                for (t, r) in self.rates.row(s) {
                    b.push(s, t, r / e);
                }
            }
        }
        let probs = b.build().expect("embedded matrix is well-formed");
        Dtmc::new(probs, self.labeling.clone()).expect("embedded DTMC is stochastic")
    }

    /// The infinitesimal generator `Q = R − Diag(E)`.
    pub fn generator(&self) -> CsrMatrix {
        let n = self.num_states();
        let mut b = CooBuilder::with_capacity(n, n, self.rates.nnz() + n);
        for (r, c, v) in self.rates.iter() {
            b.push(r, c, v);
        }
        for s in 0..n {
            if self.exit_rates[s] != 0.0 {
                b.push(s, s, -self.exit_rates[s]);
            }
        }
        b.build().expect("generator is well-formed")
    }

    /// The uniformized DTMC `P = I + Q/Λ` and the rate `Λ` used
    /// (Section 2.4.1).
    ///
    /// When `rate` is `None`, `Λ` is chosen as `1.02 · max_s E(s)` (strictly
    /// above the maximal exit rate so every state keeps a self-loop and the
    /// uniformized chain is aperiodic); a degenerate all-absorbing chain gets
    /// `Λ = 1`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidUniformizationRate`] when an explicit `rate`
    /// below the maximal exit rate (or non-positive/non-finite) is given.
    pub fn uniformized(&self, rate: Option<f64>) -> Result<(Dtmc, f64), ModelError> {
        let max_exit = self.exit_rates.iter().fold(0.0_f64, |m, &e| m.max(e));
        let lambda = match rate {
            Some(l) => {
                if !(l.is_finite() && l > 0.0 && l >= max_exit) {
                    return Err(ModelError::InvalidUniformizationRate {
                        requested: l,
                        minimum: max_exit,
                    });
                }
                l
            }
            None => {
                if max_exit == 0.0 {
                    1.0
                } else {
                    1.02 * max_exit
                }
            }
        };

        let n = self.num_states();
        let mut b = CooBuilder::with_capacity(n, n, self.rates.nnz() + n);
        for s in 0..n {
            let mut self_loop = 1.0 - self.exit_rates[s] / lambda;
            for (t, r) in self.rates.row(s) {
                if t == s {
                    self_loop += r / lambda;
                } else {
                    b.push(s, t, r / lambda);
                }
            }
            // Clamp round-off; exact uniformization at Λ = E(s) can leave a
            // tiny negative residue.
            if self_loop > 1e-15 {
                b.push(s, s, self_loop);
            }
        }
        let probs = b.build().expect("uniformized matrix is well-formed");
        let dtmc = Dtmc::new(probs, self.labeling.clone())?;
        Ok((dtmc, lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    /// The WaveLAN modem of Example 2.4 / 4.2 (states 0..=4 for 1..=5).
    pub(crate) fn wavelan() -> Ctmc {
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
        b.build().unwrap()
    }

    #[test]
    fn exit_rates_of_example_4_2() {
        let c = wavelan();
        let e = c.exit_rates();
        assert!((e[0] - 0.1).abs() < 1e-12);
        assert!((e[1] - 5.05).abs() < 1e-12);
        assert!((e[2] - 14.25).abs() < 1e-12);
        assert!((e[3] - 10.0).abs() < 1e-12);
        assert!((e[4] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn uniformization_of_example_4_2() {
        // Λ = max E(s) = 15 gives the P matrix printed in the thesis.
        let c = wavelan();
        let (dtmc, lambda) = c.uniformized(Some(15.0)).unwrap();
        assert_eq!(lambda, 15.0);
        let p = dtmc.probabilities();
        assert!((p.get(0, 0) - 149.0 / 150.0).abs() < 1e-12);
        assert!((p.get(0, 1) - 1.0 / 150.0).abs() < 1e-12);
        assert!((p.get(1, 0) - 5.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(1, 1) - 995.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(1, 2) - 500.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(2, 1) - 1200.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(2, 2) - 75.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(2, 3) - 150.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(2, 4) - 75.0 / 1500.0).abs() < 1e-12);
        assert!((p.get(3, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.get(3, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.get(4, 2) - 1.0).abs() < 1e-12);
        assert_eq!(p.get(4, 4), 0.0);
    }

    #[test]
    fn default_lambda_strictly_dominates() {
        let c = wavelan();
        let (_, lambda) = c.uniformized(None).unwrap();
        assert!(lambda > 15.0);
    }

    #[test]
    fn invalid_lambda_rejected() {
        let c = wavelan();
        assert!(matches!(
            c.uniformized(Some(10.0)),
            Err(ModelError::InvalidUniformizationRate { .. })
        ));
        assert!(matches!(
            c.uniformized(Some(-1.0)),
            Err(ModelError::InvalidUniformizationRate { .. })
        ));
        assert!(matches!(
            c.uniformized(Some(f64::NAN)),
            Err(ModelError::InvalidUniformizationRate { .. })
        ));
    }

    #[test]
    fn embedded_dtmc_probabilities() {
        let c = wavelan();
        let d = c.embedded_dtmc();
        let p = d.probabilities();
        assert!((p.get(2, 3) - 1.5 / 14.25).abs() < 1e-12);
        assert!((p.get(2, 4) - 0.75 / 14.25).abs() < 1e-12);
        assert!((p.get(3, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorbing_state_detection_and_embedding() {
        let mut b = CtmcBuilder::new(2);
        b.transition(0, 1, 3.0);
        let c = b.build().unwrap();
        assert!(!c.is_absorbing(0));
        assert!(c.is_absorbing(1));
        // Absorbing state gets a self-loop in the embedded DTMC.
        assert_eq!(c.embedded_dtmc().probabilities().get(1, 1), 1.0);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = wavelan();
        let q = c.generator();
        for s in q.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        assert!((q.get(2, 2) + 14.25).abs() < 1e-12);
    }

    #[test]
    fn uniformized_all_absorbing_chain() {
        let c = Ctmc::new(CsrMatrix::zeros(2, 2), Labeling::new(2)).unwrap();
        let (d, lambda) = c.uniformized(None).unwrap();
        assert_eq!(lambda, 1.0);
        assert_eq!(d.probabilities().get(0, 0), 1.0);
        assert_eq!(d.probabilities().get(1, 1), 1.0);
    }

    #[test]
    fn construction_errors() {
        assert!(matches!(
            Ctmc::new(CsrMatrix::zeros(0, 0), Labeling::new(0)),
            Err(ModelError::EmptyModel)
        ));
        assert!(matches!(
            Ctmc::new(CsrMatrix::zeros(2, 3), Labeling::new(2)),
            Err(ModelError::NonSquareMatrix { .. })
        ));
        assert!(matches!(
            Ctmc::new(CsrMatrix::zeros(2, 2), Labeling::new(3)),
            Err(ModelError::LabelingSizeMismatch { .. })
        ));
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, -1.0);
        assert!(matches!(
            Ctmc::new(b.build().unwrap(), Labeling::new(2)),
            Err(ModelError::NegativeEntry { .. })
        ));
    }

    #[test]
    fn self_loops_are_preserved() {
        let mut b = CtmcBuilder::new(1);
        b.transition(0, 0, 2.0);
        let c = b.build().unwrap();
        assert_eq!(c.exit_rate(0), 2.0);
        // Uniformized with Λ = 4: P(0,0) = 1 - 2/4 + 2/4 = 1.
        let (d, _) = c.uniformized(Some(4.0)).unwrap();
        assert!((d.probabilities().get(0, 0) - 1.0).abs() < 1e-12);
    }
}
