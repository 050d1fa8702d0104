//! Banded LU factorization of M-matrices, without pivoting.

use crate::CsrMatrix;

/// The LU factors of a symmetrically permuted nonsingular M-matrix, kept
/// in band storage.
///
/// An M-matrix (non-positive off-diagonals, non-negative inverse) needs no
/// pivoting: every Schur complement is again an M-matrix, so every pivot
/// is positive, and Gaussian elimination in any symmetric order is stable.
/// Without pivoting the factors fit in the band of the permuted matrix,
/// which [`reverse_cuthill_mckee`](super::reverse_cuthill_mckee) keeps
/// narrow.
///
/// The pivots are formed the GTH way (Grassmann, Taksar and Heyman): each
/// is the row's exit mass plus the magnitudes of its remaining
/// off-diagonals, never a difference, so elimination on a stiff chain does
/// not lose its small exit masses to cancellation.
#[derive(Debug, Clone)]
pub struct BandedLu {
    /// `order[k]` is the original index placed at position `k`.
    order: Vec<usize>,
    /// Sub- and super-diagonals kept per row.
    kl: usize,
    ku: usize,
    /// Row `i` holds columns `i − kl ..= i + ku` at offsets `0 ..= kl + ku`:
    /// the multipliers of L left of the diagonal, U's pivot and row right
    /// of it.
    band: Vec<f64>,
}

impl BandedLu {
    /// Factor the M-matrix `a` in the symmetric order `order`.
    ///
    /// `exit[i]` is row `i`'s sum `Σ_j a_ij`, which must be non-negative:
    /// for `a = I − P` over a block of a (sub)stochastic `P` it is the
    /// probability of leaving the block from `i`. The caller computes it
    /// as a sum of non-negative terms; the diagonal of `a` is not read.
    ///
    /// Returns `None` — the caller then needs another solver — when the
    /// elimination would take more than `max_work` steps or its band more
    /// than `max_bytes` bytes, or when a pivot is not positive and finite
    /// (`a` is singular or not an M-matrix). The work is `n·(kl + 1)·(ku +
    /// 1)` for `kl` sub- and `ku` super-diagonals in `order`: it bounds the
    /// elimination's `n·kl·ku` multiply-adds and a substitution's `n·(kl +
    /// ku + 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square, or `exit` or `order` does not match
    /// its dimension.
    pub fn factor_m_matrix(
        a: &CsrMatrix,
        exit: &[f64],
        order: Vec<usize>,
        max_work: usize,
        max_bytes: usize,
    ) -> Option<BandedLu> {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "factorization needs a square matrix");
        assert_eq!(exit.len(), n, "one exit mass per row");
        assert_eq!(order.len(), n, "order must permute every row");
        let mut position = vec![0; n];
        for (k, &v) in order.iter().enumerate() {
            position[v] = k;
        }
        let (mut kl, mut ku) = (0, 0);
        for (r, c, _) in a.iter() {
            let (i, j) = (position[r], position[c]);
            kl = kl.max(i.saturating_sub(j));
            ku = ku.max(j.saturating_sub(i));
        }
        let w = kl + ku + 1;
        let work = n.checked_mul(kl + 1).and_then(|x| x.checked_mul(ku + 1))?;
        let bytes = n
            .checked_mul(w)
            .and_then(|cells| cells.checked_mul(std::mem::size_of::<f64>()))?;
        if work > max_work || bytes > max_bytes {
            return None;
        }

        let mut band = vec![0.0; n * w];
        for (r, c, v) in a.iter() {
            if r != c {
                let (i, j) = (position[r], position[c]);
                band[i * w + j + kl - i] = v;
            }
        }
        let mut exit: Vec<f64> = order.iter().map(|&v| exit[v]).collect();
        for k in 0..n {
            let last = (n - 1).min(k + ku);
            let (done, rest) = band.split_at_mut((k + 1) * w);
            let row_k = &mut done[k * w..];
            // Row k's exit mass and remaining off-diagonals are the
            // Schur complement's row: its diagonal is their sum.
            let pivot = exit[k]
                + row_k[kl + 1..=kl + last - k]
                    .iter()
                    .map(|u| u.abs())
                    .sum::<f64>();
            if !(pivot > 0.0 && pivot.is_finite()) {
                return None;
            }
            row_k[kl] = pivot;
            let upper = &row_k[kl + 1..=kl + last - k];
            for i in k + 1..=(n - 1).min(k + kl) {
                let row_i = &mut rest[(i - k - 1) * w..(i - k) * w];
                let aik = row_i[k + kl - i];
                if aik == 0.0 {
                    continue;
                }
                let l = aik / pivot;
                row_i[k + kl - i] = l;
                // l ≤ 0: row i inherits row k's exit mass, scaled.
                exit[i] -= l * exit[k];
                for (x, &u) in row_i[k + 1 + kl - i..=last + kl - i].iter_mut().zip(upper) {
                    *x -= l * u;
                }
            }
        }
        Some(BandedLu {
            order,
            kl,
            ku,
            band,
        })
    }

    /// Solve `a·x = b` with the factors: one forward and one backward
    /// substitution.
    ///
    /// # Panics
    ///
    /// Panics if `b` does not match the dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.order.len();
        assert_eq!(b.len(), n, "right-hand side length");
        let (kl, ku) = (self.kl, self.ku);
        let w = kl + ku + 1;
        let mut x: Vec<f64> = self.order.iter().map(|&v| b[v]).collect();
        for i in 0..n {
            let first = i.saturating_sub(kl);
            let row = &self.band[i * w + first + kl - i..i * w + kl];
            let acc = row
                .iter()
                .zip(&x[first..i])
                .fold(x[i], |acc, (l, y)| acc - l * y);
            x[i] = acc;
        }
        for i in (0..n).rev() {
            let last = (n - 1).min(i + ku);
            let row = &self.band[i * w + kl..=i * w + kl + last - i];
            let acc = row[1..]
                .iter()
                .zip(&x[i + 1..=last])
                .fold(x[i], |acc, (u, y)| acc - u * y);
            x[i] = acc / row[0];
        }
        let mut out = vec![0.0; n];
        for (k, &v) in self.order.iter().enumerate() {
            out[v] = x[k];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::solver::reverse_cuthill_mckee;
    use crate::{CooBuilder, DenseMatrix};

    /// `I − P` for a random substochastic `P` on `n` states with about
    /// `degree` successors each, and its exit masses.
    fn random_m_matrix(n: usize, degree: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut b = CooBuilder::new(n, n);
        let mut exit = vec![0.0; n];
        for (i, e) in exit.iter_mut().enumerate() {
            b.push(i, i, 1.0);
            let leave = rng.range_f64(0.01, 0.2);
            let mut weights: Vec<(usize, f64)> = (0..degree)
                .map(|_| (rng.range_usize(n), rng.range_f64(0.1, 1.0)))
                .filter(|&(j, _)| j != i)
                .collect();
            let total: f64 = weights.iter().map(|w| w.1).sum();
            for (_, w) in &mut weights {
                *w *= (1.0 - leave) / total;
            }
            *e = if weights.is_empty() { 1.0 } else { leave };
            for (j, w) in weights {
                b.push(i, j, -w);
            }
        }
        (b.build().unwrap(), exit)
    }

    #[test]
    fn matches_dense_elimination() {
        for seed in 0..16 {
            let n = 40;
            let (a, exit) = random_m_matrix(n, 3, seed);
            let order = reverse_cuthill_mckee(&a);
            let lu = BandedLu::factor_m_matrix(&a, &exit, order, usize::MAX, usize::MAX).unwrap();
            let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.1).collect();
            let x = lu.solve(&b);
            let expect = DenseMatrix::from_csr(&a).solve(&b).unwrap();
            for (u, v) in x.iter().zip(&expect) {
                assert!((u - v).abs() <= 1e-12 * v.abs().max(1.0), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn any_order_gives_the_same_solution() {
        let (a, exit) = random_m_matrix(25, 4, 7);
        let b = vec![0.5; 25];
        let natural =
            BandedLu::factor_m_matrix(&a, &exit, (0..25).collect(), usize::MAX, usize::MAX)
                .unwrap()
                .solve(&b);
        let reversed =
            BandedLu::factor_m_matrix(&a, &exit, (0..25).rev().collect(), usize::MAX, usize::MAX)
                .unwrap()
                .solve(&b);
        for (u, v) in natural.iter().zip(&reversed) {
            assert!((u - v).abs() <= 1e-12 * v.abs(), "{u} vs {v}");
        }
    }

    #[test]
    fn stiff_chain_keeps_its_small_exit_mass() {
        // A three-state cycle that leaves with probability 2^-43 per step
        // from state 0: the expected number of steps from any state is
        // about 2.6e13, which elimination by differences cannot resolve.
        let eps = 2f64.powi(-43);
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0).push(0, 1, -(1.0 - eps));
        b.push(1, 1, 1.0).push(1, 2, -1.0);
        b.push(2, 2, 1.0).push(2, 0, -1.0);
        let a = b.build().unwrap();
        let lu =
            BandedLu::factor_m_matrix(&a, &[eps, 0.0, 0.0], vec![0, 1, 2], usize::MAX, usize::MAX)
                .unwrap();
        let steps = lu.solve(&[1.0; 3]);
        // From state 0: 3 steps per round, 1/eps rounds, minus the steps
        // of the last round that are not taken.
        let expect = 3.0 / eps - 2.0;
        assert!((steps[0] - expect).abs() <= 1e-12 * expect, "{}", steps[0]);
    }

    #[test]
    fn refuses_a_band_over_the_work_or_byte_cap() {
        let (a, exit) = random_m_matrix(30, 3, 3);
        let order = reverse_cuthill_mckee(&a);
        let lu =
            BandedLu::factor_m_matrix(&a, &exit, order.clone(), usize::MAX, usize::MAX).unwrap();
        let (kl, ku) = (lu.kl, lu.ku);
        let work = 30 * (kl + 1) * (ku + 1);
        let bytes = 30 * (kl + ku + 1) * 8;
        let factor = |max_work, max_bytes| {
            BandedLu::factor_m_matrix(&a, &exit, order.clone(), max_work, max_bytes).is_some()
        };
        assert!(factor(work, bytes));
        assert!(!factor(work - 1, usize::MAX));
        assert!(!factor(usize::MAX, bytes - 1));
    }

    #[test]
    fn refuses_a_singular_block() {
        // A closed two-state cycle: no exit mass, so no positive pivot.
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.0)
            .push(0, 1, -1.0)
            .push(1, 1, 1.0)
            .push(1, 0, -1.0);
        let a = b.build().unwrap();
        assert!(
            BandedLu::factor_m_matrix(&a, &[0.0, 0.0], vec![0, 1], usize::MAX, usize::MAX)
                .is_none()
        );
    }
}
