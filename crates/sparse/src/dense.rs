//! Small dense matrices with a direct (Gaussian-elimination) solver.
//!
//! The iterative solvers in [`crate::solver`] handle the large systems; this
//! type exists for small subsystems (e.g. per-BSCC steady-state equations)
//! and as an oracle in tests.

use crate::error::SolveError;
use crate::CsrMatrix;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        DenseMatrix { nrows, ncols, data }
    }

    /// Densify a sparse matrix.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let mut d = DenseMatrix::zeros(m.nrows(), m.ncols());
        for (r, c, v) in m.iter() {
            d[(r, c)] = v;
        }
        d
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "mul_vec: length mismatch");
        (0..self.nrows)
            .map(|i| (0..self.ncols).map(|j| self[(i, j)] * x[j]).sum())
            .collect()
    }

    /// Solve `self · x = b` by Gaussian elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a pivot falls below `1e-300`
    /// in absolute value, and [`SolveError::DimensionMismatch`] when
    /// `b.len() != nrows` or the matrix is not square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if self.nrows != self.ncols {
            return Err(SolveError::DimensionMismatch {
                expected: self.nrows,
                found: self.ncols,
            });
        }
        if b.len() != self.nrows {
            return Err(SolveError::DimensionMismatch {
                expected: self.nrows,
                found: b.len(),
            });
        }
        let n = self.nrows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let cand = a[r * n + col].abs();
                if cand > best {
                    best = cand;
                    pivot = r;
                }
            }
            if best < 1e-300 {
                return Err(SolveError::Singular);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for j in col + 1..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in col + 1..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &self.data[r * self.ncols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.nrows && c < self.ncols, "index out of bounds");
        &mut self.data[r * self.ncols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::CooBuilder;

    #[test]
    fn identity_solves_trivially() {
        let i = DenseMatrix::identity(3);
        let x = i.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_2x2() {
        let a = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero leading entry forces a row swap.
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[7.0, 9.0]).unwrap();
        assert_eq!(x, vec![9.0, 7.0]);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]), Err(SolveError::Singular));
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            a.solve(&[0.0, 0.0]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_rhs_len_rejected() {
        let a = DenseMatrix::identity(2);
        assert!(matches!(
            a.solve(&[0.0; 3]),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_csr_roundtrip() {
        let mut b = CooBuilder::new(2, 3);
        b.push(0, 2, 5.0).push(1, 0, -1.0);
        let m = b.build().unwrap();
        let d = DenseMatrix::from_csr(&m);
        assert_eq!(d[(0, 2)], 5.0);
        assert_eq!(d[(1, 0)], -1.0);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn solve_then_multiply_recovers_rhs() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xDE45E);
        for _ in 0..64 {
            let mut a = DenseMatrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] = rng.range_f64(-4.0, 4.0);
                }
                // Make diagonally dominant so the system is well conditioned.
                a[(i, i)] += 20.0;
            }
            let b: Vec<f64> = (0..3).map(|_| rng.range_f64(-10.0, 10.0)).collect();
            let x = a.solve(&b).unwrap();
            let back = a.mul_vec(&x);
            for (u, v) in back.iter().zip(&b) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
