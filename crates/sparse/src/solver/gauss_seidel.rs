//! Gauss–Seidel iteration for `A·x = b`.

use super::SolverOptions;
use crate::error::SolveError;
use crate::CsrMatrix;

/// Solve `A·x = b` by Gauss–Seidel sweeps, starting from `x0`.
///
/// The method converges for the diagonally dominant systems produced by the
/// model checker (`(I - P')·x = b` with `P'` substochastic, and generator
/// systems after the standard rearrangement).
///
/// # Errors
///
/// * [`SolveError::DimensionMismatch`] — `A` not square or `b`/`x0` of the
///   wrong length;
/// * [`SolveError::ZeroDiagonal`] — a row of `A` has no usable diagonal
///   entry;
/// * [`SolveError::NotConverged`] — the iteration cap was reached before the
///   maximum absolute update fell below the tolerance.
///
/// ```
/// use mrmc_sparse::{CooBuilder, solver::{gauss_seidel, SolverOptions}};
///
/// // 4x - y = 7 ; -x + 3y = 3  =>  x = 24/11, y = 19/11
/// let mut b = CooBuilder::new(2, 2);
/// b.push(0, 0, 4.0).push(0, 1, -1.0).push(1, 0, -1.0).push(1, 1, 3.0);
/// let a = b.build().unwrap();
/// let x = gauss_seidel(&a, &[7.0, 3.0], &[0.0, 0.0], SolverOptions::new())?;
/// assert!((x[0] - 24.0 / 11.0).abs() < 1e-10);
/// assert!((x[1] - 19.0 / 11.0).abs() < 1e-10);
/// # Ok::<(), mrmc_sparse::SolveError>(())
/// ```
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    options: SolverOptions,
) -> Result<Vec<f64>, SolveError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: a.ncols(),
        });
    }
    if b.len() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: b.len(),
        });
    }
    if x0.len() != n {
        return Err(SolveError::DimensionMismatch {
            expected: n,
            found: x0.len(),
        });
    }

    // Pre-extract diagonals and verify them once.
    let mut diag = vec![0.0; n];
    #[expect(clippy::needless_range_loop, reason = "r also indexes the matrix rows")]
    for r in 0..n {
        for (c, v) in a.row(r) {
            if c == r {
                diag[r] = v;
            }
        }
        if diag[r].abs() < 1e-300 {
            return Err(SolveError::ZeroDiagonal { index: r });
        }
    }

    let _span = mrmc_obs::span("solver");
    let mut x = x0.to_vec();
    let mut residual = f64::INFINITY;
    for iteration in 1..=options.max_iterations {
        residual = 0.0;
        for r in 0..n {
            let mut acc = b[r];
            for (c, v) in a.row(r) {
                if c != r {
                    acc -= v * x[c];
                }
            }
            let next = acc / diag[r];
            residual = residual.max((next - x[r]).abs());
            x[r] = next;
        }
        mrmc_obs::record(|| mrmc_obs::Event::SolverSweep {
            iteration: iteration as u64,
            residual,
        });
        if residual <= options.tolerance {
            mrmc_obs::record(|| mrmc_obs::Event::SolverDone {
                iterations: iteration as u64,
                residual,
                converged: true,
            });
            return Ok(x);
        }
        if !residual.is_finite() {
            mrmc_obs::record(|| mrmc_obs::Event::SolverDone {
                iterations: iteration as u64,
                residual,
                converged: false,
            });
            return Err(SolveError::NotConverged {
                iterations: iteration,
                residual,
            });
        }
    }
    mrmc_obs::record(|| mrmc_obs::Event::SolverDone {
        iterations: options.max_iterations as u64,
        residual,
        converged: false,
    });
    Err(SolveError::NotConverged {
        iterations: options.max_iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::{CooBuilder, DenseMatrix};

    fn matrix(rows: &[Vec<f64>]) -> CsrMatrix {
        let mut b = CooBuilder::new(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn solves_diagonally_dominant_system() {
        let a = matrix(&[
            vec![10.0, -1.0, 2.0],
            vec![-1.0, 11.0, -1.0],
            vec![2.0, -1.0, 10.0],
        ]);
        let b = [6.0, 25.0, -11.0];
        let x = gauss_seidel(&a, &b, &[0.0; 3], SolverOptions::new()).unwrap();
        let dense = DenseMatrix::from_csr(&a);
        let expect = dense.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&expect) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn zero_diagonal_rejected() {
        let a = matrix(&[vec![0.0, 1.0], vec![1.0, 1.0]]);
        assert_eq!(
            gauss_seidel(&a, &[1.0, 1.0], &[0.0, 0.0], SolverOptions::new()),
            Err(SolveError::ZeroDiagonal { index: 0 })
        );
    }

    #[test]
    fn reports_non_convergence() {
        // Strongly non-dominant system diverges.
        let a = matrix(&[vec![1.0, 10.0], vec![10.0, 1.0]]);
        let opts = SolverOptions::new().with_max_iterations(50);
        assert!(matches!(
            gauss_seidel(&a, &[1.0, 1.0], &[0.0, 0.0], opts),
            Err(SolveError::NotConverged { .. })
        ));
    }

    #[test]
    fn dimension_checks() {
        let a = matrix(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(matches!(
            gauss_seidel(&a, &[1.0], &[0.0, 0.0], SolverOptions::new()),
            Err(SolveError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            gauss_seidel(&a, &[1.0, 1.0], &[0.0], SolverOptions::new()),
            Err(SolveError::DimensionMismatch { .. })
        ));
        let rect = matrix(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        assert!(matches!(
            gauss_seidel(&rect, &[1.0, 1.0], &[0.0, 0.0], SolverOptions::new()),
            Err(SolveError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn reachability_style_system() {
        // (I - P) x = b with substochastic P: the shape used by Eq. 3.8.
        // P = [[0, 2/3], [1/3, 0]] restricted; b = [0, 2/3].
        // Solution: x0 = P(s1, eventually B1) = 4/7 (Example 3.5).
        let a = matrix(&[vec![1.0, -2.0 / 3.0], vec![-1.0 / 3.0, 1.0]]);
        let x = gauss_seidel(&a, &[0.0, 2.0 / 3.0], &[0.0, 0.0], SolverOptions::new()).unwrap();
        assert!((x[0] - 4.0 / 7.0).abs() < 1e-10);
        assert!((x[1] - 6.0 / 7.0).abs() < 1e-10);
    }

    #[test]
    fn agrees_with_direct_solver() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x65DE1);
        for _ in 0..64 {
            let mut rows = vec![vec![0.0; 4]; 4];
            for row in &mut rows {
                for x in row.iter_mut() {
                    *x = rng.range_f64(-1.0, 1.0);
                }
            }
            for (i, row) in rows.iter_mut().enumerate() {
                row[i] += 6.0; // force dominance
            }
            let b: Vec<f64> = (0..4).map(|_| rng.range_f64(-5.0, 5.0)).collect();
            let a = matrix(&rows);
            let x = gauss_seidel(&a, &b, &[0.0; 4], SolverOptions::new()).unwrap();
            let expect = DenseMatrix::from_rows(&rows).solve(&b).unwrap();
            for (u, v) in x.iter().zip(&expect) {
                assert!((u - v).abs() < 1e-8);
            }
        }
    }
}
