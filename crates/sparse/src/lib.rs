//! Sparse and dense linear algebra substrate for the `mrmc` workspace.
//!
//! This crate provides exactly the numeric kernels the model-checking
//! algorithms of *Model Checking Markov Reward Models with Impulse Rewards*
//! need:
//!
//! * [`CsrMatrix`] — compressed-sparse-row matrices used for rate matrices,
//!   embedded/uniformized transition-probability matrices and generator
//!   matrices;
//! * [`DenseMatrix`] — small dense matrices with Gaussian elimination, used
//!   for direct solutions and for cross-checking the iterative solvers;
//! * [`solver`] — a banded direct solver for M-matrix systems and the
//!   iterative solvers (Gauss–Seidel, power iteration) for the linear
//!   systems arising in steady-state and unbounded-reachability analysis;
//! * [`vector`] — the handful of dense-vector kernels everything shares;
//! * [`rng`] — a deterministic in-tree pseudo-random generator
//!   (SplitMix64 / xoshiro256**), so the workspace builds and tests with
//!   no external `rand` dependency (hermetic, offline builds).
//!
//! # Example
//!
//! ```
//! use mrmc_sparse::{CooBuilder, vector};
//!
//! let mut b = CooBuilder::new(2, 2);
//! b.push(0, 0, 0.5);
//! b.push(0, 1, 0.5);
//! b.push(1, 1, 1.0);
//! let m = b.build().unwrap();
//! // Propagate a distribution one step: y = x · M.
//! let y = m.vec_mul(&[1.0, 0.0]);
//! assert_eq!(y, vec![0.5, 0.5]);
//! assert!((vector::sum(&y) - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod dense;
mod error;
pub mod rng;
pub mod solver;
pub mod vector;

pub use csr::{CooBuilder, CsrMatrix, RowEntries};
pub use dense::DenseMatrix;
pub use error::{BuildError, SolveError};
