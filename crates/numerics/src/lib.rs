//! Numerical engines for model checking Markov reward models with impulse
//! rewards.
//!
//! This crate implements Chapter 4 of *Model Checking Markov Reward Models
//! with Impulse Rewards* — the numerically hard part of the thesis: computing
//! the joint probability `Pr{Y(t) ≤ r, X(t) ⊨ Ψ}` that underlies
//! time-and-reward-bounded until formulas (Theorems 4.1–4.3).
//!
//! Two independent engines are provided, mirroring the thesis:
//!
//! * [`uniformization`] — level-synchronous, merged path generation over
//!   the uniformized MRM (Algorithm 4.7) with path truncation by
//!   probability `w`, path-class aggregation on `(k, j)` reward-count
//!   vectors, conditional probabilities by the Omega algorithm of Diniz, de Souza e Silva & Gail
//!   (Algorithm 4.8, module [`omega`]), and the error bound of Eq. 4.6;
//! * [`discretization`] — the Tijms–Veldman discretization extended with
//!   impulse rewards (Algorithm 4.6).
//!
//! A third module, [`baseline`], implements the pre-existing state-of-the-art
//! the thesis compares against: time-bounded until *without* reward bounds
//! via Fox–Glynn uniformization (`[Bai03]`). Beyond the paper, the crate adds
//! a [`monte_carlo`] simulation engine (an independent validation path for
//! both numerical engines).
//!
//! # Example: `Pr{Y(t) ≤ r, X(t) ⊨ Ψ}` on the WaveLAN model
//!
//! ```
//! use mrmc_numerics::uniformization::{until_probability, UniformOptions};
//!
//! # fn wavelan() -> mrmc_mrm::Mrm {
//! #     let mut b = mrmc_ctmc::CtmcBuilder::new(5);
//! #     b.transition(0, 1, 0.1);
//! #     b.transition(1, 0, 0.05).transition(1, 2, 5.0);
//! #     b.transition(2, 1, 12.0).transition(2, 3, 1.5).transition(2, 4, 0.75);
//! #     b.transition(3, 2, 10.0);
//! #     b.transition(4, 2, 15.0);
//! #     b.label(2, "idle");
//! #     b.label(3, "busy");
//! #     b.label(4, "busy");
//! #     let ctmc = b.build().unwrap();
//! #     let rho = mrmc_mrm::StateRewards::new(vec![0.0, 80.0, 1319.0, 1675.0, 1425.0]).unwrap();
//! #     let mut iota = mrmc_mrm::ImpulseRewards::new();
//! #     iota.set(2, 3, 0.42545).unwrap();
//! #     iota.set(2, 4, 0.36195).unwrap();
//! #     mrmc_mrm::Mrm::new(ctmc, rho, iota).unwrap()
//! # }
//! let mrm = wavelan();
//! let phi = mrm.labeling().states_with("idle");
//! let psi = mrm.labeling().states_with("busy");
//! // Λt ≈ 29 here, so potential-based pruning keeps the default
//! // truncation probability usable (see `UniformOptions`).
//! let result = until_probability(
//!     &mrm, &phi, &psi, 2.0, 2000.0, 2,
//!     UniformOptions::new().with_improved_pruning(),
//! )?;
//! // Example 3.6 computes this probability in closed form: ≈ 0.15789.
//! assert!((result.probability - 0.15789).abs() < 1e-3);
//! # Ok::<(), mrmc_numerics::NumericsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod baseline;
pub mod budget;
pub mod discretization;
mod engine;
mod error;
pub mod kahan;
pub mod monte_carlo;
pub mod omega;
mod path_classes;
pub mod path_semantics;
pub mod reward_structure;
pub mod uniformization;

pub use budget::ErrorBudget;
pub use engine::{Unsupported, UntilEngine, UntilRoute};
pub use error::NumericsError;
pub use path_classes::{PathClassKey, PathClasses};

// Re-export the Poisson layer where the algorithms of this crate expect it.
pub use mrmc_ctmc::poisson;
