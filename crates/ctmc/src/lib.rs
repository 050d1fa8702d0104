//! Labeled continuous-time Markov chains and their analyses.
//!
//! This crate implements Chapter 2 of *Model Checking Markov Reward Models
//! with Impulse Rewards*: labeled CTMCs and DTMCs ([`Ctmc`], [`Dtmc`],
//! [`Labeling`]), uniformization, transient analysis, steady-state analysis,
//! bottom-strongly-connected-component detection (Algorithm 4.2) and
//! unbounded reachability (Eq. 3.8) — the chain-level substrate the reward
//! model checker builds on.
//!
//! # Example
//!
//! ```
//! use mrmc_ctmc::CtmcBuilder;
//!
//! // A two-state on/off chain: fails at rate 0.1, repairs at rate 0.9.
//! let mut b = CtmcBuilder::new(2);
//! b.transition(0, 1, 0.1).transition(1, 0, 0.9);
//! b.label(0, "up").label(1, "down");
//! let ctmc = b.build()?;
//!
//! let analysis = mrmc_ctmc::steady::SteadyStateAnalysis::new(&ctmc, Default::default())?;
//! let up = analysis.probability_from(0, &ctmc.labeling().states_with("up"));
//! assert!((up - 0.9).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bscc;
mod builder;
mod ctmc;
mod dtmc;
mod error;
mod label;
pub mod poisson;
pub mod reach;
pub mod steady;

pub use builder::CtmcBuilder;
pub use ctmc::Ctmc;
pub use dtmc::Dtmc;
pub use error::ModelError;
pub use label::Labeling;
