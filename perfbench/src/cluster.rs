//! `cluster-analysis`: 40 generated formulas per pass over the cluster
//! model at N = 32 (8712 states), loaded from files into one fresh
//! session per pass.
//!
//! The mix is ten each of steady state `S`, unbounded `P[Φ U Ψ]` with
//! non-trivial probabilities, time-bounded `P[Φ U[0,t] Ψ]`, and nested
//! `P[Φ U S(..)]`, in a fixed order of shapes. The seed draws the
//! comparison operators and the thresholds (distinct, so no two checks
//! share a cache entry). The cost of a pass therefore does not depend on
//! the seed, while the formulas do.

use mrmc::CheckOptions;
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_sparse::rng::Xoshiro256StarStar;

use crate::files::ModelFiles;
use crate::inproc::{Expect, Op, Spec};
use crate::seeded::{shuffle, COMPARISONS};
use crate::RunConfig;

/// Workstations per sub-cluster: `(N+1)² · 8` states.
pub const WORKSTATIONS: usize = 32;
const SMOKE_WORKSTATIONS: usize = 3;

/// Allowed disagreement with the unreduced, unsliced reference for
/// operators without an error budget: both runs stop Gauss–Seidel at a
/// 1e-12 update, so they agree far tighter than this.
const SOLVER_TOLERANCE: f64 = 1e-8;

/// State sets of the steady-state operators (and the nested ones).
const STEADY: [&str; 5] = [
    "premium",
    "minimum",
    "backbone_up",
    "premium && backbone_up",
    "minimum && !premium",
];

/// `(Φ, Ψ)` of the unbounded untils; each has states with probability
/// strictly between 0 and 1.
const UNBOUNDED: [(&str, &str); 5] = [
    ("backbone_up", "down"),
    ("premium", "!backbone_up"),
    ("minimum", "!backbone_up"),
    ("backbone_up", "!premium"),
    ("!down", "!backbone_up && !premium"),
];

/// `(Φ, Ψ, t)` of the time-bounded untils.
const TIME_BOUNDED: [(&str, &str, f64); 10] = [
    ("minimum", "down", 10.0),
    ("minimum", "down", 50.0),
    ("premium", "!premium", 10.0),
    ("premium", "!premium", 50.0),
    ("TT", "down", 10.0),
    ("TT", "down", 50.0),
    ("backbone_up", "!backbone_up", 10.0),
    ("backbone_up", "!backbone_up", 50.0),
    ("premium", "!backbone_up", 10.0),
    ("premium", "!backbone_up", 50.0),
];

/// Φ of the nested `P[Φ U S(..)]`.
const NESTED_PHI: [&str; 2] = ["TT", "minimum"];

/// Draw `count` distinct thresholds from `grid`, in seeded order.
fn thresholds(grid: &[f64], count: usize, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
    let mut g = grid.to_vec();
    shuffle(&mut g, rng);
    g.truncate(count);
    g
}

/// The 40 formulas of one pass, each with its reference-sharing key.
pub fn formulas(seed: u64) -> Vec<(String, String)> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let op = |rng: &mut Xoshiro256StarStar| COMPARISONS[rng.range_usize(COMPARISONS.len())];
    // Top-level steady thresholds and nested inner thresholds come from
    // disjoint grids, so no nested check reuses a top-level result.
    let steady_grid: Vec<f64> = (0..20).map(|k| 0.9 + 0.005 * f64::from(k)).collect();
    let inner_grid: Vec<f64> = (0..20).map(|k| 0.9025 + 0.005 * f64::from(k)).collect();
    let prob_grid: Vec<f64> = (1..40).map(|k| 0.025 * f64::from(k)).collect();

    let mut out = Vec::new();
    let steady_q = thresholds(&steady_grid, 10, &mut rng);
    for (i, q) in steady_q.into_iter().enumerate() {
        let set = STEADY[i % STEADY.len()];
        out.push((
            format!("S({} {q:.4}) ({set})", op(&mut rng)),
            format!("S {set}"),
        ));
    }
    let p = thresholds(&prob_grid, 30, &mut rng);
    for (i, &(phi, psi)) in UNBOUNDED.iter().cycle().take(10).enumerate() {
        out.push((
            format!("P({} {:.3}) [{phi} U {psi}]", op(&mut rng), p[i]),
            format!("U {phi} {psi}"),
        ));
    }
    for (i, &(phi, psi, t)) in TIME_BOUNDED.iter().enumerate() {
        out.push((
            format!(
                "P({} {:.3}) [{phi} U[0,{t}] {psi}]",
                op(&mut rng),
                p[10 + i]
            ),
            format!("T {phi} {psi} {t}"),
        ));
    }
    let inner_q = thresholds(&inner_grid, 10, &mut rng);
    for (i, q) in inner_q.into_iter().enumerate() {
        let phi = NESTED_PHI[i % NESTED_PHI.len()];
        let set = STEADY[i % STEADY.len()];
        let inner = format!("S({} {q:.4}) ({set})", op(&mut rng));
        out.push((
            format!("P({} {:.3}) [{phi} U {inner}]", op(&mut rng), p[20 + i]),
            format!("N {phi} {inner}"),
        ));
    }
    // Kinds take turns in a fixed order: where a check sits in the pass
    // changes its cost (the session's caches grow as the pass goes on),
    // so the seed must not move shapes around.
    let (kinds, per_kind) = (4, out.len() / 4);
    (0..out.len())
        .map(|i| out[(i % kinds) * per_kind + i / kinds].clone())
        .collect()
}

/// The `cluster-analysis` workload.
///
/// # Errors
///
/// Model files that cannot be written.
pub fn workload(config: &RunConfig) -> Result<Spec, String> {
    let n = if config.smoke {
        SMOKE_WORKSTATIONS
    } else {
        WORKSTATIONS
    };
    let models = vec![ModelFiles::write(
        &config.work_dir,
        "cluster",
        &cluster(&ClusterConfig::new(n)),
    )?];
    let mut ops: Vec<Op> = formulas(config.seed)
        .into_iter()
        .map(|(formula, key)| Op {
            slot: 0,
            model: 0,
            label: formula.clone(),
            formula,
            options: CheckOptions::new(),
            expect: Expect::Unreduced {
                key,
                tolerance: SOLVER_TOLERANCE,
            },
        })
        .collect();
    if config.smoke {
        // One formula of each kind.
        let mut kinds = Vec::new();
        ops.retain(|op| {
            let Expect::Unreduced { key, .. } = &op.expect else {
                return false;
            };
            let kind = key.split(' ').next().unwrap_or_default().to_string();
            let first = !kinds.contains(&kind);
            kinds.push(kind);
            first
        });
    }
    let warmup = ops.iter().take(8).cloned().collect();
    Ok(Spec {
        models,
        slots: 1,
        ops,
        warmup,
    })
}
