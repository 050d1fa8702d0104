//! The direct Eq. 3.8 solver against a reference with a proven error far
//! below its own certified bound: on seeded random models and on the
//! cluster model's unbounded untils, every state lies within the direct
//! solve's bound of the reference.
//!
//! Tightly converged Gauss–Seidel is no such reference: its stop rule
//! bounds nothing, and at a 1e-15 update it is still up to 8e-14 away on
//! the stiff cluster systems, ten times the direct bound there. The
//! reference is refined in double-double arithmetic instead, and its
//! error is bounded with exact residuals.

use mrmc_ctmc::reach::{until_system, until_unbounded_certified};
use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::random::{random_mrm, RandomMrmConfig};
use mrmc_mrm::Mrm;
use mrmc_sparse::{CsrMatrix, DenseMatrix};

/// Unit roundoff of `f64`.
const U: f64 = f64::EPSILON / 2.0;

/// `a + b = s + e` exactly.
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// `a · b = p + e` exactly (barring underflow).
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    (p, a.mul_add(b, -p))
}

/// A double-double `hi + lo` with `|lo| ≤ u·|hi|`.
#[derive(Clone, Copy, Default)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    /// `self + x`, with a relative error below `4u²` of the result.
    fn add(self, x: f64) -> Dd {
        let (s, e) = two_sum(self.hi, x);
        let (hi, lo) = two_sum(s, e + self.lo);
        Dd { hi, lo }
    }
}

/// `Σ terms` in double-double, rounded to `f64`, with a bound on the
/// difference to the exact sum.
fn sum_exactly(terms: &[f64]) -> (f64, f64) {
    let total = terms.iter().fold(Dd::default(), |acc, &t| acc.add(t));
    let magnitude: f64 = terms.iter().map(|t| t.abs()).sum();
    let value = total.hi + total.lo;
    // Each addition errs by at most 4u²·Σ|terms|, each product's error
    // term by an underflow; the rounding to f64 by u·|value|. The factor 2
    // absorbs the rounding of this bound.
    let k = terms.len() as f64;
    let slack = 2.0 * (k * (4.0 * U * U * magnitude + f64::MIN_POSITIVE) + U * value.abs());
    (value, slack)
}

/// The exact terms of `(A·v)_i − weight·b_i` for `A = I − P_mm` and
/// `b = P_m1·1`, read straight from the rows of `probs`, with `v` given as
/// double-double parts over the maybe states.
fn defect_terms(
    probs: &CsrMatrix,
    sure: &[bool],
    unknown: &[usize],
    state: usize,
    v: &[(f64, f64)],
    weight: f64,
) -> Vec<f64> {
    let (hi, lo) = v[unknown[state]];
    let mut terms = vec![hi, lo];
    for (t, p) in probs.row(state) {
        if p <= 0.0 {
            continue;
        }
        if sure[t] {
            let (q, e) = two_prod(weight, p);
            terms.extend([-q, -e]);
        } else if unknown[t] != usize::MAX {
            let (h, l) = v[unknown[t]];
            for part in [h, l] {
                let (q, e) = two_prod(p, part);
                terms.extend([-q, -e]);
            }
        }
    }
    terms
}

/// `P(s, Φ U Ψ)` on the maybe states of the Eq. 3.8 system over the
/// floating-point `probs`, as double-double values, and a proven bound on
/// their error.
///
/// Iterative refinement: residuals `b − A·x` are summed exactly from the
/// rows of `probs`, and dense elimination of the assembled matrix solves
/// for the correction. The bound is `‖A⁻¹‖∞·‖b − A·x‖∞`: `A` is a
/// Z-matrix, so a `y ≥ 0` with `A·y ≥ c·1`, `c > 0` (checked with exact
/// residuals) proves it a nonsingular M-matrix with `A⁻¹·1 ≤ y/c`.
fn refined_reference(probs: &CsrMatrix, phi: &[bool], psi: &[bool]) -> (Vec<usize>, Vec<Dd>, f64) {
    let system = until_system(probs, phi, psi).unwrap();
    let m = system.states.len();
    let mut unknown = vec![usize::MAX; probs.nrows()];
    for (i, &s) in system.states.iter().enumerate() {
        unknown[s] = i;
    }
    let dense = DenseMatrix::from_csr(&system.matrix);
    let residuals = |x: &[Dd]| -> Vec<(f64, f64)> {
        let parts: Vec<(f64, f64)> = x.iter().map(|d| (d.hi, d.lo)).collect();
        system
            .states
            .iter()
            .map(|&s| {
                let terms = defect_terms(probs, psi, &unknown, s, &parts, 1.0);
                let (defect, slack) = sum_exactly(&terms);
                (-defect, slack)
            })
            .collect()
    };

    let mut x = vec![Dd::default(); m];
    for _ in 0..12 {
        let r: Vec<f64> = residuals(&x).into_iter().map(|(r, _)| r).collect();
        let d = dense.solve(&r).unwrap();
        for (xi, di) in x.iter_mut().zip(&d) {
            *xi = xi.add(*di);
        }
        if d.iter().all(|di| di.abs() <= 1e-30) {
            break;
        }
    }
    let rho = residuals(&x)
        .into_iter()
        .map(|(r, slack)| r.abs() + slack)
        .fold(0.0, f64::max);

    let y = dense.solve(&vec![1.0; m]).unwrap();
    assert!(y.iter().all(|&v| v > 0.0), "A⁻¹·1 must be positive");
    let parts: Vec<(f64, f64)> = y.iter().map(|&v| (v, 0.0)).collect();
    let c = system
        .states
        .iter()
        .map(|&s| {
            let (ay, slack) = sum_exactly(&defect_terms(probs, psi, &unknown, s, &parts, 0.0));
            ay - slack
        })
        .fold(f64::INFINITY, f64::min);
    assert!(c > 0.0, "A·y must be positive: {c:e}");
    let y_max = y.iter().copied().fold(0.0, f64::max);
    // 1 + 8u covers the rounding of the quotient and the product.
    let error = y_max / c * rho * (1.0 + 8.0 * U);
    (system.states, x, error)
}

/// Compare the direct solve of `Φ U Ψ` with the refined reference at every
/// state; returns the largest certified bound.
fn compare(m: &Mrm, phi: &[bool], psi: &[bool], what: &str) -> f64 {
    let embedded = m.ctmc().embedded_dtmc();
    let probs = embedded.probabilities();
    let options = mrmc_sparse::solver::SolverOptions::new();
    let direct = until_unbounded_certified(probs, phi, psi, psi, options).unwrap();
    let bounds = direct
        .error_bounds
        .expect("the direct solver handles these systems");

    let (states, reference, reference_error) = refined_reference(probs, phi, psi);
    let largest = bounds.iter().copied().fold(0.0, f64::max);
    assert!(
        reference_error <= 1e-3 * largest,
        "{what}: the reference's error {reference_error:e} is not far below the bounds"
    );
    let mut exact: Vec<Dd> = psi
        .iter()
        .map(|&p| Dd {
            hi: f64::from(u8::from(p)),
            lo: 0.0,
        })
        .collect();
    for (&s, &x) in states.iter().zip(&reference) {
        exact[s] = x;
    }
    for (s, (&p, x)) in direct.probabilities.iter().zip(&exact).enumerate() {
        // Two roundings: |p − x| ≤ |fl(fl(p − hi) − lo)|·(1 + 4u).
        let gap = ((p - x.hi) - x.lo).abs() * (1.0 + 4.0 * U);
        assert!(
            gap <= bounds[s] + reference_error,
            "{what}, state {s}: direct {p} ± {:e} vs reference {} ({gap:e} apart)",
            bounds[s],
            x.hi
        );
    }
    largest
}

#[test]
fn direct_solve_is_within_its_bound_on_random_models() {
    let cfg = RandomMrmConfig {
        states: 300,
        extra_transitions_per_state: 2.0,
        max_rate: 4.0,
        reward_levels: vec![0.0],
        impulse_levels: vec![0.0],
        goal_fraction: 0.05,
    };
    for seed in 0..8 {
        let m = random_mrm(seed, &cfg);
        let n = m.num_states();
        let goal = m.labeling().states_with("goal");
        let phi: Vec<bool> = (0..n).map(|s| s % 5 != 3).collect();
        let bound = compare(&m, &phi, &goal, &format!("seed {seed}"));
        assert!(bound < 1e-9, "seed {seed}: bound {bound:e}");
    }
}

#[test]
fn direct_solve_is_within_its_bound_on_the_cluster_untils() {
    let m = cluster(&ClusterConfig::new(4));
    let label = |ap: &str| m.labeling().states_with(ap);
    let not = |v: Vec<bool>| v.into_iter().map(|b| !b).collect::<Vec<_>>();
    let and = |a: Vec<bool>, b: Vec<bool>| a.iter().zip(&b).map(|(x, y)| *x && *y).collect();
    // The (Φ, Ψ) pairs of the cluster-analysis benchmark's unbounded untils.
    let shapes: [(&str, Vec<bool>, Vec<bool>); 5] = [
        ("backbone_up U down", label("backbone_up"), label("down")),
        (
            "premium U !backbone_up",
            label("premium"),
            not(label("backbone_up")),
        ),
        (
            "minimum U !backbone_up",
            label("minimum"),
            not(label("backbone_up")),
        ),
        (
            "backbone_up U !premium",
            label("backbone_up"),
            not(label("premium")),
        ),
        (
            "!down U !backbone_up && !premium",
            not(label("down")),
            and(not(label("backbone_up")), not(label("premium"))),
        ),
    ];
    for (what, phi, psi) in &shapes {
        let bound = compare(&m, phi, psi, what);
        assert!(bound > 0.0 && bound < 1e-9, "{what}: bound {bound:e}");
    }
}
