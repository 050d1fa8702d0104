//! Golden bits of the uniformization path DFS (Algorithm 4.7) and the
//! Eq. 4.5 fold on the TMR dependability formula of Tables 5.3/5.4.
//!
//! The expected values are the exact `f64` bit patterns and work counters
//! of `until_probabilities_all`. Any change to the DFS visiting order, the
//! pruning rule, the Poisson factors or the order of the class summation
//! changes at least one of them, so this test fails loudly where the
//! tolerance-based table tests would still pass.

use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_numerics::uniformization::{self, UniformOptions};

/// `(state, probability, error_bound, budget.float_accumulation,
/// explored_nodes, truncated_paths, stored_paths, num_classes)`, with the
/// three `f64` fields as `to_bits()`.
type Pin = (usize, u64, u64, u64, u64, u64, u64, usize);

/// `Sup U[0,t][0,3000] failed` on TMR(3) from every state, at the thesis'
/// `Λ = 0.0505`; returns the pins of the states that explored paths.
fn run(t: f64, w: f64) -> Vec<Pin> {
    let m = tmr(&TmrConfig::classic());
    let phi = m.labeling().states_with("Sup");
    let psi = m.labeling().states_with("failed");
    let options = UniformOptions::new().with_truncation(w).with_lambda(0.0505);
    let all = uniformization::until_probabilities_all(&m, &phi, &psi, t, 3000.0, options)
        .expect("uniformization succeeds");
    all.iter()
        .enumerate()
        .filter(|(_, r)| r.explored_nodes > 0)
        .map(|(s, r)| {
            (
                s,
                r.probability.to_bits(),
                r.error_bound.to_bits(),
                r.budget.float_accumulation.to_bits(),
                r.explored_nodes,
                r.truncated_paths,
                r.stored_paths,
                r.num_classes,
            )
        })
        .collect()
}

/// Table 5.3, `t = 100`, `w = 1e-11`. State 3 is the all-up start state
/// of the table row.
#[test]
fn table_5_3_t100_bits() {
    #[rustfmt::skip]
    let expected: Vec<Pin> = vec![
        // P = 0.9999999999930107, E = 6.988282e-12
        (0, 0x3fefffffffff0a16, 0x3d9ebc1b48555280, 0x3d71a3a64dfa2ea5, 27, 1, 27, 27),
        (1, 0x3fefffffffff0a16, 0x3d9ebc1b48555280, 0x3d71a3a64dfa2ea5, 27, 1, 27, 27),
        // P = 0.01794663153052785, E = 1.443948e-08
        (2, 0x3f92609a0dfce834, 0x3e4f023015eb329e, 0x3d144344ccc4c653, 5339, 4753, 2963, 721),
        // P = 0.01020095923617836, E = 1.881338e-08
        (3, 0x3f84e43d92752d3e, 0x3e5433619981e66d, 0x3d07097e411b48a5, 6799, 6121, 3739, 791),
        (4, 0x3fefffffffff0a16, 0x3d9ebc1b48555280, 0x3d71a3a64dfa2ea5, 27, 1, 27, 27),
    ];
    assert_eq!(run(100.0, 1e-11), expected);
}

/// Table 5.4, `t = 150`, `w = 1e-7`.
#[test]
fn table_5_4_t150_bits() {
    #[rustfmt::skip]
    let expected: Vec<Pin> = vec![
        // P = 0.9999998713721201, E = 1.286279e-07
        (0, 0x3fefffffbaf184d0, 0x3e81439ec9da5913, 0x3d71a62c8e223d6c, 26, 1, 26, 26),
        (1, 0x3fefffffbaf184d0, 0x3e81439ec9da5913, 0x3d71a62c8e223d6c, 26, 1, 26, 26),
        // P = 0.023012974429984425, E = 5.522035e-05
        (2, 0x3f9790b6923deb27, 0x3f0cf38cd3c36cc4, 0x3d19ff75dfbbd9a5, 1391, 1383, 700, 382),
        // P = 0.015256058216005843, E = 6.933131e-05
        (3, 0x3f8f3e9178d43541, 0x3f122cbec3c682c9, 0x3d113c732ecd8cd6, 1602, 1635, 785, 408),
        (4, 0x3fefffffbaf184d0, 0x3e81439ec9da5913, 0x3d71a62c8e223d6c, 26, 1, 26, 26),
    ];
    assert_eq!(run(150.0, 1e-7), expected);
}
