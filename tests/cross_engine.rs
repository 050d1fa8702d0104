//! Cross-engine equivalence: the thesis' own correctness argument
//! (Section 5.3.3) — uniformization and discretization must converge to the
//! same values, and both must degenerate to the state-reward-free baseline
//! when the reward bound is loose.

use mrmc_models::cluster::{cluster, ClusterConfig};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_models::{phone, random, wavelan};
use mrmc_numerics::baseline;
use mrmc_numerics::discretization::{self, DiscretizationOptions};
use mrmc_numerics::uniformization::{self, UniformOptions};

#[test]
fn tmr_engines_agree_at_several_horizons() {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let phi = m.labeling().states_with("Sup");
    let psi = m.labeling().states_with("failed");
    let start = config.state_with_working(3);

    for &t in &[50.0, 100.0, 200.0] {
        let uni = uniformization::until_probability(
            &m,
            &phi,
            &psi,
            t,
            3000.0,
            start,
            UniformOptions::new()
                .with_truncation(1e-11)
                .with_lambda(0.0505),
        )
        .unwrap();
        let disc = discretization::until_probability(
            &m,
            &phi,
            &psi,
            t,
            3000.0,
            start,
            DiscretizationOptions::with_step(0.25),
        )
        .unwrap();
        assert!(
            (uni.probability - disc.probability).abs() < 5e-4 + uni.error_bound,
            "t = {t}: uniformization {} vs discretization {}",
            uni.probability,
            disc.probability
        );
    }
}

#[test]
fn cluster_uniformization_agrees_with_discretization() {
    // Same contract on a structurally different model: the workstation
    // cluster with repair impulses (larger state space, denser branching).
    let config = ClusterConfig::new(2);
    let m = cluster(&config);
    let phi = vec![true; m.num_states()];
    let premium = m.labeling().states_with("premium");
    let psi: Vec<bool> = premium.iter().map(|&p| !p).collect();
    let start = config.all_up();
    let (t, r) = (10.0, 25.0);
    let options = UniformOptions::new()
        .with_truncation(1e-9)
        .with_improved_pruning();

    let uni = uniformization::until_probability(&m, &phi, &psi, t, r, start, options).unwrap();
    assert!(uni.probability > 0.0, "degradation must be reachable");
    let disc = discretization::until_probability(
        &m,
        &phi,
        &psi,
        t,
        r,
        start,
        DiscretizationOptions::with_step(1.0 / 16.0),
    )
    .unwrap();
    assert!(
        (uni.probability - disc.probability).abs() < 5e-3 + uni.error_bound,
        "uniformization {} (±{}) vs discretization {}",
        uni.probability,
        uni.error_bound,
        disc.probability
    );
}

#[test]
fn phone_engines_agree() {
    let m = phone::phone();
    let phi: Vec<bool> = (0..m.num_states())
        .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
        .collect();
    let psi = m.labeling().states_with("Call_Initiated");

    let uni = uniformization::until_probability(
        &m,
        &phi,
        &psi,
        24.0,
        600.0,
        phone::DOZE,
        UniformOptions::new()
            .with_truncation(1e-10)
            .with_improved_pruning(),
    )
    .unwrap();
    let disc = discretization::until_probability(
        &m,
        &phi,
        &psi,
        24.0,
        600.0,
        phone::DOZE,
        DiscretizationOptions::with_step(1.0 / 64.0),
    )
    .unwrap();
    assert!(
        (uni.probability - disc.probability).abs() < 5e-3,
        "uniformization {} vs discretization {}",
        uni.probability,
        disc.probability
    );
}

#[test]
fn loose_reward_bound_matches_the_baseline() {
    // With a reward bound far above anything reachable, both reward-aware
    // engines must agree with plain time-bounded until.
    let m = wavelan();
    let phi = m.labeling().states_with("idle");
    let psi = m.labeling().states_with("busy");
    let t = 0.4;

    let reference = baseline::until_time_bounded(&m, &phi, &psi, t, 1e-12).unwrap()[2];
    let uni = uniformization::until_probability(
        &m,
        &phi,
        &psi,
        t,
        1e9,
        2,
        UniformOptions::new().with_truncation(1e-11),
    )
    .unwrap();
    assert!(
        (uni.probability - reference).abs() < 1e-6 + uni.error_bound,
        "uniformization {} vs baseline {reference}",
        uni.probability
    );

    let disc = discretization::until_probability(
        &m,
        &phi,
        &psi,
        t,
        1000.0, // comfortably above 1319·0.4 + impulses ≈ 528
        2,
        DiscretizationOptions::with_step(1.0 / 256.0),
    )
    .unwrap();
    assert!(
        (disc.probability - reference).abs() < 5e-3,
        "discretization {} vs baseline {reference}",
        disc.probability
    );
}

#[test]
fn zero_impulse_models_agree_with_impulse_api() {
    // The generic engines run the impulse-reward code path even when every
    // impulse is zero; the result must match a hand-stripped model.
    let with = phone::phone_with_impulses();
    let without = phone::phone();
    let phi: Vec<bool> = (0..5)
        .map(|s| with.labeling().has(s, "Call_Idle") || with.labeling().has(s, "Doze"))
        .collect();
    let psi = with.labeling().states_with("Call_Initiated");
    let opts = UniformOptions::new()
        .with_truncation(1e-9)
        .with_improved_pruning();

    // With a huge reward bound the impulses cannot matter.
    let a = uniformization::until_probability(&with, &phi, &psi, 12.0, 1e9, 0, opts).unwrap();
    let b = uniformization::until_probability(&without, &phi, &psi, 12.0, 1e9, 0, opts).unwrap();
    assert!(
        (a.probability - b.probability).abs() < 1e-9 + a.error_bound + b.error_bound,
        "{} vs {}",
        a.probability,
        b.probability
    );
}

#[test]
fn random_models_cross_engine() {
    // Seeded random MRMs with integer rewards: both engines within a few
    // times the discretization step of each other.
    let cfg = random::RandomMrmConfig {
        states: 5,
        extra_transitions_per_state: 1.0,
        max_rate: 2.0,
        reward_levels: vec![0.0, 1.0, 3.0],
        impulse_levels: vec![0.0, 1.0],
        goal_fraction: 0.3,
    };
    for seed in [1u64, 7, 23] {
        let m = random::random_mrm(seed, &cfg);
        let phi = vec![true; m.num_states()];
        let psi = m.labeling().states_with("goal");
        let (t, r) = (1.0, 4.0);

        let uni = uniformization::until_probability(
            &m,
            &phi,
            &psi,
            t,
            r,
            0,
            UniformOptions::new().with_truncation(1e-9),
        )
        .unwrap();
        let disc = discretization::until_probability(
            &m,
            &phi,
            &psi,
            t,
            r,
            0,
            DiscretizationOptions::with_step(1.0 / 512.0),
        )
        .unwrap();
        assert!(
            (uni.probability - disc.probability).abs() < 0.02 + uni.error_bound,
            "seed {seed}: uniformization {} (±{}) vs discretization {}",
            uni.probability,
            uni.error_bound,
            disc.probability
        );
    }
}
