//! One function per table of the evaluation chapter.

use mrmc_models::phone;
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_mrm::{transform::make_absorbing, Mrm};
use mrmc_numerics::discretization::{self, DiscretizationOptions};
use mrmc_numerics::uniformization::{self, UniformOptions};

use crate::timed;

/// The thesis' uniformization-rate choice: `Λ = max_s E(s)` over the
/// *absorbed* model (no slack). This choice is what makes the constant-`w`
/// degradation of Table 5.3 reproducible: at `t = 500`,
/// `e^{−Λt} ≈ 1.19e-11` barely survives `w = 1e-11`.
pub fn thesis_lambda(mrm: &Mrm, phi: &[bool], psi: &[bool]) -> f64 {
    let absorb: Vec<bool> = phi.iter().zip(psi).map(|(&p, &q)| !p || q).collect();
    let absorbed = make_absorbing(mrm, &absorb).expect("valid absorb set");
    absorbed
        .ctmc()
        .exit_rates()
        .iter()
        .fold(0.0_f64, |m, &e| m.max(e))
        .max(f64::MIN_POSITIVE)
}

/// The Φ/Ψ sets of the TMR dependability formula
/// `P(>0.1)[Sup U[0,t][0,3000] failed]`.
pub fn tmr_dependability_sets(mrm: &Mrm) -> (Vec<bool>, Vec<bool>) {
    (
        mrm.labeling().states_with("Sup"),
        mrm.labeling().states_with("failed"),
    )
}

// ------------------------------------------------------------------
// Table 5.1 — results without impulse rewards (phone model, [Hav02]).
// ------------------------------------------------------------------

/// One row of Table 5.1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table51Row {
    /// Discretization step `d`.
    pub d: f64,
    /// `Pr{Y(24) ≤ 600, X(24) ⊨ Call_Initiated}`.
    pub probability: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The full Table 5.1 experiment: a uniformization reference value plus one
/// discretization row per step size.
#[derive(Debug, Clone, PartialEq)]
pub struct Table51 {
    /// Reference value (uniformization at tight truncation, standing in
    /// for the thesis' external reference 0.49540399).
    pub reference: f64,
    /// Error bound of the reference computation.
    pub reference_error: f64,
    /// Discretization rows for `d ∈ {1/16, 1/32, 1/64}`.
    pub rows: Vec<Table51Row>,
}

/// Run the Table 5.1 experiment:
/// `P(>0.5)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]` on the
/// phone model (state rewards only), by discretization with halving `d`.
pub fn table_5_1(steps: &[f64]) -> Table51 {
    let m = phone::phone();
    let phi: Vec<bool> = (0..m.num_states())
        .map(|s| m.labeling().has(s, "Call_Idle") || m.labeling().has(s, "Doze"))
        .collect();
    let psi = m.labeling().states_with("Call_Initiated");
    let (t, r, start) = (24.0, 600.0, phone::DOZE);

    let lambda = thesis_lambda(&m, &phi, &psi);
    let reference = uniformization::until_probability(
        &m,
        &phi,
        &psi,
        t,
        r,
        start,
        UniformOptions::new()
            .with_truncation(1e-11)
            .with_lambda(lambda)
            .with_improved_pruning(),
    )
    .expect("reference computation succeeds");

    let rows = steps
        .iter()
        .map(|&d| {
            let (res, seconds) = timed(|| {
                discretization::until_probability(
                    &m,
                    &phi,
                    &psi,
                    t,
                    r,
                    start,
                    DiscretizationOptions::with_step(d),
                )
                .expect("discretization succeeds")
            });
            Table51Row {
                d,
                probability: res.probability,
                seconds,
            }
        })
        .collect();

    Table51 {
        reference: reference.probability,
        reference_error: reference.error_bound,
        rows,
    }
}

// ------------------------------------------------------------------
// Tables 5.3/5.4 + Figure 5.3 — TMR(3), P(>0.1)[Sup U[0,t][0,3000] failed].
// ------------------------------------------------------------------

/// One row of Table 5.3 or 5.4.
#[derive(Debug, Clone, PartialEq)]
pub struct TmrUntilRow {
    /// Mission time `t`.
    pub t: f64,
    /// Truncation probability `w` used.
    pub w: f64,
    /// Computed probability `P`.
    pub probability: f64,
    /// Error bound `E` (Eq. 4.6).
    pub error_bound: f64,
    /// Wall-clock seconds `T`.
    pub seconds: f64,
    /// Path-tree nodes explored, merged or not (extra diagnostic, not in
    /// the thesis table).
    pub explored_nodes: u64,
}

/// Evaluate the TMR dependability formula from the fully-operational state
/// for one `(t, w)` pair.
pub fn tmr_until_row(mrm: &Mrm, config: &TmrConfig, t: f64, w: f64) -> TmrUntilRow {
    let (phi, psi) = tmr_dependability_sets(mrm);
    let lambda = thesis_lambda(mrm, &phi, &psi);
    let start = config.state_with_working(config.modules);
    let (res, seconds) = timed(|| {
        uniformization::until_probability(
            mrm,
            &phi,
            &psi,
            t,
            3000.0,
            start,
            UniformOptions::new().with_truncation(w).with_lambda(lambda),
        )
        .expect("uniformization succeeds")
    });
    TmrUntilRow {
        t,
        w,
        probability: res.probability,
        error_bound: res.error_bound,
        seconds,
        explored_nodes: res.explored_nodes,
    }
}

/// Table 5.3 (and the Figure 5.3 series): constant `w = 1e-11`,
/// `t ∈ {50, 100, …, 500}`.
pub fn table_5_3(ts: &[f64], w: f64) -> Vec<TmrUntilRow> {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    ts.iter()
        .map(|&t| tmr_until_row(&m, &config, t, w))
        .collect()
}

/// The `(t, w)` schedule of Table 5.4 (maintaining `E < 1e-4`).
pub fn table_5_4_schedule() -> Vec<(f64, f64)> {
    vec![
        (50.0, 1e-6),
        (100.0, 1e-7),
        (150.0, 1e-7),
        (200.0, 1e-8),
        (250.0, 1e-8),
        (300.0, 1e-9),
        (350.0, 1e-10),
        (400.0, 1e-11),
        (450.0, 1e-12),
        (500.0, 1e-13),
    ]
}

/// Table 5.4: per-`t` truncation probabilities chosen to keep the error
/// bound below `1e-4`.
pub fn table_5_4(schedule: &[(f64, f64)]) -> Vec<TmrUntilRow> {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    schedule
        .iter()
        .map(|&(t, w)| tmr_until_row(&m, &config, t, w))
        .collect()
}

// ------------------------------------------------------------------
// Tables 5.5/5.7 + Figures 5.4/5.5 — reaching the fully operational state.
// ------------------------------------------------------------------

/// One row of Table 5.5 / 5.7.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulesRow {
    /// Number of working modules in the starting state.
    pub n: usize,
    /// Computed probability `P`.
    pub probability: f64,
    /// Error bound `E`.
    pub error_bound: f64,
    /// Wall-clock seconds `T`.
    pub seconds: f64,
}

/// Shared implementation of Tables 5.5 and 5.7:
/// `P(>0.1)[tt U[0,100][0,2000] allUp]` on an 11-module system, starting
/// from `n ∈ 0..=10` working modules, `w = 1e-8`.
fn reach_full_operation(config: &TmrConfig, w: f64) -> Vec<ModulesRow> {
    let m = tmr(config);
    let phi = vec![true; m.num_states()];
    let psi = m.labeling().states_with("allUp");
    let lambda = thesis_lambda(&m, &phi, &psi);
    (0..config.modules)
        .map(|n| {
            let start = config.state_with_working(n);
            let (res, seconds) = timed(|| {
                uniformization::until_probability(
                    &m,
                    &phi,
                    &psi,
                    100.0,
                    2000.0,
                    start,
                    UniformOptions::new().with_truncation(w).with_lambda(lambda),
                )
                .expect("uniformization succeeds")
            });
            ModulesRow {
                n,
                probability: res.probability,
                error_bound: res.error_bound,
                seconds,
            }
        })
        .collect()
}

/// Table 5.5 (and the Figure 5.4 series): constant failure rates.
pub fn table_5_5(w: f64) -> Vec<ModulesRow> {
    reach_full_operation(&TmrConfig::with_modules(11), w)
}

/// Table 5.7 (and the Figure 5.5 series): variable failure rates
/// (Table 5.6 parameters).
pub fn table_5_7(w: f64) -> Vec<ModulesRow> {
    reach_full_operation(&TmrConfig::with_modules(11).variable(), w)
}

// ------------------------------------------------------------------
// Table 5.8 — discretization on the TMR model.
// ------------------------------------------------------------------

/// One row of Table 5.8.
#[derive(Debug, Clone, PartialEq)]
pub struct Table58Row {
    /// Mission time `t`.
    pub t: f64,
    /// Computed probability `P`.
    pub probability: f64,
    /// Wall-clock seconds `T`.
    pub seconds: f64,
    /// Number of time steps performed.
    pub time_steps: usize,
}

/// Table 5.8: the Table 5.3 formula evaluated by discretization with
/// `d = 0.25`, `t ∈ {50, 100, 150, 200}`.
pub fn table_5_8(ts: &[f64], d: f64) -> Vec<Table58Row> {
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let (phi, psi) = tmr_dependability_sets(&m);
    let start = config.state_with_working(config.modules);
    ts.iter()
        .map(|&t| {
            let (res, seconds) = timed(|| {
                discretization::until_probability(
                    &m,
                    &phi,
                    &psi,
                    t,
                    3000.0,
                    start,
                    DiscretizationOptions::with_step(d),
                )
                .expect("discretization succeeds")
            });
            Table58Row {
                t,
                probability: res.probability,
                seconds,
                time_steps: res.time_steps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thesis_lambda_matches_the_tmr_hand_computation() {
        let config = TmrConfig::classic();
        let m = tmr(&config);
        let (phi, psi) = tmr_dependability_sets(&m);
        // Absorbed model keeps only Sup-states 2up/3up active:
        // E(2up) = 0.0004 + 0.05 + 0.0001 = 0.0505.
        let lambda = thesis_lambda(&m, &phi, &psi);
        assert!((lambda - 0.0505).abs() < 1e-12);
    }

    #[test]
    fn table_5_3_shape_small() {
        // Three points are enough to verify growth in t and error growth.
        let rows = table_5_3(&[50.0, 100.0, 150.0], 1e-11);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].probability < rows[1].probability);
        assert!(rows[1].probability < rows[2].probability);
        assert!(rows[0].error_bound <= rows[2].error_bound * 10.0);
        // Paper's order of magnitude at t = 50: 0.005087.
        assert!(
            (rows[0].probability - 0.005).abs() < 0.002,
            "P(50) = {}",
            rows[0].probability
        );
    }

    #[test]
    fn table_5_4_keeps_error_small() {
        let rows = table_5_4(&[(50.0, 1e-6), (100.0, 1e-7)]);
        for row in rows {
            assert!(
                row.error_bound < 1e-4,
                "t = {}: E = {}",
                row.t,
                row.error_bound
            );
        }
    }

    #[test]
    fn table_5_5_is_monotone_in_n() {
        let rows = table_5_5(1e-8);
        assert_eq!(rows.len(), 11);
        for pair in rows.windows(2) {
            assert!(
                pair[0].probability <= pair[1].probability + 1e-9,
                "n = {}: {} > {}",
                pair[0].n,
                pair[0].probability,
                pair[1].probability
            );
        }
        // Near-certain from n = 10, tiny from n = 0.
        assert!(rows[10].probability > 0.9);
        assert!(rows[0].probability < 0.1);
    }

    #[test]
    fn table_5_7_is_dominated_by_table_5_5() {
        // Variable failure rates are higher, so reaching full operation is
        // less likely for every starting state.
        let constant = table_5_5(1e-8);
        let variable = table_5_7(1e-8);
        for (c, v) in constant.iter().zip(&variable) {
            assert!(
                v.probability <= c.probability + 1e-6,
                "n = {}: variable {} > constant {}",
                c.n,
                v.probability,
                c.probability
            );
        }
    }

    #[test]
    fn table_5_8_agrees_with_uniformization() {
        let disc = table_5_8(&[50.0, 100.0], 0.25);
        let uni = table_5_3(&[50.0, 100.0], 1e-11);
        for (d, u) in disc.iter().zip(&uni) {
            assert!(
                (d.probability - u.probability).abs() < 5e-3,
                "t = {}: disc {} vs uni {}",
                d.t,
                d.probability,
                u.probability
            );
        }
    }

    #[test]
    fn table_5_1_converges() {
        let out = table_5_1(&[1.0 / 16.0, 1.0 / 32.0]);
        assert_eq!(out.rows.len(), 2);
        let e16 = (out.rows[0].probability - out.reference).abs();
        let e32 = (out.rows[1].probability - out.reference).abs();
        assert!(
            e32 < e16,
            "halving d must shrink the error: {e16} -> {e32} (ref {})",
            out.reference
        );
    }
}
