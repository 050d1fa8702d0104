//! `paper-uniformization` (Tables 5.3, 5.4, 5.5, 5.7) and
//! `paper-discretization` (Tables 5.1, 5.8): the evaluation chapter's
//! configurations, checked through `CheckSession` on all states, as
//! `mrmc check` does, with per-row `u=<w>` or `d=<d>`.
//!
//! Expected values are the measured columns of `EXPERIMENTS.md`. Those
//! were computed with the thesis' uniformization rate pinned; `mrmc check`
//! picks the rate itself, so a row passes when the two values agree
//! within the sum of both error bounds. Table 5.8 must match to 1e-12.

use mrmc::{CheckOptions, UntilEngine};
use mrmc_models::phone;
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_sparse::rng::Xoshiro256StarStar;

use crate::files::ModelFiles;
use crate::inproc::{Expect, Op, Spec};
use crate::seeded::interleave;
use crate::RunConfig;

/// Table 5.3 (`w = 1e-11`): `(t, P, E)` as pinned in `EXPERIMENTS.md`.
const TABLE_5_3: [(f64, f64, f64); 10] = [
    (50.0, 0.005087385, 3.72e-9),
    (100.0, 0.010200959, 1.88e-8),
    (150.0, 0.015292325, 5.15e-8),
    (200.0, 0.020357791, 1.51e-7),
    (250.0, 0.025397188, 3.32e-7),
    (300.0, 0.030410619, 5.54e-7),
    (350.0, 0.035398076, 1.15e-6),
    (400.0, 0.037806745, 1.87e-5),
    (450.0, 0.035730820, 2.0965e-3),
    (500.0, 0.033427400, 1.19821e-2),
];

/// Table 5.4: `(t, P, E)`; the `(t, w)` schedule is
/// `mrmc_bench::tables::table_5_4_schedule`.
const TABLE_5_4: [(f64, f64, f64); 10] = [
    (50.0, 0.005063250, 4.57e-5),
    (100.0, 0.010187450, 2.66e-5),
    (150.0, 0.015256058, 6.93e-5),
    (200.0, 0.020342622, 2.50e-5),
    (250.0, 0.025345800, 8.05e-5),
    (300.0, 0.030384562, 3.47e-5),
    (350.0, 0.035378283, 2.39e-5),
    (400.0, 0.037806745, 1.87e-5),
    (450.0, 0.037807343, 1.76e-5),
    (500.0, 0.037807865, 1.66e-5),
];

/// Tables 5.5 and 5.7: `(n, P, E)` for the pinned even `n`.
const TABLE_5_5: [(usize, f64, f64); 6] = [
    (0, 0.021372, 4.12e-4),
    (2, 0.074298, 3.89e-4),
    (4, 0.240239, 2.56e-4),
    (6, 0.557037, 1.37e-4),
    (8, 0.871964, 4.38e-5),
    (10, 0.992591, 6.30e-6),
];
const TABLE_5_7: [(usize, f64, f64); 6] = [
    (0, 0.020207, 6.45e-4),
    (2, 0.068199, 7.58e-4),
    (4, 0.219586, 6.75e-4),
    (6, 0.517559, 4.69e-4),
    (8, 0.837509, 2.17e-4),
    (10, 0.985348, 3.90e-5),
];

/// Table 5.1: `(1/d, P)`, printed to 12 digits.
const TABLE_5_1: [(f64, f64); 3] = [
    (16.0, 0.215702406821),
    (32.0, 0.215824141836),
    (64.0, 0.215885230649),
];

/// Table 5.8 (`d = 0.25`): `(t, P)`.
const TABLE_5_8: [(f64, f64); 4] = [
    (50.0, 0.005061779415718185),
    (100.0, 0.01017556896790144),
    (150.0, 0.015267158582408307),
    (200.0, 0.020332872743413406),
];

fn dependability(t: f64) -> String {
    format!("P(> 0.1) [Sup U[0,{t}][0,3000] failed]")
}

const REACH_FULL_OPERATION: &str = "P(> 0.1) [TT U[0,100][0,2000] allUp]";
const PHONE: &str = "P(> 0.5) [(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]";

fn uni(w: f64) -> CheckOptions {
    CheckOptions::new().with_engine(UntilEngine::uniformization(w))
}

fn disc(d: f64) -> CheckOptions {
    CheckOptions::new().with_engine(UntilEngine::discretization(d))
}

/// `paper-uniformization`: 22 checks over four fresh sessions (one per
/// table). Each table runs its rows in the paper's order, so the Ω terms
/// one row leaves in the session cache for the next are the same at
/// every seed; the seed interleaves the tables.
///
/// # Errors
///
/// Model files that cannot be written.
pub fn uniformization(config: &RunConfig) -> Result<Spec, String> {
    let classic = TmrConfig::classic();
    let all_up = classic.state_with_working(classic.modules);
    let models = vec![
        ModelFiles::write(&config.work_dir, "tmr3", &tmr(&classic))?,
        ModelFiles::write(
            &config.work_dir,
            "tmr11",
            &tmr(&TmrConfig::with_modules(11)),
        )?,
        ModelFiles::write(
            &config.work_dir,
            "tmr11v",
            &tmr(&TmrConfig::with_modules(11).variable()),
        )?,
    ];
    let row =
        |slot, model, formula: String, options, label: String, rows: Vec<(usize, f64, f64)>| Op {
            slot,
            model,
            formula,
            options,
            label,
            expect: Expect::Pinned {
                rows,
                with_budget: true,
            },
        };
    let table_5_3 = |(t, p, e): (f64, f64, f64)| {
        row(
            0,
            0,
            dependability(t),
            uni(1e-11),
            format!("5.3 t={t}"),
            vec![(all_up, p, e)],
        )
    };
    let schedule = mrmc_bench::tables::table_5_4_schedule();
    let mut tables = vec![
        TABLE_5_3.into_iter().map(table_5_3).collect::<Vec<Op>>(),
        schedule
            .iter()
            .zip(&TABLE_5_4)
            .map(|(&(t, w), &(_, p, e))| {
                row(
                    1,
                    0,
                    dependability(t),
                    uni(w),
                    format!("5.4 t={t} w={w:e}"),
                    vec![(all_up, p, e)],
                )
            })
            .collect(),
    ];
    for (slot, model, table, pinned) in [(2, 1, "5.5", TABLE_5_5), (3, 2, "5.7", TABLE_5_7)] {
        tables.push(vec![row(
            slot,
            model,
            REACH_FULL_OPERATION.to_string(),
            uni(1e-8),
            table.to_string(),
            pinned.to_vec(),
        )]);
    }
    let mut warmup: Vec<Op> = TABLE_5_3
        .into_iter()
        .filter(|r| r.0 <= 250.0)
        .map(table_5_3)
        .collect();
    if config.smoke {
        tables.truncate(2);
        for table in &mut tables {
            table.truncate(1);
        }
        warmup.truncate(1);
    }
    let ops = interleave(tables, &mut Xoshiro256StarStar::seed_from_u64(config.seed));
    Ok(Spec {
        models,
        slots: 4,
        ops,
        warmup,
    })
}

/// `paper-discretization`: Table 5.1 on the phone model and Table 5.8 on
/// TMR(3), seven checks over two fresh sessions; the seed interleaves the
/// two tables, whose rows keep the paper's order.
///
/// # Errors
///
/// Model files that cannot be written.
pub fn discretization(config: &RunConfig) -> Result<Spec, String> {
    let classic = TmrConfig::classic();
    let models = vec![
        ModelFiles::write(&config.work_dir, "phone", &phone::phone())?,
        ModelFiles::write(&config.work_dir, "tmr3", &tmr(&classic))?,
    ];
    let mut tables: Vec<Vec<Op>> = vec![TABLE_5_1
        .into_iter()
        .map(|(inv_d, p)| Op {
            slot: 0,
            model: 0,
            formula: PHONE.to_string(),
            options: disc(1.0 / inv_d),
            label: format!("5.1 d=1/{inv_d}"),
            expect: Expect::Pinned {
                rows: vec![(phone::DOZE, p, 1e-12)],
                with_budget: true,
            },
        })
        .collect()];
    tables.push(
        TABLE_5_8
            .into_iter()
            .map(|(t, p)| Op {
                slot: 1,
                model: 1,
                formula: dependability(t),
                options: disc(0.25),
                label: format!("5.8 t={t}"),
                expect: Expect::Pinned {
                    rows: vec![(classic.state_with_working(classic.modules), p, 1e-12)],
                    with_budget: false,
                },
            })
            .collect(),
    );
    if config.smoke {
        for table in &mut tables {
            table.truncate(1);
        }
    }
    // Every row but the two finest Table 5.1 grids, which alone take
    // three quarters of a pass.
    let warmup = tables
        .iter()
        .flatten()
        .filter(|op| op.label != "5.1 d=1/32" && op.label != "5.1 d=1/64")
        .cloned()
        .collect();
    let ops = interleave(tables, &mut Xoshiro256StarStar::seed_from_u64(config.seed));
    Ok(Spec {
        models,
        slots: 2,
        ops,
        warmup,
    })
}
