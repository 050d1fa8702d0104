//! Regenerate every table and figure of the evaluation chapter.
//!
//! ```text
//! experiments [all|table5.1|table5.2|table5.3|table5.4|table5.5|table5.6|
//!              table5.7|table5.8|figures] [--out <dir>]
//! ```
//!
//! Tables are printed to stdout with the same row structure as the thesis;
//! `figures` (also included in `all`) writes the CSV series behind
//! Figures 5.3, 5.4 and 5.5 to the output directory (default
//! `experiments-out/`). The extra `validate` command cross-checks the
//! three engines (uniformization, discretization, Monte-Carlo simulation)
//! against each other on the evaluation queries.

use std::path::PathBuf;
use std::process::ExitCode;

use mrmc_bench::tables;
use mrmc_bench::{fmt_e, fmt_p, timed};
use mrmc_models::tmr::{tmr, TmrConfig};
use mrmc_models::wavelan;
use mrmc_numerics::discretization::{self, DiscretizationOptions};
use mrmc_numerics::monte_carlo::{estimate_until, SimulationOptions};
use mrmc_numerics::uniformization::{self, UniformOptions};

fn print_table_5_1() {
    println!("== Table 5.1: Result without Impulse Rewards (phone model) ==");
    println!("   formula: P(>0.5)[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]");
    let out = tables::table_5_1(&[1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0]);
    println!(
        "   reference (uniformization, w=1e-11, improved pruning): {} (error bound {})",
        fmt_p(out.reference),
        fmt_e(out.reference_error)
    );
    println!(
        "   {:>8} | {:>22} | {:>12}",
        "d", "Pr{{Y<=600, X|=Psi}}", "time (s)"
    );
    for row in &out.rows {
        println!(
            "   {:>8} | {:>22} | {:>12.3}",
            format!("1/{}", (1.0 / row.d).round() as u64),
            fmt_p(row.probability),
            row.seconds
        );
    }
    println!();
}

fn print_rates(config: &TmrConfig, title: &str) {
    println!("== {title} ==");
    let fail = if config.variable_failure {
        format!("n x {}", config.module_failure_rate)
    } else {
        format!("{}", config.module_failure_rate)
    };
    println!("   failure of modules : {fail} / hour");
    println!(
        "   failure of voter   : {} / hour",
        config.voter_failure_rate
    );
    println!(
        "   repair of modules  : {} / hour",
        config.module_repair_rate
    );
    println!(
        "   repair of voter    : {} / hour",
        config.voter_repair_rate
    );
    println!(
        "   state rewards      : {} + {} per failed module; vdown {}",
        config.base_state_reward, config.per_failed_module_reward, config.vdown_state_reward
    );
    println!(
        "   impulse rewards    : {} per module repair, {} per voter repair",
        config.module_repair_impulse, config.voter_repair_impulse
    );
    println!();
}

fn print_tmr_until(rows: &[tables::TmrUntilRow], title: &str) {
    println!("== {title} ==");
    println!("   formula: P(>0.1)[Sup U[0,t][0,3000] failed], start = all up");
    println!(
        "   {:>5} | {:>8} | {:>22} | {:>14} | {:>9} | {:>10}",
        "t", "w", "P", "E", "time (s)", "nodes"
    );
    for r in rows {
        println!(
            "   {:>5} | {:>8.0e} | {:>22} | {:>14} | {:>9.3} | {:>10}",
            r.t,
            r.w,
            fmt_p(r.probability),
            fmt_e(r.error_bound),
            r.seconds,
            r.explored_nodes
        );
    }
    println!();
}

fn print_modules(rows: &[tables::ModulesRow], title: &str) {
    println!("== {title} ==");
    println!("   formula: P(>0.1)[TT U[0,100][0,2000] allUp], w = 1e-8");
    println!(
        "   {:>3} | {:>22} | {:>14} | {:>9}",
        "n", "P", "E", "time (s)"
    );
    for r in rows {
        println!(
            "   {:>3} | {:>22} | {:>14} | {:>9.3}",
            r.n,
            fmt_p(r.probability),
            fmt_e(r.error_bound),
            r.seconds
        );
    }
    println!();
}

fn print_table_5_8() {
    println!("== Table 5.8: Results by Discretization (TMR, d = 0.25) ==");
    let rows = tables::table_5_8(&[50.0, 100.0, 150.0, 200.0], 0.25);
    println!(
        "   {:>5} | {:>22} | {:>9} | {:>7}",
        "t", "P", "time (s)", "steps"
    );
    for r in &rows {
        println!(
            "   {:>5} | {:>22} | {:>9.3} | {:>7}",
            r.t,
            fmt_p(r.probability),
            r.seconds,
            r.time_steps
        );
    }
    println!();
}

fn write_csv(
    path: &PathBuf,
    header: &str,
    rows: impl Iterator<Item = String>,
) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{row}")?;
    }
    Ok(())
}

fn figures(out_dir: &PathBuf) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;

    // Figure 5.3: T vs t and E vs t at constant w = 1e-11.
    let ts: Vec<f64> = (1..=10).map(|k| 50.0 * k as f64).collect();
    let rows = tables::table_5_3(&ts, 1e-11);
    write_csv(
        &out_dir.join("figure_5_3.csv"),
        "t,probability,error_bound,seconds,explored_nodes",
        rows.iter().map(|r| {
            format!(
                "{},{},{},{},{}",
                r.t, r.probability, r.error_bound, r.seconds, r.explored_nodes
            )
        }),
    )?;
    println!("wrote {}", out_dir.join("figure_5_3.csv").display());

    // Figure 5.4: P and T vs n, constant failure rates.
    let rows = tables::table_5_5(1e-8);
    write_csv(
        &out_dir.join("figure_5_4.csv"),
        "n,probability,error_bound,seconds",
        rows.iter()
            .map(|r| format!("{},{},{},{}", r.n, r.probability, r.error_bound, r.seconds)),
    )?;
    println!("wrote {}", out_dir.join("figure_5_4.csv").display());

    // Figure 5.5: P and T vs n, variable failure rates.
    let rows = tables::table_5_7(1e-8);
    write_csv(
        &out_dir.join("figure_5_5.csv"),
        "n,probability,error_bound,seconds",
        rows.iter()
            .map(|r| format!("{},{},{},{}", r.n, r.probability, r.error_bound, r.seconds)),
    )?;
    println!("wrote {}", out_dir.join("figure_5_5.csv").display());
    Ok(())
}

/// Cross-check the three engines on the TMR dependability query at a few
/// mission times.
fn validate() {
    println!("== Engine validation: P[Sup U[0,t][0,3000] failed] on TMR(3) ==");
    println!(
        "   {:>5} | {:>16} | {:>16} | {:>22} | {:>8}",
        "t", "uniformization", "discretization", "simulation (±σ)", "agree"
    );
    let config = TmrConfig::classic();
    let m = tmr(&config);
    let (phi, psi) = tables::tmr_dependability_sets(&m);
    let lambda = tables::thesis_lambda(&m, &phi, &psi);
    let start = config.state_with_working(config.modules);

    let mut all_ok = true;
    for t in [50.0, 100.0, 200.0] {
        let (uni, _) = timed(|| {
            uniformization::until_probability(
                &m,
                &phi,
                &psi,
                t,
                3000.0,
                start,
                UniformOptions::new()
                    .with_truncation(1e-11)
                    .with_lambda(lambda),
            )
            .expect("uniformization succeeds")
        });
        let (disc, _) = timed(|| {
            discretization::until_probability(
                &m,
                &phi,
                &psi,
                t,
                3000.0,
                start,
                DiscretizationOptions::with_step(0.25),
            )
            .expect("discretization succeeds")
        });
        let (sim, _) = timed(|| {
            estimate_until(
                &m,
                &phi,
                &psi,
                t,
                3000.0,
                start,
                SimulationOptions::with_samples(200_000),
            )
            .expect("simulation succeeds")
        });
        let ok = (uni.probability - disc.probability).abs() < 1e-3
            && sim.is_consistent_with(uni.probability, 4.0);
        all_ok &= ok;
        println!(
            "   {:>5} | {:>16.12} | {:>16.12} | {:>14.9} ±{:>7.1e} | {:>8}",
            t,
            uni.probability,
            disc.probability,
            sim.mean,
            sim.std_error,
            if ok { "yes" } else { "NO" }
        );
    }
    println!(
        "   => {}",
        if all_ok {
            "all three engines agree"
        } else {
            "DISAGREEMENT DETECTED"
        }
    );
    println!();
}

/// Beyond-paper artifact: the WaveLAN performability CDF series (written
/// as a CSV next to the figure data).
fn extension(out_dir: &PathBuf) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;

    // Pr{Y(0.2h) ≤ r} for the WaveLAN modem from the sleep state — the
    // performability measure of Definition 3.4 as a CDF series.
    let m = wavelan::wavelan();
    let opts = UniformOptions::new().with_truncation(1e-7);
    let rs: Vec<f64> = (0..=20).map(|k| 25.0 * f64::from(k)).collect();
    let mut rows = Vec::new();
    for &r in &rs {
        let res = mrmc_numerics::uniformization::performability(&m, 0.2, r, 1, opts)
            .expect("performability succeeds");
        rows.push(format!("{r},{},{}", res.probability, res.error_bound));
    }
    write_csv(
        &out_dir.join("wavelan_performability_cdf.csv"),
        "r_mWh,probability,error_bound",
        rows.into_iter(),
    )?;
    println!(
        "wrote {}",
        out_dir.join("wavelan_performability_cdf.csv").display()
    );

    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut out_dir = PathBuf::from("experiments-out");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            which.push(a.clone());
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }

    let ts_full: Vec<f64> = (1..=10).map(|k| 50.0 * k as f64).collect();
    for w in &which {
        match w.as_str() {
            "all" => {
                print_table_5_1();
                print_rates(&TmrConfig::classic(), "Table 5.2: Rates of the TMR Model");
                print_tmr_until(
                    &tables::table_5_3(&ts_full, 1e-11),
                    "Table 5.3: Maintaining Constant Value for Truncation Probability (w = 1e-11)",
                );
                print_tmr_until(
                    &tables::table_5_4(&tables::table_5_4_schedule()),
                    "Table 5.4: Maintaining Error Bound (E < 1e-4)",
                );
                print_modules(
                    &tables::table_5_5(1e-8),
                    "Table 5.5: Reaching the Fully Operational State (constant failure rates)",
                );
                print_rates(
                    &TmrConfig::with_modules(11).variable(),
                    "Table 5.6: Variable Rates",
                );
                print_modules(
                    &tables::table_5_7(1e-8),
                    "Table 5.7: Reaching the Fully Operational State (variable failure rates)",
                );
                print_table_5_8();
                if let Err(e) = figures(&out_dir) {
                    eprintln!("failed to write figure CSVs: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "table5.1" => print_table_5_1(),
            "table5.2" => print_rates(&TmrConfig::classic(), "Table 5.2: Rates of the TMR Model"),
            "table5.3" => print_tmr_until(
                &tables::table_5_3(&ts_full, 1e-11),
                "Table 5.3: Maintaining Constant Value for Truncation Probability (w = 1e-11)",
            ),
            "table5.4" => print_tmr_until(
                &tables::table_5_4(&tables::table_5_4_schedule()),
                "Table 5.4: Maintaining Error Bound (E < 1e-4)",
            ),
            "table5.5" => print_modules(
                &tables::table_5_5(1e-8),
                "Table 5.5: Reaching the Fully Operational State (constant failure rates)",
            ),
            "table5.6" => print_rates(
                &TmrConfig::with_modules(11).variable(),
                "Table 5.6: Variable Rates",
            ),
            "table5.7" => print_modules(
                &tables::table_5_7(1e-8),
                "Table 5.7: Reaching the Fully Operational State (variable failure rates)",
            ),
            "table5.8" => print_table_5_8(),
            "validate" => validate(),
            "extension" => {
                if let Err(e) = extension(&out_dir) {
                    eprintln!("failed to write extension CSVs: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "figures" => {
                if let Err(e) = figures(&out_dir) {
                    eprintln!("failed to write figure CSVs: {e}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                eprintln!("known: all, table5.1 .. table5.8, figures, validate, extension");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
