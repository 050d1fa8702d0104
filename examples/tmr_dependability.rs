//! The triple-modular-redundant system of the evaluation chapter:
//! dependability queries with resource-consumption bounds.
//!
//! Run with `cargo run --release --example tmr_dependability`.

use mrmc::{CheckOptions, ModelChecker, UntilEngine};
use mrmc_models::tmr::{tmr, TmrConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TmrConfig::classic();
    let mrm = tmr(&config);
    println!(
        "TMR system: {} modules + voter, {} states",
        config.modules,
        mrm.num_states()
    );

    let checker = ModelChecker::new(
        mrm,
        CheckOptions::new().with_engine(UntilEngine::uniformization(1e-11)),
    );

    // The evaluation formula at a few mission times.
    println!("\nP[Sup U[0,t][0,3000] failed] from the fully-operational state:");
    for t in [50, 100, 200, 400] {
        let out = checker.check_str(&format!("P(> 0.1) [Sup U[0,{t}][0,3000] failed]"))?;
        let p = out.probabilities().expect("probabilistic formula");
        let e = out.error_bounds().expect("uniformization ran");
        let s = config.state_with_working(3);
        println!("  t = {t:>3}: P = {:.9}  (error bound {:.2e})", p[s], e[s]);
    }

    // Long-run availability.
    let out = checker.check_str("S(< 0.01) (failed)")?;
    let p = out.probabilities().expect("steady-state formula");
    println!(
        "\nlong-run unavailability = {:.6e}  (S(<0.01)(failed) holds: {})",
        p[config.state_with_working(3)],
        out.holds_in(config.state_with_working(3))
    );

    // The 11-module variant: probability of returning to full operation.
    let big = TmrConfig::with_modules(11);
    let checker = ModelChecker::new(
        tmr(&big),
        CheckOptions::new().with_engine(UntilEngine::uniformization(1e-8)),
    );
    println!("\n11-module system, P[TT U[0,100][0,2000] allUp] per starting state:");
    let out = checker.check_str("P(> 0.1) [TT U[0,100][0,2000] allUp]")?;
    let p = out.probabilities().expect("probabilistic formula");
    for n in (0..=10).step_by(2) {
        let s = big.state_with_working(n);
        println!(
            "  {n:>2} modules up: P = {:.6}  (bound >0.1 holds: {})",
            p[s],
            out.holds_in(s)
        );
    }
    Ok(())
}
