//! Cost/revenue analysis of an M/M/1/K queue with server breakdowns —
//! a performability workload beyond the thesis' own case studies,
//! exercising state rewards (holding + downtime costs) and impulse rewards
//! (per-job revenue, per-repair cost) together.
//!
//! Run with `cargo run --release --example queue_costs`.

use mrmc::{CheckOptions, ModelChecker, UntilEngine};
use mrmc_models::queue::{queue, QueueConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = QueueConfig::new(5);
    let mrm = queue(&config);
    println!(
        "breakdown queue: K = {}, λ = {}, μ = {}, {} states",
        config.capacity,
        config.arrival_rate,
        config.service_rate,
        mrm.num_states()
    );

    let start = config.up_state(0);

    // CSRL queries from the empty, working queue.
    let checker = ModelChecker::new(
        mrm,
        CheckOptions::new().with_engine(UntilEngine::uniformization(1e-9)),
    );
    let queries = [
        // Long-run: the queue is rarely full.
        "S(< 0.2) (full)",
        // The buffer fills within 10 hours while spending at most 40 cost
        // units, with probability below one half.
        "P(< 0.5) [TT U[0,10][0,40] full]",
        // From up-states, the next event is a breakdown with low probability.
        "P(< 0.05) [X down]",
    ];
    println!();
    for q in queries {
        let out = checker.check_str(q)?;
        println!("{q}");
        println!(
            "  holds in {} of {} states; P(start) = {:.6}",
            out.count(),
            out.sat().len(),
            out.probabilities().map_or(f64::NAN, |p| p[start])
        );
    }
    Ok(())
}
