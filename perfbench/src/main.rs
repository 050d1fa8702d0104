//! `perf`: run one benchmark workload at one seed.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!      [--mrmc <path to mrmc>] [--out-dir <dir, default .bench_build/perfbench>]
//! ```
//!
//! Prints the host facts, every metric by name with its unit, and as the
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! `metrics` (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! The traced pass also writes `spans.jsonl` and `layers.txt` under
//! `<out-dir>/trace/<workload>-seed<n>/`. `perfbench/run.py` builds the
//! binaries and supplies `--mrmc` and `--out-dir`.

use std::path::PathBuf;
use std::process::ExitCode;

use mrmc_perfbench::{run, RunConfig, ServerMode, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    mrmc: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut mrmc = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            "--mrmc" => mrmc = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        mrmc,
        out_dir,
    })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure an unoptimised build; build with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let trace_dir = args.trace.then(|| {
        args.out_dir
            .join("trace")
            .join(format!("{name}-seed{}", args.seed))
    });
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        smoke: false,
        work_dir: args
            .out_dir
            .join(format!("work-{name}-{}", std::process::id())),
        trace_dir: trace_dir.clone(),
        server: args.mrmc.map_or(ServerMode::InProcess, ServerMode::Binary),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let envelope = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"profile\":\"release\"}}",
        args.seed, args.seconds, args.trace
    );
    println!("host {envelope}");
    let result = match run(args.workload, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::write(dir.join("envelope.json"), format!("{envelope}\n")) {
            eprintln!("perf: cannot write the trace envelope: {e}");
            return ExitCode::FAILURE;
        }
    }
    for f in &result.failures {
        eprintln!("perf: FAILED {f}");
    }
    if !args.trace {
        for m in &result.metrics {
            println!(
                "{:<16} {:>14.6e} {:<11} {}",
                m.name, m.value, m.unit, m.note
            );
        }
    }
    println!("{}", result.to_json());
    if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
