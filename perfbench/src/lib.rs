//! The repository benchmark: the paper's tables, a scaled analysis
//! workload and a closed-loop server mix, all driven through `mrmc`'s
//! public API.
//!
//! One run executes one [`Workload`] at one seed and reports the
//! end-to-end metrics ([`END_TO_END`]) or, on the traced pass, the
//! per-layer metrics ([`PER_LAYER`]). The seed permutes operations and
//! draws cost-neutral parameters (thresholds, which model a load hits);
//! problem sizes are fixed, so runs at different seeds measure the same
//! amount of work and their timings are comparable.

#![forbid(unsafe_code)]

pub mod clock;
pub mod cluster;
pub mod files;
pub mod inproc;
pub mod layers;
pub mod paper;
pub mod report;
pub mod seeded;
pub mod serve;
pub mod stats;

use std::path::PathBuf;

pub use report::{Metric, RunResult};

/// The benchmark's workloads, each exercising a different part of the
/// checker (see `perfbench/README.md` for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 5.3, 5.4, 5.5 and 5.7: path DFS and the Ω recursion.
    PaperUniformization,
    /// Tables 5.1 and 5.8: the discretization grid sweep.
    PaperDiscretization,
    /// The 8712-state cluster model: lumping, dataflow, steady state,
    /// reachability and transient solves.
    ClusterAnalysis,
    /// `mrmc serve` under two closed-loop clients: protocol, worker pool
    /// and session caches.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperUniformization,
        Workload::PaperDiscretization,
        Workload::ClusterAnalysis,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperUniformization => "paper-uniformization",
            Workload::PaperDiscretization => "paper-discretization",
            Workload::ClusterAnalysis => "cluster-analysis",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Where `serve-mixed` finds its server.
#[derive(Debug, Clone)]
pub enum ServerMode {
    /// Spawn this `mrmc` binary as `mrmc serve` (the real deployment).
    Binary(PathBuf),
    /// Bind an `mrmc_server::Server` inside this process (tests).
    InProcess,
}

/// Everything one run needs besides the workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seeds every generated input.
    pub seed: u64,
    /// Timed passes repeat until this much wall time is spent (at least
    /// [`MIN_PASSES`] run).
    pub seconds: f64,
    /// Tiny sizes and a single pass, for tests.
    pub smoke: bool,
    /// Scratch directory for generated model files (created and removed
    /// by the run).
    pub work_dir: PathBuf,
    /// `Some(dir)`: run the traced pass and write its spans and per-layer
    /// table into `dir`.
    pub trace_dir: Option<PathBuf>,
    /// The server under test for `serve-mixed`.
    pub server: ServerMode,
}

/// Timed passes run until `RunConfig::seconds` have passed, and at
/// least this often.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics `(name, unit)`, emitted by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("err_budget_p50", "probability"),
];

/// Per-layer metrics `(name, unit)`, emitted by every traced run. Times
/// are listed only for layers every workload reaches; a layer that only
/// some workloads reach is reported as its share of `core.check_s`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("csrl.parse_s", "s"),
    ("mrm.load_s", "s"),
    ("analysis.preflight_s", "s"),
    ("analysis.lumping_s", "s"),
    ("analysis.dataflow_s", "s"),
    ("core.check_s", "s"),
    ("core.self_s", "s"),
    ("analysis.lumping_frac", "ratio"),
    ("numerics.uniformization_frac", "ratio"),
    ("numerics.discretization_frac", "ratio"),
    ("numerics.baseline_frac", "ratio"),
    ("ctmc.steady_frac", "ratio"),
    ("ctmc.reach_frac", "ratio"),
    ("ctmc.bscc_frac", "ratio"),
    ("analysis.lumping_reduced_frac", "ratio"),
    ("analysis.lumping_rounds", "count"),
    ("analysis.slice_states_removed", "count"),
    ("numerics.nodes_explored", "count"),
    ("numerics.paths_pruned_frac", "ratio"),
    ("numerics.omega_requests", "count"),
    ("numerics.omega_cache_hit_ratio", "ratio"),
    ("numerics.grid_time_steps", "count"),
    ("numerics.grid_reward_cells", "count"),
    ("numerics.poisson_right", "count"),
    ("sparse.solver_solves", "count"),
    ("sparse.solver_iterations", "count"),
    ("core.sat_cache_hit_ratio", "ratio"),
    ("core.cert_cache_hits", "count"),
    ("server.wire_wait_p50_frac", "ratio"),
    ("server.wire_wait_p99_frac", "ratio"),
    ("server.sat_hit_ratio", "ratio"),
    ("server.failures", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Peak resident set size (`VmHWM`) in MiB of this process, or of `pid`.
///
/// # Errors
///
/// When `/proc/<pid>/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mib(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// Run one workload: the traced pass when `config.trace_dir` is set,
/// the timed end-to-end measurement otherwise.
///
/// # Errors
///
/// A description of what could not be set up or run; wrong results are
/// not errors but count as failed operations in the result.
pub fn run(workload: Workload, config: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&config.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.work_dir.display()))?;
    let result = match workload {
        Workload::PaperUniformization => {
            paper::uniformization(config).and_then(|s| inproc::run(&s, config))
        }
        Workload::PaperDiscretization => {
            paper::discretization(config).and_then(|s| inproc::run(&s, config))
        }
        Workload::ClusterAnalysis => {
            cluster::workload(config).and_then(|s| inproc::run(&s, config))
        }
        Workload::ServeMixed => serve::run(config),
    };
    let cleanup = std::fs::remove_dir_all(&config.work_dir);
    let result = result?;
    cleanup.map_err(|e| format!("cannot remove {}: {e}", config.work_dir.display()))?;
    Ok(result)
}
