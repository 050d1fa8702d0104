//! The `mrmc` command-line model checker, mirroring the thesis tool's
//! interface (Appendix: Usage Manual):
//!
//! ```text
//! mrmc <model.tra> <model.lab> <model.rewr> <model.rewi> [u=<w>|d=<d>|s=<n>] [NP]
//! ```
//!
//! * `u=<w>` — use uniformization with truncation probability `w` for
//!   reward-bounded until formulas (default: `u=1e-8`);
//! * `d=<d>` — use discretization with step `d` instead;
//! * `s=<n>` — use Monte-Carlo simulation with `n` samples (statistical
//!   estimate, no deterministic error bound);
//! * `--tolerance E` (or `--tolerance=E`) — request accuracy `E` on every
//!   computed probability: engines run under the adaptive driver, and a
//!   formula whose error budget cannot be driven below `E` fails with
//!   *tolerance not met* (process exit code 3);
//! * `--json` — machine-readable output: one JSON object per formula with
//!   the satisfied/unknown state sets and per-state probability, verdict
//!   and error-budget breakdown;
//! * `--no-reduction` — always check on the full model; by default, the
//!   checker runs on a certified lumping quotient when one exists for the
//!   formula (the reduction is exact, so results are unchanged);
//! * `--metrics` — report the run metrics per formula: a human-readable
//!   table, or a `metrics` object inside the `--json` output (paths
//!   generated/pruned, Poisson truncation points, solver iterations, grid
//!   cells, adaptive attempts, per-phase wall-clock, …);
//! * `--trace <file>` (or `--trace=<file>`) — stream every telemetry
//!   event as one JSON line to `<file>`; the last line is always a
//!   `run_summary` event;
//! * `--progress` — print throttled progress lines to stderr while the
//!   engines run;
//! * `--profile` (or `--profile=FILE`) — fold the span telemetry into a
//!   hierarchical self/total wall-time tree, printed as a flame table on
//!   stderr after the batch; with `=FILE`, the profile (span tree plus
//!   per-phase latency histograms) is also written to `FILE` as one JSON
//!   object. Observation-only, like `--metrics`;
//! * `NP` — print only the satisfying states, not the computed
//!   probabilities.
//!
//! The word `check` may be given as an explicit leading subcommand
//! (`mrmc check <model.tra> …`); it is equivalent to omitting it.
//!
//! Telemetry is observation-only: verdicts, probabilities and error
//! budgets are bit-for-bit identical whether `--metrics`/`--trace` are
//! given or not (see the `mrmc-obs` crate). Wall-clock readings appear
//! only in `span` events and the `phases` map of the metrics.
//!
//! Formulas are read from standard input, one per line; empty lines and
//! `%`-comments are skipped. States are printed 1-indexed, matching the
//! model file format.
//!
//! There is also a standalone lint subcommand that runs the static
//! analysis without starting any numerical engine:
//!
//! ```text
//! mrmc lint <model.tra> <model.lab> <model.rewr> <model.rewi> [u=<w>|d=<d>|s=<n>] [--lumping] [--json] [--deny warnings]
//! ```
//!
//! It lints the model, every formula read from stdin (model-only when
//! stdin is a terminal), and the predicted engine cost, then prints the
//! diagnostics (human-readable, or one JSON object with `--json`).
//! `--lumping` additionally runs the lumpability analysis per formula
//! (`R0xx`/`R1xx` codes); `--deny warnings` promotes Warning-grade
//! findings to Errors.
//!
//! Exit codes reflect the *worst* outcome across the whole batch: `0` all
//! formulas checked and decided (or lint found no errors), `1` a formula
//! or the model failed operationally, `2` the pre-flight lint (or
//! `mrmc lint`) found Error-grade diagnostics — no engine was started —
//! `3` a tolerance was missed (the model and formulas are fine — only
//! more work, a smaller `d`/`w`, or a looser `E` is needed), and `4`
//! every formula completed but at least one verdict is Unknown (the
//! error budget straddles the probability bound).
//!
//! Checking runs on a [`CheckSession`], so a multi-formula batch shares
//! memoized `Sat` sub-results, lumping certificates, and Omega tables
//! across formulas — `--metrics` shows each formula's own
//! `sat_cache_hits` / `sat_cache_misses` increments.
//!
//! Two further subcommands expose the checker as a service (see the
//! `mrmc-server` crate docs for the JSONL wire protocol):
//!
//! ```text
//! mrmc serve [--listen ADDR] [--workers N] [--connections N]
//! mrmc batch <ADDR>
//! ```
//!
//! `serve` binds a TCP listener (default `127.0.0.1:0`), prints one
//! `{"listening":"HOST:PORT"}` line to stdout, and then answers JSONL
//! batches from any number of concurrent clients over one shared session.
//! `batch` is the matching client: it streams stdin (JSONL requests) to a
//! running server and prints the response lines, exiting `0` when the
//! terminal `run_summary` reports no failures.
//!
//! Finally, `mrmc bench diff <snapshot> <baseline>` is the
//! perf-regression sentinel over the committed `BENCH_<group>.json`
//! snapshot pairs (see the `mrmc-bench` crate): noise-aware median
//! comparison plus hard work-counter checks, exit code 1 on regression.
//!
//! Every subcommand parses its arguments with one parser over a table of
//! its flags ([`parse_flags`]): a value flag reads `--flag VALUE` and
//! `--flag=VALUE` alike, and a bad argument gets the same message in
//! every subcommand.

use std::io::{BufRead, IsTerminal, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mrmc::report::json_outcome;
use mrmc::{
    diagnose_load_error, lumping, Analyzer, CheckError, CheckOptions, CheckOutcome, CheckSession,
    Diagnostic, ModelHandle, Reduction, Report, Severity, UntilEngine, Verdict,
};
use mrmc_obs::{
    Event, JsonlTraceRecorder, MetricsRecorder, MultiRecorder, ProfileRecorder, ProgressRecorder,
    Recorder, RunMetrics,
};
use mrmc_server::{connect_with_retry, parse_engine, RunTotals, Server, ServerConfig};

#[derive(Debug)]
struct Cli {
    tra: String,
    lab: String,
    rewr: String,
    rewi: String,
    engine: UntilEngine,
    tolerance: Option<f64>,
    json: bool,
    print_probabilities: bool,
    no_reduction: bool,
    no_slicing: bool,
    metrics: bool,
    trace: Option<String>,
    progress: bool,
    /// `None` = off, `Some(None)` = flame table only, `Some(Some(path))`
    /// = flame table plus the JSON profile written to `path`.
    profile: Option<Option<String>>,
}

fn usage() -> &'static str {
    "usage: mrmc [check] <model.tra> <model.lab> <model.rewr> <model.rewi> [u=<w>|d=<d>|s=<n>] [--tolerance E] [--json] [--no-reduction] [--no-slicing] [--metrics] [--trace FILE] [--progress] [--profile[=FILE]] [NP]\n\
     \x20      mrmc lint <model.tra> <model.lab> <model.rewr> <model.rewi> [u=<w>|d=<d>|s=<n>] [--lumping] [--dataflow] [--verbose] [--json] [--deny warnings]\n\
     \x20      mrmc serve [--listen ADDR] [--workers N] [--connections N]\n\
     \x20      mrmc batch <ADDR>\n\
     \x20      mrmc bench diff <snapshot.json> <baseline.json> [--json] [--max-ratio R]\n\
     \n\
     Reads CSRL formulas from stdin, one per line, e.g.\n\
     \x20 P(>= 0.3) [a U[0,3][0,23] b]\n\
     \x20 S(> 0.5) (up)\n\
     \n\
     u=<w>          uniformization with path truncation probability w (default u=1e-8)\n\
     d=<d>          discretization with step size d\n\
     s=<n>          Monte-Carlo simulation with n samples (statistical estimate)\n\
     --tolerance E  adaptively refine the engine until the reported error\n\
     \x20              budget is <= E; exit code 3 if that cannot be achieved\n\
     --json         one JSON object per formula (states, probabilities,\n\
     \x20              verdicts, error-budget breakdown)\n\
     --no-reduction always check on the full model; by default the checker\n\
     \x20              runs on a certified lumping quotient when one exists\n\
     \x20              (exact, results unchanged)\n\
     --no-slicing   disable qualitative precomputation: until engines solve\n\
     \x20              the full state space instead of pre-assigning the\n\
     \x20              certified certain-0/1 states and solving the rest\n\
     --metrics      report per-formula run metrics (human table, or a\n\
     \x20              `metrics` object with --json); observation-only, the\n\
     \x20              results are bit-identical with or without it\n\
     --trace FILE   stream every telemetry event as one JSON line to FILE;\n\
     \x20              the final line is a run_summary event\n\
     --progress     print throttled progress lines to stderr\n\
     --profile      print a hierarchical wall-time flame table (phase,\n\
     \x20              count, total s, self s) to stderr after the batch;\n\
     \x20              --profile=FILE additionally writes the profile as\n\
     \x20              one JSON object (span tree + per-phase latency\n\
     \x20              histograms) to FILE. Observation-only: results are\n\
     \x20              bit-identical with or without it\n\
     NP             suppress the computed probabilities\n\
     \n\
     The lint subcommand statically analyzes the model, the formulas on\n\
     stdin (model-only when stdin is a terminal), and the predicted engine\n\
     cost, without running any engine. --lumping additionally reports the\n\
     per-formula lumpability analysis (R codes). --dataflow additionally\n\
     reports the qualitative dataflow view (X codes): the SCC condensation,\n\
     per-until certain-0/1 sets, and the slicing opportunities the checker\n\
     would exploit. --verbose expands aggregated diagnostics (e.g. M101\n\
     unreachable SCCs) to their flat per-state form. --deny warnings\n\
     promotes warnings to errors. Exit code 2 when error-grade diagnostics\n\
     are present.\n\
     \n\
     The serve subcommand runs the checker as a JSONL batch server on a\n\
     shared check session (models load once, Sat sub-results, lumping\n\
     certificates and Omega tables are cached across requests); it prints\n\
     a {\"listening\":\"HOST:PORT\"} line, then serves until interrupted\n\
     (or for --connections N clients). batch streams stdin requests to a\n\
     running server and prints the responses.\n\
     \n\
     The bench diff subcommand compares a BENCH_<group>.json perf snapshot\n\
     against a baseline with noise-aware thresholds: a benchmark fails the\n\
     gate when its median slows by more than --max-ratio (default 1.5) by\n\
     more than an absolute slack, or when any work counter in its metrics\n\
     drifts (hard check, no tolerance). Exit code 1 on regression.\n\
     \n\
     Exit codes reflect the worst outcome across the batch: 0 all decided,\n\
     1 operational error, 2 pre-flight rejection, 3 tolerance not met,\n\
     4 unknown verdicts."
}

/// How a flag in a subcommand's table takes a value.
#[derive(Debug, Clone, Copy)]
enum Arity {
    /// `--flag` alone.
    Switch,
    /// `--flag VALUE` or `--flag=VALUE`.
    Value,
    /// `--flag` alone or `--flag=VALUE`. The value is only read in the `=`
    /// spelling, so the flag never swallows the argument after it.
    OptionalValue,
}

/// One subcommand's arguments, split by its flag table.
#[derive(Debug, Default)]
struct Args<'a> {
    /// Flags in command-line order, each with its value.
    flags: Vec<(&'static str, Option<&'a str>)>,
    /// Every argument that does not start with `-`, in order.
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// The value of the last `flag` given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| *value)
    }
}

/// The message for an argument no subcommand table accepts.
fn unrecognized(arg: &str) -> String {
    format!("unrecognized argument `{arg}` (see `mrmc --help`)")
}

/// Split `args` by the subcommand's flag `table`. Any argument starting
/// with `-` must be a flag in the table; everything else is positional.
fn parse_flags<'a>(
    args: &'a [String],
    table: &[(&'static str, Arity)],
) -> Result<Args<'a>, String> {
    let mut out = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            out.positional.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let Some(&(flag, arity)) = table.iter().find(|(flag, _)| *flag == name) else {
            return Err(unrecognized(arg));
        };
        let value = match (arity, inline) {
            (Arity::Switch, Some(_)) => return Err(unrecognized(arg)),
            (Arity::Switch | Arity::OptionalValue, None) => None,
            (Arity::Value, None) => Some(
                rest.next()
                    .ok_or_else(|| format!("{flag} requires a value"))?
                    .as_str(),
            ),
            (_, Some(value)) => Some(value),
        };
        if value == Some("") {
            return Err(format!("{flag} requires a non-empty value"));
        }
        out.flags.push((flag, value));
    }
    Ok(out)
}

/// The four model files that lead the `check` and `lint` positionals, and
/// the `u=`/`d=`/`s=` engine switch ([`parse_engine`]) among the rest.
/// Returns the remaining positionals for the subcommand to interpret.
fn model_args<'a>(
    positional: &[&'a str],
) -> Result<([String; 4], UntilEngine, Vec<&'a str>), String> {
    let [tra, lab, rewr, rewi, rest @ ..] = positional else {
        return Err(usage().to_string());
    };
    let mut engine = UntilEngine::default();
    let mut other = Vec::new();
    for &arg in rest {
        if ["u=", "d=", "s="].iter().any(|p| arg.starts_with(p)) {
            engine = parse_engine(arg)?;
        } else {
            other.push(arg);
        }
    }
    let files = [tra, lab, rewr, rewi].map(|f| (*f).to_string());
    Ok((files, engine, other))
}

/// Strip a `%` comment and surrounding whitespace from a formula line.
fn formula_text(line: &str) -> &str {
    match line.find('%') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

const CHECK_FLAGS: &[(&str, Arity)] = &[
    ("--tolerance", Arity::Value),
    ("--json", Arity::Switch),
    ("--no-reduction", Arity::Switch),
    ("--no-slicing", Arity::Switch),
    ("--metrics", Arity::Switch),
    ("--trace", Arity::Value),
    ("--progress", Arity::Switch),
    ("--profile", Arity::OptionalValue),
];

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let parsed = parse_flags(args, CHECK_FLAGS)?;
    let ([tra, lab, rewr, rewi], engine, other) = model_args(&parsed.positional)?;
    let mut print_probabilities = true;
    for arg in other {
        if arg != "NP" {
            return Err(unrecognized(arg));
        }
        print_probabilities = false;
    }
    let tolerance = match parsed.value("--tolerance") {
        Some(value) => {
            let e: f64 = value
                .parse()
                .map_err(|_| format!("invalid tolerance `{value}`"))?;
            if !(e > 0.0 && e < 1.0) {
                return Err(format!("tolerance must be in (0, 1), got `{value}`"));
            }
            Some(e)
        }
        None => None,
    };
    Ok(Cli {
        tra,
        lab,
        rewr,
        rewi,
        engine,
        tolerance,
        json: parsed.has("--json"),
        print_probabilities,
        no_reduction: parsed.has("--no-reduction"),
        no_slicing: parsed.has("--no-slicing"),
        metrics: parsed.has("--metrics"),
        trace: parsed.value("--trace").map(str::to_string),
        progress: parsed.has("--progress"),
        profile: parsed
            .has("--profile")
            .then(|| parsed.value("--profile").map(str::to_string)),
    })
}

#[derive(Debug)]
struct LintCli {
    tra: String,
    lab: String,
    rewr: String,
    rewi: String,
    engine: UntilEngine,
    json: bool,
    deny_warnings: bool,
    lumping: bool,
    dataflow: bool,
    verbose: bool,
}

const LINT_FLAGS: &[(&str, Arity)] = &[
    ("--json", Arity::Switch),
    ("--lumping", Arity::Switch),
    ("--dataflow", Arity::Switch),
    ("--verbose", Arity::Switch),
    ("--deny", Arity::Value),
];

fn parse_lint_args(args: &[String]) -> Result<LintCli, String> {
    let parsed = parse_flags(args, LINT_FLAGS)?;
    let ([tra, lab, rewr, rewi], engine, other) = model_args(&parsed.positional)?;
    if let Some(arg) = other.first() {
        return Err(unrecognized(arg));
    }
    if let Some(value) = parsed.value("--deny").filter(|v| *v != "warnings") {
        return Err(format!("--deny only supports `warnings`, got `{value}`"));
    }
    Ok(LintCli {
        tra,
        lab,
        rewr,
        rewi,
        engine,
        json: parsed.has("--json"),
        deny_warnings: parsed.has("--deny"),
        lumping: parsed.has("--lumping"),
        dataflow: parsed.has("--dataflow"),
        verbose: parsed.has("--verbose"),
    })
}

/// The `mrmc lint` subcommand: run every static-analysis pass over the
/// model, the formulas on stdin, and the predicted engine cost, then
/// print the report. Never starts a numerical engine.
fn run_lint(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_lint_args(args)?;
    let mut analyzer = Analyzer::new();
    analyzer.set_verbose(cli.verbose);
    if cli.lumping {
        analyzer.register(lumping::PASS);
    }
    if cli.dataflow {
        analyzer.register(mrmc::dataflow::CONDENSATION_PASS);
        analyzer.register(mrmc::dataflow::PASS);
    }
    let mut report = Report::new();
    match mrmc_mrm::io::load_model(&cli.tra, &cli.lab, &cli.rewr, &cli.rewi) {
        Ok(mrm) => {
            report.extend(analyzer.check_model(&mrm));
            // Formulas come from stdin like the check mode; an interactive
            // invocation lints the model only.
            if !std::io::stdin().is_terminal() {
                let stdin = std::io::stdin();
                for line in stdin.lock().lines() {
                    let line = line.map_err(|e| e.to_string())?;
                    let text = formula_text(&line);
                    if text.is_empty() {
                        continue;
                    }
                    match mrmc_csrl::parse(text) {
                        Ok(f) => report.extend(analyzer.check_formula(&mrm, &f, cli.engine)),
                        Err(e) => report.push(Diagnostic::new(
                            "F003",
                            Severity::Error,
                            format!("formula `{text}` does not parse: {e}"),
                        )),
                    }
                }
            }
        }
        Err(e) => report.push(diagnose_load_error(&e)),
    }
    if cli.deny_warnings {
        report.deny_warnings();
    }
    if cli.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(if report.has_errors() {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn print_human(outcome: &CheckOutcome, print_probabilities: bool) {
    if let Some(engine) = outcome.engine() {
        println!("  engine: {engine}");
    }
    if let Some(r) = outcome.reduction() {
        println!(
            "  checked on a verified quotient: {} -> {} states",
            r.original_states, r.reduced_states
        );
    }
    if let Some(d) = outcome.dataflow() {
        println!(
            "  dataflow: {} SCCs, {} certain-0 / {} certain-1 states, {} sliced (certificate {:016x})",
            d.scc_count, d.qual_zero_states, d.qual_one_states, d.slice_states_removed,
            d.certificate_hash
        );
    }
    let states: Vec<String> = outcome
        .satisfying_states()
        .map(|s| (s + 1).to_string())
        .collect();
    if states.is_empty() {
        println!("  satisfied by: (no states)");
    } else {
        println!("  satisfied by: {}", states.join(" "));
    }
    if outcome.has_unknown() {
        let undecided: Vec<String> = outcome
            .unknown_states()
            .map(|s| (s + 1).to_string())
            .collect();
        println!(
            "  undecided (error budget straddles the bound): {}",
            undecided.join(" ")
        );
    }
    if !print_probabilities {
        return;
    }
    let Some(probs) = outcome.probabilities() else {
        return;
    };
    for (s, p) in probs.iter().enumerate() {
        let mut line = format!("  state {}: P = {:.12}", s + 1, p);
        if let Some(errs) = outcome.error_bounds() {
            // Simulation fills this slot with a standard error, not a bound.
            let what = if outcome.engine() == Some("simulation") {
                "standard error"
            } else {
                "error bound"
            };
            line.push_str(&format!(" ({what} {:.3e})", errs[s]));
        }
        if let Some(budgets) = outcome.budgets() {
            let b = &budgets[s];
            let (name, value) = b.dominant();
            line.push_str(&format!(
                " [total error {:.3e}, dominant: {} {:.3e}]",
                b.total(),
                name,
                value
            ));
        }
        if outcome.verdict(s) == Verdict::Unknown {
            line.push_str(" -- unknown");
        }
        println!("{line}");
    }
}

/// The timing prefix of a `--json` output line: `{"elapsed_s":E,` plus,
/// when `--metrics` captured per-phase wall times, a
/// `"phase_times":{"<phase>":<seconds>,…},` object. The remainder of the
/// line is the unchanged one-shot JSON body, so consumers that key on
/// `formula` and later fields are unaffected.
fn timing_prefix(elapsed_s: f64, snapshot: Option<&RunMetrics>) -> String {
    let mut p = String::from("{\"elapsed_s\":");
    mrmc_obs::json::push_f64(&mut p, elapsed_s);
    if let Some(m) = snapshot {
        p.push_str(",\"phase_times\":{");
        for (i, (name, (_count, seconds))) in m.phases.iter().enumerate() {
            if i > 0 {
                p.push(',');
            }
            mrmc_obs::json::push_str(&mut p, name);
            p.push(':');
            mrmc_obs::json::push_f64(&mut p, *seconds);
        }
        p.push('}');
    }
    p.push(',');
    p
}

/// Read formulas from stdin and check each one on `session`, printing the
/// outcomes.
///
/// Runs under whatever recorder the caller installed; per-formula metrics
/// are scoped by draining `metrics` (when `--metrics` was given) after
/// each check. Because the whole batch shares the session, repeated (sub-)
/// formulas are served from its caches — visible as that formula's own
/// `sat_cache_hits` in the metrics. Ends by emitting the `run_summary` event and flushing the
/// sinks, so a `--trace` file always terminates with that line.
fn check_formulas(
    cli: &Cli,
    session: &CheckSession,
    model: &ModelHandle,
    options: &CheckOptions,
    metrics: Option<&MetricsRecorder>,
) -> Result<RunTotals, String> {
    let stdin = std::io::stdin();
    let mut totals = RunTotals::default();
    let mut formulas = 0u64;
    let mut failures = 0u64;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let text = formula_text(&line);
        if text.is_empty() {
            continue;
        }
        formulas += 1;
        if !cli.json {
            println!("formula: {text}");
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "reported as elapsed_s, never branched on"
        )]
        let started = Instant::now();
        let result = match mrmc_csrl::parse(text) {
            Ok(f) => {
                if !cli.json {
                    // Surface Warning/Note pre-flight findings on stderr;
                    // Error-grade ones abort `check` below.
                    for d in session.preflight(model, &f, options).diagnostics() {
                        if d.severity != Severity::Error {
                            eprintln!("  {d}");
                        }
                    }
                }
                session.check(model, &f, options)
            }
            Err(e) => Err(CheckError::Parse(e)),
        };
        let elapsed_s = started.elapsed().as_secs_f64();
        // Drain the aggregator even on failure so the next formula's
        // snapshot starts from zero.
        let snapshot = metrics.map(MetricsRecorder::take);
        match result {
            Ok(outcome) => {
                if outcome.has_unknown() {
                    totals.any_unknown = true;
                }
                if cli.json {
                    println!(
                        "{}{}",
                        timing_prefix(elapsed_s, snapshot.as_ref()),
                        &json_outcome(text, &outcome, snapshot.as_ref())[1..]
                    );
                } else {
                    print_human(&outcome, cli.print_probabilities);
                    if let Some(m) = &snapshot {
                        println!("  metrics:");
                        for (label, value) in m.table_rows() {
                            println!("    {label}: {value}");
                        }
                    }
                }
            }
            Err(e) => {
                failures += 1;
                if cli.json {
                    println!(
                        "{}{}",
                        timing_prefix(elapsed_s, snapshot.as_ref()),
                        &mrmc::report::json_error(text, &e)[1..]
                    );
                } else {
                    println!("  error: {e}");
                }
                totals.record_error(&e);
            }
        }
    }
    mrmc_obs::record(|| Event::RunSummary { formulas, failures });
    mrmc_obs::flush();
    Ok(totals)
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, PartialEq)]
struct ServeCli {
    listen: String,
    workers: usize,
    connections: Option<usize>,
}

const SERVE_FLAGS: &[(&str, Arity)] = &[
    ("--listen", Arity::Value),
    ("--workers", Arity::Value),
    ("--connections", Arity::Value),
];

fn parse_serve_args(args: &[String]) -> Result<ServeCli, String> {
    let parsed = parse_flags(args, SERVE_FLAGS)?;
    if let Some(arg) = parsed.positional.first() {
        return Err(unrecognized(arg));
    }
    let count = |flag: &str, what: &str| -> Result<Option<usize>, String> {
        parsed
            .value(flag)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid {what} count `{v}`"))
            })
            .transpose()
    };
    Ok(ServeCli {
        listen: parsed
            .value("--listen")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        workers: count("--workers", "worker")?.unwrap_or(ServerConfig::default().workers),
        connections: count("--connections", "connection")?,
    })
}

/// The `mrmc serve` subcommand: run the JSONL batch server.
fn run_serve(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_serve_args(args)?;
    let server = Server::bind(
        &cli.listen,
        ServerConfig {
            workers: cli.workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind `{}`: {e}", cli.listen))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // One machine-readable line so scripts can pick up an ephemeral port.
    println!("{{\"listening\":\"{addr}\"}}");
    std::io::stdout().flush().ok();
    server
        .run(cli.connections)
        .map_err(|e| format!("server failed: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// The `mrmc batch` subcommand: stream stdin JSONL requests to a running
/// server and print the response lines.
fn run_batch(args: &[String]) -> Result<ExitCode, String> {
    let parsed = parse_flags(args, &[])?;
    let [addr] = parsed.positional[..] else {
        return Err(format!(
            "batch takes exactly one server address\n\n{}",
            usage()
        ));
    };
    let stream =
        connect_with_retry(addr, 50).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    // Feed stdin to the server on a scoped thread, then close the write
    // half so the server drains the batch and emits its run_summary. The
    // scope joins the feeder structurally before we inspect the summary.
    let mut summary_failures: Option<u64> = None;
    let feeder_result = std::thread::scope(|scope| {
        let feeder = scope.spawn(move || -> std::io::Result<()> {
            let mut writer = stream;
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                let mut line = line?;
                line.push('\n');
                writer.write_all(line.as_bytes())?;
            }
            writer.flush()?;
            writer.shutdown(std::net::Shutdown::Write)
        });
        let reader = std::io::BufReader::new(read_half);
        for line in reader.lines() {
            let line = line.map_err(|e| e.to_string())?;
            println!("{line}");
            if let Some(rest) = line.strip_prefix("{\"kind\":\"run_summary\"") {
                // The summary may carry fields after `failures` (e.g.
                // `elapsed_s`), so parse just the leading digit run.
                summary_failures = rest
                    .split("\"failures\":")
                    .nth(1)
                    .and_then(|v| v.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|v| v.parse().ok());
            }
        }
        feeder
            .join()
            .map_err(|_| "stdin feeder panicked".to_string())
    });
    feeder_result?.map_err(|e| format!("sending requests failed: {e}"))?;
    match summary_failures {
        Some(0) => Ok(ExitCode::SUCCESS),
        Some(_) => {
            eprintln!("one or more requests failed");
            Ok(ExitCode::FAILURE)
        }
        None => Err("connection closed without a run_summary".to_string()),
    }
}

/// The `mrmc bench diff` subcommand: the perf-regression sentinel.
/// Compares a `BENCH_<group>.json` snapshot against its committed
/// baseline with noise-aware thresholds and exits nonzero when a
/// benchmark regressed or its work counters drifted.
fn run_bench(args: &[String]) -> Result<ExitCode, String> {
    let Some(("diff", rest)) = args
        .split_first()
        .map(|(first, rest)| (first.as_str(), rest))
    else {
        return Err(format!("bench only supports `diff`\n\n{}", usage()));
    };
    let parsed = parse_flags(
        rest,
        &[("--json", Arity::Switch), ("--max-ratio", Arity::Value)],
    )?;
    let mut options = mrmc_bench::diff::DiffOptions::default();
    if let Some(v) = parsed.value("--max-ratio") {
        options.max_ratio = v
            .parse()
            .ok()
            .filter(|&r: &f64| r >= 1.0)
            .ok_or_else(|| format!("invalid --max-ratio `{v}` (must be >= 1)"))?;
    }
    let [snapshot, baseline] = parsed.positional[..] else {
        return Err(format!(
            "bench diff takes exactly two files: <snapshot> <baseline>\n\n{}",
            usage()
        ));
    };
    let report = mrmc_bench::diff::diff_files(Path::new(snapshot), Path::new(baseline), options)?;
    if parsed.has("--json") {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    Ok(if report.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return Ok(ExitCode::SUCCESS);
    }
    match args.first().map(String::as_str) {
        Some("lint") => return run_lint(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("batch") => return run_batch(&args[1..]),
        Some("bench") => return run_bench(&args[1..]),
        _ => {}
    }
    // `check` is an optional explicit subcommand for the default mode.
    let args = if args.first().map(String::as_str) == Some("check") {
        &args[1..]
    } else {
        &args[..]
    };
    let cli = parse_args(args)?;

    // The whole batch runs on one session: formulas read from stdin share
    // memoized Sat sub-results, lumping certificates, and Omega tables.
    let session = CheckSession::new();
    let model = session
        .load_files(&cli.tra, &cli.lab, &cli.rewr, &cli.rewi)
        .map_err(|e| e.to_string())?;
    if !cli.json {
        let mrm = model.mrm();
        println!(
            "loaded model: {} states, {} transitions, {} impulse rewards",
            mrm.num_states(),
            mrm.ctmc().rates().nnz(),
            mrm.impulse_rewards().len()
        );
    }

    let mut options = CheckOptions::new().with_engine(cli.engine);
    if let Some(e) = cli.tolerance {
        options = options.with_tolerance(e);
    }
    if cli.no_reduction {
        options = options.with_reduction(Reduction::Off);
    }
    if cli.no_slicing {
        options = options.without_slicing();
    }

    // Compose the requested telemetry sinks. With none requested, the
    // checking loop runs with no recorder installed at all — the engines'
    // emission sites stay on the free no-op path.
    let metrics = cli.metrics.then(|| Arc::new(MetricsRecorder::new()));
    let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
    if let Some(m) = &metrics {
        sinks.push(m.clone());
    }
    if let Some(path) = &cli.trace {
        let trace = JsonlTraceRecorder::create(Path::new(path))
            .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
        sinks.push(Arc::new(trace));
    }
    if cli.progress {
        sinks.push(Arc::new(ProgressRecorder::new()));
    }
    let profile = cli
        .profile
        .as_ref()
        .map(|_| Arc::new(ProfileRecorder::new()));
    if let Some(p) = &profile {
        sinks.push(p.clone());
    }
    let totals = if sinks.is_empty() {
        check_formulas(&cli, &session, &model, &options, None)?
    } else {
        let recorder: Arc<dyn Recorder> = Arc::new(MultiRecorder::new(sinks));
        mrmc_obs::with_recorder(recorder, || {
            check_formulas(&cli, &session, &model, &options, metrics.as_deref())
        })?
    };
    if let (Some(recorder), Some(dest)) = (&profile, &cli.profile) {
        let report = recorder.report();
        // The flame table goes to stderr so --json stdout stays a clean
        // JSONL stream.
        eprintln!("wall-time profile:");
        eprint!("{}", report.table());
        if let Some(path) = dest {
            std::fs::write(path, report.to_json())
                .map_err(|e| format!("cannot write profile file `{path}`: {e}"))?;
        }
    }
    match totals.exit_code() {
        0 => Ok(ExitCode::SUCCESS),
        1 => Err("one or more formulas failed".to_string()),
        2 => {
            eprintln!("pre-flight lint rejected one or more formulas");
            Ok(ExitCode::from(2))
        }
        3 => {
            eprintln!("tolerance not met for one or more formulas");
            Ok(ExitCode::from(3))
        }
        code => {
            eprintln!("one or more verdicts are unknown (error budget straddles the bound)");
            Ok(ExitCode::from(code))
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn minimal_invocation_defaults_to_uniformization() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert_eq!(cli.tra, "a.tra");
        assert_eq!(cli.rewi, "a.rewi");
        assert!(cli.print_probabilities);
        assert_eq!(cli.tolerance, None);
        assert!(!cli.json);
        match cli.engine {
            UntilEngine::Uniformization(u) => assert_eq!(u.truncation, 1e-8),
            _ => panic!("expected uniformization"),
        }
    }

    #[test]
    fn engine_switches_parse() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "u=1e-11"])).unwrap();
        match cli.engine {
            UntilEngine::Uniformization(u) => assert_eq!(u.truncation, 1e-11),
            _ => panic!("expected uniformization"),
        }
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "d=0.25"])).unwrap();
        match cli.engine {
            UntilEngine::Discretization(d) => assert_eq!(d.step, 0.25),
            _ => panic!("expected discretization"),
        }
    }

    #[test]
    fn simulation_switch_parses() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "s=5000"])).unwrap();
        match cli.engine {
            UntilEngine::Simulation(s) => assert_eq!(s.samples, 5000),
            _ => panic!("expected simulation"),
        }
        assert!(parse_args(&args(&["a", "b", "c", "d", "s=-3"])).is_err());
    }

    #[test]
    fn tolerance_flag_parses_in_both_spellings() {
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--tolerance",
            "1e-6",
        ]))
        .unwrap();
        assert_eq!(cli.tolerance, Some(1e-6));
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--tolerance=0.001",
        ]))
        .unwrap();
        assert_eq!(cli.tolerance, Some(1e-3));
    }

    #[test]
    fn bad_tolerance_values_are_rejected() {
        let missing = parse_args(&args(&["a", "b", "c", "d", "--tolerance"])).unwrap_err();
        assert_eq!(missing, "--tolerance requires a value");
        for empty in [&["--tolerance="][..], &["--tolerance", ""]] {
            let mut list = vec!["a", "b", "c", "d"];
            list.extend_from_slice(empty);
            let e = parse_args(&args(&list)).unwrap_err();
            assert_eq!(e, "--tolerance requires a non-empty value", "{empty:?}");
        }
        assert!(parse_args(&args(&["a", "b", "c", "d", "--tolerance", "x"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c", "d", "--tolerance=0"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c", "d", "--tolerance=1.5"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c", "d", "--tolerance=-1e-6"])).is_err());
    }

    #[test]
    fn json_flag_parses() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "--json"])).unwrap();
        assert!(cli.json);
    }

    #[test]
    fn np_flag_suppresses_probabilities() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "NP"])).unwrap();
        assert!(!cli.print_probabilities);
    }

    #[test]
    fn no_reduction_flag_parses() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert!(!cli.no_reduction);
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--no-reduction",
        ]))
        .unwrap();
        assert!(cli.no_reduction);
        // Composes with the other switches.
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "u=1e-10",
            "--no-reduction",
            "--json",
            "NP",
        ]))
        .unwrap();
        assert!(cli.no_reduction);
        assert!(cli.json);
        assert!(!cli.print_probabilities);
    }

    #[test]
    fn no_slicing_flag_parses() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert!(!cli.no_slicing);
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--no-slicing",
        ]))
        .unwrap();
        assert!(cli.no_slicing);
        // Composes with the other switches.
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "u=1e-10",
            "--no-reduction",
            "--no-slicing",
            "--json",
        ]))
        .unwrap();
        assert!(cli.no_slicing);
        assert!(cli.no_reduction);
        // --no-slicing belongs to check mode, not lint.
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--no-slicing"])).is_err());
    }

    #[test]
    fn dataflow_and_verbose_lint_flags_parse() {
        let cli = parse_lint_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert!(!cli.dataflow);
        assert!(!cli.verbose);
        let cli = parse_lint_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--dataflow",
            "--verbose",
            "--json",
        ]))
        .unwrap();
        assert!(cli.dataflow);
        assert!(cli.verbose);
        assert!(cli.json);
        // Both belong to the lint subcommand only.
        assert!(parse_args(&args(&["a", "b", "c", "d", "--dataflow"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c", "d", "--verbose"])).is_err());
    }

    #[test]
    fn telemetry_flags_parse() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert!(!cli.metrics);
        assert!(!cli.progress);
        assert_eq!(cli.trace, None);
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--metrics",
            "--progress",
            "--trace",
            "run.jsonl",
        ]))
        .unwrap();
        assert!(cli.metrics);
        assert!(cli.progress);
        assert_eq!(cli.trace.as_deref(), Some("run.jsonl"));
        // The `=` spelling and composition with the other switches.
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "d=0.5",
            "--trace=/tmp/t.jsonl",
            "--json",
            "NP",
        ]))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(cli.json);
    }

    #[test]
    fn profile_flag_parses_in_both_spellings() {
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert_eq!(cli.profile, None);
        let cli = parse_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi", "--profile"])).unwrap();
        assert_eq!(cli.profile, Some(None));
        let cli = parse_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--profile=prof.json",
            "--json",
        ]))
        .unwrap();
        assert_eq!(cli.profile, Some(Some("prof.json".to_string())));
        assert!(cli.json);
        assert!(parse_args(&args(&["a", "b", "c", "d", "--profile="])).is_err());
        // --profile belongs to check mode, not lint.
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--profile"])).is_err());
    }

    #[test]
    fn timing_prefix_pins_the_elapsed_field_order() {
        // Without metrics: exactly `{"elapsed_s":E,`.
        let p = timing_prefix(0.5, None);
        assert_eq!(p, "{\"elapsed_s\":5e-1,");
        // With metrics: phase_times carries the per-phase wall seconds.
        let mut m = RunMetrics::default();
        m.phases.insert("engine", (2, 0.25));
        m.phases.insert("solver", (1, 0.125));
        let p = timing_prefix(1.0, Some(&m));
        assert_eq!(
            p,
            "{\"elapsed_s\":1e0,\"phase_times\":{\"engine\":2.5e-1,\"solver\":1.25e-1},"
        );
    }

    #[test]
    fn bad_trace_values_are_rejected() {
        let missing = parse_args(&args(&["a", "b", "c", "d", "--trace"])).unwrap_err();
        assert_eq!(missing, "--trace requires a value");
        // An empty value gets one message in either spelling.
        for empty in [&["--trace="][..], &["--trace", ""]] {
            let mut list = vec!["a", "b", "c", "d"];
            list.extend_from_slice(empty);
            let e = parse_args(&args(&list)).unwrap_err();
            assert_eq!(e, "--trace requires a non-empty value", "{empty:?}");
        }
        // Telemetry flags belong to check mode, not lint.
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--metrics"])).is_err());
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--progress"])).is_err());
    }

    #[test]
    fn missing_files_show_usage() {
        let e = parse_args(&args(&["a.tra"])).unwrap_err();
        assert!(e.contains("usage:"));
    }

    #[test]
    fn bad_switches_are_rejected() {
        assert!(parse_args(&args(&["a", "b", "c", "d", "u=potato"])).is_err());
        assert!(parse_args(&args(&["a", "b", "c", "d", "d=x"])).is_err());
        // Unknown flags, and a value given to a switch, get one message in
        // every subcommand.
        for flag in ["--frob", "--frob=1", "--json=1"] {
            let unknown = format!("unrecognized argument `{flag}` (see `mrmc --help`)");
            let files = args(&["a", "b", "c", "d", flag]);
            assert_eq!(parse_args(&files).unwrap_err(), unknown);
            assert_eq!(parse_lint_args(&files).unwrap_err(), unknown);
            assert_eq!(parse_serve_args(&args(&[flag])).unwrap_err(), unknown);
        }
        // Engine knobs no engine can run with fail at parse time.
        for knob in ["u=-1", "u=nan", "u=2", "d=0", "d=-1", "d=inf", "s=0"] {
            assert!(
                parse_args(&args(&["a", "b", "c", "d", knob])).is_err(),
                "{knob}"
            );
            assert!(
                parse_lint_args(&args(&["a", "b", "c", "d", knob])).is_err(),
                "{knob}"
            );
        }
    }

    #[test]
    fn lint_args_parse() {
        let cli = parse_lint_args(&args(&["a.tra", "a.lab", "a.rewr", "a.rewi"])).unwrap();
        assert!(!cli.json);
        assert!(!cli.deny_warnings);
        assert!(!cli.lumping);
        let cli = parse_lint_args(&args(&[
            "a.tra", "a.lab", "a.rewr", "a.rewi", "d=0.1", "--json", "--deny", "warnings",
        ]))
        .unwrap();
        assert!(cli.json);
        assert!(cli.deny_warnings);
        match cli.engine {
            UntilEngine::Discretization(d) => assert_eq!(d.step, 0.1),
            _ => panic!("expected discretization"),
        }
        let cli = parse_lint_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--deny=warnings",
        ]))
        .unwrap();
        assert!(cli.deny_warnings);
    }

    #[test]
    fn lumping_flag_parses() {
        let cli = parse_lint_args(&args(&[
            "a.tra",
            "a.lab",
            "a.rewr",
            "a.rewi",
            "--lumping",
            "--json",
        ]))
        .unwrap();
        assert!(cli.lumping);
        assert!(cli.json);
    }

    #[test]
    fn bad_lint_args_are_rejected() {
        assert!(parse_lint_args(&args(&["a.tra"])).is_err());
        let missing = parse_lint_args(&args(&["a", "b", "c", "d", "--deny"])).unwrap_err();
        assert_eq!(missing, "--deny requires a value");
        let empty = parse_lint_args(&args(&["a", "b", "c", "d", "--deny="])).unwrap_err();
        assert_eq!(empty, "--deny requires a non-empty value");
        // Both spellings of a bad value get the same message.
        let spaced = parse_lint_args(&args(&["a", "b", "c", "d", "--deny", "notes"])).unwrap_err();
        let joined = parse_lint_args(&args(&["a", "b", "c", "d", "--deny=notes"])).unwrap_err();
        assert_eq!(spaced, "--deny only supports `warnings`, got `notes`");
        assert_eq!(joined, spaced);
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "NP"])).is_err());
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--tolerance", "1e-6"])).is_err());
        // --lumping belongs to the lint subcommand only.
        assert!(parse_args(&args(&["a", "b", "c", "d", "--lumping"])).is_err());
        assert!(parse_lint_args(&args(&["a", "b", "c", "d", "--no-reduction"])).is_err());
    }

    #[test]
    fn formula_text_strips_comments() {
        assert_eq!(formula_text("  S(> 0.5) (up) % note"), "S(> 0.5) (up)");
        assert_eq!(formula_text("% all comment"), "");
        assert_eq!(formula_text("   "), "");
    }

    #[test]
    fn serve_args_parse() {
        let cli = parse_serve_args(&args(&[])).unwrap();
        assert_eq!(cli.listen, "127.0.0.1:0");
        assert_eq!(cli.connections, None);
        let cli = parse_serve_args(&args(&[
            "--listen",
            "127.0.0.1:7421",
            "--workers=2",
            "--connections",
            "3",
        ]))
        .unwrap();
        assert_eq!(cli.listen, "127.0.0.1:7421");
        assert_eq!(cli.workers, 2);
        assert_eq!(cli.connections, Some(3));
        // The `=` and the space spellings agree, flag by flag.
        let joined = parse_serve_args(&args(&[
            "--listen=127.0.0.1:7421",
            "--workers",
            "2",
            "--connections=3",
        ]))
        .unwrap();
        assert_eq!(joined, cli);
    }

    #[test]
    fn bad_serve_args_are_rejected() {
        assert!(parse_serve_args(&args(&["--workers", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--connections=x"])).is_err());
        assert!(parse_serve_args(&args(&["--frob"])).is_err());
        for flag in ["--listen", "--workers", "--connections"] {
            let missing = parse_serve_args(&args(&[flag])).unwrap_err();
            assert_eq!(missing, format!("{flag} requires a value"));
            let empty = parse_serve_args(&args(&[&format!("{flag}=")])).unwrap_err();
            assert_eq!(empty, format!("{flag} requires a non-empty value"));
        }
    }
}
