//! Doc-sync guard: every name the metric registry declares must be
//! documented in `docs/USAGE.md`, under its scope. The run-metric keys
//! ([`mrmc_obs::RunMetrics::SCALARS`]) fill the metric-key table in JSON
//! order with their merge rules; the per-check counters fill the counter
//! table; the session counters fill the session-counter table in `stats`
//! reply order. These names surface in `--metrics` output, JSONL traces,
//! the committed `BENCH_*.json` snapshots and the server's replies —
//! shipping an undocumented one is a bug, so this test fails the build
//! until the tables are updated.

use std::path::Path;

/// The wall-time observability surface — the `--profile` flag, the
/// pinned timing fields, the server latency stats, and the Prometheus
/// exposition family names — is a stable interface like the counter
/// table; docs/USAGE.md must name every piece of it.
#[test]
fn the_timing_observability_surface_is_documented_in_usage_md() {
    let usage = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/USAGE.md");
    let usage = std::fs::read_to_string(usage).expect("docs/USAGE.md exists");

    let undocumented: Vec<&&str> = [
        "--profile",
        "bench diff",
        "elapsed_s",
        "phase_times",
        "total_s",
        "self_s",
        "uptime_s",
        "sat_hit_ratio",
        "slow request",
        "mrmc_uptime_seconds",
        "mrmc_request_seconds",
    ]
    .iter()
    .filter(|needle| !usage.contains(**needle))
    .collect();
    assert!(
        undocumented.is_empty(),
        "timing-surface names missing from docs/USAGE.md: {undocumented:?}"
    );
}

fn usage() -> String {
    let usage = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/USAGE.md");
    std::fs::read_to_string(usage).expect("docs/USAGE.md exists")
}

/// The rows of the USAGE table under `header`: each row's cells with the
/// backticks of the first one stripped.
fn table(usage: &str, header: &str) -> Vec<Vec<String>> {
    let body = usage
        .split_once(&format!("\n{header}\n"))
        .unwrap_or_else(|| panic!("no `{header}` table in docs/USAGE.md"))
        .1;
    body.lines()
        .skip(1)
        .take_while(|line| line.starts_with('|'))
        .map(|line| {
            line.trim_matches('|')
                .split(" | ")
                .map(|cell| cell.trim().trim_matches('`').to_owned())
                .collect()
        })
        .collect()
}

fn first_column(rows: &[Vec<String>]) -> Vec<&str> {
    rows.iter().map(|row| row[0].as_str()).collect()
}

#[test]
fn every_metric_key_is_documented_with_its_merge_rule_in_json_order() {
    let rows = table(&usage(), "| key | merge | meaning |");
    let documented: Vec<(&str, &str)> = rows
        .iter()
        .map(|row| (row[0].as_str(), row[1].as_str()))
        .collect();
    assert_eq!(documented, mrmc_obs::RunMetrics::SCALARS);
}

#[test]
fn every_counter_name_is_documented_in_usage_md() {
    let usage = usage();
    let mut per_check: Vec<&str> = mrmc_obs::counters::PER_CHECK
        .iter()
        .map(|c| c.name())
        .collect();
    let session = mrmc_obs::SessionStats::default()
        .counters()
        .map(|(name, _)| name);
    assert!(
        !per_check.is_empty() && !session.is_empty(),
        "counter registry is empty — the comparisons below would pass vacuously"
    );

    let counter_rows = table(&usage, "| counter | meaning |");
    let mut documented = first_column(&counter_rows);
    documented.sort_unstable();
    per_check.sort_unstable();
    assert_eq!(documented, per_check, "per-check counter table");

    let session_rows = table(&usage, "| session counter | meaning |");
    assert_eq!(
        first_column(&session_rows),
        session,
        "session counter table, in stats reply order"
    );
}
