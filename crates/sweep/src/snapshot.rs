//! The perf-trajectory baseline: `BENCH_baseline.json`.
//!
//! A snapshot records, per scenario, the *simulation* metrics (states
//! explored, campaigns run, simulated MB/s — identical on every machine
//! and every run) and the *host* wall-clock seconds the stage took (noisy,
//! machine-specific). The JSON is hand-rendered with sorted keys and fixed
//! four-decimal formatting so two snapshots of the same tree differ only
//! where the code's behaviour differs; every host number sits alone on a
//! line containing `"host_wall_s"`, so the drift gate can compare
//! snapshots line-filtered without a JSON parser.
//!
//! The wall clock itself is injected by the caller (`src/main.rs` is the
//! one place in this crate allowed to read real time); library callers
//! pass `|| 0.0` and get a fully deterministic snapshot.

use crate::campaign::campaign_sweep;
use crate::shard::bench_sweep_stats;
use std::fmt::Write as _;
use ys_check::{run_standard, STANDARD_MODELS};

/// Schema tag embedded in every snapshot; bump on layout changes.
pub const SCHEMA: &str = "ys-bench-snapshot/v1";

/// Exploration depth for the model-checker scenarios.
const CHECK_DEPTH: usize = 4;
/// State cap for the model-checker scenarios.
const CHECK_MAX_STATES: usize = 2_000_000;
/// Seeds for the chaos-campaign scenario.
const CHAOS_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
/// Workload steps per chaos campaign.
const CHAOS_STEPS: u64 = 32;
/// Seeds for the benchmark confidence-sweep scenario.
const BENCH_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// One named stage: its simulation metrics and its host wall-clock cost.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stage name, e.g. `check_cache` or `bench_seed_sweep`.
    pub name: String,
    /// `(metric, value)` pairs; sorted by metric name at render time.
    pub sim: Vec<(String, f64)>,
    /// Host seconds the stage took (excluded from the drift gate).
    pub host_wall_s: f64,
}

/// Run every snapshot scenario with `jobs` workers. `clock` returns
/// absolute host seconds (monotonic); pass `|| 0.0` for a clock-free run.
/// Fails only if a standard model name is unknown to `ys-check`.
pub fn collect(jobs: usize, clock: &dyn Fn() -> f64) -> Result<Vec<Scenario>, String> {
    let mut out = Vec::new();

    for model in STANDARD_MODELS {
        let t0 = clock();
        let run = run_standard(model, CHECK_DEPTH, CHECK_MAX_STATES)?;
        out.push(Scenario {
            name: format!("check_{model}"),
            sim: vec![
                ("states_visited".into(), run.states_visited as f64),
                ("transitions".into(), run.transitions as f64),
                ("deduplicated".into(), run.deduplicated as f64),
                ("deepest".into(), run.deepest as f64),
                ("violations".into(), run.found_counterexample as u64 as f64),
            ],
            host_wall_s: clock() - t0,
        });
    }

    let t0 = clock();
    let chaos = campaign_sweep(&ys_chaos::RunOptions::new(0, CHAOS_STEPS), &CHAOS_SEEDS, jobs);
    out.push(Scenario {
        name: "chaos_sweep".into(),
        sim: vec![
            ("campaigns".into(), CHAOS_SEEDS.len() as f64),
            ("steps_per_campaign".into(), CHAOS_STEPS as f64),
            ("all_passed".into(), chaos.ok as u64 as f64),
            ("report_bytes".into(), chaos.report.len() as f64),
        ],
        host_wall_s: clock() - t0,
    });

    let t0 = clock();
    let (mean, min, max) = bench_sweep_stats(&BENCH_SEEDS, jobs);
    out.push(Scenario {
        name: "bench_seed_sweep".into(),
        sim: vec![
            ("seeds".into(), BENCH_SEEDS.len() as f64),
            ("mean_mb_s".into(), mean),
            ("min_mb_s".into(), min),
            ("max_mb_s".into(), max),
        ],
        host_wall_s: clock() - t0,
    });

    Ok(out)
}

/// Render scenarios as the snapshot JSON document.
///
/// Deterministic by construction: scenario order is collection order,
/// metric keys are sorted, and all numbers print with four fixed decimals.
pub fn render(scenarios: &[Scenario]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    out.push_str("  \"scenarios\": {\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", sc.name);
        out.push_str("      \"sim\": {\n");
        let mut sim = sc.sim.clone();
        sim.sort_by(|a, b| a.0.cmp(&b.0));
        for (j, (k, v)) in sim.iter().enumerate() {
            let comma = if j + 1 < sim.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{k}\": {v:.4}{comma}");
        }
        out.push_str("      },\n");
        // Keep the host number alone on its line (and last in the object)
        // so the drift gate can drop it with a line filter.
        let _ = writeln!(out, "      \"host_wall_s\": {:.4}", sc.host_wall_s);
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    out
}

/// Drop every line carrying a host wall-clock number. The remainder is the
/// machine-independent portion two snapshots are compared on.
pub fn strip_host_lines(snapshot: &str) -> String {
    snapshot
        .lines()
        .filter(|l| !l.contains("\"host_wall_s\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compare two snapshots ignoring host wall-clock lines. `None` means no
/// drift; `Some(report)` describes the first divergence.
pub fn diff(baseline: &str, current: &str) -> Option<String> {
    let a = strip_host_lines(baseline);
    let b = strip_host_lines(current);
    if a == b {
        return None;
    }
    let mut msg = String::from("benchmark snapshot drifted from BENCH_baseline.json:\n");
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            let _ = writeln!(msg, "  first divergence (filtered line {}):", n + 1);
            let _ = writeln!(msg, "    baseline: {la}");
            let _ = writeln!(msg, "    current:  {lb}");
            return Some(msg);
        }
    }
    let _ = writeln!(
        msg,
        "  line counts differ: baseline {} vs current {}",
        a.lines().count(),
        b.lines().count()
    );
    Some(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "check_cache".into(),
                sim: vec![("transitions".into(), 10.0), ("states_visited".into(), 4.0)],
                host_wall_s: 1.25,
            },
            Scenario {
                name: "bench_seed_sweep".into(),
                sim: vec![("mean_mb_s".into(), 123.456789)],
                host_wall_s: 0.5,
            },
        ]
    }

    #[test]
    fn schema_layout_is_pinned() {
        // This is the committed BENCH_baseline.json layout; changing it
        // means bumping SCHEMA and regenerating the baseline.
        let got = render(&sample());
        let want = "{\n\
                    \x20 \"schema\": \"ys-bench-snapshot/v1\",\n\
                    \x20 \"scenarios\": {\n\
                    \x20   \"check_cache\": {\n\
                    \x20     \"sim\": {\n\
                    \x20       \"states_visited\": 4.0000,\n\
                    \x20       \"transitions\": 10.0000\n\
                    \x20     },\n\
                    \x20     \"host_wall_s\": 1.2500\n\
                    \x20   },\n\
                    \x20   \"bench_seed_sweep\": {\n\
                    \x20     \"sim\": {\n\
                    \x20       \"mean_mb_s\": 123.4568\n\
                    \x20     },\n\
                    \x20     \"host_wall_s\": 0.5000\n\
                    \x20   }\n\
                    \x20 }\n}\n";
        assert_eq!(got, want);
    }

    #[test]
    fn host_lines_are_excluded_from_drift() {
        let base = render(&sample());
        let mut hot = sample();
        hot[0].host_wall_s = 99.0; // a slower machine is not drift
        assert_eq!(diff(&base, &render(&hot)), None);

        hot[0].sim[0].1 = 11.0; // a changed sim metric is
        let d = diff(&base, &render(&hot)).expect("sim drift must be flagged");
        assert!(d.contains("transitions"), "{d}");
    }

    #[test]
    fn collected_snapshot_is_deterministic_across_jobs() {
        // The real collector with a null clock: all host numbers are 0 and
        // the sim portion must not depend on worker count.
        let a = render(&collect(1, &|| 0.0).unwrap());
        let b = render(&collect(4, &|| 0.0).unwrap());
        assert_eq!(a, b);
        assert!(a.contains("\"check_failover\""));
        assert!(a.contains("\"chaos_sweep\""));
        assert!(a.contains("\"all_passed\": 1.0000"));
    }
}
