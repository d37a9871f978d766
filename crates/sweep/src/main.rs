//! `ys-sweep` CLI — fan deterministic multi-seed harness runs across
//! worker threads.
//!
//! Exit codes: `0` every shard met its promise (or, for `snapshot
//! --check`, no drift), `1` a shard failed or the snapshot drifted, `2`
//! usage errors.
//!
//! This binary is the crate's one wall-clock reader: it injects elapsed
//! timers into the snapshot collector; the library stays clock-free.

use std::process::ExitCode;
use ys_chaos::RunOptions;
use ys_sweep::campaign::parse_value;
use ys_sweep::{bench_sweep, campaign_sweep, check_sweep, default_threads, snapshot, SweepOutcome};

const USAGE: &str = "\
ys-sweep: parallel deterministic multi-seed runner

USAGE:
    ys-sweep chaos [--seeds LIST] [--steps N] [--fatal] [--jobs N]
    ys-sweep scrub [--seeds LIST] [--errors N] [--jobs N]
    ys-sweep heal [--seeds LIST] [--writes N] [--jobs N]
    ys-sweep check [--models a,b] [--depth N] [--max-states N] [--jobs N]
    ys-sweep bench [--seeds LIST] [--jobs N]
    ys-sweep snapshot [--out PATH] [--check] [--jobs N]

OPTIONS:
    --seeds LIST    Comma list (1,2,7) or half-open range (1..9).
                    Defaults: chaos 1..5, scrub 1..5, heal 1..5, bench 1..9.
    --steps N       Chaos workload steps per campaign (default 32).
    --fatal         Chaos campaigns expect (and shrink) an acked-write loss.
    --errors N      Latent errors per scrub campaign (default 64).
    --writes N      Foreground writes per heal campaign (default 48).
    --models a,b    Standard models to check (default all five:
                    cache,virt,qos,failover,integrity).
    --depth N       Exploration depth for check shards (default 4).
    --max-states N  State cap for check shards (default 2000000).
    --out PATH      Snapshot path (default BENCH_baseline.json).
    --check         Compare a fresh snapshot against --out instead of
                    writing it; host wall-clock lines are ignored.
    --jobs N        Worker threads (default: available parallelism, max 16).

Shards are merged in input order, so output is byte-identical for every
--jobs value — parallelism is a throughput knob, not a behaviour knob.";

/// Wall-clock reader injected into the snapshot collector. The library
/// stays clock-free; this binary is the one place allowed to touch real
/// time.
fn wall_clock() -> impl Fn() -> f64 {
    let started = std::time::Instant::now();
    move || started.elapsed().as_secs_f64()
}

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a.trim().parse().map_err(|_| format!("bad seed range start {a}"))?;
        let b: u64 = b.trim().parse().map_err(|_| format!("bad seed range end {b}"))?;
        if b <= a {
            return Err(format!("empty seed range {spec}"));
        }
        return Ok((a..b).collect());
    }
    spec.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().map_err(|_| format!("bad seed {p}")))
        .collect()
}

enum Mode {
    Chaos,
    Scrub,
    Heal,
    Check,
    Bench,
    Snapshot,
}

struct Args {
    mode: Mode,
    seeds: Option<Vec<u64>>,
    steps: u64,
    fatal: bool,
    errors: usize,
    writes: usize,
    models: Vec<String>,
    depth: usize,
    max_states: usize,
    out: String,
    check_drift: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = match it.next().as_deref() {
        Some("chaos") => Mode::Chaos,
        Some("scrub") => Mode::Scrub,
        Some("heal") => Mode::Heal,
        Some("check") => Mode::Check,
        Some("bench") => Mode::Bench,
        Some("snapshot") => Mode::Snapshot,
        Some("-h" | "--help") => return Err(String::new()),
        Some(m) => return Err(format!("unknown mode {m}")),
        None => return Err("missing mode".into()),
    };
    let mut args = Args {
        mode,
        seeds: None,
        steps: 32,
        fatal: false,
        errors: 64,
        writes: 48,
        models: ["cache", "virt", "qos", "failover", "integrity"].map(String::from).to_vec(),
        depth: 4,
        max_states: 2_000_000,
        out: "BENCH_baseline.json".into(),
        check_drift: false,
        jobs: default_threads(),
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seeds" => args.seeds = Some(parse_seeds(&val()?)?),
            "--steps" => args.steps = parse_value(&a, &val()?)?,
            "--fatal" => args.fatal = true,
            "--errors" => args.errors = parse_value(&a, &val()?)?,
            "--writes" => args.writes = parse_value(&a, &val()?)?,
            "--models" => {
                args.models = val()?.split(',').filter(|m| !m.is_empty()).map(String::from).collect();
            }
            "--depth" => args.depth = parse_value(&a, &val()?)?,
            "--max-states" => args.max_states = parse_value(&a, &val()?)?,
            "--out" => args.out = val()?,
            "--check" => args.check_drift = true,
            "--jobs" => {
                args.jobs = parse_value(&a, &val()?)?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_snapshot(args: &Args) -> Result<bool, String> {
    let snap = snapshot::render(&snapshot::collect(args.jobs, &wall_clock())?);
    if args.check_drift {
        let baseline = std::fs::read_to_string(&args.out)
            .map_err(|e| format!("cannot read baseline {}: {e}", args.out))?;
        match snapshot::diff(&baseline, &snap) {
            None => {
                println!("ys-sweep: snapshot matches {} (host wall-clock ignored)", args.out);
                Ok(true)
            }
            Some(report) => {
                print!("{report}");
                println!("regenerate with: cargo xtask bench-snapshot");
                Ok(false)
            }
        }
    } else {
        std::fs::write(&args.out, &snap).map_err(|e| format!("cannot write {}: {e}", args.out))?;
        println!("ys-sweep: wrote {} ({} bytes)", args.out, snap.len());
        Ok(true)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ys-sweep: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let seeds = |default: std::ops::Range<u64>| args.seeds.clone().unwrap_or_else(|| default.collect());
    let outcome = match args.mode {
        Mode::Chaos => {
            let chaos = RunOptions { seed: 0, steps: args.steps, fatal: args.fatal, keep: None };
            campaign_sweep(&chaos, &seeds(1..5), args.jobs)
        }
        Mode::Scrub => {
            let scrub = ys_scrub::CampaignConfig { seed: 0, errors: args.errors };
            campaign_sweep(&scrub, &seeds(1..5), args.jobs)
        }
        Mode::Heal => {
            let heal = ys_heal::CampaignConfig { seed: 0, writes: args.writes };
            campaign_sweep(&heal, &seeds(1..5), args.jobs)
        }
        Mode::Check => check_sweep(&args.models, args.depth, args.max_states, args.jobs),
        Mode::Bench => bench_sweep(&seeds(1..9), args.jobs),
        Mode::Snapshot => match run_snapshot(&args) {
            Ok(ok) => SweepOutcome { report: String::new(), ok },
            Err(e) => {
                eprintln!("ys-sweep: {e}");
                SweepOutcome { report: String::new(), ok: false }
            }
        },
    };
    print!("{}", outcome.report);
    let ok = outcome.ok;
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
