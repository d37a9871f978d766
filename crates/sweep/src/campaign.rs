//! The one campaign harness: the [`SeededCampaign`] trait, the command-line
//! [`main`] every campaign binary runs, and the per-seed [`campaign_sweep`]
//! merge.
//!
//! A campaign is a pure function of its options and a seed that renders a
//! transcript and decides a verdict. Everything around that is written once
//! here: the `--seed`, `--quiet` and `--double-run` flags, the verdict line,
//! the exit codes (`0` the campaign kept its promise, `1` it did not, `2`
//! usage) and the `ys-sweep` per-seed sections. So `ys-chaos --seed 4`
//! prints exactly the seed-4 section of `ys-sweep chaos --seeds 4`.

use crate::pool::run_sweep;
use crate::shard::SweepOutcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;
use ys_chaos::{run_rendered, CampaignRun, RunOptions};

/// One seeded campaign: its name, help text, own flags and run function.
pub trait SeededCampaign: Sync {
    /// Short name: the binary is `ys-{NAME}`, the sweep mode `{NAME}`.
    const NAME: &'static str;
    /// The `--help` text.
    const USAGE: &'static str;
    /// Seed a command line without `--seed` runs.
    const DEFAULT_SEED: u64;
    /// Options a command line without campaign flags runs with.
    fn cli_default() -> Self;
    /// Apply one campaign-specific flag, pulling its argument from `value`.
    /// `Ok(false)` means `flag` is not one of this campaign's.
    fn parse_flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>;
    /// Run the campaign at `seed` from scratch and render it. The seed
    /// argument overrides any seed field the options carry.
    fn run(&self, seed: u64) -> CampaignRun;
}

/// Parse a flag's argument, naming the flag on failure.
pub fn parse_value<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

impl SeededCampaign for RunOptions {
    const NAME: &'static str = "chaos";
    const USAGE: &'static str = "\
ys-chaos: deterministic fault-campaign harness

USAGE:
    ys-chaos [--seed N] [--steps N] [--fatal] [--keep i,j,k] [--quiet]
             [--double-run]

OPTIONS:
    --seed N      Campaign seed (default 4). Schedule, workload, and
                  injection instants are all derived from it.
    --steps N     Workload steps before convergence (default 64).
    --fatal       Append a deliberate N-failure episode. The campaign is
                  then EXPECTED to surface an explicit acked-write loss;
                  exit 0 means it did (and the schedule was shrunk).
    --keep i,j,k  Replay only the schedule entries with these original
                  indices (what a shrunk counterexample prints).
    --quiet       Only the verdict line and, on failure, the reproducer.
    --double-run  Run the identical campaign twice in one process and fail
                  unless the transcripts are byte-identical. Catches replay
                  nondeterminism (hasher-seeded iteration, ambient entropy)
                  that a single run can never see.
    -h, --help    This help.

A failing campaign prints a minimal reproducing schedule and the exact
command line that replays it.";
    const DEFAULT_SEED: u64 = 4;

    fn cli_default() -> RunOptions {
        RunOptions::new(4, 64)
    }

    fn parse_flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String> {
        match flag {
            "--steps" => self.steps = parse_value(flag, &value()?)?,
            "--fatal" => self.fatal = true,
            "--keep" => {
                let v = value()?;
                let keep = v.split(',').filter(|p| !p.is_empty()).map(|p| parse_value("--keep index", p));
                self.keep = Some(keep.collect::<Result<_, _>>()?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn run(&self, seed: u64) -> CampaignRun {
        run_rendered(&RunOptions { seed, ..self.clone() })
    }
}

impl SeededCampaign for ys_scrub::CampaignConfig {
    const NAME: &'static str = "scrub";
    const USAGE: &'static str = "\
ys-scrub: end-to-end data-integrity campaign

USAGE:
    ys-scrub [--seed N] [--errors N] [--quiet] [--double-run]

OPTIONS:
    --seed N      Injection-schedule seed (default 0).
    --errors N    Latent errors to inject, round-robin over the four
                  protection classes: RAID parity, cached replica,
                  geo replica, and unprotected (default 64).
    --quiet       Only the verdict line.
    --double-run  Run the identical campaign twice in one process and
                  fail unless the transcripts are byte-identical.
    -h, --help    This help.

The campaign builds a three-site NetStorage system, injects the errors
across RAID-protected, cache-resident, geo-replicated, and unprotected
data, scrubs every site, and audits that each corruption is repaired
(with the source attributed) or explicitly declared lost — never silent.";
    const DEFAULT_SEED: u64 = 0;

    fn cli_default() -> Self {
        Self::default()
    }

    fn parse_flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String> {
        if flag != "--errors" {
            return Ok(false);
        }
        self.errors = parse_value(flag, &value()?)?;
        Ok(true)
    }

    fn run(&self, seed: u64) -> CampaignRun {
        let report = ys_scrub::run_campaign(&Self { seed, ..*self });
        CampaignRun { transcript: report.to_string(), reproducer: String::new(), ok: report.ok }
    }
}

impl SeededCampaign for ys_heal::CampaignConfig {
    const NAME: &'static str = "heal";
    const USAGE: &'static str = "\
ys-heal: blade-lifecycle and re-replication campaign

USAGE:
    ys-heal [--seed N] [--writes N] [--quiet] [--double-run]

OPTIONS:
    --seed N      Victim-selection and working-set seed (default 0).
    --writes N    Foreground pages written before the first failure
                  (default 48).
    --quiet       Only the verdict line.
    --double-run  Run the identical campaign twice in one process and
                  fail unless the transcripts are byte-identical.
    -h, --help    This help.

The campaign fails a seeded blade, heals back to the fault-tolerance
target under Scavenger-class QoS, fails the promoted owner (the direct
test that healing restored the margin), rolling-drains and rejoins every
blade under foreground load, reads back every acknowledged write, and
demands the degraded-mode governor refuse writes at ReadOnly health.";
    const DEFAULT_SEED: u64 = 0;

    fn cli_default() -> Self {
        Self::default()
    }

    fn parse_flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String> {
        if flag != "--writes" {
            return Ok(false);
        }
        self.writes = parse_value(flag, &value()?)?;
        Ok(true)
    }

    fn run(&self, seed: u64) -> CampaignRun {
        let report = ys_heal::run_campaign(&Self { seed, ..*self });
        CampaignRun { transcript: report.to_string(), reproducer: String::new(), ok: report.ok }
    }
}

/// The verdict line that closes a run and each sweep section.
fn verdict(name: &str, seed: u64, ok: bool) -> String {
    format!("ys-{name}: seed {seed} {}", if ok { "PASS" } else { "FAIL" })
}

/// A parsed campaign command line.
struct Cli<C> {
    campaign: C,
    seed: u64,
    quiet: bool,
    double_run: bool,
}

/// `Ok(None)` asks for the help text.
fn parse_cli<C: SeededCampaign>(args: impl IntoIterator<Item = String>) -> Result<Option<Cli<C>>, String> {
    let mut cli = Cli { campaign: C::cli_default(), seed: C::DEFAULT_SEED, quiet: false, double_run: false };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seed" => cli.seed = parse_value("--seed", &value()?)?,
            "--quiet" => cli.quiet = true,
            "--double-run" => cli.double_run = true,
            "-h" | "--help" => return Ok(None),
            flag => {
                if !cli.campaign.parse_flag(flag, &mut value)? {
                    return Err(format!("unknown argument {flag}"));
                }
            }
        }
    }
    Ok(Some(cli))
}

/// The whole `ys-{NAME}` binary: parse the command line, run the campaign
/// (twice with `--double-run`), print, and map the verdict to an exit code.
pub fn main<C: SeededCampaign>() -> ExitCode {
    let name = C::NAME;
    let cli = match parse_cli::<C>(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{}", C::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ys-{name}: {e}\n\n{}", C::USAGE);
            return ExitCode::from(2);
        }
    };

    let run = cli.campaign.run(cli.seed);
    print!("{}", if cli.quiet { &run.reproducer } else { &run.transcript });

    let mut ok = run.ok;
    if cli.double_run {
        let (a, b) = (&run.transcript, &cli.campaign.run(cli.seed).transcript);
        if a == b {
            println!("ys-{name}: double-run transcripts byte-identical ({} bytes)", a.len());
        } else {
            let byte = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
            println!(
                "ys-{name}: DOUBLE-RUN MISMATCH: transcripts diverge at byte {byte} \
                 ({} vs {} bytes) — replay determinism is broken",
                a.len(),
                b.len()
            );
            ok = false;
        }
    }

    println!("{}", verdict(name, cli.seed, ok));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fan one campaign per seed across `jobs` workers and merge the sections
/// in seed order. Each section is exactly what `ys-{NAME} --seed N` prints
/// without `--quiet`, under a `=== ys-{NAME} seed N ===` header, so the
/// merged report is byte-identical for every `jobs` value.
pub fn campaign_sweep<C: SeededCampaign>(campaign: &C, seeds: &[u64], jobs: usize) -> SweepOutcome {
    let runs = run_sweep(seeds, jobs, |&seed| campaign.run(seed));
    let mut report = String::new();
    for (&seed, run) in seeds.iter().zip(&runs) {
        let _ = writeln!(report, "=== ys-{} seed {seed} ===", C::NAME);
        report.push_str(&run.transcript);
        let _ = writeln!(report, "{}", verdict(C::NAME, seed, run.ok));
    }
    let failed = runs.iter().filter(|r| !r.ok).count();
    let _ = writeln!(report, "ys-sweep: {} campaigns, {failed} failed", seeds.len());
    SweepOutcome { report, ok: failed == 0 }
}
