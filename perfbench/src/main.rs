//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! correctness check prints why on stderr and exits 1 without a result;
//! bad arguments exit 2. The traced run also writes a Chrome trace to
//! `.bench_out/` under the working directory.

use perfbench::{result_json, run, workloads, Options};
use std::process::ExitCode;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `nproc`, `rustc -V`, build profile and git revision of the run.
fn environment() -> Vec<(&'static str, String)> {
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("rustc", cmd("rustc", &["-V"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("git_rev", cmd("git", &["rev-parse", "--short", "HEAD"])),
    ]
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| (1..=3600).contains(&s))
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds (1..3600) and --trace (0|1) are required");
    };
    let Some(rate) = workloads::ops_per_second(&workload) else {
        return usage(&format!("unknown workload '{workload}'"));
    };
    let o = Options {
        workload,
        seed,
        ops: rate * seconds,
        setups: SETUPS,
        trace,
    };
    let outcome = match run(&o) {
        Ok(outcome) => outcome,
        Err(e) => return usage(&e),
    };
    if !outcome.correct() {
        for f in &outcome.failures {
            eprintln!("perfbench: check failed: {f}");
        }
        return ExitCode::from(1);
    }
    println!(
        "perfbench {} seed={} ops={} trace={}",
        o.workload,
        o.seed,
        o.ops,
        u8::from(o.trace)
    );
    println!("fingerprint {:016x}", outcome.fingerprint);
    print!("{}", outcome.report);
    if o.trace {
        for (k, v) in environment() {
            println!("env {k}={v}");
        }
        if let Some(doc) = &outcome.chrome {
            let dir = std::path::Path::new(".bench_out");
            let path = dir.join(format!("{}-seed{}.trace.json", o.workload, o.seed));
            match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, doc)) {
                Ok(()) => println!("chrome trace {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
            }
        }
    }
    for m in &outcome.metrics {
        println!(
            "{:<34} {:>18.6} {:<6} {:<7} n={}",
            m.def.name, m.value, m.def.unit, m.def.better, m.samples
        );
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
