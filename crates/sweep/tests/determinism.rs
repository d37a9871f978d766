//! Cross-process determinism: the `ys-sweep` binary must print the same
//! bytes for every `--jobs` value. This drives the real CLI (argument
//! parsing, shard merge, report rendering) rather than the library, so it
//! also pins the exit codes and the seed-range syntax. The campaign
//! binaries share the sweep's render path, so a single-seed run must print
//! exactly its section of the sweep.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn binary")
}

fn sweep(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_ys-sweep"), args)
}

/// Each campaign binary, its sweep mode, and the flags that make the two
/// run the same campaign (the chaos CLI defaults to 64 steps, the sweep to
/// 32).
const CAMPAIGNS: [(&str, &str, &[&str]); 3] = [
    (env!("CARGO_BIN_EXE_ys-chaos"), "chaos", &["--steps", "64"]),
    (env!("CARGO_BIN_EXE_ys-scrub"), "scrub", &[]),
    (env!("CARGO_BIN_EXE_ys-heal"), "heal", &[]),
];

#[test]
fn campaign_binaries_print_their_sweep_section() {
    for (bin, mode, flags) in CAMPAIGNS {
        let single = run(bin, &[&["--seed", "4"], flags].concat());
        assert!(single.status.success(), "ys-{mode} --seed 4 failed");
        let merged = sweep(&[&[mode, "--seeds", "4", "--jobs", "1"], flags].concat());
        assert!(merged.status.success(), "ys-sweep {mode} failed");
        let merged = String::from_utf8(merged.stdout).unwrap();
        let section = merged
            .strip_prefix(&format!("=== ys-{mode} seed 4 ===\n"))
            .and_then(|rest| rest.strip_suffix("ys-sweep: 1 campaigns, 0 failed\n"))
            .unwrap_or_else(|| panic!("unexpected ys-sweep {mode} layout:\n{merged}"));
        assert_eq!(String::from_utf8(single.stdout).unwrap(), section, "ys-{mode} vs ys-sweep {mode}");

        let unknown = run(bin, &["--frobnicate"]);
        assert_eq!(unknown.status.code(), Some(2), "ys-{mode}: unknown flag must be a usage error");
    }
}

#[test]
fn chaos_jobs4_is_byte_identical_to_jobs1() {
    let serial = sweep(&["chaos", "--seeds", "1..5", "--steps", "24", "--jobs", "1"]);
    let parallel = sweep(&["chaos", "--seeds", "1..5", "--steps", "24", "--jobs", "4"]);
    assert!(serial.status.success(), "{}", String::from_utf8_lossy(&serial.stderr));
    assert!(parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "--jobs changed the merged chaos report");
    let text = String::from_utf8(serial.stdout).unwrap();
    assert!(text.contains("=== ys-chaos seed 4 ==="));
    assert!(text.contains("ys-sweep: 4 campaigns, 0 failed"));
}

#[test]
fn bench_jobs4_is_byte_identical_to_jobs1() {
    let serial = sweep(&["bench", "--seeds", "1,2,3,4,5", "--jobs", "1"]);
    let parallel = sweep(&["bench", "--seeds", "1,2,3,4,5", "--jobs", "4"]);
    assert!(serial.status.success());
    assert!(parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "--jobs changed the bench sweep");
}

#[test]
fn usage_errors_exit_2() {
    let bad = sweep(&["chaos", "--seeds", "9..1"]);
    assert_eq!(bad.status.code(), Some(2));
    let unknown = sweep(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2));
}

#[test]
fn help_prints_usage_and_exits_0() {
    let help = sweep(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("byte-identical"));
}
