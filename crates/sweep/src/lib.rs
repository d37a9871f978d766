//! # ys-sweep — parallel deterministic multi-seed runner
//!
//! Every simulation in this workspace is a pure function of
//! `(config, seed)` on a single thread. That makes multi-seed work —
//! `ys-check` explorations, `ys-chaos` fault campaigns, benchmark
//! confidence sweeps — embarrassingly parallel: `ys-sweep` fans one shard
//! per seed (or per model) across a worker pool, then merges results in
//! input order, so the aggregate report is **byte-identical** to a serial
//! run. Parallelism is a throughput knob that can never reach replay:
//! `ys-sweep --jobs 16` and `--jobs 1` print the same bytes, and
//! `scripts/check.sh` compares them on every run.
//!
//! Threads live only here, on `std::thread::scope`; the simulation crates
//! remain thread-free and clock-free, which keeps the `ys-lint`
//! ambient-entropy rule meaningful.
//!
//! The [`campaign`] module is the one campaign harness: the `ys-chaos`,
//! `ys-scrub` and `ys-heal` binaries of this crate and the matching sweep
//! modes all run through it.
//!
//! The [`snapshot`] module emits `BENCH_baseline.json` — the
//! perf-trajectory baseline separating machine-independent simulation
//! metrics from host wall-clock stage costs.

#![warn(missing_docs)]

pub mod campaign;
pub mod pool;
pub mod shard;
pub mod snapshot;

pub use pool::{default_threads, run_sweep};
pub use campaign::{campaign_sweep, SeededCampaign};
pub use shard::{bench_sweep, check_sweep, SweepOutcome};
pub use snapshot::{collect, diff, render, strip_host_lines, Scenario, SCHEMA};
