//! `ys-bench` — the experiment suite reproducing every figure and
//! quantitative claim of the paper (see DESIGN.md §4 for the index).
//!
//! * [`driver`] — the closed-loop multi-client workload driver;
//! * [`experiments`] — E1–E12 and the one experiment registry: every entry
//!   returns a `ys_obs::RunReport` holding its printed series, the paper
//!   checkpoints asserted on that same run, its metrics and its trace;
//! * [`ablations`] — A1–A3, the design choices toggled off one at a time;
//! * [`scenarios`] — the QoS, heal, scrub and chaos campaign scenarios;
//! * [`report`] — the `ys-report` CLI body (`src/bin/ys-report.rs`), which
//!   prints the tables recorded in EXPERIMENTS.md;
//! * `benches/experiments.rs` — Criterion wall-time benches over the same
//!   experiment bodies.

pub mod ablations;
pub mod driver;
pub mod experiments;
#[cfg(test)]
mod obs_breakdown;
pub mod report;
pub mod scenarios;
pub mod spec;

pub use driver::{closed_loop, RunResult};
