//! `ys-report` — run the experiment registry and print every series and
//! paper-claim checkpoint: the numbers EXPERIMENTS.md records.
//!
//! ```text
//! ys-report [ID…] [--trace-out PATH] [--metrics] [--list]
//! ```
//!
//! With no ids it runs the whole suite. Exit status: 0 when every
//! checkpoint passes, 1 when one fails, 2 on an unknown id or flag.
//!
//! The CLI body lives in [`ys_bench::report`]; this shim only wires up
//! stdio and the wall clock (this directory is the bench crate's one
//! wall-clock-exempt location).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = std::time::Instant::now();
    let elapsed = move || started.elapsed().as_secs_f64();
    let (mut out, mut err) = (std::io::stdout().lock(), std::io::stderr().lock());
    match ys_bench::report::run_report(&mut out, &mut err, &args, elapsed) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("ys-report: {e}");
            ExitCode::FAILURE
        }
    }
}
