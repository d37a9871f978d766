//! `ys-chaos` — run a deterministic fault campaign from a seed.
//!
//! Flags, output and exit codes come from the one campaign harness,
//! [`ys_sweep::campaign`].

fn main() -> std::process::ExitCode {
    ys_sweep::campaign::main::<ys_chaos::RunOptions>()
}
