//! `ys-scrub` — run a seeded end-to-end latent-error campaign.
//!
//! Flags, output and exit codes come from the one campaign harness,
//! [`ys_sweep::campaign`].

fn main() -> std::process::ExitCode {
    ys_sweep::campaign::main::<ys_scrub::CampaignConfig>()
}
