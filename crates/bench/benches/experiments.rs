//! Criterion wall-time benches over the experiment registry — one bench per
//! entry, so `cargo bench` regenerates every result and also tracks the
//! harness's own cost.
//!
//! The *simulated* metrics (MB/s, latency, loss counts) and the paper-claim
//! checkpoints are printed by `cargo run -p ys-bench --bin ys-report`;
//! Criterion here measures that each experiment is cheap enough to iterate
//! on and that the simulator itself doesn't regress.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ys_bench::experiments;

fn bench_all(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    for (id, _title, f) in experiments::registry() {
        g.bench_function(id, |b| b.iter(|| black_box(f())));
    }
    g.finish();
}

criterion_group!(benches, bench_all);
criterion_main!(benches);
