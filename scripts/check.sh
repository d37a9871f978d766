#!/usr/bin/env sh
# Repo hygiene gate: ys-lint static analysis plus rustdoc and clippy, all
# deny-by-default, plus a deterministic ys-chaos fault-campaign smoke with
# a byte-identity replay diff as a tier-1 gate.
# Run from anywhere inside the repo; CI and pre-commit both call this.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo xtask lint (ys-lint: panic/wall-clock/entropy/iteration rules)"
cargo xtask lint

echo "==> cargo xtask doc (rustdoc, -D warnings)"
cargo xtask doc

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy unavailable in this toolchain; skipping (xtask lint still ran)"
fi

echo "==> ys-chaos fault-campaign smoke + in-process double-run (seed 4, 64 steps)"
cargo run -q -p ys-sweep --bin ys-chaos -- --seed 4 --steps 64 --double-run --quiet

# End-to-end integrity: a seeded latent-error campaign must detect every
# injected corruption and repair it (with the source attributed) or
# declare it lost explicitly — plus the in-process byte-identity replay.
echo "==> ys-scrub latent-error campaign + in-process double-run (seed 4, 64 errors)"
cargo run -q -p ys-sweep --bin ys-scrub -- --seed 4 --errors 64 --double-run --quiet

# Blade lifecycle: the seeded drain/fail/heal/rejoin campaign must lose
# zero acknowledged writes through planned and unplanned membership churn,
# refuse writes exactly at ReadOnly health, and replay byte-identically.
echo "==> ys-heal lifecycle campaign + in-process double-run (seed 4)"
cargo run -q -p ys-sweep --bin ys-heal -- --seed 4 --double-run --quiet

# Cross-process byte-identity: two separate invocations of the same seed
# must print identical transcripts. The in-process double-run above already
# catches per-instance hasher drift; this one also covers anything that
# varies per process (ASLR-dependent ordering, env, globals).
echo "==> ys-chaos cross-process determinism diff (seed 4, 64 steps)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q -p ys-sweep --bin ys-chaos -- --seed 4 --steps 64 > "$tmpdir/run1.txt"
cargo run -q -p ys-sweep --bin ys-chaos -- --seed 4 --steps 64 > "$tmpdir/run2.txt"
if ! cmp -s "$tmpdir/run1.txt" "$tmpdir/run2.txt"; then
    echo "FAIL: same-seed runs differ across processes — replay determinism broken" >&2
    diff "$tmpdir/run1.txt" "$tmpdir/run2.txt" >&2 || true
    exit 1
fi
echo "    transcripts byte-identical across processes"

# Parallelism must be a throughput knob, not a behaviour knob: the merged
# sweep report has to be byte-identical whether shards ran on one worker
# or four. (ys-sweep's own tests pin this too; this gate catches it at the
# shipped-binary level, after any cargo feature/profile skew.)
echo "==> ys-sweep parallel-vs-serial determinism smoke (chaos seeds 1..5)"
cargo run -q -p ys-sweep -- chaos --seeds 1..5 --steps 32 --jobs 1 > "$tmpdir/sweep1.txt"
cargo run -q -p ys-sweep -- chaos --seeds 1..5 --steps 32 --jobs 4 > "$tmpdir/sweep4.txt"
if ! cmp -s "$tmpdir/sweep1.txt" "$tmpdir/sweep4.txt"; then
    echo "FAIL: --jobs 4 sweep differs from --jobs 1 — shard merge broke determinism" >&2
    diff "$tmpdir/sweep1.txt" "$tmpdir/sweep4.txt" >&2 || true
    exit 1
fi
echo "    sweep reports byte-identical across --jobs 1/4"

# Paper claims: the whole experiment suite (E1–E12, A1–A3 and the campaign
# scenarios) asserts every checkpoint on the runs EXPERIMENTS.md publishes;
# ys-report exits non-zero if any claim fails. The Chrome trace goes to the
# scratch directory so the repo root stays clean. The model checker then
# exhausts the §5 mask/zone/cipher state space (saturates at depth 7).
echo "==> ys-report whole suite (every paper-claim checkpoint)"
if ! cargo run -q --release -p ys-bench --bin ys-report -- --trace-out "$tmpdir/suite.trace.json" > "$tmpdir/suite.txt"; then
    echo "FAIL: a paper-claim checkpoint failed" >&2
    grep "FAIL" "$tmpdir/suite.txt" >&2 || true
    exit 1
fi
echo "    all $(grep -c '\[PASS\]' "$tmpdir/suite.txt") checkpoints passed"

echo "==> ys-check --security --depth 7 (exhaustive §5 enforcement model)"
cargo run -q -p ys-check --release -- --security --depth 7

echo "==> ys-check --heal --depth 7 (exhaustive blade-lifecycle model)"
cargo run -q -p ys-check --release -- --heal --depth 7

# Perf-trajectory drift gate: regenerating the benchmark snapshot must
# reproduce BENCH_baseline.json exactly, ignoring host wall-clock lines.
echo "==> cargo xtask bench-snapshot --check (sim metrics vs BENCH_baseline.json)"
cargo xtask bench-snapshot --check

echo "==> all checks passed"
