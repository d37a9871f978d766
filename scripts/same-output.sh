#!/usr/bin/env sh
# Same-output check for a refactor: build REV (any commit, branch or tag)
# in a temporary git worktree and the working tree here, run both builds
# on every deterministic output surface, and cmp the results.
#
#   scripts/same-output.sh REV
#
# Surfaces, in order: ys-report and ys-report --metrics (without the
# wall-clock "(suite completed in ...)" line), simulate on each
# scenarios/*.json and on `{}`, ys-chaos --seed 4 --steps 64,
# ys-scrub --seed 4 --errors 64, ys-heal --seed 4, and perfbench on each of
# its four workloads (--seed 1 --seconds 1 --trace 0) cut to its
# `fingerprint` line and its `sim.*` lines (host timings dropped). Each
# surface is its stdout plus its exit status. Both builds read the working
# tree's scenario files; perfbench runs from the temporary directory, so
# nothing it writes lands in the repo. Exits 0 when every surface is
# byte-identical, 1 naming the first surface that differs, 2 on bad usage
# or a failed build.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/same-output.sh REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
root=$(pwd)
if ! rev=$(git rev-parse --verify --quiet "$1^{commit}"); then
    echo "same-output: unknown revision '$1'" >&2
    exit 2
fi

tmp=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$tmp/rev" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 2' INT TERM

echo "==> building $1 ($rev) in a temporary worktree"
git worktree add --quiet --detach "$tmp/rev" "$rev"
if ! (cd "$tmp/rev" && cargo build -q --release -p ys-bench -p ys-sweep --bins --target-dir "$tmp/target" \
    && cargo build -q --release --offline --manifest-path perfbench/Cargo.toml --target-dir "$tmp/target"); then
    echo "same-output: building $1 failed" >&2
    exit 2
fi
echo "==> building the working tree"
if ! (cargo build -q --release -p ys-bench -p ys-sweep --bins \
    && cargo build -q --release --offline --manifest-path perfbench/Cargo.toml --target-dir "$root/target"); then
    echo "same-output: building the working tree failed" >&2
    exit 2
fi

# capture NAME CMD...: CMD's stdout (wall-clock line dropped) and exit
# status into $out/NAME; stdin passes through.
capture() {
    name=$1
    shift
    status=0
    "$@" > "$out/$name.raw" 2>/dev/null || status=$?
    grep -v '^(suite completed in ' "$out/$name.raw" > "$out/$name" || true
    echo "exit $status" >> "$out/$name"
    rm "$out/$name.raw"
    echo "$name" >> "$out/.surfaces"
}

# run_surfaces BIN_DIR PERFBENCH OUT_DIR
run_surfaces() {
    bin=$1
    perfbench=$2
    out=$3
    mkdir -p "$out"
    capture ys-report "$bin/ys-report"
    capture ys-report--metrics "$bin/ys-report" --metrics
    for spec in "$root"/scenarios/*.json; do
        capture "simulate-$(basename "$spec" .json)" "$bin/simulate" "$spec"
    done
    echo '{}' | capture simulate-empty-spec "$bin/simulate"
    capture ys-chaos "$bin/ys-chaos" --seed 4 --steps 64
    capture ys-scrub "$bin/ys-scrub" --seed 4 --errors 64
    capture ys-heal "$bin/ys-heal" --seed 4
    for w in cache-hot disk-mix geo-stream repair-under-load; do
        (cd "$tmp" && capture "perfbench-$w" "$perfbench" --workload "$w" --seed 1 --seconds 1 --trace 0)
        # Keep the fingerprint, the simulated metrics and the exit status:
        # host timings differ from run to run.
        grep -e '^fingerprint ' -e '^sim\.' -e '^exit ' "$out/perfbench-$w" > "$out/perfbench-$w.sim" || true
        mv "$out/perfbench-$w.sim" "$out/perfbench-$w"
    done
}

echo "==> running both builds"
run_surfaces "$tmp/target/release" "$tmp/target/release/perfbench" "$tmp/out-rev"
run_surfaces "$root/target/release" "$root/target/release/perfbench" "$tmp/out-tree"

count=0
while read -r name; do
    if ! cmp -s "$tmp/out-rev/$name" "$tmp/out-tree/$name"; then
        echo "DIFFERS: $name ($1 vs working tree)" >&2
        diff "$tmp/out-rev/$name" "$tmp/out-tree/$name" | head -20 >&2 || true
        exit 1
    fi
    count=$((count + 1))
done < "$tmp/out-rev/.surfaces"
echo "same output: all $count surfaces byte-identical to $1"
