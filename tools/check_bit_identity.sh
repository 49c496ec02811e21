#!/usr/bin/env bash
# Bit-identity gate for the simulation kernel.
#
# Runs a short default-config fleet cell (30 sim-seconds, seed 19, 2
# devices, sequential sweep) and compares the SHA-256 of the emitted JSON
# against the committed golden hash. The same run also writes the traced
# cell's Chrome-trace JSON and metrics CSV (`--trace`, which leaves stdout
# unchanged); those two files are hashed against a second golden,
# tools/trace_identity.sha256, so every trace and metric emission site is
# pinned byte for byte, not only checked for structure. A third leg runs
# `bench_paper 180 2023 table1 table2 ablation ua_detrac` from the same
# build directory and hashes its stdout against tools/paper_identity.sha256:
# the fleet cell barely trains, while this run completes Shoggoth, Prompt
# and AMS training sessions, so it pins Adaptive_trainer::train, the
# validation gate and the labeler too. Table II and the ablation add the
# trainer configurations Table I does not run (input replay, no replay,
# the conv5_4 cut and the completely-freezing front, whose latents go
# through the inference path), so every replay cut is pinned as well. The engine is contractually deterministic, so the stream
# must be byte-identical run over run and
# commit over commit: any numeric drift — a reordered floating-point
# reduction, an eager unit conversion, an "innocent" refactor of the event
# loop — flips the hash and fails the gate. Lines carrying "wall_ms" are
# the one sanctioned nondeterminism (host wall-clock measurements) and are
# stripped before hashing.
#
# The golden hash is tied to IEEE-754 double arithmetic on the default CI
# toolchain (x86-64 gcc, no -ffast-math); regenerate with --update after an
# *intentional* behaviour change and say why in the commit message.
#
# Usage:
#   tools/check_bit_identity.sh [path/to/bench_fleet]   verify (default gate)
#   tools/check_bit_identity.sh --update [bench]        rewrite all three golden hashes
# bench_paper is taken from the directory that holds bench_fleet.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
golden="$root/tools/bit_identity.sha256"
trace_golden="$root/tools/trace_identity.sha256"
paper_golden="$root/tools/paper_identity.sha256"

update=0
if [ "${1:-}" = "--update" ]; then
    update=1
    shift
fi
bench="${1:-$root/build/bench_fleet}"

if [ ! -x "$bench" ]; then
    echo "check_bit_identity: bench binary not found at '$bench'" >&2
    echo "build it first: cmake --build build --target bench_fleet" >&2
    exit 2
fi
paper_bench="$(dirname "$bench")/bench_paper"
if [ ! -x "$paper_bench" ]; then
    echo "check_bit_identity: bench_paper not found at '$paper_bench'" >&2
    echo "build it first: cmake --build build --target bench_paper" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Short default-config cell: full scaling/policy/sharding/reliability
# sweeps at 2 devices, scale section off, one worker, plus the traced
# cell. Keep these arguments in lockstep with the golden hashes.
actual="$("$bench" 30 19 2 0 1 --trace "$tmp/trace.json" 2>/dev/null |
    grep -v '"wall_ms"' | sha256sum | cut -d' ' -f1)"
# Hashed from inside the scratch directory, so the golden names the two
# files without the per-run temporary path.
traced="$(cd "$tmp" && sha256sum trace.json trace.json.metrics.csv)"

# The same cell through the device-sharded engine (sim::run_cluster_sharded
# with 4 shards): byte-identity across engines is part of the determinism
# contract, so its stdout is hashed against the SAME golden — no second
# stdout hash file to drift out of sync.
sharded="$("$bench" 30 19 2 0 1 --shards 4 2>/dev/null | grep -v '"wall_ms"' | sha256sum | cut -d' ' -f1)"

# Table I on one preset (every strategy, real training sessions), Table II
# and the ablation (every trainer configuration). bench_paper prints no
# wall-clock values, so nothing is stripped.
paper="$("$paper_bench" 180 2023 table1 table2 ablation ua_detrac 2>/dev/null |
    sha256sum | cut -d' ' -f1)"

if [ "$update" -eq 1 ]; then
    printf '%s\n' "$actual" > "$golden"
    printf '%s\n' "$traced" > "$trace_golden"
    printf '%s\n' "$paper" > "$paper_golden"
    echo "check_bit_identity: golden hashes updated: $actual"
    printf '%s\n' "$traced"
    echo "paper: $paper"
    if [ "$sharded" != "$actual" ]; then
        echo "check_bit_identity: WARNING — sharded engine output differs from" >&2
        echo "the sequential engine; the gate will fail until that is fixed." >&2
        exit 1
    fi
    exit 0
fi

for file in "$golden" "$trace_golden" "$paper_golden"; do
    if [ ! -f "$file" ]; then
        echo "check_bit_identity: missing golden hash '$file'" >&2
        echo "seed it with: tools/check_bit_identity.sh --update" >&2
        exit 2
    fi
done

expected="$(tr -d '[:space:]' < "$golden")"
if [ "$actual" != "$expected" ]; then
    echo "check_bit_identity: FAIL — simulation output drifted" >&2
    echo "  expected: $expected" >&2
    echo "  actual:   $actual" >&2
    echo "If the change is intentional, rerun with --update and justify the" >&2
    echo "new golden hash in the commit message." >&2
    exit 1
fi

if [ "$traced" != "$(cat "$trace_golden")" ]; then
    echo "check_bit_identity: FAIL — trace / metrics output drifted" >&2
    echo "  expected:" >&2
    sed 's/^/    /' "$trace_golden" >&2
    echo "  actual:" >&2
    printf '%s\n' "$traced" | sed 's/^/    /' >&2
    echo "If the change is intentional, rerun with --update and justify the" >&2
    echo "new golden hashes in the commit message." >&2
    exit 1
fi

if [ "$sharded" != "$expected" ]; then
    echo "check_bit_identity: FAIL — sharded engine (--shards 4) drifted from" >&2
    echo "the sequential golden" >&2
    echo "  expected: $expected" >&2
    echo "  sharded:  $sharded" >&2
    exit 1
fi

paper_expected="$(tr -d '[:space:]' < "$paper_golden")"
if [ "$paper" != "$paper_expected" ]; then
    echo "check_bit_identity: FAIL — bench_paper 180 2023 table1 table2 ablation ua_detrac drifted" >&2
    echo "  expected: $paper_expected" >&2
    echo "  actual:   $paper" >&2
    echo "If the change is intentional, rerun with --update and justify the" >&2
    echo "new golden hashes in the commit message." >&2
    exit 1
fi

echo "check_bit_identity: OK ($actual, trace and metrics identical, sharded engine identical, paper table1/table2/ablation identical)"
