#!/usr/bin/env bash
# Paper-bench identity check between two builds.
#
# Runs the paper's table and figure benches (bench_table1 on ua_detrac,
# bench_table2, bench_table3, bench_fig4, bench_fig5, bench_ablation) from
# both build directories at the same duration and seed, at most
# min(4, nproc) runs at a time, and diffs their stdout. Any difference, or
# a run that fails, exits non-zero. The benches print no wall-clock values,
# so a refactor that claims unchanged behaviour must leave every byte alone.
#
# This covers what tools/check_bit_identity.sh barely reaches: its 30 s
# fleet cell completes only a handful of label jobs, while these runs drive
# Shoggoth, Prompt, AMS, Edge-Only, Cloud-Only and the posterior-alpha and
# training ablations through full training sessions. At the default 240 s
# it takes about a minute per bench on a 4-thread host, which is too slow
# for CI.
#
# Usage:
#   tools/check_paper_benches.sh PARENT_BUILD CHANGE_BUILD [duration=240] [seed=2023]
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 PARENT_BUILD CHANGE_BUILD [duration=240] [seed=2023]" >&2
    exit 2
fi
parent="$1"
change="$2"
duration="${3:-240}"
seed="${4:-2023}"
benches=(table1 table2 table3 fig4 fig5 ablation)

for dir in "$parent" "$change"; do
    for b in "${benches[@]}"; do
        if [ ! -x "$dir/bench_$b" ]; then
            echo "check_paper_benches: missing '$dir/bench_$b'" >&2
            exit 2
        fi
    done
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

max_jobs="$(nproc)"
if [ "$max_jobs" -gt 4 ]; then
    max_jobs=4
fi

# run SIDE DIR BENCH: stdout to $tmp/SIDE.BENCH.out, exit status to .status.
run() {
    local args=("$duration" "$seed")
    if [ "$3" = table1 ]; then
        args+=(ua_detrac)
    fi
    local status=0
    "$2/bench_$3" "${args[@]}" > "$tmp/$1.$3.out" 2> "$tmp/$1.$3.err" || status=$?
    echo "$status" > "$tmp/$1.$3.status"
}

for b in "${benches[@]}"; do
    for side in parent change; do
        while [ "$(jobs -rp | wc -l)" -ge "$max_jobs" ]; do
            wait -n || true
        done
        if [ "$side" = parent ]; then
            run parent "$parent" "$b" &
        else
            run change "$change" "$b" &
        fi
    done
done
wait

failed=0
for b in "${benches[@]}"; do
    for side in parent change; do
        if [ "$(cat "$tmp/$side.$b.status")" != 0 ]; then
            echo "bench_$b: $side run FAILED (exit $(cat "$tmp/$side.$b.status"))"
            sed 's/^/    /' "$tmp/$side.$b.err" | tail -n 5
            failed=1
            continue 2
        fi
    done
    if cmp -s "$tmp/parent.$b.out" "$tmp/change.$b.out"; then
        echo "bench_$b: identical ($(wc -l < "$tmp/change.$b.out") lines)"
    else
        echo "bench_$b: DIFFERS"
        diff -u "$tmp/parent.$b.out" "$tmp/change.$b.out" | head -n 20 | sed 's/^/    /'
        failed=1
    fi
done

if [ "$failed" -ne 0 ]; then
    echo "check_paper_benches: FAIL (duration $duration, seed $seed)" >&2
    exit 1
fi
echo "check_paper_benches: OK (${#benches[@]} benches identical, duration $duration, seed $seed)"
