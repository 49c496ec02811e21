#!/usr/bin/env bash
# Paper-bench identity check between two builds.
#
# Runs `bench_paper DURATION SEED ua_detrac` from both build directories in
# parallel and diffs their stdout. That one run prints all six artifacts
# (Tables I-III, Figs. 4-5 and the design-choice ablations, Table I on
# ua_detrac) from one shared testbed, so each side pretrains once. Any
# difference, or a run that fails, exits non-zero. bench_paper prints no
# wall-clock values, so a refactor that claims unchanged behaviour must
# leave every byte alone.
#
# This covers what tools/check_bit_identity.sh barely reaches: its 30 s
# fleet cell completes only a handful of label jobs, while this run drives
# Shoggoth, Prompt, AMS, Edge-Only, Cloud-Only and the posterior-alpha and
# training ablations through full training sessions. At the default 240 s
# it takes minutes, which is too slow for CI.
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

for dir in "$parent" "$change"; do
    if [ ! -x "$dir/bench_paper" ]; then
        echo "check_paper_benches: missing '$dir/bench_paper'" >&2
        exit 2
    fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run SIDE DIR: stdout to $tmp/SIDE.out, exit status to $tmp/SIDE.status.
run() {
    local status=0
    "$2/bench_paper" "$duration" "$seed" ua_detrac > "$tmp/$1.out" 2> "$tmp/$1.err" \
        || status=$?
    echo "$status" > "$tmp/$1.status"
}

run parent "$parent" &
run change "$change" &
wait

failed=0
for side in parent change; do
    if [ "$(cat "$tmp/$side.status")" != 0 ]; then
        echo "bench_paper: $side run FAILED (exit $(cat "$tmp/$side.status"))"
        sed 's/^/    /' "$tmp/$side.err" | tail -n 5
        failed=1
    fi
done
if [ "$failed" -eq 0 ]; then
    if cmp -s "$tmp/parent.out" "$tmp/change.out"; then
        echo "bench_paper: identical ($(wc -l < "$tmp/change.out") lines)"
    else
        echo "bench_paper: DIFFERS"
        diff -u "$tmp/parent.out" "$tmp/change.out" | head -n 20 | sed 's/^/    /'
        failed=1
    fi
fi

if [ "$failed" -ne 0 ]; then
    echo "check_paper_benches: FAIL (duration $duration, seed $seed)" >&2
    exit 1
fi
echo "check_paper_benches: OK (duration $duration, seed $seed)"
