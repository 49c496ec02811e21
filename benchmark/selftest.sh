#!/usr/bin/env bash
# Smoke test of the benchmark at tiny input sizes (about a minute after the
# build): every workload untraced, then traced. It fails when
#  - a traced run digests differently from its untraced run,
#  - city_fleet_sharded digests differently from city_fleet,
#  - any metric is not finite,
#  - an emitted metric name is not declared in BENCHMARK.json or is not
#    [A-Za-z0-9_.-]+,
#  - a host-time trace fails tools/check_trace.py,
#  - any op fails.
# run.py makes each of these checks; this script runs it and reads its
# verdict.
#
#   bash benchmark/selftest.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/build-bench/selftest"
rm -rf "$out"
mkdir -p "$out"
log="$out/run.log"
if ! python3 "$root/benchmark/run.py" --smoke --traced --seconds 1 --seed 7 --out "$out" \
        > "$log"; then
    echo "selftest: FAIL (run.py exited non-zero)" >&2
    exit 1
fi
grep -E '^FAIL|ERROR' "$log" >&2 || true
python3 - "$(tail -n 1 "$log")" <<'EOF'
import json
import sys

result = json.loads(sys.argv[1])
if not result["correct"] or result["failed"] != 0:
    sys.exit(f"selftest: FAIL (correct={result['correct']}, failed ops={result['failed']})")
print(f"selftest: ok ({result['attempted']} ops)")
EOF
