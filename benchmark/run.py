#!/usr/bin/env python3
"""Outside-in benchmark of the Shoggoth fleet simulator (stdlib only).

    python3 benchmark/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace 0|1] [--traced] [--out DIR] [--smoke]

Builds benchmark/ (CMake, RelWithDebInfo, into build-bench/ at the root
of the checkout, which the root .gitignore's build*/ covers), then runs each workload in a fresh shog_bench process
and prints every metric by name and unit. The last line of stdout is one
JSON object:

    {"correct": true, "attempted": 15, "failed": 0, "metrics": {...}}

With one workload the metrics are the end-to-end metrics of BENCHMARK.json
(--trace 0) or its per-layer metrics (--trace 1). With several workloads
(the default is all four) or --traced (every workload untraced, then once
more traced) the keys are prefixed with the workload name, and the run also
checks that city_fleet_sharded digests equal to city_fleet and each traced
run to its untraced run. A traced run writes <workload>.layers.json and a
host-time Chrome trace <workload>.trace.json to --out, and checks the trace
with tools/check_trace.py.

Exits non-zero, without a result line, when the build fails, a run crashes
or times out, or a metric is undeclared, missing or not finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
WORKLOADS = ["paper_table1", "city_fleet", "city_fleet_sharded", "cloud_sweep"]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def build() -> Path:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources (CMakeLists.txt, src/) in {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    build_dir = BUILD / "cmake"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(build_dir), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = [cmake, "--build", str(build_dir), "--target", "shog_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return build_dir / "shog_bench"


def run_workload(binary: Path, workload: str, args, trace: bool) -> dict:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "1" if trace else "0",
           "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: shog_bench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload}: unreadable result line: {exc}") from exc
    suffix = ".traced.json" if trace else ".json"
    (args.out / f"{workload}{suffix}").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        check_trace(args.out / f"{workload}.trace.json", result)
    return result


def check_trace(path: Path, result: dict) -> None:
    checker = ROOT / "tools" / "check_trace.py"
    if not checker.is_file():
        return
    proc = subprocess.run([sys.executable, str(checker), str(path)],
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        result["correct"] = False
        result["errors"].append(f"{path.name} fails tools/check_trace.py")


def declared_metrics(result: dict, spec: dict, trace: bool) -> dict:
    """The result's metrics of the traced/untraced section, each checked
    against its declaration in BENCHMARK.json."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    got = result["layers"] if trace else result["metrics"]
    for name, metric in got.items():
        if not NAME.match(name):
            raise BenchError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if name not in units:
            raise BenchError(f"metric {name} is not declared in BENCHMARK.json {section}")
        if metric["unit"] != units[name]:
            raise BenchError(f"metric {name} has unit {metric['unit']}, declared {units[name]}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value!r}")
    missing = sorted(set(units) - set(got))
    if missing:
        raise BenchError(f"{result['workload']} did not report {', '.join(missing)}")
    return got


def report(result: dict, metrics: dict, trace: bool) -> None:
    kind = "traced" if trace else "untraced"
    print(f"== {result['workload']} ({kind}, seed {result['seed']}, "
          f"{result['threads']}/{result['hw_threads']} threads, {result['build_type']}): "
          f"ops {result['attempted']}, failed {result['failed']}, digest {result['digest']}")
    for name, metric in metrics.items():
        print(f"   {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for error in result["errors"]:
        print(f"   ERROR {error}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed work per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run every workload untraced, then once more traced")
    parser.add_argument("--out", type=Path, default=BUILD / "results")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (benchmark/selftest.sh); not a measurement")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        binary = build()
        args.out = args.out.resolve()
        args.out.mkdir(parents=True, exist_ok=True)
        passes = [False, True] if args.traced else [bool(args.trace)]
        single = len(workloads) == 1 and len(passes) == 1
        correct, attempted, failed = True, 0, 0
        line_metrics: dict = {}
        digests: dict = {}
        for workload in workloads:
            for trace in passes:
                result = run_workload(binary, workload, args, trace)
                metrics = declared_metrics(result, spec, trace)
                report(result, metrics, trace)
                correct = correct and result["correct"]
                attempted += result["attempted"]
                failed += result["failed"]
                digests[(workload, trace)] = result["digest"]
                for name, metric in metrics.items():
                    line_metrics[name if single else f"{workload}.{name}"] = metric
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    checks = []
    for trace in passes:
        if ("city_fleet", trace) in digests and ("city_fleet_sharded", trace) in digests:
            checks.append(("city_fleet_sharded digest == city_fleet digest",
                           digests[("city_fleet", trace)]
                           == digests[("city_fleet_sharded", trace)]))
    if args.traced:
        for workload in workloads:
            checks.append((f"{workload} traced digest == untraced digest",
                           digests[(workload, True)] == digests[(workload, False)]))
    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        correct = correct and ok

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": line_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
