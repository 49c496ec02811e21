#!/usr/bin/env python3
"""Compare benchmark results of a parent and a change (stdlib only).

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmark/compare.py --summary DIR [--commit REV]

Each DIR holds one sub-directory per invocation of
`python3 benchmark/run.py --out DIR/<run-id>`. A parent run and a change
run of a workload form a pair when they used the same --seed; give both
sides the same ten or more seeds and alternate which side runs first.

For every workload x end-to-end metric the comparison prints each side's
median and quartiles (statistics.quantiles, n=4), the change/parent ratio
with its base, the pairs the change wins (ties count for neither), and a
verdict under the metric's bound from BENCHMARK.json, the first that holds:

  identical   every pair reads the same;
  regression  a simulated metric (SIMULATED) is worse in any pair: these
              are deterministic per seed, so their bound covers only the
              spread across seeds and never excuses a loss on one seed;
  unresolved  a host metric whose parent quartile spread exceeds the
              bound, unless every change run beats every parent run;
  regression  the change's median is worse than the parent's by more
              than the bound;
  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread;
  within      none of the above.

Exit status 1 when any row is a regression.

--summary prints one side's medians and quartiles (plus the per-layer
values of its traced runs) as JSON; benchmark/baselines/ is made with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics of the simulated system: a function of the seed alone.
SIMULATED = frozenset({"map", "uplink_kbps", "p95_label_latency_s"})


def load_runs(directory: Path, suffix: str, spec: dict) -> dict[str, list[dict]]:
    """workload -> its <workload><suffix> results, in sorted run-directory order."""
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for path in sorted(directory.glob(f"*/{workload}{suffix}")):
            runs.setdefault(workload, []).append(json.loads(path.read_text()))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            simulated: bool) -> tuple[str, int]:
    """parent[i] and change[i] ran on the same seed."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if all(p == c for p, c in zip(parent, change)):
        return "identical", wins
    if simulated and any(sign * (c - p) < 0 for p, c in zip(parent, change)):
        return "regression", wins
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = -sign * (cm - pm) / abs(pm) if pm else 0.0
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if not simulated and pm and (p3 - p1) / abs(pm) > bound and not every_run_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    pairs = min(len(parent), len(change))
    if pairs >= 10 and wins >= 0.9 * pairs and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        return "gain", wins
    return "within", wins


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent_runs = load_runs(parent_dir, ".json", spec)
    change_runs = load_runs(change_dir, ".json", spec)
    regressions = 0
    header = (f"{'workload':<19} {'metric':<20} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'change/parent':>24} {'wins':>6}  verdict")
    print(header)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        by_seed = {r["seed"]: r for r in change_runs[workload]}
        ps = [r for r in parent_runs[workload] if r["seed"] in by_seed]
        cs = [by_seed[r["seed"]] for r in ps]
        pairs = len(ps)
        if pairs == 0:
            print(f"{workload}: no seed ran on both sides", file=sys.stderr)
            continue
        if pairs < 10:
            print(f"{workload}: only {pairs} pairs; a claim needs at least 10", file=sys.stderr)
        for m in spec["end_to_end"]:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in ps]
            change = [r["metrics"][name]["value"] for r in cs]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            simulated = name in SIMULATED
            result, wins = verdict(parent, change, m["better"], m["bound"], simulated)
            regressions += result == "regression"
            ratio = f"{cm / pm:.4f} of {pm:.4g} {m['unit']}" if pm else "n/a (base 0)"
            rule = "per-seed rule" if simulated else f"bound {m['bound']:.0%}"
            print(f"{workload:<19} {name:<20} {pm:>12.5g} [{p1:.5g}, {p3:.5g}]".ljust(76)
                  + f"{cm:>12.5g} [{c1:.5g}, {c3:.5g}]".ljust(35)
                  + f"{ratio:>24} {wins:>3}/{pairs:<2}  {result} ({rule})")
    return 1 if regressions else 0


def summary(directory: Path, spec: dict, commit: str | None) -> int:
    untraced = load_runs(directory, ".json", spec)
    traced = load_runs(directory, ".traced.json", spec)
    first = next(iter(untraced.values()))[0]
    out: dict = {"commit": commit}
    for key in ("hw_threads", "threads", "compiler", "build_type", "seconds"):
        out[key] = first[key]
    out["workloads"] = {}
    for workload, runs in sorted(untraced.items()):
        entry: dict = {"invocations": len(runs), "seeds": [r["seed"] for r in runs],
                       "failed_ops": sum(r["failed"] for r in runs), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / abs(q2) if q2 else 0.0, "bound": m["bound"]}
        if workload in traced:
            entry["traced_invocations"] = len(traced[workload])
            entry["per_layer"] = {
                m["name"]: {"unit": m["unit"], "median": statistics.median(
                    r["layers"][m["name"]]["value"] for r in traced[workload])}
                for m in spec["per_layer"]}
        out["workloads"][workload] = entry
    print(json.dumps(out, indent=1))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", type=Path)
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--commit", help="revision the summarized runs measured")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        return summary(args.dirs[0], spec, args.commit)
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    return compare(args.dirs[0], args.dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
