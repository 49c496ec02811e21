#!/usr/bin/env python3
"""Validate a Chrome-trace/Perfetto JSON emitted by obs::chrome_trace_json.

Structural contract (docs/OBSERVABILITY.md):
  * the file is one JSON object with a `traceEvents` array;
  * event `ts` values are finite and globally monotone non-decreasing in
    array order (the exporter walks the merged (time, track, seq) stream);
  * sync spans nest: every E closes the innermost open B of the same
    (pid, tid) stack with a matching name, and never before it began.
    Spans still open at end-of-stream are allowed (an outage can outlive
    the simulated horizon) and reported;
  * async spans pair: every `e` has an open `b` with the same
    (cat, id, name); unterminated `b`s are allowed (in-flight at horizon)
    and reported;
  * instants carry scope "t"; counters carry a numeric value;
  * every server instant (`preempt`, `checkpoint`, `straggler_requeue`,
    `warm` on a GPU occupancy row, `server_fail`/`server_repair` on a GPU
    health row) lies inside the sync span open on its own row and carries
    that span's id: the dispatch it interrupts or marks, or the server.
    The scheduler row carries job ids only, so none of these belong there.

Exit status 0 when the trace is well-formed, 1 on any violation (each is
printed). Stdlib only; used by the CI trace-smoke step:

    python3 tools/check_trace.py trace.json
"""

from __future__ import annotations

import json
import math
import sys

# Instants that mark an edge of the span open on their own server row.
SERVER_INSTANTS = {"preempt", "checkpoint", "straggler_requeue", "warm", "server_fail",
                   "server_repair"}


def fail(errors: list[str], message: str) -> None:
    errors.append(message)
    print(f"error: {message}", file=sys.stderr)


def span_id(e: dict):
    """The id a sync span or instant carries in its args."""
    return e.get("args", {}).get("id")


def check(events: list[dict]) -> tuple[list[str], dict]:
    errors: list[str] = []
    stats = {
        "events": 0,
        "metadata": 0,
        "spans_closed": 0,
        "spans_open": 0,
        "async_closed": 0,
        "async_open": 0,
        "instants": 0,
        "counters": 0,
        "tracks": set(),
    }
    # (pid, tid) -> stack of (name, ts, id) for sync B/E nesting.
    sync_stacks: dict[tuple, list[tuple]] = {}
    # (cat, id, name) -> count of open async begins.
    async_open: dict[tuple, int] = {}
    last_ts = None

    for i, e in enumerate(events):
        phase = e.get("ph")
        if phase is None:
            fail(errors, f"event #{i} has no ph field: {e}")
            continue
        if phase == "M":
            stats["metadata"] += 1
            continue

        stats["events"] += 1
        where = f"event #{i} ({phase} {e.get('name', '?')!r})"
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or not math.isfinite(ts):
            fail(errors, f"{where}: non-finite or missing ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            fail(errors, f"{where}: ts {ts} goes backwards (previous {last_ts})")
        last_ts = ts
        key = (e.get("pid"), e.get("tid"))
        stats["tracks"].add(key)

        if phase == "B":
            sync_stacks.setdefault(key, []).append((e.get("name"), ts, span_id(e)))
        elif phase == "E":
            stack = sync_stacks.get(key, [])
            if not stack:
                fail(errors, f"{where}: E with no open span on track {key}")
                continue
            name, begin_ts, _ = stack.pop()
            if name != e.get("name"):
                fail(errors, f"{where}: E closes {name!r}, not {e.get('name')!r} "
                             f"(broken nesting on track {key})")
            if ts < begin_ts:
                fail(errors, f"{where}: span ends at {ts} before it began at {begin_ts}")
            stats["spans_closed"] += 1
        elif phase == "b":
            akey = (e.get("cat"), e.get("id"), e.get("name"))
            async_open[akey] = async_open.get(akey, 0) + 1
        elif phase == "e":
            akey = (e.get("cat"), e.get("id"), e.get("name"))
            if async_open.get(akey, 0) <= 0:
                fail(errors, f"{where}: async end with no matching begin {akey}")
                continue
            async_open[akey] -= 1
            stats["async_closed"] += 1
        elif phase == "i":
            if e.get("s") != "t":
                fail(errors, f"{where}: instant scope {e.get('s')!r}, expected 't'")
            if e.get("name") in SERVER_INSTANTS:
                stack = sync_stacks.get(key, [])
                if not stack or stack[-1][2] != span_id(e):
                    fail(errors, f"{where}: id {span_id(e)} is not the span open on "
                                 f"track {key}")
            stats["instants"] += 1
        elif phase == "C":
            args = e.get("args", {})
            if not args or not all(
                isinstance(v, (int, float)) and math.isfinite(v) for v in args.values()
            ):
                fail(errors, f"{where}: counter without finite numeric args: {args!r}")
            stats["counters"] += 1
        else:
            fail(errors, f"{where}: unknown phase {phase!r}")

    stats["spans_open"] = sum(len(s) for s in sync_stacks.values())
    stats["async_open"] = sum(async_open.values())
    return errors, stats


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check_trace.py <trace.json>", file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {argv[1]}: {exc}", file=sys.stderr)
        return 1
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print("error: no traceEvents array", file=sys.stderr)
        return 1

    errors, stats = check(events)
    print(
        f"{argv[1]}: {stats['events']} events on {len(stats['tracks'])} tracks "
        f"({stats['metadata']} metadata) — "
        f"{stats['spans_closed']} spans (+{stats['spans_open']} open at horizon), "
        f"{stats['async_closed']} async (+{stats['async_open']} in flight), "
        f"{stats['instants']} instants, {stats['counters']} counter samples"
    )
    if errors:
        print(f"FAIL: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("OK: trace is well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
