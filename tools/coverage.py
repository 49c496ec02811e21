#!/usr/bin/env python3
"""List the functions in src/ that nothing executed, and fail on new ones.

Reads the gcov data of a coverage build of libshog (configure with
`-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS="-O1 --coverage"`, then run
the tests and benches), runs `gcov -j` over every object file in
`CMakeFiles/shog.dir`, and prints each function defined in a
`src/**/*.cpp` file whose execution count is 0. An object file that no
program loaded has no .gcda; gcov then counts all of its functions as 0.

Functions defined in headers are left out: gcov splits them by
translation unit, so a header function can read 0 in one unit while
another unit runs it.

The run fails (exit 1) when an unreached function is not listed in
tools/coverage_allowlist.txt. Each allowlist line is

    <demangled name as printed here> | <reason>

and a line without a reason is an error (exit 2, as is a build directory
without gcov data). An allowlisted function that did run, or no longer
exists, is reported as stale but does not fail the run, since some
entries (a CPU-dispatch clone) depend on the host.

Usage: python3 tools/coverage.py [BUILD_DIR]   (default: build)
"""

import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ALLOWLIST = REPO / "tools" / "coverage_allowlist.txt"


def die(message):
    print(f"coverage: {message}", file=sys.stderr)
    sys.exit(2)


def read_allowlist(path):
    entries = {}
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" | ")
        if not sep or not reason.strip():
            die(f"{path}:{number}: entry has no reason: {line}")
        entries[name.strip()] = reason.strip()
    return entries


def function_counts(object_dir):
    """{(relative .cpp path, start line, demangled name): execution count}."""
    notes = sorted(object_dir.rglob("*.gcno"))
    if not notes:
        die(f"no .gcno files under {object_dir}: is it a --coverage build?")
    if not any(note.with_suffix(".gcda").exists() for note in notes):
        die(f"no .gcda files under {object_dir}: run the programs first")
    counts = {}
    for note in notes:
        result = subprocess.run(
            ["gcov", "-j", "-t", str(note)],
            cwd=object_dir, capture_output=True, text=True, check=True)
        report = json.loads(result.stdout)
        compile_dir = pathlib.Path(report["current_working_directory"])
        for record in report["files"]:
            source = (compile_dir / record["file"]).resolve()
            if source.suffix != ".cpp" or not source.is_relative_to(SRC):
                continue
            rel = source.relative_to(REPO).as_posix()
            for fn in record["functions"]:
                key = (rel, fn["start_line"], fn["demangled_name"])
                counts[key] = counts.get(key, 0) + fn["execution_count"]
    return counts


def main(argv):
    if len(argv) > 2:
        die(__doc__.split("\n\n")[-1].strip())
    build = pathlib.Path(argv[1] if len(argv) == 2 else "build").resolve()
    allowed = read_allowlist(ALLOWLIST)
    counts = function_counts(build / "CMakeFiles" / "shog.dir")

    unreached = sorted(key for key, count in counts.items() if count == 0)
    names = {name for _, _, name in unreached}
    failures = 0
    for rel, line, name in unreached:
        if name in allowed:
            print(f"allowed    {rel}:{line}  {name}  ({allowed[name]})")
        else:
            print(f"UNREACHED  {rel}:{line}  {name}")
            failures += 1
    for name in sorted(set(allowed) - names):
        print(f"stale      {name}  (allowlisted, but it ran or no longer exists)")

    print(f"coverage: {len(counts)} functions in src/*.cpp, {len(unreached)} "
          f"unreached, {failures} not allowlisted")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
