#!/usr/bin/env python3
"""Fail when the docs name code that no longer exists.

Scans README.md and docs/*.md for qualified names under the repo's
namespaces (`sim::Cloud_runtime`, `netsim::batch_bytes`,
`shog::obs::Trace_sink`, ...). A name is stale when its last component
appears as a whole word in no source file under src/, bench/, examples/,
tests/ or benchmark/src. benchmark/README.md is not scanned: it documents
the benchmark's own tree.

Usage: python3 tools/check_doc_symbols.py [REPO_ROOT]
Exits 0 when every name resolves, 1 (listing each stale name) otherwise.
"""
import re
import sys
from pathlib import Path

NAMESPACES = ("sim", "core", "fleet", "models", "netsim", "obs", "detect",
              "device", "video", "nn", "baselines", "shog")
CODE_DIRS = ("src", "bench", "examples", "tests", "benchmark/src")
CODE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A namespace not preceded by an identifier character or ':' (so `netsim::`
# is not read as `sim::`), then one or more `::`-joined components.
QUALIFIED_RE = re.compile(
    rf"(?<![A-Za-z0-9_:])(?:{'|'.join(NAMESPACES)})((?:::{IDENT})+)")
WORD_RE = re.compile(IDENT)


def code_words(root):
    words = set()
    for rel in CODE_DIRS:
        for path in sorted((root / rel).rglob("*")):
            if path.suffix in CODE_SUFFIXES and path.is_file():
                words.update(WORD_RE.findall(path.read_text(errors="replace")))
    return words


def stale_names(root):
    words = code_words(root)
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    stale = []
    for doc in docs:
        if not doc.is_file():
            continue
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for match in QUALIFIED_RE.finditer(line):
                last = match.group(1).rsplit("::", 1)[1]
                if last not in words:
                    stale.append(f"{doc.relative_to(root)}:{lineno}: {match.group(0)}")
    return stale


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    stale = stale_names(root)
    for entry in stale:
        print(f"stale doc symbol: {entry}")
    if stale:
        print(f"{len(stale)} name(s) in the docs match nothing in {', '.join(CODE_DIRS)}")
        return 1
    print("doc symbols: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
