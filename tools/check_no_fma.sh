#!/usr/bin/env bash
# No fused multiply-add in the library.
#
# An fma rounds a * b + c once where the source rounds twice, so one fused
# instruction changes the bits of every result downstream of it. gcc fuses
# by default in C++ wherever the target has fma — the avx512f clone of
# gemm does — and only -ffp-contract=off (CMakeLists.txt) stops it. This
# disassembles libshog.a and fails on any vfmadd, vfmsub, vfnmadd or
# vfnmsub instruction, naming the functions that hold them.
#
# Usage:
#   tools/check_no_fma.sh [path/to/libshog.a]   (default: build/libshog.a)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
lib="${1:-$root/build/libshog.a}"

if [ ! -f "$lib" ]; then
    echo "check_no_fma: library not found at '$lib'" >&2
    echo "build it first: cmake --build build --target shog" >&2
    exit 2
fi
command -v objdump > /dev/null || { echo "check_no_fma: objdump not found" >&2; exit 2; }

disasm="$(objdump -d --no-show-raw-insn "$lib")"
fused="$(awk '
    /^[0-9a-f]+ <.*>:$/ { fn = $2 }
    /\tvfn?m(add|sub)[0-9a-z]*[ \t]/ { count[fn]++ }
    END { for (f in count) printf "%6d  %s\n", count[f], f }
' <<< "$disasm" | sort -k2)"

if [ -n "$fused" ]; then
    echo "check_no_fma: fused multiply-add instructions in $lib:" >&2
    echo "$fused" >&2
    exit 1
fi
echo "check_no_fma: OK (no fused multiply-add in $lib)"
