#!/usr/bin/env bash
# Kernel copies in a release binary: how many monomorphised instances of
# each kernel family it holds and their bytes of machine code, read from
# `nm`. Every generic kernel is compiled once per lane width, operand pair,
# key width and group table that reaches it, so this is what those cross
# products cost in code. It measures; it gates nothing.
#
#   scripts/kernel_copies.sh [BINARY]
#
# BINARY defaults to the release `verify_corpus` example, built first
# (`cargo build --release --example verify_corpus`). Prints one line per
# family -- `agg::fold`, `groupby::upsert`, `tile::instance` (a function
# whose demangled path contains the family's name), then every other
# function as `other` -- with its copies and bytes, and the total.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-}
if [ -z "$bin" ]; then
    cargo build --release --quiet --example verify_corpus
    bin=target/release/examples/verify_corpus
fi

nm --demangle --defined-only --print-size "$bin" | python3 -c '
import sys

families = ["agg::fold", "groupby::upsert", "tile::instance", "other"]
copies = dict.fromkeys(families, 0)
size = dict.fromkeys(families, 0)
for line in sys.stdin:
    f = line.split(maxsplit=3)
    if len(f) < 4 or f[2] not in ("t", "T"):
        continue
    fam = next((k for k in families[:-1] if k in f[3]), "other")
    copies[fam] += 1
    size[fam] += int(f[1], 16)
row = "{:<16} {:>7} {:>10}".format
print(row("family", "copies", "bytes"))
for k in families:
    print(row(k, copies[k], size[k]))
kernels = families[:-1]
print(row("kernels", sum(copies[k] for k in kernels), sum(size[k] for k in kernels)))
print(row("all functions", sum(copies.values()), sum(size.values())))
'
