#!/usr/bin/env bash
# Non-test source lines per crate: for every file under crates/*/src, the
# lines before its first `#[cfg(test)]` (the whole file when it has none).
# This is the figure a simplicity PR states as its line delta; lines moved
# into tests, data files or denser formatting do not show up as savings in
# the diff this prints between two commits. Build output left under a
# `target/` directory (the benchmark package builds into one) is skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    [ -d "${crate}src" ] || continue
    n=0
    while IFS= read -r -d '' f; do
        lines=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done < <(find "${crate}src" -name '*.rs' -not -path '*/target/*' -print0)
    printf '%-16s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-16s %6d\n' total "$total"
