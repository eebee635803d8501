#!/usr/bin/env bash
# Non-test source lines per crate: for every file under crates/*/src, the
# lines before its first module-level `#[cfg(test)]` — one at column 0; an
# indented one gates a statement or an item inside an impl, not the file's
# test module — or the whole file when it has none.
# This is the figure a simplicity PR states as its line delta; lines moved
# into tests, data files or denser formatting do not show up as savings in
# the diff this prints between two commits. Build output left under a
# `target/` directory (the benchmark package builds into one) is skipped.
# The frozen benchmark package, which lives inside `bench`'s source tree, is
# its own row (`bench/perf`): `bench` shows only lines a PR may change.
set -euo pipefail
cd "$(dirname "$0")/.."

perf=crates/bench/src/bin/perf

# Non-test lines of the .rs files under $1, those under $2 left out.
count() {
    local n=0 lines f
    while IFS= read -r -d '' f; do
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done < <(find "$1" -name '*.rs' -not -path '*/target/*' -not -path "${2:-}/*" -print0)
    echo "$n"
}

total=0
row() {
    printf '%-16s %6d\n' "$1" "$2"
    total=$((total + $2))
}
for crate in crates/*/; do
    [ -d "${crate}src" ] || continue
    row "$(basename "$crate")" "$(count "${crate}src" "$perf")"
done
row bench/perf "$(count "$perf/src")"
printf '%-16s %6d\n' total "$total"
