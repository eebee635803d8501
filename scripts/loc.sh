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
# After the table, every file over 1000 such lines is listed with its count,
# so "no file over N lines" is read off the same artefact as the crate totals.
set -euo pipefail
cd "$(dirname "$0")/.."

perf=crates/bench/src/bin/perf

big=()

# Sets `n` to the non-test lines of the .rs files under $1, those under $2
# left out, and notes each file over 1000 in `big`.
count() {
    local lines f
    n=0
    while IFS= read -r -d '' f; do
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
        if [ "$lines" -gt 1000 ]; then
            big+=("$(printf '%-44s %6d' "${f#crates/}" "$lines")")
        fi
    done < <(find "$1" -name '*.rs' -not -path '*/target/*' -not -path "${2:-}/*" -print0)
}

total=0
row() {
    count "$2" "${3:-}"
    printf '%-16s %6d\n' "$1" "$n"
    total=$((total + n))
}
for crate in crates/*/; do
    [ -d "${crate}src" ] || continue
    row "$(basename "$crate")" "${crate}src" "$perf"
done
row bench/perf "$perf/src"
printf '%-16s %6d\n' total "$total"
printf '\nfiles over 1000 non-test lines:\n'
printf '%s\n' "${big[@]:-(none)}" | sort
