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
#
#   scripts/loc.sh         the working tree's table
#   scripts/loc.sh <rev>   each crate at <rev> → the working tree, and the
#                          delta (<rev> is read through `git archive` into a
#                          temporary directory; the working tree is read as
#                          it is, uncommitted changes included)
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

# Prints `<row> <lines>` for every crate of the tree rooted at $1, then
# `bench/perf` and `total`.
rows() (
    cd "$1"
    total=0
    for crate in crates/*/; do
        [ -d "${crate}src" ] || continue
        count "${crate}src" "$perf"
        echo "$(basename "$crate") $n"
        total=$((total + n))
    done
    count "$perf/src"
    echo "bench/perf $n"
    echo "total $((total + n))"
)

if [ $# -eq 0 ]; then
    rows . | while read -r name lines; do
        printf '%-16s %6d\n' "$name" "$lines"
    done
else
    base=$(mktemp -d)
    trap 'rm -rf "$base"' EXIT
    git archive "$1" | tar -x -C "$base"
    printf '%-16s %6s → %6s %7s\n' crate "$1" tree delta
    # Rows in the working tree's order; a crate <rev> lacks counts 0 there,
    # and a crate the tree lacks follows the crates, at 0 in the tree.
    awk 'NR == FNR { old[$1] = $2; next }
         $1 == "bench/perf" {
             for (c in old) if (!(c in seen) && c != "bench/perf" && c != "total")
                 printf "%-16s %6d → %6d %+7d\n", c, old[c], 0, -old[c]
         }
         { seen[$1] = 1; printf "%-16s %6d → %6d %+7d\n", $1, old[$1], $2, $2 - old[$1] }' \
        <(rows "$base") <(rows .)
fi
# The subshells above kept their own `big`: list the working tree's here.
for crate in crates/*/; do
    if [ -d "${crate}src" ]; then count "${crate}src"; fi
done
printf '\nfiles over 1000 non-test lines:\n'
printf '%s\n' "${big[@]:-(none)}" | sort
