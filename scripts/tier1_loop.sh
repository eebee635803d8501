#!/usr/bin/env bash
# Tier-1 (`cargo test -q`) N times in a row in each of four cells: debug
# unpinned, debug under `taskset -c 0` (one core), then the same two with
# `--release`. A test that passes only on some runs — a race, a leak of
# state between tests, a timing assumption — shows up here as a red cell.
#
#   scripts/tier1_loop.sh [N]      N defaults to 20
#
# Stops at the first failing run and prints the cell, the iteration and the
# failing tests (the whole log is kept under target/tier1-loop/). Prints one
# `cell: k/N passed` line per cell; exits non-zero on a failure.
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:-20}
logs=target/tier1-loop
mkdir -p "$logs"

for profile in debug release; do
    flags=()
    [ "$profile" = release ] && flags=(--release)
    for pin in unpinned "taskset -c 0"; do
        cell="$profile, $pin"
        runner=()
        [ "$pin" != unpinned ] && read -ra runner <<<"$pin"
        # Build once outside the timed loop, so a compile error reads as one.
        cargo test -q "${flags[@]}" --no-run
        for i in $(seq 1 "$n"); do
            log="$logs/${profile}-${pin// /_}-$i.log"
            if ! "${runner[@]}" cargo test -q "${flags[@]}" >"$log" 2>&1; then
                echo "$cell: run $i of $n FAILED (log: $log)"
                # libtest lists failing tests indented under "failures:";
                # cargo names the binary to rerun.
                awk '/^failures:$/ { f = 1; next } f && /^    [^ ]/ { print "  failed:" $0 }
                     /^test result/ { f = 0 }' "$log" | sort -u
                grep -E '^error: test failed' "$log" || true
                exit 1
            fi
        done
        echo "$cell: $n/$n passed"
    done
done
