#!/usr/bin/env bash
# Paired benchmark protocol: the working tree's `perf` against a parent
# revision's, run alternately with the same seed per pair.
#
#   scripts/bench_pairs.sh <parent-rev> [--aa] [--pairs N] [--seconds S] [--smoke] [--out DIR] [--record N] [workload...]
#
# 1. Builds `perf` (the benchmark package under crates/bench/src/bin/perf)
#    twice, one side after the other, in the same directory under a
#    temporary one (`mktemp -d`, so $TMPDIR decides where): first
#    <parent-rev>'s files (`git archive`), then the working tree's tracked
#    and untracked, not ignored, files (uncommitted edits included). Each
#    side's binary is copied out before the next is built; `perf` embeds
#    BENCHMARK.json, so it runs from anywhere. Only perf's stdout is read:
#    nothing under crates/bench/src/bin/perf and not BENCHMARK.json is
#    touched.
# 2. For pair i = 1..N (default 10) and each workload (default: every one
#    BENCHMARK.json declares) runs both binaries once with `--seed i
#    --trace 0` and `--seconds S` (default: BENCHMARK.json's run_seconds),
#    the parent first in odd pairs and the change first in even ones.
# 3. Keeps every run's detail and result lines, one JSON object per run, in
#    DIR/runs.jsonl (default DIR: target/bench-pairs/<parent>-<time>).
# 4. Prints, per workload and end-to-end metric, parent -> change median
#    [quartiles], the pairs the change won (by the metric's `better`) and
#    the median per-pair difference; then per statement class the median
#    `engine_over_handcoded` of each side (`engine_p50_ms` for a class
#    without a hand-coded pair) and the pairs the change won.
#
# Layout (ROADMAP item 1): `perf` is a package of its own, and its path
# dependencies hash their absolute paths into symbol names, so the
# function order -- and with it the alignment of a few hot loops -- changes
# with the checkout directory. Building both sides at one absolute path
# takes that coin out of the pairs; what is left is the layout the change
# itself makes. Judge pairs, not one side's runs.
#
# `--aa` runs <parent-rev> against itself: both sides are <parent-rev>,
# built one after the other at the same path. Same source, same table:
# what it shows is what the harness and the host move on their own, the
# spread a change's pairs must be read against.
#
# `--smoke` passes perf's --smoke (tiny sizes, 0.4 s a run unless --seconds
# is given): one pair against HEAD checks the protocol end to end.
#
# `--record N` also writes what step 4 prints to BENCH_PR<N>.json at the
# repo root: both revisions (the change side is HEAD, marked
# "+working-tree" when the tree differs from it), the pairs, seeds and
# seconds; per workload and end-to-end metric each side's median and
# quartiles and the pairs the change won; per statement class each side's
# median ratio and, for a class with a hand-coded pair, each side's median
# hand-coded time ("handcoded_p50_ms": {"parent": ms, "change": ms}). No
# engine change moves that pipeline, so it reads the host's speed during
# each side's runs: a 3x host move shows there, not as an engine change.
# When another BENCH_PR*.json is there, the one with the highest number
# below N, it prints how the change side's medians (hand-coded times
# included) moved since that record. The record holds no calibrated
# CostParams and no bounds tightness: those come from a traced run
# (`--trace 1`), and every run here is untraced.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,/^set -e/{/^set -e/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
}

[ $# -ge 1 ] || usage
case $1 in -*) usage ;; esac
parent=$(git rev-parse --verify "$1^{commit}")
shift
pairs=10 seconds='' smoke='' out='' aa='' record=''
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --smoke) smoke=--smoke; shift ;;
        --aa) aa=1; shift ;;
        --out) out=$2; shift 2 ;;
        --record) record=$2; shift 2 ;;
        -*) echo "bench_pairs: unknown flag $1" >&2; exit 2 ;;
        *) workloads+=("$1"); shift ;;
    esac
done
bench() { python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); $1"; }
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(bench 'print(*(w["name"] for w in b["workloads"]), sep="\n")')
fi
if [ -z "$seconds" ] && [ -z "$smoke" ]; then
    seconds=$(bench 'print(b["run_seconds"])')
fi
out=${out:-target/bench-pairs/${parent:0:7}${aa:+-aa}-$(date +%Y%m%d-%H%M%S)}
mkdir -p "$out"
runs="$out/runs.jsonl"
: >"$runs"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
src="$tmp/src"
manifest=crates/bench/src/bin/perf/Cargo.toml
declare -A bin=([parent]="$tmp/parent/perf" [change]="$tmp/change/perf")
for side in parent change; do
    echo "bench_pairs: building $side perf in $src" >&2
    rm -rf "$src"
    mkdir -p "$src" "$tmp/$side"
    if [ "$side" = parent ] || [ -n "$aa" ]; then
        git archive "$parent" | tar -x -C "$src"
    else
        git ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
            tar -c --null -T - | tar -x -C "$src"
    fi
    cargo build --release --quiet --manifest-path "$src/$manifest"
    cp "$src/crates/bench/src/bin/perf/target/release/perf" "${bin[$side]}"
done
rm -rf "$src"

# One run: the last two stdout lines are perf's detail and result.
run() {
    local side=$1 pair=$2 workload=$3 status=0 lines
    local args=(--workload "$workload" --seed "$pair" --trace 0 ${smoke:+"$smoke"})
    [ -z "$seconds" ] || args+=(--seconds "$seconds")
    lines=$("${bin[$side]}" "${args[@]}" | tail -n 2) || status=$?
    [ "$status" -eq 0 ] || echo "bench_pairs: $side $workload seed $pair exited $status" >&2
    [ "$(printf '%s\n' "$lines" | wc -l)" -eq 2 ] || return 0
    printf '{"pair":%d,"side":"%s","workload":"%s","status":%d,"detail":%s,"result":%s}\n' \
        "$pair" "$side" "$workload" "$status" "$(head -n 1 <<<"$lines")" \
        "$(tail -n 1 <<<"$lines")" >>"$runs"
}

for pair in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((pair % 2)) -eq 1 ] || order=(change parent)
    for workload in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "bench_pairs: pair $pair/$pairs $workload $side" >&2
            run "$side" "$pair" "$workload"
        done
    done
done

change_rev=$(git rev-parse HEAD)
if [ -n "$aa" ]; then
    change_rev=$parent
elif ! git diff --quiet HEAD; then
    change_rev+=+working-tree
fi
python3 - "$runs" BENCHMARK.json "$record" "$parent" "$change_rev" "$pairs" "$seconds" <<'EOF'
import glob
import json
import re
import statistics
import sys
from collections import defaultdict

runs_path, bench_path, record_n, parent_rev, change_rev, n_pairs, seconds = sys.argv[1:8]
spec = json.load(open(bench_path))
record = {
    "parent": parent_rev,
    "change": change_rev,
    "pairs": int(n_pairs),
    "seeds": list(range(1, int(n_pairs) + 1)),
    "seconds": float(seconds) if seconds else "perf --smoke default",
    "workloads": {},
}
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
by = defaultdict(dict)  # (workload, pair) -> side -> run
workloads = []
for line in open(runs_path):
    r = json.loads(line)
    by[(r["workload"], r["pair"])][r["side"]] = r
    if r["workload"] not in workloads:
        workloads.append(r["workload"])


def quartiles(v):
    """Python's exclusive quartiles, as perf and the benchmark judge spread."""
    return [v[0]] * 3 if len(v) == 1 else statistics.quantiles(v, n=4)


def span(v):
    q1, med, q3 = quartiles(v)
    return f"{med:.4g} [{q1:.4g}-{q3:.4g}]"


def wins(par, chg, lower):
    return sum((c < p) if lower else (c > p) for p, c in zip(par, chg))


print(f"{'workload':<15} {'metric':<22} {'parent':>26} -> {'change':<26} {'won':>5} {'median diff/pair':>22}")
for w in workloads:
    pairs = sorted(p for (ww, p) in by if ww == w and len(by[(ww, p)]) == 2)
    if not pairs:
        print(f"{w:<15} no complete pair")
        continue
    rec = record["workloads"][w] = {"metrics": {}, "classes": {}}
    side = lambda s: [by[(w, p)][s] for p in pairs]
    for metric, direction in better.items():
        value = lambda r: r["result"]["metrics"][metric]["value"]
        par, chg = [value(r) for r in side("parent")], [value(r) for r in side("change")]
        diff = statistics.median(c - p for p, c in zip(par, chg))
        rel = statistics.median((c - p) / p * 100 for p, c in zip(par, chg) if p)
        won = wins(par, chg, direction == "lower")
        rec["metrics"][metric] = {
            s: dict(zip(("q1", "median", "q3"), quartiles(v)))
            for s, v in (("parent", par), ("change", chg))
        }
        rec["metrics"][metric] |= {"won": won, "pairs": len(pairs)}
        print(
            f"{w:<15} {metric:<22} {span(par):>26} -> {span(chg):<26} "
            f"{won:>2}/{len(pairs):<2} {diff:>+10.4g} ({rel:+.1f} %)"
        )
    for s in ("parent", "change"):
        attempted = sum(r["result"]["attempted"] for r in side(s))
        failed = sum(r["result"]["failed"] for r in side(s))
        rec[f"{s}_statements"] = {"failed": int(failed), "attempted": int(attempted)}
        print(f"{'':<15} {s} failed {failed:g} of {attempted:g} statements")
    classes = [c["name"] for c in side("parent")[0]["detail"]["statements"]]
    for name in classes:
        def of(s, key):
            out = []
            for r in side(s):
                row = next((c for c in r["detail"]["statements"] if c["name"] == name), None)
                if row is not None and row.get(key) is not None:
                    out.append(row[key])
            return out
        key = "engine_over_handcoded"
        par, chg = of("parent", key), of("change", key)
        if not par or len(par) != len(chg):
            key = "engine_p50_ms"
            par, chg = of("parent", key), of("change", key)
        if not par or len(par) != len(chg):
            continue
        rec["classes"][name] = {
            "key": key,
            "parent": statistics.median(par),
            "change": statistics.median(chg),
            "won": wins(par, chg, True),
            "pairs": len(par),
        }
        host = {s: of(s, "handcoded_p50_ms") for s in ("parent", "change")}
        if all(host.values()):
            rec["classes"][name]["handcoded_p50_ms"] = {
                s: statistics.median(v) for s, v in host.items()
            }
        print(
            f"  {w + ' ' + name:<35} {key:<22} {statistics.median(par):>8.4g} -> "
            f"{statistics.median(chg):<8.4g} won {wins(par, chg, True)}/{len(par)}"
        )

if record_n:
    path = f"BENCH_PR{record_n}.json"
    older = {
        int(m.group(1)): f
        for f in glob.glob("BENCH_PR*.json")
        if (m := re.fullmatch(r"BENCH_PR(\d+)\.json", f)) and int(m.group(1)) < int(record_n)
    }
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"bench_pairs: wrote {path}", file=sys.stderr)
    if older:
        prev_path = older[max(older)]
        prev = json.load(open(prev_path))
        print(f"\nchange-side medians since {prev_path} ({prev['change']} -> {change_rev}):")
        for w, now in record["workloads"].items():
            then = prev["workloads"].get(w)
            if then is None:
                print(f"  {w:<33} not in {prev_path}")
                continue
            rows = [
                (m, then["metrics"].get(m, {}).get("change", {}).get("median"), v["change"]["median"])
                for m, v in now["metrics"].items()
            ]
            rows += [(c, then["classes"].get(c, {}).get("change"), v["change"]) for c, v in now["classes"].items()]
            rows += [
                (f"{c} handcoded_p50_ms", then["classes"].get(c, {}).get("handcoded_p50_ms", {}).get("change"), hc["change"])
                for c, v in now["classes"].items()
                if (hc := v.get("handcoded_p50_ms"))
            ]
            for name, a, b in rows:
                if a is None:
                    continue
                rel = f"{(b - a) / a * 100:+.1f} %" if a else ""
                print(f"  {w + ' ' + name:<33} {a:>10.4g} -> {b:<10.4g} {rel}")
EOF
echo "bench_pairs: every run's JSON is in $runs" >&2
