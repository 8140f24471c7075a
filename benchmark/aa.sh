#!/usr/bin/env bash
# A/A check: two sets of full runs of the same build, taken the way the CI
# driver takes them — set A complete, then set B; within a set each
# workload's runs back to back, every run with another seed. For every
# workload x end-to-end metric it prints both sets' medians, their relative
# difference, each set's spread (interquartile range over median) and the
# bound from BENCHMARK.json. The benchmark can only resolve a change larger
# than what this table shows for identical code.
#
#   benchmark/aa.sh [RUNS_PER_SET]     default 5 (the least that is allowed);
#                                      run r uses seed 100+r in set A and
#                                      200+r in set B
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
runs="${1:-5}"
if [ "$runs" -lt 5 ]; then
    echo "aa.sh: at least 5 runs per set" >&2
    exit 2
fi

dir="$HERE/out/aa"
rm -rf "$dir"
mkdir -p "$dir"
workloads="$(sed -n '/"workloads"/,/\]/s/.*{"name": "\([^"]*\)".*/\1/p' "$ROOT/BENCHMARK.json")"

base=100
for set in A B; do
    for w in $workloads; do
        for r in $(seq 1 "$runs"); do
            echo "aa.sh: set $set $w run $r/$runs" >&2
            "$HERE/run.sh" --workload "$w" --seed "$((base + r))" --trace 0 \
                | tail -n 1 > "$dir/$set.$w.$r.json"
            # Slices and op latencies, for trying another statistic offline.
            cp "$HERE/out/result_$w.json" "$dir/record.$set.$w.$r.json"
        done
    done
    base=200
done

python3 - "$dir" "$ROOT/BENCHMARK.json" <<'PY'
import glob, json, statistics, sys

out_dir, spec_path = sys.argv[1], sys.argv[2]
spec = json.load(open(spec_path))

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print("| workload | metric | median A | median B | B vs A | spread A | spread B | bound |")
print("|---|---|---:|---:|---:|---:|---:|---:|")
worst = widest = 0.0
for w in [x["name"] for x in spec["workloads"]]:
    for m in spec["end_to_end"]:
        sets = {}
        for s in "AB":
            runs = [json.load(open(p)) for p in sorted(glob.glob(f"{out_dir}/{s}.{w}.*.json"))]
            assert all(r["correct"] and r["failed"] == 0 for r in runs), f"{w}: a run failed"
            sets[s] = [r["metrics"][m["name"]]["value"] for r in runs]
        a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
        # Positive = B worse than A, whichever direction is worse.
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        worst = max(worst, worse / m["bound"])
        if m["name"] != "setup_s":
            widest = max(widest, spread(sets["A"]) / m["bound"], spread(sets["B"]) / m["bound"])
        print(f"| {w} | {m['name']} | {a:.4g} | {b:.4g} | {100 * worse:+.1f} % "
              f"| {100 * spread(sets['A']):.1f} % | {100 * spread(sets['B']):.1f} % "
              f"| {100 * m['bound']:.0f} % |")
print()
print(f"largest median shift, as a share of its bound: {100 * worst:.0f} %")
print(f"largest spread of a timing metric but setup_s, as a share of its bound: {100 * widest:.0f} %")
sys.exit(0 if worst <= 1.0 and widest <= 1.0 else 1)
PY
