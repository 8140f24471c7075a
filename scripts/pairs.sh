#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, with history.
#
#   scripts/pairs.sh <parent-rev> <workload> <n>
#
# Exports <parent-rev> (`git archive`) and the working tree as `git add -A`
# would commit it (`tar`; HEAD itself when the tree is clean) into two fresh
# directories, so nothing is added to this repository's .git, builds each
# once, then runs `benchmark/run.sh --workload <workload>` of each tree <n>
# times, unchanged, pair i on seed i. Pair i runs the parent first when i
# is odd and the change first when i is even, so host drift lands on both
# sides alike.
#
# A dirty tree is labelled `<HEAD>+wt:<id>`, where <id> is the first 12 hex
# digits of the sha256 over the sorted lines `<git blob id> <path>` of the
# exported files other than BENCH_history.jsonl, so runs of different
# uncommitted trees never share a label and a committed tree gives the
# same id from `git ls-tree -r`.
#
# Prints, for each end-to-end metric of BENCHMARK.json, both sides' median
# [q1,q3], the median of the paired differences (change − parent) and how
# many pairs the change won, then names every run whose spin calibration
# (before or after) exceeds 1.25x the median spin of this invocation's
# runs; such runs are flagged, never dropped. Appends one JSON line per run to
# BENCH_history.jsonl at the repo root: revisions, side, pair, workload,
# seed, the five metrics, and the host fingerprint the harness recorded
# (CPU model, nproc, ISA flags, spin calibration before and after). A run
# that fails is recorded with its exit status and null metrics; no run is
# ever dropped. Scratch directories go under $TMPDIR and are removed on exit.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: scripts/pairs.sh <parent-rev> <workload> <n>" >&2
    exit 2
fi
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="$(git -C "$ROOT" rev-parse --verify "$1^{commit}")"
workload="$2"
pairs="$3"
history="$ROOT/BENCH_history.jsonl"

# Each tree builds into its own benchmark/target: a shared target directory
# would rebuild at every switch of side.
unset CARGO_TARGET_DIR
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change"

git -C "$ROOT" archive "$parent_rev" | tar -x -C "$work/parent"
# Tracked and untracked-but-not-ignored files that exist on disk.
(cd "$ROOT" && git ls-files -z --cached --others --exclude-standard \
    | xargs -0 -r sh -c 'for f; do [ -e "$f" ] && printf "%s\0" "$f"; done' sh \
    | LC_ALL=C sort -z) > "$work/files"
(cd "$ROOT" && tar --null -T "$work/files" -cf -) | tar -x -C "$work/change"
change_rev="$(git -C "$ROOT" rev-parse HEAD)"
if [ -n "$(git -C "$ROOT" status --porcelain -- . ':(exclude)BENCH_history.jsonl')" ]; then
    change_rev="$change_rev+wt:$(python3 - "$work/change" "$work/files" <<'PY'
import hashlib, sys

tree, files = sys.argv[1:]
h = hashlib.sha256()
for path in sorted(p for p in open(files, "rb").read().split(b"\0")
                   if p and p != b"BENCH_history.jsonl"):
    data = open(tree.encode() + b"/" + path, "rb").read()
    blob = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
    h.update(blob.encode() + b" " + path + b"\n")
print(h.hexdigest()[:12])
PY
)"
fi

for side in parent change; do
    echo "pairs.sh: building $side" >&2
    (cd "$work/$side/benchmark" && cargo build --release --offline --quiet) >&2
done

run() { # side pair order
    local side="$1" pair="$2" order="$3" status=0
    echo "pairs.sh: pair $pair/$pairs, $side ($order)" >&2
    rm -f "$work/$side/benchmark/out/result_$workload.json"
    bash "$work/$side/benchmark/run.sh" --workload "$workload" --seed "$pair" --trace 0 \
        > "$work/$side.$pair.out" 2> "$work/$side.$pair.err" || status=$?
    python3 - "$work" "$side" "$pair" "$order" "$status" "$workload" \
        "$parent_rev" "$change_rev" >> "$history" <<'PY'
import datetime, json, sys

work, side, pair, order, status, workload, parent, change = sys.argv[1:]
isa = ("sse", "avx", "fma", "f16c", "bmi", "amx")
result = {}
try:
    with open(f"{work}/{side}.{pair}.out") as f:
        result = json.loads(f.read().strip().splitlines()[-1])
except (OSError, ValueError, IndexError):
    pass
host = {}
try:
    with open(f"{work}/{side}/benchmark/out/result_{workload}.json") as f:
        h = json.load(f).get("host", {})
    host = {
        "cpu_model": h.get("cpu_model"),
        "nproc": h.get("nproc"),
        "isa": [x for x in h.get("cpu_flags", "").split() if x.startswith(isa)],
        "spin_ms_before": h.get("spin_ms_before"),
        "spin_ms_after": h.get("spin_ms_after"),
    }
except (OSError, ValueError):
    pass
metrics = result.get("metrics")
print(json.dumps({
    "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "parent": parent,
    "change": change,
    "side": side,
    "rev": parent if side == "parent" else change,
    "workload": workload,
    "pair": int(pair),
    "order": order,
    "seed": int(pair),
    "exit": int(status),
    "correct": result.get("correct"),
    "failed": result.get("failed"),
    "metrics": {k: v["value"] for k, v in metrics.items()} if metrics else None,
    "host": host,
}, separators=(",", ":")))
PY
    if [ "$status" != 0 ]; then
        echo "pairs.sh: $side run of pair $pair exited $status (recorded)" >&2
        tail -n 5 "$work/$side.$pair.err" >&2
    fi
}

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) = 1 ]; then
        run parent "$i" first
        run change "$i" second
    else
        run change "$i" first
        run parent "$i" second
    fi
done

python3 - "$history" "$ROOT/BENCHMARK.json" "$parent_rev" "$change_rev" "$workload" "$pairs" <<'PY'
import json, statistics, sys

history, spec, parent, change, workload, pairs = sys.argv[1:]
spec = json.load(open(spec))
# This invocation's records: the last 2·n lines of the history.
records = [json.loads(l) for l in open(history) if l.strip()][-2 * int(pairs):]
assert all(r["parent"] == parent and r["change"] == change and r["workload"] == workload
           for r in records), "history does not end with this invocation's runs"
side = {s: {r["pair"]: r for r in records if r["side"] == s} for s in ("parent", "change")}

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]

print(f"{workload}: {parent[:9]} (parent) vs {change[:9]}{change[40:]} (change), {pairs} pairs")
print("| metric | parent median [q1,q3] | change median [q1,q3] | paired diff median | change won |")
print("|---|---|---|---|---|")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    both = [(side["parent"][i]["metrics"][name], side["change"][i]["metrics"][name])
            for i in side["parent"] if i in side["change"]
            and side["parent"][i]["metrics"] and side["change"][i]["metrics"]]
    if not both:
        print(f"| {name} | — | — | — | 0/0 |")
        continue
    cells = []
    for k in (0, 1):
        q1, med, q3 = quartiles([p[k] for p in both])
        cells.append(f"{med:.4g} [{q1:.4g},{q3:.4g}]")
    diffs = [c - p for p, c in both]
    dmed = statistics.median(diffs)
    pmed = statistics.median([p for p, _ in both])
    won = sum((c < p) if lower else (c > p) for p, c in both)
    print(f"| {name} ({m['unit']}) | {cells[0]} | {cells[1]} | {dmed:+.4g} ({100 * dmed / pmed:+.1f} %) | {won}/{len(both)} |")
spins = [(r["side"], r["pair"], r["host"].get("spin_ms_before"), r["host"].get("spin_ms_after"))
         for r in records]
print("spin ms before/after: " + ", ".join(
    f"{s[0]}{p} {b:.2f}/{a:.2f}" for s, p, b, a in spins if b is not None and a is not None))
# 1.25x matches the benchmark's 25 % timing bound. Drifted runs stay in
# the table above and in the history; they are only named here.
spin_values = [v for _, _, b, a in spins for v in (b, a) if v is not None]
if spin_values:
    limit = 1.25 * statistics.median(spin_values)
    drifted = [f"{s}{p} " + "/".join("-" if v is None else f"{v:.2f}" for v in (b, a))
               for s, p, b, a in spins
               if any(v is not None and v > limit for v in (b, a))]
    print(f"spin drift (> {limit:.2f} ms, 1.25x the median spin): "
          + (", ".join(drifted) if drifted else "none"))
failed = [r for r in records if r["exit"] != 0 or not r["metrics"]]
if failed:
    print(f"{len(failed)} run(s) failed; recorded in {history}")
    sys.exit(1)
PY
