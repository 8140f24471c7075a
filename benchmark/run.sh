#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N]            every workload, each in its own
#                                          process; prints every end-to-end
#                                          metric by name with its unit
#   benchmark/run.sh --trace [--seed N]    the separate traced run: per-layer
#                                          metrics and out/trace_<workload>.json
#   benchmark/run.sh --quick               a tenth of the run time, one set-up,
#                                          all oracles: the smoke for CI
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; the form BENCHMARK.json's
#                                          `command` is run in
#
# Builds the harness (and the program, from source) on first use. The last
# line each workload prints is the result object; run records and span
# files land in benchmark/out/. Exits nonzero if any op or oracle failed.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# One build directory whatever directory cargo runs from: a relative
# CARGO_TARGET_DIR is anchored where the caller stands.
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in
    /*) ;;
    *) TARGET="$PWD/$TARGET" ;;
esac
export CARGO_TARGET_DIR="$TARGET"

workload="" seed=1 seconds="" trace=0 quick=0
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            # `--trace 0|1` from the driver, bare `--trace` by hand.
            case "${2:-}" in
                0|1) trace="$2"; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --quick) quick=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Run length comes from BENCHMARK.json so there is one place to change it.
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json" | head -n 1)"
    seconds="${seconds:-26}"
fi
extra=()
if [ "$quick" = 1 ]; then
    # A tenth, but no less than the harness's shortest window (one slice).
    seconds="$(awk -v s="$seconds" 'BEGIN { print (s / 10 < 2.5) ? 2.5 : s / 10 }')"
    extra+=(--setups 1)
fi

# cargo runs from inside benchmark/ so that the root .cargo/config.toml
# (target-cpu=native) applies to the program and the harness alike.
(cd "$HERE" && cargo build --release --offline --quiet) >&2
bin="$TARGET/release/alf-benchmark"
commit="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

run_one() {
    "$bin" --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        --out "$HERE/out" --commit "$commit" ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
    run_one "$workload"
    exit
fi

status=0
for w in $("$bin" --list | cut -f 1); do
    run_one "$w" || status=1
    echo
done
exit "$status"
