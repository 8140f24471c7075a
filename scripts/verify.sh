#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, lints, format.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The kernels' speed and bits rest on codegen no test sees. The packed
# micro-kernels flip into a ~3x slower `vpermt2ps` shuffle form when
# unrelated code lands in their codegen unit, and every f32 tile's bits
# rest on a separate multiply and add, never a fused one. The release
# binary's disassembly is checked for both; a kernel symbol that is
# missing fails too, so the check cannot pass vacuously.
echo "==> kernel codegen: no vpermt2ps in the packed tiles, no FMA in any f32 tile"
objdump -d -C --no-show-raw-insn target/release/alf | python3 -c '
import re, sys

packed = ["alf_gemm_kernels::microkernel_into", "alf_gemm_kernels::microkernel_into_clipped"]
tiles = ["alf_gemm_kernels::conv_tile::ConvTile::f32_into",
         "alf_gemm_kernels::conv_tile::ConvTile::weight_grad_into"]
fma = re.compile(r"\bvf(n?)m(add|sub)")
bodies, name = {}, None
for line in sys.stdin:
    head = re.match(r"^[0-9a-f]+ <(.*)>:$", line)
    if head:
        name = head.group(1)
        bodies[name] = []
    elif name is not None:
        bodies[name].append(line)
bad = []
for sym in packed + tiles:
    if not bodies.get(sym):
        bad.append(f"{sym}: missing from the binary")
        continue
    if sym in packed and any("vpermt2ps" in l for l in bodies[sym]):
        bad.append(f"{sym}: vpermt2ps (the slow shuffle form)")
    if any(fma.search(l) for l in bodies[sym]):
        bad.append(f"{sym}: a fused multiply-add")
if bad:
    sys.exit("FAIL: kernel codegen\n  " + "\n  ".join(bad))
'

# Every crate's unit and integration suites, not only the facade's: the
# bitwise gates (worker count, kill/resume, sparse vs dense, telemetry
# on/off), the socket smoke and the int8 serving check all
# live there. `[profile.test]` is opt-level 2, so no separate release
# invocations are needed; the timeout turns a hang into a hard failure.
echo "==> cargo test --workspace -q"
timeout 900 cargo test --workspace -q

# A shutdown or join race in the front end's blocking threads hangs rather
# than fails, and may strike once in many runs: the socket tests run ten
# times under one timeout, so such a race fails here instead of flaking
# later.
echo "==> socket_smoke x10"
timeout 300 bash -c \
  'for i in $(seq 10); do cargo test -q -p alf-serve --test socket_smoke || exit 1; done'

# The repo benchmark is a package of its own that calls a frozen set of
# the workspace's public names (benchmark/src/surface.rs). Building and
# testing it here, then running its quick mode (every workload, every
# correctness oracle, a tenth of the run time), makes a break of that
# surface fail verify instead of the pipeline that runs BENCHMARK.json.
echo "==> benchmark package: cargo test + run.sh --quick"
(cd benchmark && cargo test --release --offline)
timeout 600 bash benchmark/run.sh --quick

# The campaign runner gates: a subset campaign (headline + the two
# geometry ablations, plus the baselines the DAG pulls in) is aborted
# after its first completion (exit 70 — the kill simulation), resumed,
# and must then report every declared job in a terminal state with the
# consolidated Pareto pair on disk. This exercises the manifest
# (write/truncate/replay), the scheduler, and the exactly-once training
# assertion end to end.
echo "==> alf-lab kill/resume campaign (smoke subset)"
LAB_OUT=$(mktemp -d)
LAB_ONLY="headline,ablation_dataflow,ablation_fusion"
set +e
timeout 300 cargo run --release -q -p alf-lab --bin alf-lab -- \
  run --smoke --out "$LAB_OUT" --only "$LAB_ONLY" --fresh --abort-after 1 \
  > /dev/null
lab_code=$?
set -e
if [ "$lab_code" -ne 70 ]; then
  echo "FAIL: expected --abort-after to exit 70, got $lab_code"
  exit 1
fi
timeout 300 cargo run --release -q -p alf-lab --bin alf-lab -- \
  run --smoke --out "$LAB_OUT" --only "$LAB_ONLY" > /dev/null
for f in pareto-smoke.txt pareto-smoke.json campaign-smoke.manifest; do
  if [ ! -s "$LAB_OUT/$f" ]; then
    echo "FAIL: resumed campaign left no $f"
    exit 1
  fi
done
if ! grep -q '"all_terminal":true' "$LAB_OUT/pareto-smoke.json"; then
  echo "FAIL: resumed campaign did not reach a terminal state for every job"
  exit 1
fi
if ! grep -q '"status":"cached"' "$LAB_OUT/pareto-smoke.json"; then
  echo "FAIL: resume re-ran jobs the aborted campaign already completed"
  exit 1
fi
rm -rf "$LAB_OUT"

# JSON formatting/escaping is defined in exactly one place
# (alf_obs::json). A second `fn json_escape` anywhere in the workspace
# means an emitter drifted off the shared writer.
echo "==> single json_escape implementation"
escape_impls=$(grep -rn "fn json_escape" crates src --include='*.rs' | wc -l)
if [ "$escape_impls" -ne 1 ]; then
  grep -rn "fn json_escape" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 json_escape implementation, found $escape_impls"
  exit 1
fi

# The sparse-execution descriptor is defined in exactly one place
# (alf_tensor::ops::gemm). A second `ActiveRows` definition means a
# consumer grew its own liveness bookkeeping that can drift from the
# packing-stage elision contract.
echo "==> single ActiveRows definition"
active_rows_defs=$(grep -rn "pub struct ActiveRows" crates src --include='*.rs' | wc -l)
if [ "$active_rows_defs" -ne 1 ]; then
  grep -rn "pub struct ActiveRows" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 ActiveRows definition, found $active_rows_defs"
  exit 1
fi

# The packed i8 micro-kernel is defined in exactly one place
# (alf_gemm_kernels::microkernel_i8_into). No program path calls it: it
# serves the benchmark's tile probe, and this gate goes when the function
# does. A second definition means a consumer regrew its own quantized
# inner loop beside the convolution route's exact i32 tile.
echo "==> single i8 micro-kernel definition"
i8_kernel_defs=$(grep -rn "pub fn microkernel_i8_into" crates src --include='*.rs' | wc -l)
if [ "$i8_kernel_defs" -ne 1 ]; then
  grep -rn "pub fn microkernel_i8_into" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 i8 micro-kernel definition, found $i8_kernel_defs"
  exit 1
fi

# CRC-32 is defined in exactly one place (alf_obs::crc). A second table
# definition means a framing or manifest consumer regrew its own
# checksum that can drift from the shared IEEE 802.3 implementation.
echo "==> single crc32 implementation"
crc_defs=$(grep -rn "fn crc32(" crates src --include='*.rs' | wc -l)
if [ "$crc_defs" -ne 1 ]; then
  grep -rn "fn crc32(" crates src --include='*.rs' || true
  echo "FAIL: expected exactly 1 crc32 implementation, found $crc_defs"
  exit 1
fi

# The two-player round is written once (alf_core::train::AlfTrainer):
# both task-gradient sources go through its one autoencoder-player loop
# and its one `train.step` emitter. A second call site or a second
# literal means a trainer regrew its own copy of the round.
echo "==> single autoencoder-player loop"
ae_calls=$(grep -rn "autoencoder_step_in(" crates/*/src --include='*.rs' \
  | grep -v "^crates/core/src/block.rs:" | wc -l)
if [ "$ae_calls" -ne 1 ]; then
  grep -rn "autoencoder_step_in(" crates/*/src --include='*.rs' || true
  echo "FAIL: expected exactly 1 autoencoder_step_in call outside block.rs, found $ae_calls"
  exit 1
fi
echo "==> single train.step emitter"
step_emitters=$(grep -rn '"train\.step"' crates/*/src --include='*.rs' \
  | grep -v ':[0-9]*: *//' | wc -l)
if [ "$step_emitters" -ne 1 ]; then
  grep -rn '"train\.step"' crates/*/src --include='*.rs' || true
  echo "FAIL: expected exactly 1 \"train.step\" literal, found $step_emitters"
  exit 1
fi

# BENCH_history.jsonl is appended to by scripts/pairs.sh and read back by
# it and by every later claim: each line must keep one of the two record
# shapes pairs.sh writes — a paired run's five metrics (with or without its
# host accounting, `cpu_s` and `steal_share`, each a number or null; older
# lines have neither), or a traced run's per-layer probes — so a hand edit
# or a drifted writer fails here.
echo "==> BENCH_history.jsonl schema"
python3 - BENCH_history.jsonl BENCHMARK.json <<'PY'
import json, sys

history, spec = sys.argv[1:]
keys = {"time", "parent", "change", "side", "rev", "workload", "pair", "order",
        "seed", "exit", "correct", "failed", "metrics", "host"}
traced_keys = {"time", "parent", "change", "side", "rev", "workload", "seed", "exit",
               "layers"}
spec = json.load(open(spec))
metrics = {m["name"] for m in spec["end_to_end"]}
layers = {m["name"] for m in spec["per_layer"]}
host = {"cpu_model", "nproc", "isa", "spin_ms_before", "spin_ms_after"}
accounting = {"cpu_s", "steal_share"}
bad = []
for n, line in enumerate(open(history), 1):
    try:
        r = json.loads(line)
        ok = (isinstance(r, dict)
              and r.get("side") in ("parent", "change") and r["rev"] == r[r["side"]])
        if ok and set(r) in (keys, keys | accounting):
            ok = (r["order"] in ("first", "second")
                  and (r["metrics"] is None or set(r["metrics"]) == metrics)
                  and (r["host"] == {} or set(r["host"]) == host)
                  and all(r.get(k) is None or type(r[k]) in (int, float) for k in accounting))
        elif ok:
            ok = (set(r) == traced_keys
                  and (r["layers"] is None or set(r["layers"]) == layers))
    except ValueError:
        ok = False
    if not ok:
        bad.append(n)
if bad:
    sys.exit(f"FAIL: BENCH_history.jsonl lines off the pairs.sh schema: {bad[:20]}")
PY

# `unsafe` lives in one module of one crate, alf_gemm_kernels::conv_tile,
# which holds the explicit AVX2 kernels: the pack-free convolution tile (f32
# lanes, and i16 channel pairs for int8) and the int8 requantizing store;
# every other crate root carries
# `#![forbid(unsafe_code)]`, and this grep also covers what that attribute
# does not: tests, examples, the vendored stand-ins and the benchmark.
echo "==> unsafe only under crates/gemm-kernels/src/"
unsafe_sites=$(grep -rnE "unsafe \{|unsafe fn" crates src tests examples vendor benchmark/src \
  --include='*.rs' | grep -v "^crates/gemm-kernels/src/" || true)
if [ -n "$unsafe_sites" ]; then
  echo "$unsafe_sites"
  echo "FAIL: unsafe code outside crates/gemm-kernels/src/"
  exit 1
fi

# Every crate's docs must build clean: a dangling intra-doc link to a
# deleted or private name fails here instead of rotting.
echo "==> cargo doc --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
