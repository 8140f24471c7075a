#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, lints, format.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Every crate's unit and integration suites, not only the facade's: the
# bitwise gates (worker count, rank count, kill/resume, sparse vs dense,
# telemetry on/off), the socket smoke and the int8 serving check all
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
  'for i in $(seq 10); do cargo test -q -p alf-net --test socket_smoke || exit 1; done'

# The repo benchmark is a package of its own that calls a frozen set of
# the workspace's public names (benchmark/src/surface.rs). Building and
# testing it here, then running its quick mode (every workload, every
# correctness oracle, a tenth of the run time), makes a break of that
# surface fail verify instead of the pipeline that runs BENCHMARK.json.
echo "==> benchmark package: cargo test + run.sh --quick"
(cd benchmark && cargo test --release --offline)
timeout 600 bash benchmark/run.sh --quick

# The distributed-training smoke, end to end over real processes: a
# 4-rank socket collective is killed mid-epoch (rank 2 dies after its
# 6th step), which must surface as a typed RankLost and a nonzero exit
# with no final checkpoint; resuming the collective from rank 0's
# periodic checkpoint must then land bitwise on the checkpoint of a
# single-process run of the same schedule.
echo "==> alf dist 4-rank kill/resume smoke (bitwise vs 1 process)"
DIST_OUT=$(mktemp -d)
DIST_ARGS="--train-size 48 --test-size 16 --image-size 12 --batch 12 --width 8"
timeout 300 ./target/release/alf dist --ranks 1 --epochs 2 $DIST_ARGS \
  --out "$DIST_OUT/ref.ckpt" > /dev/null
set +e
timeout 300 ./target/release/alf dist --ranks 4 --epochs 2 $DIST_ARGS \
  --ckpt "$DIST_OUT/live.ckpt" --ckpt-every 4 --die-after 2:6 \
  --out "$DIST_OUT/never.ckpt" > "$DIST_OUT/fail.out" 2>&1
dist_code=$?
set -e
if [ "$dist_code" -eq 0 ]; then
  echo "FAIL: collective with a killed rank exited 0"
  exit 1
fi
if ! grep -q "RankLost: rank 2" "$DIST_OUT/fail.out"; then
  cat "$DIST_OUT/fail.out"
  echo "FAIL: killed rank did not surface as a typed RankLost"
  exit 1
fi
if [ -e "$DIST_OUT/never.ckpt" ]; then
  echo "FAIL: failed collective wrote a final checkpoint"
  exit 1
fi
timeout 300 ./target/release/alf dist --ranks 4 --epochs 1 $DIST_ARGS \
  --resume "$DIST_OUT/live.ckpt" --out "$DIST_OUT/resumed.ckpt" > /dev/null
if ! cmp -s "$DIST_OUT/ref.ckpt" "$DIST_OUT/resumed.ckpt"; then
  echo "FAIL: resumed 4-rank collective is not bitwise-equal to 1 process"
  exit 1
fi
rm -rf "$DIST_OUT"

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

# The fused i8×i8→i32 micro-kernel is defined in exactly one place
# (alf_gemm_kernels::microkernel_i8_into). A second definition means a
# consumer regrew its own quantized inner loop that can drift from the
# exactness contract (f32 accumulation, KC·127² < 2²⁴).
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

# `unsafe` lives in one module of one crate (the explicit AVX2 convolution
# tile, alf_gemm_kernels::conv_tile); every other crate root carries
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

# The docs of the telemetry API and of the three crates every other one
# builds on must build clean: a dangling intra-doc link to a deleted or
# private name fails here instead of rotting.
echo "==> cargo doc -p alf-obs -p alf-tensor -p alf-nn -p alf-core (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p alf-obs -p alf-tensor -p alf-nn -p alf-core

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: all gates passed"
