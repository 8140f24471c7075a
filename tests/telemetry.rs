//! End-to-end telemetry behaviour across the facade:
//!
//! * a `DpTrainer` JSONL stream carries task loss, per-block mask
//!   occupancy and the νprune schedule position for **every** step;
//! * enabling telemetry is read-only — trained weights stay bitwise
//!   identical to a sink-less run;
//! * one step of either trainer — whole-batch `AlfTrainer` (profiled) or
//!   sharded `DpTrainer` — produces a `train.step` record whose shape
//!   matches one golden skeleton (the round's single emitter), and the
//!   profiler exports through the `MetricsRegistry`.

use alf::core::block::AlfBlockConfig;
use alf::core::models::plain20_alf;
use alf::core::{AlfHyper, CnnModel};
use alf::data::{Dataset, SynthVision};
use alf::dp::{DpConfig, DpTrainer};
use alf::obs::events::MemorySink;
use alf::obs::metrics::MetricsRegistry;

const DATA_SEED: u64 = 11;
const MODEL_SEED: u64 = 5;
const BATCH: usize = 16;
const STEPS: usize = 4;

fn data() -> alf::Result<Dataset> {
    Ok(SynthVision::cifar_like(DATA_SEED)
        .with_image_size(12)
        .with_num_classes(3)
        .with_train_size(BATCH * STEPS)
        .with_test_size(24)
        .build()?)
}

fn model() -> alf::Result<CnnModel> {
    Ok(plain20_alf(
        3,
        4,
        AlfBlockConfig::paper_default(),
        MODEL_SEED,
    )?)
}

fn hyper() -> AlfHyper {
    AlfHyper {
        task_lr: 0.05,
        batch_size: BATCH,
        ..AlfHyper::default()
    }
}

/// Pulls `"key":<array>` out of a JSONL record and returns the array's
/// element count (this file asserts shape, not values).
fn array_len(line: &str, key: &str) -> usize {
    let pat = format!("\"{key}\":[");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + pat.len();
    let end = start + line[start..].find(']').expect("unterminated array");
    let body = &line[start..end];
    if body.is_empty() {
        0
    } else {
        body.split(',').count()
    }
}

#[test]
fn dp_stream_has_per_step_signals_and_telemetry_is_read_only() -> alf::Result<()> {
    let d = data()?;

    // Plain run: no sink attached at all.
    let mut plain = DpTrainer::new(model()?, DpConfig::new(hyper(), DATA_SEED))?;
    plain.run_steps(&d, STEPS)?;

    // Telemetered run of the same trajectory.
    let (sink, handle) = MemorySink::bounded(64);
    let mut traced = DpTrainer::new(model()?, DpConfig::new(hyper(), DATA_SEED))?;
    traced.set_telemetry_sink(Box::new(sink));
    let n_blocks = traced.model().alf_blocks().len();
    assert!(n_blocks > 0, "plain20_alf must have ALF blocks");
    traced.run_steps(&d, STEPS)?;

    // Read-only: bitwise-identical trained state.
    assert_eq!(
        plain.state_vector(),
        traced.state_vector(),
        "telemetry changed training arithmetic"
    );

    // Every step is on the stream with the paper's training signals.
    let lines = handle.lines();
    let steps: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"train.step\""))
        .collect();
    assert_eq!(steps.len(), STEPS, "one train.step record per step");
    for (i, line) in steps.iter().enumerate() {
        assert!(
            line.contains(&format!("\"step\":{i}")),
            "step index missing in {line}"
        );
        assert!(line.contains("\"task_loss\":"), "task loss in {line}");
        assert!(line.contains("\"grad_norm\":"), "grad norm in {line}");
        for key in ["mask_occupancy", "nu_prune", "l_rec", "l_prune"] {
            assert_eq!(
                array_len(line, key),
                n_blocks,
                "{key} must have one entry per ALF block in {line}"
            );
        }
    }
    let epochs = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"train.epoch\""))
        .count();
    assert_eq!(epochs, 1, "the {STEPS} steps close exactly one epoch");
    Ok(())
}

#[test]
fn golden_jsonl_shape_for_one_profiled_training_step() -> alf::Result<()> {
    // One-batch dataset: run_epoch performs exactly one training step.
    let d = SynthVision::cifar_like(DATA_SEED)
        .with_image_size(12)
        .with_num_classes(3)
        .with_train_size(BATCH)
        .with_test_size(12)
        .build()?;
    let (sink, handle) = MemorySink::bounded(16);
    let mut trainer = alf::core::train::AlfTrainer::new(model()?, hyper(), MODEL_SEED)?;
    let n_blocks = trainer.model().alf_blocks().len();
    trainer.set_telemetry_sink(Box::new(sink));
    trainer.set_profile(true);
    trainer.run_epoch(&d)?;
    // The sharded source goes through the same emitter.
    let (dp_sink, dp_handle) = MemorySink::bounded(16);
    let mut dp = DpTrainer::new(model()?, DpConfig::new(hyper(), DATA_SEED))?;
    dp.set_telemetry_sink(Box::new(dp_sink));
    dp.run_epoch(&d)?;

    // Mask every number so the golden string pins structure — the full
    // key set, order, and per-block array arity — not float values.
    let mask = |line: &str| -> String {
        let mut out = String::new();
        let mut in_string = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            if in_string {
                out.push(c);
                if c == '\\' {
                    if let Some(n) = chars.next() {
                        out.push(n);
                    }
                } else if c == '"' {
                    in_string = false;
                }
            } else if c == '"' {
                in_string = true;
                out.push(c);
            } else if c == '-' || c.is_ascii_digit() {
                while chars
                    .peek()
                    .is_some_and(|n| n.is_ascii_digit() || matches!(n, '.' | '-' | 'e' | '+'))
                {
                    chars.next();
                }
                out.push('#');
            } else {
                out.push(c);
            }
        }
        out
    };

    // One skeleton for both sources: only the sharded one reports a
    // reduced-gradient norm and a worker count, right after `lr`.
    let per_block = vec!["#"; n_blocks].join(",");
    let golden_step = |sharded: &str| {
        format!(
            "{{\"event\":\"train.step\",\"seq\":#,\"t_ms\":#,\"epoch\":#,\"step\":#,\
             \"task_loss\":#,\"lr\":#,{sharded}\"l_rec\":[{per_block}],\
             \"l_prune\":[{per_block}],\"nu_prune\":[{per_block}],\
             \"mask_occupancy\":[{per_block}]}}"
        )
    };
    let golden_epoch = "{\"event\":\"train.epoch\",\"seq\":#,\"t_ms\":#,\"epoch\":#,\
                        \"train_loss\":#,\"train_accuracy\":#,\"test_accuracy\":#,\
                        \"remaining_filters\":#,\"mean_l_rec\":#}";

    for (lines, sharded) in [
        (handle.lines(), ""),
        (
            dp_handle.lines(),
            "\"grad_norm\":#,\"grad_norm_clipped\":#,\"workers\":#,",
        ),
    ] {
        assert_eq!(lines.len(), 2, "one step + one epoch record: {lines:?}");
        assert_eq!(mask(&lines[0]), golden_step(sharded));
        assert_eq!(mask(&lines[1]), golden_epoch);
    }

    // The same step's profile exports through the metrics registry.
    let report = trainer.profile_report().expect("profiler was on");
    let registry = MetricsRegistry::new();
    report.export_into(&registry);
    let snap = registry.snapshot();
    assert!(
        snap.gauge("profile.ws_high_water_bytes").is_some(),
        "workspace high-water gauge exported"
    );
    let json = snap.to_json();
    assert!(
        json.contains(".fwd_ns\""),
        "per-layer forward time gauges in {json}"
    );
    Ok(())
}
