//! Whole-run gate for the sparsity-aware execution paths.
//!
//! A trainer running the sparse path (the default: the code conv elides
//! clipped rows, the autoencoder step skips them in its reconstruction
//! GEMMs) must replay the *exact* trajectory of a trainer with sparse
//! execution off, for every step of a run in which channels really are
//! clipped. Losses and mask occupancies are compared through the
//! shortest-roundtrip decimal the telemetry JSONL emits, which is
//! injective on f32 bit patterns (modulo ±0); the final state is compared
//! bit for bit.

use alf_core::block::AlfBlockConfig;
use alf_core::models::plain20_alf;
use alf_core::{AlfHyper, AlfTrainer};
use alf_data::{Dataset, SynthVision};
use alf_nn::layer::Layer;
use alf_obs::MemorySink;
use proptest::prelude::*;

fn small_data(seed: u64) -> Dataset {
    SynthVision::cifar_like(seed)
        .with_image_size(12)
        .with_max_shift(1)
        .with_num_classes(4)
        .with_train_size(36)
        .with_test_size(12)
        .with_noise(0.05)
        .build()
        .unwrap()
}

fn quick_hyper() -> AlfHyper {
    AlfHyper {
        task_lr: 0.05,
        batch_size: 6,
        lr_schedule: alf_nn::LrSchedule::Constant,
        ..AlfHyper::default()
    }
}

/// A wide clip band: channels forced to 0.05 stay clipped across the
/// handful of autoencoder steps a short run takes (the mask moves by
/// O(lr) per step), while the untouched channels start at 1.0 and
/// cannot drift below the threshold either.
fn wide_band_config() -> AlfBlockConfig {
    AlfBlockConfig {
        threshold: 0.5,
        ..AlfBlockConfig::paper_default()
    }
}

/// Extracts the raw text of a scalar or flat-array JSON field from one
/// JSONL record. Comparing these strings compares the underlying f32s
/// exactly: Rust's float formatting is shortest-roundtrip, so distinct
/// bit patterns (other than ±0) never collapse to the same text.
fn json_field(line: &str, key: &str) -> String {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no field {key} in {line}"))
        + pat.len();
    let rest = &line[start..];
    let end = if rest.starts_with('[') {
        rest.find(']').map(|i| i + 1)
    } else {
        rest.find([',', '}'])
    }
    .unwrap_or_else(|| panic!("unterminated field {key} in {line}"));
    rest[..end].to_string()
}

/// `(task_loss, mask_occupancy)` of every `train.step` record.
fn step_records(lines: &[String]) -> Vec<(String, String)> {
    lines
        .iter()
        .filter(|l| l.contains("\"event\":\"train.step\""))
        .map(|l| (json_field(l, "task_loss"), json_field(l, "mask_occupancy")))
        .collect()
}

fn state_bits(trainer: &AlfTrainer) -> Vec<(Vec<usize>, Vec<u32>)> {
    let mut out = Vec::new();
    trainer.model().visit_state_ref(&mut |t| {
        out.push((
            t.dims().to_vec(),
            t.data().iter().map(|v| v.to_bits()).collect(),
        ));
    });
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Sparse vs dense trainer over three epochs, two channels of block 0
    /// clipped from epoch 2 on: identical per-step losses and occupancies,
    /// identical final state.
    #[test]
    fn sparse_trajectory_matches_dense_for_the_whole_run(
        data_seed in 0u64..1000,
        model_seed in 0u64..1000,
    ) {
        let data = small_data(data_seed);
        let model = plain20_alf(4, 4, wide_band_config(), model_seed).unwrap();

        let mut dense_model = model.clone();
        dense_model.set_sparse_execution(false);

        let mut sparse = AlfTrainer::new(model, quick_hyper(), data_seed).unwrap();
        let mut dense = AlfTrainer::new(dense_model, quick_hyper(), data_seed).unwrap();
        let (sink_s, lines_s) = MemorySink::bounded(4096);
        let (sink_d, lines_d) = MemorySink::bounded(4096);
        sparse.set_telemetry_sink(Box::new(sink_s));
        dense.set_telemetry_sink(Box::new(sink_d));

        // Epoch 1: all masks at ~1.0, nothing clipped anywhere.
        sparse.run_epoch(&data).unwrap();
        dense.run_epoch(&data).unwrap();

        // Force two channels of the first block into the clip band in
        // BOTH trainers, identically. From here on the sparse path elides
        // the clipped rows while the dense reference multiplies through
        // their exact zeros.
        for t in [&mut sparse, &mut dense] {
            let block = &mut t.model_mut().alf_blocks_mut()[0];
            block.autoencoder_mut().set_mask_value(1, 0.05);
            block.autoencoder_mut().set_mask_value(3, 0.05);
        }
        for _ in 0..2 {
            sparse.run_epoch(&data).unwrap();
            dense.run_epoch(&data).unwrap();
        }

        // The clip really was in force at the end of the run.
        prop_assert_eq!(sparse.model().alf_blocks()[0].active_filters(), 2);

        // 6 steps per epoch, 3 epochs.
        let steps_s = step_records(&lines_s.lines());
        let steps_d = step_records(&lines_d.lines());
        prop_assert_eq!(steps_s.len(), 18);
        prop_assert_eq!(steps_s, steps_d);
        prop_assert_eq!(state_bits(&sparse), state_bits(&dense));
    }
}
