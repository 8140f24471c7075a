//! The bit hashes every PR since 16 re-printed from a scratch binary, as a
//! committed test: a change that claims "bit for bit" passes this file
//! untouched, and a change that moves bits on purpose edits the literals
//! once and says so in CHANGES.md.
//!
//! All hashes are FNV-1a-64 — over the little-endian `f32::to_bits` of a
//! float vector, or over raw checkpoint bytes.

use alf_core::block::AlfBlockConfig;
use alf_core::checkpoint;
use alf_core::deploy::{Pipeline, QuantSpec};
use alf_core::models::{plain20_alf, resnet20_alf};
use alf_core::{AlfHyper, CnnModel};
use alf_data::{Split, SynthVision};
use alf_dp::{DpConfig, DpTrainer};
use alf_nn::{Layer, LrSchedule, RunCtx};
use alf_tensor::Tensor;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv_f32(values: &[f32]) -> u64 {
    fnv(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Zeroes the trailing `fraction` of every block's mask, so stripping has
/// exact zero filters to remove.
fn clip_masks(model: &mut CnnModel, fraction: f64) {
    for block in model.alf_blocks_mut() {
        let co = block.total_filters();
        let keep = (((1.0 - fraction) * co as f64).ceil() as usize).clamp(1, co);
        for j in keep..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
}

/// The PR 16 configuration: Plain-20-ALF width 16 on 32×32 images, batch
/// 16, 4 data-parallel steps. One pair of literals for 1, 2 and 3 workers
/// is the worker-count invariance (16 samples over 3 workers also gives
/// the statistics pass uneven shards).
#[test]
fn dp_state_and_checkpoint_at_one_two_and_three_workers() {
    let data = SynthVision::cifar_like(5)
        .with_image_size(32)
        .with_num_classes(10)
        .with_train_size(256)
        .build()
        .unwrap();
    let model = plain20_alf(10, 16, AlfBlockConfig::paper_default(), 5).unwrap();
    let hyper = AlfHyper {
        task_lr: 0.05,
        batch_size: 16,
        lr_schedule: LrSchedule::Constant,
        ..AlfHyper::default()
    };
    for workers in [1usize, 2, 3] {
        let config = DpConfig::new(hyper.clone(), 5).with_threads(workers);
        let mut t = DpTrainer::new(model.clone(), config).unwrap();
        t.run_steps(&data, 4).unwrap();
        assert_eq!(
            format!("{:016x}", fnv_f32(&t.state_vector())),
            "4e4d4ad40a90a0f4",
            "state at {workers} workers"
        );
        assert_eq!(
            format!("{:016x}", fnv(t.checkpoint().iter().copied())),
            "7ea392af723f458c",
            "checkpoint at {workers} workers"
        );
    }
}

/// The PR 23 configuration: one fixed batch of 8 held-out images through
/// the stripped f32 model and through the int8 engine calibrated on the
/// next 32.
#[test]
fn deployed_f32_and_int8_logits() {
    let data = SynthVision::cifar_like(7)
        .with_image_size(32)
        .with_num_classes(10)
        .build()
        .unwrap();
    let images = |range: std::ops::Range<usize>| -> Tensor {
        let idx: Vec<usize> = range.collect();
        data.gather(Split::Test, &idx).unwrap().0
    };
    let (batch, calib) = (images(0..8), images(8..40));
    let config = AlfBlockConfig {
        threshold: 1e-4,
        ..AlfBlockConfig::paper_default()
    };
    let mut model = plain20_alf(10, 16, config, 7).unwrap();
    clip_masks(&mut model, 0.7);

    let mut eval = model.clone();
    let trained_form = eval.forward(&batch, &mut RunCtx::eval()).unwrap();
    let mut stripped = Pipeline::new().run(&model).unwrap().model;
    let deployed = stripped.forward(&batch, &mut RunCtx::eval()).unwrap();
    assert_eq!(
        format!("{:016x}", fnv_f32(deployed.data())),
        "32ae7ea19da09909"
    );
    assert_eq!(fnv_f32(trained_form.data()), fnv_f32(deployed.data()));

    let mut int8 = Pipeline::new()
        .fold_bn(true)
        .quantize(QuantSpec::int8(calib))
        .run(&model)
        .unwrap()
        .quantized
        .unwrap();
    let logits = int8.forward(&batch).unwrap();
    assert_eq!(
        format!("{:016x}", fnv_f32(logits.data())),
        "d5e420f41f130430"
    );
}

/// What the DP golden does not reach: the residual `a`/`b` walk with a pad
/// shortcut, and the stripped + BN-folded form's state order (code conv,
/// expansion weight, expansion bias, no batch-norm).
#[test]
fn resnet20_alf_checkpoint_blobs() {
    let mut model = resnet20_alf(10, 8, AlfBlockConfig::paper_default(), 9).unwrap();
    clip_masks(&mut model, 0.5);
    // One training forward moves every running statistic off (0, 1).
    let x = Tensor::from_fn(&[2, 3, 16, 16], |i| ((i * 37 % 101) as f32 - 50.0) / 50.0);
    model.forward(&x, &mut RunCtx::train()).unwrap();
    assert_eq!(
        format!("{:016x}", fnv(checkpoint::save(&model).iter().copied())),
        "05ac778015d381c6",
        "training form"
    );
    let folded = Pipeline::new().fold_bn(true).run(&model).unwrap().model;
    assert_eq!(
        format!("{:016x}", fnv(checkpoint::save(&folded).iter().copied())),
        "c79485a829993d36",
        "stripped + folded form"
    );
}
