//! Integration test for the `alf-dp` subsystem through the facade: a
//! data-parallel ALF run must be bitwise independent of the worker
//! count, survive a kill/resume round-trip through a v2 checkpoint, and
//! hand `deploy::Pipeline` a deployable model at the end — the full
//! train → checkpoint → resume → deploy pipeline.

use alf::core::block::AlfBlockConfig;
use alf::core::models::plain20_alf;
use alf::core::{deploy, AlfHyper};
use alf::data::{Dataset, SynthVision};
use alf::dp::{DpConfig, DpTrainer};
use alf::nn::{Layer, LrSchedule, Mode, RunCtx};

fn small_data(seed: u64) -> Dataset {
    SynthVision::cifar_like(seed)
        .with_image_size(12)
        .with_max_shift(1)
        .with_num_classes(4)
        .with_train_size(48)
        .with_test_size(16)
        .with_noise(0.05)
        .build()
        .unwrap()
}

fn config(threads: usize) -> DpConfig {
    DpConfig::new(
        AlfHyper {
            task_lr: 0.05,
            batch_size: 8,
            lr_schedule: LrSchedule::Constant,
            ..AlfHyper::default()
        },
        31,
    )
    .with_threads(threads)
}

/// Train in parallel, kill mid-run, resume at a different worker count,
/// finish, and deploy: the resumed trajectory must match a 1-worker
/// uninterrupted run bitwise, and the deployed model must agree with
/// the trained training-form model on eval logits.
#[test]
fn dp_train_checkpoint_resume_deploy_round_trip() {
    let data = small_data(17);
    let model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 8).unwrap();

    // Reference: uninterrupted 1-worker run, 9 steps (6 per epoch).
    let mut reference = DpTrainer::new(model.clone(), config(1)).unwrap();
    reference.run_steps(&data, 9).unwrap();

    // Interrupted: 3 workers, killed after 4 steps, resumed at 2.
    let mut victim = DpTrainer::new(model, config(3)).unwrap();
    victim.run_steps(&data, 4).unwrap();
    let blob = victim.checkpoint();
    drop(victim);

    let fresh = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 400).unwrap();
    let mut resumed = DpTrainer::resume(fresh, config(2), &blob).unwrap();
    resumed.run_steps(&data, 5).unwrap();
    assert_eq!(resumed.state_vector(), reference.state_vector());

    // The trained model deploys, and the compressed form is faithful.
    let mut trained = resumed.into_model();
    for block in trained.alf_blocks_mut() {
        let co = block.autoencoder().mask().len();
        for j in (co * 2 / 5).max(1)..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
    let mut deployed = deploy::Pipeline::new().run(&trained).unwrap().model;
    let (x, _) = data.gather(alf::data::Split::Test, &[0, 1, 2, 3]).unwrap();
    let mut ctx = RunCtx::new(Mode::Eval);
    let full = trained.forward(&x, &mut ctx).unwrap();
    let compact = deployed.forward(&x, &mut ctx).unwrap();
    assert_eq!(full.data(), compact.data());
}
