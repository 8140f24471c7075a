//! End-to-end property test of the engine's defining guarantee: the
//! worker count is purely a resource knob. Trainers started from the
//! same model and data seed must hold bitwise-identical state after the
//! same number of steps, whether they shard each batch over 1, 2, 4 or
//! 7 workers — including steps that cross an epoch boundary (reshuffle,
//! held-out evaluation, epoch counter roll-over).

use alf_core::block::AlfBlockConfig;
use alf_core::models::{plain20, plain20_alf};
use alf_core::AlfHyper;
use alf_data::{Dataset, SynthVision};
use alf_dp::{DpConfig, DpTrainer};
use alf_nn::LrSchedule;
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

fn config(threads: usize, data_seed: u64) -> DpConfig {
    DpConfig::new(
        AlfHyper {
            task_lr: 0.05,
            batch_size: 6,
            lr_schedule: LrSchedule::Constant,
            ..AlfHyper::default()
        },
        data_seed,
    )
    .with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Four trainers at 1/2/4/7 workers, same model and seeds, 8 steps
    /// over a 6-step epoch (so the run crosses the epoch boundary):
    /// bitwise-equal full state — for Plain-20-ALF, whose autoencoder
    /// players run inline at 1 worker and block-per-worker above, and for
    /// vanilla Plain-20, where the player is empty.
    #[test]
    fn worker_count_never_changes_the_trajectory(
        data_seed in 0u64..1000,
        model_seed in 0u64..1000,
    ) {
        let data = small_data(data_seed);
        for model in [
            plain20_alf(4, 4, AlfBlockConfig::paper_default(), model_seed).unwrap(),
            plain20(4, 4).unwrap(),
        ] {
            let mut states = Vec::new();
            for threads in [1usize, 2, 4, 7] {
                let mut t =
                    DpTrainer::new(model.clone(), config(threads, data_seed)).unwrap();
                t.run_steps(&data, 8).unwrap();
                prop_assert_eq!((t.epoch(), t.step()), (1, 2));
                states.push((threads, t.state_vector()));
            }
            let (_, reference) = &states[0];
            for (threads, state) in &states[1..] {
                prop_assert_eq!(
                    state, reference,
                    "{} state diverged between 1 and {} workers", model.name(), threads
                );
            }
        }
    }
}

/// The same guarantee for the plain (BN-only, no autoencoder) model,
/// where the frozen-statistics pilot-forward path is the part under
/// stress, over a full epoch via `run_epoch`.
#[test]
fn plain_model_epoch_is_worker_count_invariant() {
    let data = small_data(11);
    let model = plain20(4, 4).unwrap();
    let mut reference = None;
    for threads in [1usize, 2, 4, 7] {
        let mut t = DpTrainer::new(model.clone(), config(threads, 11)).unwrap();
        let stats = t.run_epoch(&data).unwrap();
        let state = t.state_vector();
        match &reference {
            None => reference = Some((stats, state)),
            Some((ref_stats, ref_state)) => {
                assert_eq!(&state, ref_state, "weights diverged at {threads} workers");
                assert_eq!(stats.train_loss, ref_stats.train_loss);
                assert_eq!(stats.train_accuracy, ref_stats.train_accuracy);
                assert_eq!(stats.test_accuracy, ref_stats.test_accuracy);
            }
        }
    }
}
