//! Integration gates for the socket collective: multi-rank runs must be
//! bitwise-identical to the single-process `DpTrainer`, failures must be
//! typed, and the sparse gradient wire must engage on pruned models and
//! carry fewer bytes the lower the mask occupancy.
//!
//! Ranks run as in-process threads over real loopback TCP sockets —
//! same wire, same framing, same reducer as `alf dist`, minus the
//! process boundary (which `scripts/verify.sh` covers end to end).

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use alf_core::block::AlfBlockConfig;
use alf_core::models::plain20_alf;
use alf_core::{AlfHyper, CnnModel};
use alf_data::{Dataset, SynthVision};
use alf_dist::{run_rank, DistConfig, DistError, DistReducer, RunOptions};
use alf_dp::{DpConfig, DpTrainer};
use alf_nn::LrSchedule;

fn small_data(seed: u64) -> Dataset {
    SynthVision::cifar_like(seed)
        .with_image_size(12)
        .with_max_shift(1)
        .with_num_classes(4)
        .with_train_size(48)
        .with_test_size(24)
        .with_noise(0.05)
        .build()
        .unwrap()
}

fn quick_config() -> DpConfig {
    DpConfig::new(
        AlfHyper {
            task_lr: 0.05,
            batch_size: 12,
            lr_schedule: LrSchedule::Constant,
            ..AlfHyper::default()
        },
        9,
    )
    .with_threads(2)
}

fn small_model() -> CnnModel {
    plain20_alf(4, 8, AlfBlockConfig::paper_default(), 3).unwrap()
}

fn state_bits(trainer: &DpTrainer) -> Vec<u32> {
    trainer.state_vector().iter().map(|v| v.to_bits()).collect()
}

/// Runs a `world`-rank collective (threads over loopback TCP) for
/// `epochs` epochs and returns every rank's final state bits.
fn run_collective(
    world: usize,
    epochs: usize,
    model_fn: impl Fn() -> CnnModel + Sync,
    data: &Dataset,
) -> Vec<Vec<u32>> {
    let addr = alf_dist::ephemeral_addr().unwrap();
    let model_fn = &model_fn;
    thread::scope(|s| {
        let workers: Vec<_> = (1..world)
            .map(|rank| {
                s.spawn(move || {
                    let mut dist = DistConfig::new(world, rank, addr);
                    dist.read_timeout = Duration::from_secs(20);
                    dist.connect_timeout = Duration::from_secs(10);
                    run_rank(
                        &dist,
                        model_fn(),
                        quick_config(),
                        data,
                        &RunOptions::new(epochs),
                        None,
                    )
                    .map(|o| state_bits(&o.trainer))
                })
            })
            .collect();
        let mut dist = DistConfig::new(world, 0, addr);
        dist.read_timeout = Duration::from_secs(20);
        dist.connect_timeout = Duration::from_secs(10);
        let master = run_rank(
            &dist,
            model_fn(),
            quick_config(),
            data,
            &RunOptions::new(epochs),
            None,
        )
        .unwrap();
        let mut states = vec![state_bits(&master.trainer)];
        for w in workers {
            states.push(w.join().unwrap().unwrap());
        }
        states
    })
}

#[test]
fn collectives_are_bitwise_identical_to_single_process() {
    let data = small_data(11);
    let mut reference = DpTrainer::new(small_model(), quick_config()).unwrap();
    reference.run(&data, 1).unwrap();
    let want = state_bits(&reference);
    for world in [2usize, 3, 4] {
        let states = run_collective(world, 1, small_model, &data);
        assert_eq!(states.len(), world);
        for (rank, got) in states.iter().enumerate() {
            assert_eq!(
                got, &want,
                "world {world} rank {rank} diverged from single-process reference"
            );
        }
    }
}

#[test]
fn pruned_model_engages_the_sparse_wire_and_stays_bitwise() {
    let data = small_data(13);
    // Wide threshold so a few optimisation steps can't move forced
    // channels across the clip band.
    let config = AlfBlockConfig {
        threshold: 0.5,
        ..AlfBlockConfig::paper_default()
    };
    let model_at = |occupancy: f32| {
        let mut m = plain20_alf(4, 8, config, 3).unwrap();
        for block in m.alf_blocks_mut() {
            let total = block.total_filters();
            let clip = ((1.0 - occupancy) * total as f32).round() as usize;
            for ch in 0..clip.min(total.saturating_sub(1)) {
                block.autoencoder_mut().set_mask_value(ch, 0.05);
            }
        }
        m
    };
    let steps = 4usize;
    // Gradient bytes both ranks put on the wire, per occupancy level.
    let mut wire_bytes = Vec::new();
    for occupancy in [1.0f32, 0.7, 0.4] {
        let mut reference = DpTrainer::new(model_at(occupancy), quick_config()).unwrap();
        reference.run_steps(&data, steps).unwrap();

        let addr = alf_dist::ephemeral_addr().unwrap();
        let listener = TcpListener::bind(addr).unwrap();
        let (master_bits, sparse_count, bytes, worker_bits) = thread::scope(|s| {
            let worker = s.spawn(|| {
                let dist = DistConfig::new(2, 1, addr);
                let mut trainer = DpTrainer::new(model_at(occupancy), quick_config()).unwrap();
                let mut red = DistReducer::worker(dist, trainer.model(), None).unwrap();
                for _ in 0..steps {
                    trainer.advance_step_with(&data, &mut red).unwrap();
                }
                (state_bits(&trainer), red.metrics().grad_bytes_tx.get())
            });
            let dist = DistConfig::new(2, 0, addr);
            let mut trainer = DpTrainer::new(model_at(occupancy), quick_config()).unwrap();
            let mut red = DistReducer::master(dist, trainer.model(), &listener, None).unwrap();
            for _ in 0..steps {
                trainer.advance_step_with(&data, &mut red).unwrap();
            }
            let sparse = red.metrics().tensors_sparse.get();
            let (worker_bits, worker_bytes) = worker.join().unwrap();
            let bytes = red.metrics().grad_bytes_tx.get() + worker_bytes;
            (state_bits(&trainer), sparse, bytes, worker_bits)
        });
        assert_eq!(
            master_bits,
            state_bits(&reference),
            "occupancy {occupancy}: collective diverged from the 1-process reference"
        );
        assert_eq!(worker_bits, master_bits, "occupancy {occupancy}");
        if occupancy < 1.0 {
            assert!(
                sparse_count > 0,
                "occupancy {occupancy}: pruned STE model should take the sparse encoding"
            );
        }
        wire_bytes.push(bytes);
    }
    assert!(
        wire_bytes.windows(2).all(|pair| pair[1] < pair[0]),
        "gradient bytes on the wire must strictly decrease as occupancy drops: {wire_bytes:?}"
    );
}

#[test]
fn dead_worker_is_a_typed_rank_lost() {
    let addr = alf_dist::ephemeral_addr().unwrap();
    let listener = TcpListener::bind(addr).unwrap();
    let data = small_data(17);
    thread::scope(|s| {
        // A worker that completes the handshake, then dies before its
        // first reduce.
        let worker = s.spawn(|| {
            let dist = DistConfig::new(2, 1, addr);
            let model = small_model();
            let red = DistReducer::worker(dist, &model, None).unwrap();
            drop(red);
        });
        let mut dist = DistConfig::new(2, 0, addr);
        dist.read_timeout = Duration::from_secs(5);
        let mut trainer = DpTrainer::new(small_model(), quick_config()).unwrap();
        let mut red = DistReducer::master(dist, trainer.model(), &listener, None).unwrap();
        let err = trainer.advance_step_with(&data, &mut red).unwrap_err();
        let dist_err = DistError::from_reduce(err);
        assert!(
            matches!(dist_err, DistError::RankLost { rank: 1, .. }),
            "{dist_err}"
        );
        worker.join().unwrap();
    });
}

#[test]
fn handshake_rejects_world_and_architecture_mismatch() {
    // World-size mismatch.
    let addr = alf_dist::ephemeral_addr().unwrap();
    let listener = TcpListener::bind(addr).unwrap();
    thread::scope(|s| {
        let worker = s.spawn(|| {
            let model = small_model();
            DistReducer::worker(DistConfig::new(3, 1, addr), &model, None).err()
        });
        let model = small_model();
        let err = DistReducer::master(DistConfig::new(2, 0, addr), &model, &listener, None)
            .err()
            .expect("mismatched world must not handshake");
        assert!(matches!(err, DistError::ProtocolMismatch { .. }), "{err}");
        // The rejected worker fails too (the master hangs up on it).
        assert!(worker.join().unwrap().is_some());
    });

    // Architecture mismatch: same world, different model geometry.
    let addr = alf_dist::ephemeral_addr().unwrap();
    let listener = TcpListener::bind(addr).unwrap();
    thread::scope(|s| {
        let worker = s.spawn(|| {
            let wide = plain20_alf(4, 16, AlfBlockConfig::paper_default(), 3).unwrap();
            DistReducer::worker(DistConfig::new(2, 1, addr), &wide, None).err()
        });
        let model = small_model();
        let err = DistReducer::master(DistConfig::new(2, 0, addr), &model, &listener, None)
            .err()
            .expect("mismatched architecture must not handshake");
        let msg = err.to_string();
        assert!(
            matches!(err, DistError::ProtocolMismatch { .. }) && msg.contains("different run"),
            "{msg}"
        );
        assert!(worker.join().unwrap().is_some());
    });
}
