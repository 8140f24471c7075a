//! The data-parallel two-player trainer.

use alf_core::checkpoint;
use alf_core::train::TaskOutcome;
use alf_core::{AlfHyper, AlfTrainer, CnnModel, EpochStats, StateSnapshot, TrainReport};
use alf_data::plan::{shard_range, EpochPlan};
use alf_data::{Augment, Dataset, Split};
use alf_nn::layer::{Layer, Mode};
use alf_nn::loss::{correct_count, softmax_cross_entropy};
use alf_nn::{RunCtx, StatExchange, StatLink};
use alf_obs::events::TelemetrySink;
use alf_obs::runtime::resolve_threads;
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};
use bytes::Bytes;
use std::sync::Arc;

use crate::allreduce::tree_reduce_into_first;
use crate::Result;

/// Configuration of a [`DpTrainer`].
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// The two-player hyper-parameters (shared with `AlfTrainer`).
    pub hyper: AlfHyper,
    /// Worker count. `None` defers to `ALF_DP_THREADS`, then to the
    /// host's available parallelism ([`resolve_threads`]); the choice
    /// never changes training results, only wall-clock.
    pub threads: Option<usize>,
    /// Seed of the deterministic data-order stream: epoch shuffles and
    /// per-sample augmentation draws are pure functions of this seed and
    /// the (epoch, step, slot) coordinates.
    pub data_seed: u64,
    /// Global L2 clip applied to the reduced task gradient before the
    /// optimizer step. Frozen-statistics normalisation (see
    /// [`crate#`][crate]) lacks batch BN's implicit gradient contraction,
    /// so deep plain networks need this guard; the clip is computed on
    /// the already-reduced flat gradient, so it is as deterministic as
    /// the reduction itself. `None` disables clipping.
    pub max_grad_norm: Option<f32>,
}

impl DpConfig {
    /// Default configuration over `hyper` with the given data seed.
    pub fn new(hyper: AlfHyper, data_seed: u64) -> Self {
        Self {
            hyper,
            threads: None,
            data_seed,
            max_grad_norm: Some(1.0),
        }
    }

    /// Pins the worker count (clamped to at least 1), overriding both
    /// `ALF_DP_THREADS` and the host default.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Derives the augmentation generator for one sample as a pure function
/// of `(data_seed, epoch, step, slot)` — `slot` being the sample's
/// position within its batch. Workers therefore draw identical
/// augmentations for a given sample no matter which shard it lands in,
/// and a resumed run replays the exact draws of the original.
fn sample_rng(data_seed: u64, epoch: u64, step: u64, slot: u64) -> Rng {
    let mut h = Rng::new(data_seed).next_u64();
    h ^= Rng::new(epoch).next_u64().rotate_left(1);
    h ^= Rng::new(step).next_u64().rotate_left(2);
    h ^= Rng::new(slot).next_u64().rotate_left(3);
    Rng::new(h)
}

/// Splits `slice` into `shards` consecutive chunks following
/// [`shard_range`], so chunk `s` covers exactly that shard's index range.
fn split_shards<T>(mut slice: &mut [T], shards: usize) -> Vec<&mut [T]> {
    let len = slice.len();
    let mut out = Vec::with_capacity(shards);
    let mut consumed = 0usize;
    for s in 0..shards {
        let r = shard_range(len, s, shards);
        let (head, tail) = slice.split_at_mut(r.end - consumed);
        out.push(head);
        consumed = r.end;
        slice = tail;
    }
    out
}

/// The sharded half of one step: where the batch comes from and how its
/// samples are drawn.
struct ShardJob<'a> {
    data: &'a Dataset,
    /// Dataset indices of the whole batch, in slot order.
    batch: &'a [usize],
    augment: Option<Augment>,
    data_seed: u64,
    epoch: u64,
    step: u64,
}

impl ShardJob<'_> {
    /// Runs one scoped worker per replica. Each first takes its shard of
    /// the **statistics pass** — a forward-only [`Mode::Stats`] pass over
    /// the clean batch, sharded over the workers and joined by a
    /// [`StatExchange`], so every replica ends up with the running
    /// statistics one whole-batch train-mode forward would have left — and
    /// goes straight on to its per-sample frozen-norm forward/backward
    /// loop over the same shard, filling one leaf, loss and correctness
    /// flag per sample (indexed by batch slot).
    fn run(
        &self,
        replicas: &mut [(CnnModel, RunCtx)],
        leaves: &mut [Vec<f32>],
        losses: &mut [f32],
        corrects: &mut [u8],
    ) -> Result<()> {
        let threads = replicas.len();
        let b = self.batch.len();
        let exchange = Arc::new(StatExchange::new(b));
        let leaf_chunks = split_shards(leaves, threads);
        let loss_chunks = split_shards(losses, threads);
        let correct_chunks = split_shards(corrects, threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, (((leaves, losses), corrects), slot)) in leaf_chunks
                .into_iter()
                .zip(loss_chunks)
                .zip(correct_chunks)
                .zip(replicas.iter_mut())
                .enumerate()
            {
                let exchange = &exchange;
                handles.push(scope.spawn(move || -> Result<()> {
                    let (replica, ctx) = slot;
                    let stat_shard = shard_range(b, s, threads);
                    exchange.participate(|| {
                        let (images, _labels) = self
                            .data
                            .gather(Split::Train, &self.batch[stat_shard.clone()])?;
                        ctx.set_mode(Mode::Stats);
                        ctx.set_stat_link(Some(StatLink::new(
                            Arc::clone(exchange),
                            stat_shard.start,
                        )));
                        let out = replica.forward(&images, ctx);
                        ctx.set_stat_link(None);
                        ctx.set_mode(Mode::Train);
                        out.map(drop)
                    })?;
                    for (local, j) in stat_shard.enumerate() {
                        // Per-sample granularity, with augmentation draws
                        // keyed by the batch slot `j`: no float accumulation
                        // crosses a shard boundary, so the leaves are
                        // independent of the shard layout.
                        let (mut images, labels) =
                            self.data.gather(Split::Train, &[self.batch[j]])?;
                        if let Some(policy) = &self.augment {
                            let mut rng =
                                sample_rng(self.data_seed, self.epoch, self.step, j as u64);
                            policy.apply(&mut images, &mut rng)?;
                        }
                        replica.zero_grads();
                        let logits = replica.forward(&images, ctx)?;
                        let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                        let right = correct_count(&logits, &labels)?;
                        replica.backward(&grad, ctx)?;
                        let leaf = &mut leaves[local];
                        leaf.clear();
                        replica.visit_params_ref(&mut |p| {
                            leaf.extend_from_slice(p.grad.data());
                        });
                        losses[local] = loss;
                        corrects[local] = right as u8;
                    }
                    Ok(())
                }));
            }
            // Report the failure itself, not a peer's account of being
            // released from the exchange by it.
            let mut failed: Option<ShapeError> = None;
            for h in handles {
                if let Err(e) = h.join().expect("dp worker panicked") {
                    if failed.as_ref().is_none_or(|f| f.op() == "stat_exchange") {
                        failed = Some(e);
                    }
                }
            }
            failed.map_or(Ok(()), Err)
        })
    }
}

fn shape_err(detail: impl Into<String>) -> ShapeError {
    ShapeError::new("dp_train", detail)
}

/// Data-parallel counterpart of `alf_core::AlfTrainer`.
///
/// The round itself — learning-rate schedule, autoencoder player,
/// statistics, telemetry, evaluation, epoch roll-over — is the embedded
/// [`AlfTrainer`]'s; this type is the *sharded* task-gradient source.
/// Each step shards the minibatch over long-lived worker replicas,
/// reduces the per-sample gradients with the fixed-order tree
/// ([`crate::allreduce`]) and applies one task-optimizer step on the
/// master model; the round then runs the per-block autoencoder players
/// block-per-worker. Weights after any number of steps are bitwise
/// independent of the worker count, and [`DpTrainer::checkpoint`] /
/// [`DpTrainer::resume`] make a killed run reproduce an uninterrupted
/// one bitwise.
///
/// # Example
///
/// ```no_run
/// use alf_core::models::plain20_alf;
/// use alf_core::{AlfBlockConfig, AlfHyper};
/// use alf_data::SynthVision;
/// use alf_dp::{DpConfig, DpTrainer};
///
/// # fn main() -> alf_dp::Result<()> {
/// let data = SynthVision::cifar_like(0).with_train_size(256).build()?;
/// let model = plain20_alf(10, 8, AlfBlockConfig::paper_default(), 7)?;
/// let config = DpConfig::new(AlfHyper::default(), 7).with_threads(4);
/// let mut trainer = DpTrainer::new(model, config)?;
/// let report = trainer.run(&data, 3)?;
/// let blob = trainer.checkpoint(); // resumable v2 checkpoint
/// println!("acc {:.2} ({} bytes)", report.final_accuracy(), blob.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DpTrainer {
    // The round: model, optimizer, trajectory position, hyper-parameters.
    round: AlfTrainer,
    threads: Option<usize>,
    max_grad_norm: Option<f32>,
    // Checkpointed with the round's position.
    data_seed: u64,
    snapshot: StateSnapshot,
    replicas: Vec<(CnnModel, RunCtx)>,
    // Reusable per-step buffers (one gradient leaf per sample).
    leaves: Vec<Vec<f32>>,
    sample_loss: Vec<f32>,
    sample_correct: Vec<u8>,
}

impl DpTrainer {
    /// Creates a trainer over a model.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid configurations; kept fallible for
    /// forward compatibility with validated configs (mirrors
    /// `AlfTrainer::new`).
    pub fn new(model: CnnModel, config: DpConfig) -> Result<Self> {
        let mut round = AlfTrainer::new(model, config.hyper, config.data_seed)?;
        if let Some(n) = config.threads {
            round.set_eval_threads(n);
        }
        Ok(Self {
            round,
            threads: config.threads,
            max_grad_norm: config.max_grad_norm,
            data_seed: config.data_seed,
            snapshot: StateSnapshot::new(),
            replicas: Vec::new(),
            leaves: Vec::new(),
            sample_loss: Vec::new(),
            sample_correct: Vec::new(),
        })
    }

    /// Streams per-step and per-epoch telemetry (`train.step` /
    /// `train.epoch` JSONL events) into `sink`; see
    /// [`AlfTrainer::set_telemetry_sink`].
    pub fn set_telemetry_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.round.set_telemetry_sink(sink);
    }

    /// Restores a trainer from a checkpoint blob
    /// (`alf_core::checkpoint::save` or [`DpTrainer::checkpoint`]).
    ///
    /// `model` must have the checkpoint's architecture (typically the
    /// same constructor call that produced the original model; its fresh
    /// weights are overwritten). A v2 blob restores the full trajectory —
    /// momentum, schedule, epoch/step position and data seed — so
    /// subsequent steps are bitwise identical to an uninterrupted run,
    /// *regardless of the worker count of either run*. A v1 (model-only)
    /// blob restores the weights and starts a fresh trajectory at the
    /// configured seed.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint validation errors (malformed blob,
    /// architecture mismatch, momentum shape mismatch).
    pub fn resume(model: CnnModel, config: DpConfig, blob: &[u8]) -> Result<Self> {
        let mut t = Self::new(model, config)?;
        if let Some(state) = checkpoint::load_trainer(t.round.model_mut(), blob)? {
            t.data_seed = state.data_seed;
            t.round.restore_trainer_state(state);
        }
        Ok(t)
    }

    /// Serialises the full trainer state — model, SGD momentum, `νprune`
    /// schedule and the epoch/step/data-seed position — as a v2
    /// checkpoint blob for [`DpTrainer::resume`].
    pub fn checkpoint(&self) -> Bytes {
        checkpoint::save_trainer(
            self.round.model(),
            &self.round.trainer_state(self.data_seed),
        )
    }

    /// The model being trained.
    pub fn model(&self) -> &CnnModel {
        self.round.model()
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> CnnModel {
        self.round.into_model()
    }

    /// Current epoch (0-based; the epoch in progress).
    pub fn epoch(&self) -> u64 {
        self.round.epoch()
    }

    /// Step within the current epoch (batches already consumed).
    pub fn step(&self) -> u64 {
        self.round.step()
    }

    /// The worker count the next step will use, before clamping to the
    /// batch size.
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.threads, "ALF_DP_THREADS")
    }

    /// Runs `epochs` additional epochs, returning the statistics for the
    /// epochs run in *this* call.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn run(&mut self, data: &Dataset, epochs: usize) -> Result<TrainReport> {
        let mut report = TrainReport {
            model_name: self.model().name().to_string(),
            epochs: Vec::with_capacity(epochs),
        };
        for _ in 0..epochs {
            report.epochs.push(self.run_epoch(data)?);
        }
        Ok(report)
    }

    /// Runs until the current epoch completes (for a fresh trainer: one
    /// full epoch), returning its statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn run_epoch(&mut self, data: &Dataset) -> Result<EpochStats> {
        loop {
            if let Some(stats) = self.advance_step(data)? {
                return Ok(stats);
            }
        }
    }

    /// Runs exactly `steps` optimisation steps (crossing epoch
    /// boundaries as needed), returning the statistics of any epochs
    /// completed along the way. The granularity used by kill/resume
    /// tests and checkpoint-interval loops.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn run_steps(&mut self, data: &Dataset, steps: usize) -> Result<Vec<EpochStats>> {
        let mut out = Vec::new();
        for _ in 0..steps {
            if let Some(stats) = self.advance_step(data)? {
                out.push(stats);
            }
        }
        Ok(out)
    }

    /// Runs one optimisation step (one round of the two-player game on
    /// one batch). Returns `Some(stats)` when the step completed an
    /// epoch (after the held-out evaluation), `None` otherwise.
    ///
    /// # Errors
    ///
    /// Fails on an empty training split, a checkpoint position past the
    /// end of the epoch (resume against mismatched data), and any shape
    /// error from the model or data pipeline.
    pub fn advance_step(&mut self, data: &Dataset) -> Result<Option<EpochStats>> {
        let n = data.len_of(Split::Train);
        if n == 0 {
            return Err(shape_err("empty training split"));
        }
        let plan = EpochPlan::new(
            n,
            self.round.hyper().batch_size,
            self.data_seed,
            self.round.epoch(),
        );
        if self.round.step() as usize >= plan.num_batches() {
            return Err(shape_err(format!(
                "step {} out of range: epoch has {} batches (resumed against different data?)",
                self.round.step(),
                plan.num_batches()
            )));
        }
        let batch = plan.batch(self.round.step() as usize);
        let b = batch.len();
        let threads = self.resolved_threads().min(b).max(1);
        let augment = self.round.hyper().augment;
        let Self {
            round,
            max_grad_norm,
            data_seed,
            snapshot,
            replicas,
            leaves,
            sample_loss,
            sample_correct,
            ..
        } = self;
        let job = ShardJob {
            data,
            batch,
            augment,
            data_seed: *data_seed,
            epoch: round.epoch(),
            step: round.step(),
        };
        round.play_round(|model, opt, _ctx| {
            // Replicas train with frozen normalisation statistics, which
            // their own sharded statistics pass refreshes first.
            snapshot.sync_replicas(model, replicas, threads, || {
                let mut ctx = RunCtx::train();
                ctx.set_freeze_norm(true);
                ctx
            });
            leaves.resize_with(b, Vec::new);
            sample_loss.resize(b, 0.0);
            sample_correct.resize(b, 0);
            job.run(replicas, leaves, sample_loss, sample_correct)?;
            // The pass moved nothing but the running statistics, to the
            // same values on every replica: the master takes replica 0's
            // state whole.
            snapshot.capture(&replicas[0].0);
            if !snapshot.restore(model) {
                return Err(shape_err("replica state does not fit the master model"));
            }

            // Reduce the per-sample leaves into `leaves[0]` in the fixed
            // tree order, then scale it in place to the batch mean. Both are
            // pure functions of the batch size, as is the slot-order loss fold.
            tree_reduce_into_first(leaves);
            let loss_sum = sample_loss.iter().fold(0.0f64, |s, &l| s + f64::from(l));
            let correct = sample_correct.iter().map(|&c| usize::from(c)).sum();
            let grad = &mut leaves[0];
            let inv_b = 1.0 / b as f32;
            for g in grad.iter_mut() {
                *g *= inv_b;
            }
            // Deterministic left fold over the reduced gradient; the clip
            // depends only on the reduced values, never on shard layout.
            let grad_norm = grad.iter().fold(0.0f32, |sq, &g| sq + g * g).sqrt();
            let mut post_clip_norm = grad_norm;
            if let Some(max_norm) = *max_grad_norm {
                if grad_norm > max_norm {
                    let scale = max_norm / grad_norm;
                    for g in grad.iter_mut() {
                        *g *= scale;
                    }
                    post_clip_norm = max_norm;
                }
            }
            opt.step_layer_from_flat(model, grad);
            Ok(TaskOutcome {
                loss: loss_sum / b as f64,
                correct,
                seen: b,
                workers: threads,
                grad_norm: Some((grad_norm, post_clip_norm)),
            })
        })?;
        if self.round.step() as usize == plan.num_batches() {
            return Ok(Some(self.round.finish_epoch(data)?));
        }
        Ok(None)
    }

    /// Flat copy of the model's full persistent state, for bitwise
    /// comparisons in tests.
    pub fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.model()
            .visit_state_ref(&mut |t: &Tensor| out.extend_from_slice(t.data()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::block::AlfBlockConfig;
    use alf_core::models::{plain20, plain20_alf};
    use alf_data::SynthVision;
    use alf_nn::LrSchedule;

    fn small_data(seed: u64) -> Dataset {
        SynthVision::cifar_like(seed)
            .with_image_size(12)
            .with_max_shift(1)
            .with_num_classes(4)
            .with_train_size(96)
            .with_test_size(48)
            .with_noise(0.05)
            .build()
            .unwrap()
    }

    fn quick_config(threads: usize) -> DpConfig {
        DpConfig::new(
            AlfHyper {
                task_lr: 0.05,
                batch_size: 12,
                lr_schedule: LrSchedule::Constant,
                ..AlfHyper::default()
            },
            9,
        )
        .with_threads(threads)
    }

    #[test]
    fn dp_training_learns_above_chance() {
        let data = small_data(1);
        let model = plain20(4, 8).unwrap();
        let mut trainer = DpTrainer::new(model, quick_config(2)).unwrap();
        let report = trainer.run(&data, 8).unwrap();
        assert_eq!(report.epochs.len(), 8);
        // 4 classes ⇒ chance = 25%.
        assert!(
            report.final_accuracy() > 0.4,
            "accuracy {} not above chance",
            report.final_accuracy()
        );
        assert!(report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss);
    }

    #[test]
    fn alf_dp_training_tracks_filters_and_l_rec() {
        let data = small_data(2);
        let model = plain20_alf(4, 8, AlfBlockConfig::paper_default(), 3).unwrap();
        let mut trainer = DpTrainer::new(model, quick_config(2)).unwrap();
        let report = trainer.run(&data, 3).unwrap();
        let rf = report.final_remaining_filters();
        assert!((0.0..=1.0).contains(&rf));
        assert!(report.epochs.iter().all(|e| e.mean_l_rec.is_finite()));
        assert!(report.epochs.iter().all(|e| e.mean_l_rec > 0.0));
    }

    #[test]
    fn empty_training_split_is_an_error() {
        let data = SynthVision::cifar_like(3)
            .with_image_size(12)
            .with_num_classes(4)
            .with_train_size(0)
            .with_test_size(8)
            .build()
            .unwrap();
        let model = plain20(4, 4).unwrap();
        let mut trainer = DpTrainer::new(model, quick_config(1)).unwrap();
        let err = trainer.advance_step(&data).unwrap_err();
        assert!(err.to_string().contains("empty training split"), "{err}");
    }

    #[test]
    fn step_and_epoch_counters_advance() {
        let data = small_data(4);
        let model = plain20(4, 4).unwrap();
        let mut trainer = DpTrainer::new(model, quick_config(2)).unwrap();
        assert_eq!((trainer.epoch(), trainer.step()), (0, 0));
        // 96 samples / batch 12 = 8 steps per epoch.
        let stats = trainer.run_steps(&data, 3).unwrap();
        assert!(stats.is_empty());
        assert_eq!((trainer.epoch(), trainer.step()), (0, 3));
        let stats = trainer.run_steps(&data, 5).unwrap();
        assert_eq!(stats.len(), 1);
        assert_eq!((trainer.epoch(), trainer.step()), (1, 0));
    }

    #[test]
    fn run_epoch_and_run_steps_produce_identical_weights() {
        let data = small_data(5);
        let model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 6).unwrap();
        let mut by_epoch = DpTrainer::new(model.clone(), quick_config(2)).unwrap();
        let mut by_steps = DpTrainer::new(model, quick_config(2)).unwrap();
        by_epoch.run_epoch(&data).unwrap();
        by_steps.run_steps(&data, 8).unwrap();
        assert_eq!(by_epoch.state_vector(), by_steps.state_vector());
    }

    #[test]
    fn resume_against_wrong_data_is_an_error() {
        let data = small_data(7);
        let model = plain20(4, 4).unwrap();
        let mut trainer = DpTrainer::new(model.clone(), quick_config(1)).unwrap();
        trainer.run_steps(&data, 2).unwrap();
        let blob = trainer.checkpoint();
        // Resume against a dataset with only 1 batch per epoch: the saved
        // step position (2) is past the end.
        let tiny = SynthVision::cifar_like(8)
            .with_image_size(12)
            .with_num_classes(4)
            .with_train_size(8)
            .with_test_size(8)
            .build()
            .unwrap();
        let mut resumed = DpTrainer::resume(model, quick_config(1), &blob).unwrap();
        let err = resumed.advance_step(&tiny).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    /// A shard that fails before the statistics rendezvous must release
    /// its peer with an error, not leave it waiting for partials forever.
    #[test]
    fn failing_shard_errors_the_step_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let data = small_data(9);
            let model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 10).unwrap();
            let mut replicas: Vec<_> = (0..2).map(|_| (model.clone(), RunCtx::train())).collect();
            // Worker 1's shard holds an index past the end of the data:
            // its gather fails while worker 0 is already at (or on its way
            // to) the first batch-norm rendezvous.
            let job = ShardJob {
                data: &data,
                batch: &[0, 1, 2, usize::MAX],
                augment: None,
                data_seed: 0,
                epoch: 0,
                step: 0,
            };
            let (mut leaves, mut losses, mut corrects) = (vec![Vec::new(); 4], [0.0; 4], [0; 4]);
            let out = job.run(&mut replicas, &mut leaves, &mut losses, &mut corrects);
            tx.send(out).unwrap();
        });
        let err = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("step hung on a failed shard")
            .unwrap_err();
        assert_eq!(err.op(), "dataset gather", "{err}");
    }

    /// A replica alternates a statistics pass over its shard (several
    /// samples) with one-sample training passes: after warm-up neither may
    /// grow the replica's arena again.
    #[test]
    fn replica_arenas_are_steady_across_steps() {
        let data = small_data(11);
        let model = plain20_alf(4, 4, AlfBlockConfig::paper_default(), 12).unwrap();
        let mut trainer = DpTrainer::new(model, quick_config(2)).unwrap();
        trainer.run_steps(&data, 2).unwrap();
        let warm: Vec<u64> = trainer
            .replicas
            .iter_mut()
            .map(|(_, ctx)| {
                // Growth past this point also trips a debug assertion.
                ctx.ws.freeze();
                ctx.ws.alloc_events()
            })
            .collect();
        trainer.run_steps(&data, 4).unwrap();
        let after: Vec<u64> = trainer
            .replicas
            .iter()
            .map(|(_, ctx)| ctx.ws.alloc_events())
            .collect();
        assert_eq!(after, warm);
    }

    #[test]
    fn sample_rng_is_pure_and_coordinate_sensitive() {
        let a = sample_rng(1, 2, 3, 4).next_u64();
        assert_eq!(a, sample_rng(1, 2, 3, 4).next_u64());
        assert_ne!(a, sample_rng(1, 2, 3, 5).next_u64());
        assert_ne!(a, sample_rng(1, 2, 4, 4).next_u64());
        assert_ne!(a, sample_rng(1, 3, 3, 4).next_u64());
        assert_ne!(a, sample_rng(2, 2, 3, 4).next_u64());
    }

    #[test]
    fn split_shards_partitions_in_order() {
        let mut v: Vec<usize> = (0..10).collect();
        let chunks = split_shards(&mut v[..], 4);
        assert_eq!(chunks.len(), 4);
        let flat: Vec<usize> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        for (s, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.len(), shard_range(10, s, 4).len());
        }
    }
}
