//! The data-parallel two-player trainer.

use alf_core::checkpoint::{self, TrainerState};
use alf_core::AeStats;
use alf_core::{AlfHyper, CnnModel, EpochStats, Evaluator, StateSnapshot, TrainReport};
use alf_data::plan::{shard_range, EpochPlan};
use alf_data::{Dataset, Split};
use alf_nn::layer::Layer;
use alf_nn::loss::{correct_count, softmax_cross_entropy};
use alf_nn::optim::Sgd;
use alf_nn::RunCtx;
use alf_obs::events::{EventLog, TelemetrySink};
use alf_obs::runtime::resolve_threads;
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};
use bytes::Bytes;

use crate::reduce::{LocalReducer, ReduceError, Reducer, StepContext};
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

fn total_param_len(model: &CnnModel) -> usize {
    let mut n = 0usize;
    model.visit_params_ref(&mut |p| n += p.value.len());
    n
}

/// Data-parallel counterpart of `alf_core::AlfTrainer`.
///
/// Each step shards the minibatch over long-lived worker replicas,
/// reduces the per-sample gradients with the fixed-order tree
/// ([`crate::allreduce`]), applies one task-optimizer step on the master
/// model, then runs the per-block autoencoder players block-per-worker.
/// Weights after any number of steps are bitwise independent of the
/// worker count, and [`DpTrainer::checkpoint`] / [`DpTrainer::resume`]
/// make a killed run reproduce an uninterrupted one bitwise.
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
    model: CnnModel,
    config: DpConfig,
    task_opt: Sgd,
    snapshot: StateSnapshot,
    replicas: Vec<(CnnModel, RunCtx)>,
    ae_ctxs: Vec<RunCtx>,
    // Master context (train mode) for the per-step BN pilot forward.
    ctx: RunCtx,
    eval: Evaluator,
    // Trajectory position — checkpointed.
    epoch: u64,
    step: u64,
    data_seed: u64,
    // Reusable per-step buffers (one gradient leaf per sample).
    leaves: Vec<Vec<f32>>,
    sample_loss: Vec<f32>,
    sample_correct: Vec<u8>,
    // Epoch statistics accumulators — *not* checkpointed: a resumed
    // epoch's reported stats cover only post-resume steps (weights are
    // unaffected; see DESIGN.md).
    loss_sum: f64,
    correct: usize,
    seen: usize,
    l_rec_sum: f64,
    batches_done: usize,
    // Per-step JSONL telemetry; disabled (one branch per step) by default.
    telemetry: EventLog,
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
        let task_opt = Sgd::new(
            config.hyper.task_lr,
            config.hyper.momentum,
            config.hyper.weight_decay,
        );
        let eval = match config.threads {
            Some(n) => Evaluator::with_threads(n),
            None => Evaluator::new(),
        };
        let data_seed = config.data_seed;
        Ok(Self {
            model,
            config,
            task_opt,
            snapshot: StateSnapshot::new(),
            replicas: Vec::new(),
            ae_ctxs: Vec::new(),
            ctx: RunCtx::train(),
            eval,
            epoch: 0,
            step: 0,
            data_seed,
            leaves: Vec::new(),
            sample_loss: Vec::new(),
            sample_correct: Vec::new(),
            loss_sum: 0.0,
            correct: 0,
            seen: 0,
            l_rec_sum: 0.0,
            batches_done: 0,
            telemetry: EventLog::disabled(),
        })
    }

    /// Streams per-step and per-epoch telemetry (`train.step` /
    /// `train.epoch` JSONL events) into `sink`. Telemetry is read-only —
    /// it observes losses, gradient norms and mask statistics the step
    /// already computed — so enabling it never changes trained weights
    /// (asserted bitwise in `tests/telemetry.rs`).
    pub fn set_telemetry_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry = EventLog::new(sink);
    }

    /// Disables telemetry (the default), restoring the one-branch-per-step
    /// off path.
    pub fn clear_telemetry(&mut self) {
        self.telemetry = EventLog::disabled();
    }

    /// The trainer's event log (e.g. to flush the sink mid-run).
    pub fn telemetry_mut(&mut self) -> &mut EventLog {
        &mut self.telemetry
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
        if let Some(state) = checkpoint::load_trainer(&mut t.model, blob)? {
            t.task_opt.set_velocities(state.momentum);
            t.config.hyper.prune_schedule = state.schedule;
            t.epoch = state.epoch;
            t.step = state.step;
            t.data_seed = state.data_seed;
        }
        Ok(t)
    }

    /// Serialises the full trainer state — model, SGD momentum, `νprune`
    /// schedule and the epoch/step/data-seed position — as a v2
    /// checkpoint blob for [`DpTrainer::resume`].
    pub fn checkpoint(&self) -> Bytes {
        checkpoint::save_trainer(
            &self.model,
            &TrainerState {
                momentum: self.task_opt.velocities().to_vec(),
                schedule: self.config.hyper.prune_schedule,
                epoch: self.epoch,
                step: self.step,
                data_seed: self.data_seed,
            },
        )
    }

    /// The model being trained.
    pub fn model(&self) -> &CnnModel {
        &self.model
    }

    /// Mutable access to the model (e.g. for deployment after training).
    pub fn model_mut(&mut self) -> &mut CnnModel {
        &mut self.model
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> CnnModel {
        self.model
    }

    /// Current epoch (0-based; the epoch in progress).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Step within the current epoch (batches already consumed).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The worker count the next step will use for a batch of
    /// `batch_size` samples (before clamping to the batch's actual
    /// length).
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.config.threads, "ALF_DP_THREADS")
    }

    /// Runs `epochs` additional epochs, returning the statistics for the
    /// epochs run in *this* call.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn run(&mut self, data: &Dataset, epochs: usize) -> Result<TrainReport> {
        let mut report = TrainReport {
            model_name: self.model.name().to_string(),
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
        self.advance_step_with(data, &mut LocalReducer)
            .map_err(ReduceError::into_shape)
    }

    /// [`DpTrainer::advance_step`] with an explicit reduction backend.
    ///
    /// The reducer decides which contiguous batch slice this participant
    /// computes ([`Reducer::partition`]) and performs the all-reduce
    /// ([`Reducer::reduce`]); everything downstream — batch-mean
    /// scaling, gradient clip, optimizer step, the autoencoder player,
    /// epoch statistics — replays identically on every participant from
    /// the reduced result, which is what keeps distributed ranks in
    /// bitwise lockstep (see `alf-dist`).
    ///
    /// # Errors
    ///
    /// [`ReduceError::Shape`] for model/data failures (the
    /// [`DpTrainer::advance_step`] contract), [`ReduceError::Transport`]
    /// when a distributed backend fails.
    pub fn advance_step_with(
        &mut self,
        data: &Dataset,
        reducer: &mut dyn Reducer,
    ) -> std::result::Result<Option<EpochStats>, ReduceError> {
        let n = data.len_of(Split::Train);
        if n == 0 {
            return Err(ReduceError::Shape(ShapeError::new(
                "dp_train",
                "empty training split",
            )));
        }
        let batch_size = self.config.hyper.batch_size;
        let plan = EpochPlan::new(n, batch_size, self.data_seed, self.epoch);
        if self.step as usize >= plan.num_batches() {
            return Err(ReduceError::Shape(ShapeError::new(
                "dp_train",
                format!(
                    "step {} out of range: epoch has {} batches (resumed against different data?)",
                    self.step,
                    plan.num_batches()
                ),
            )));
        }
        if self.step == 0 {
            self.loss_sum = 0.0;
            self.correct = 0;
            self.seen = 0;
            self.l_rec_sum = 0.0;
            self.batches_done = 0;
        }

        let batch = plan.batch(self.step as usize).to_vec();
        let b = batch.len();
        // This participant's contiguous slice of the batch. The local
        // backend owns all of it; a distributed rank owns its shard and
        // leaves the rest to its peers.
        let part = reducer.partition(b);
        if part.start > part.end || part.end > b {
            return Err(ReduceError::Shape(ShapeError::new(
                "dp_train",
                format!("reducer partition {part:?} outside batch 0..{b}"),
            )));
        }
        let plen = part.len();

        // --- BN statistics: master pilot forward ---
        // Workers normalise with *frozen* running statistics (batch
        // statistics over a one-sample shard would tie the run to the
        // shard layout), so the master refreshes those statistics first
        // with one train-mode forward over the clean batch — the same
        // EMA tracking ordinary BN training performs, computed at batch
        // granularity on a single thread. A pure function of the
        // trajectory position, never of the worker count.
        let (pilot, _labels) = data.gather(Split::Train, &batch)?;
        self.model.forward(&pilot, &mut self.ctx)?;

        // --- task player: shard this participant's slice over workers ---
        let threads = resolve_threads(self.config.threads, "ALF_DP_THREADS")
            .min(plen.max(1))
            .max(1);
        self.sync_replicas(threads);
        self.leaves.resize_with(plen, Vec::new);
        self.sample_loss.resize(plen, 0.0);
        self.sample_correct.resize(plen, 0);
        if plen > 0 {
            let (epoch, step, data_seed) = (self.epoch, self.step, self.data_seed);
            let augment = self.config.hyper.augment;
            let batch = &batch[..];
            let part_start = part.start;
            let leaf_chunks = split_shards(&mut self.leaves[..plen], threads);
            let loss_chunks = split_shards(&mut self.sample_loss[..plen], threads);
            let correct_chunks = split_shards(&mut self.sample_correct[..plen], threads);
            let replicas = &mut self.replicas[..threads];
            crossbeam::thread::scope(|scope| {
                let mut handles = Vec::new();
                for (s, (((leaves, losses), corrects), slot)) in leaf_chunks
                    .into_iter()
                    .zip(loss_chunks)
                    .zip(correct_chunks)
                    .zip(replicas.iter_mut())
                    .enumerate()
                {
                    let range = shard_range(plen, s, threads);
                    handles.push(scope.spawn(move |_| -> Result<()> {
                        let (replica, ctx) = slot;
                        for (local, p) in range.enumerate() {
                            // Global batch slot: augmentation draws and
                            // leaf positions are keyed by it, never by
                            // the shard or partition layout.
                            let j = part_start + p;
                            // Per-sample granularity: no float accumulation
                            // crosses a shard boundary, so the leaves are
                            // independent of the shard layout.
                            let (mut images, labels) = data.gather(Split::Train, &[batch[j]])?;
                            if let Some(policy) = &augment {
                                let mut rng = sample_rng(data_seed, epoch, step, j as u64);
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
                handles
                    .into_iter()
                    .map(|h| h.join().expect("dp worker panicked"))
                    .collect::<Result<Vec<_>>>()
            })
            .expect("dp scope panicked")?;
        }

        // Reduce the per-sample leaves in the fixed tree order, then scale
        // to the batch mean. Both are pure functions of the batch size.
        let expected = total_param_len(&self.model);
        let reduced = {
            let step_ctx = StepContext {
                model: &self.model,
                epoch: self.epoch,
                step: self.step,
                batch: b,
            };
            reducer.reduce(
                &mut self.leaves[..plen],
                &self.sample_loss[..plen],
                &self.sample_correct[..plen],
                &step_ctx,
            )?
        };
        let mut grad = reduced.grad;
        if grad.len() != expected {
            return Err(ReduceError::Shape(ShapeError::new(
                "dp_train",
                format!(
                    "reduced gradient has {} values, model has {expected}",
                    grad.len()
                ),
            )));
        }
        let inv_b = 1.0 / b as f32;
        for g in grad.iter_mut() {
            *g *= inv_b;
        }
        let grad_norm = if self.config.max_grad_norm.is_some() || self.telemetry.is_enabled() {
            // Deterministic left fold over the reduced gradient; the clip
            // depends only on the reduced values, never on shard layout.
            // (With clipping off this runs only for telemetry, and is
            // read-only either way.)
            let mut sq = 0.0f32;
            for &g in grad.iter() {
                sq += g * g;
            }
            sq.sqrt()
        } else {
            0.0
        };
        let mut post_clip_norm = grad_norm;
        if let Some(max_norm) = self.config.max_grad_norm {
            if grad_norm > max_norm {
                let scale = max_norm / grad_norm;
                for g in grad.iter_mut() {
                    *g *= scale;
                }
                post_clip_norm = max_norm;
            }
        }
        let lr = self
            .config
            .hyper
            .lr_schedule
            .lr_at(self.config.hyper.task_lr, self.epoch as usize);
        self.task_opt.set_lr(lr);
        self.task_opt.step_layer_from_flat(&mut self.model, &grad);

        // --- autoencoder player: one block per worker ---
        let ae_stats = self.ae_player_step(threads)?;

        // Loss statistics in fixed slot order (f64 so the accumulation is
        // well-conditioned; still a deterministic left fold). The reducer
        // already folded all b slots — for the local backend this is the
        // same left fold as always; a distributed backend folds each
        // rank's slice in rank order, which is slot order.
        let batch_loss = reduced.loss_sum;
        self.loss_sum += batch_loss / b as f64;
        self.correct += reduced.correct;
        self.seen += b;
        self.batches_done += 1;
        if let Some(mut ev) = self.telemetry.event("train.step") {
            ev.field_u64("epoch", self.epoch);
            ev.field_u64("step", self.step);
            ev.field_f32("task_loss", (batch_loss / b as f64) as f32);
            ev.field_f32("lr", lr);
            ev.field_f32("grad_norm", grad_norm);
            ev.field_f32("grad_norm_clipped", post_clip_norm);
            ev.field_u64("workers", threads as u64);
            ev.field_f32s("l_rec", ae_stats.iter().map(|s| s.l_rec));
            ev.field_f32s("l_prune", ae_stats.iter().map(|s| s.l_prune));
            ev.field_f32s("nu_prune", ae_stats.iter().map(|s| s.nu_prune));
            ev.field_f32s(
                "mask_occupancy",
                ae_stats.iter().map(|s| 1.0 - s.zero_fraction),
            );
        }
        self.step += 1;

        if self.step as usize == plan.num_batches() {
            let test_accuracy = self
                .eval
                .evaluate(&self.model, data, Split::Test, batch_size)?;
            let stats = EpochStats {
                epoch: self.epoch as usize,
                train_loss: (self.loss_sum / self.batches_done.max(1) as f64) as f32,
                train_accuracy: self.correct as f32 / self.seen.max(1) as f32,
                test_accuracy,
                remaining_filters: self.model.remaining_filter_fraction(),
                mean_l_rec: (self.l_rec_sum / self.batches_done.max(1) as f64) as f32,
            };
            if let Some(mut ev) = self.telemetry.event("train.epoch") {
                ev.field_u64("epoch", stats.epoch as u64);
                ev.field_f32("train_loss", stats.train_loss);
                ev.field_f32("train_accuracy", stats.train_accuracy);
                ev.field_f32("test_accuracy", stats.test_accuracy);
                ev.field_f32("remaining_filters", stats.remaining_filters);
                ev.field_f32("mean_l_rec", stats.mean_l_rec);
            }
            self.telemetry.flush();
            self.epoch += 1;
            self.step = 0;
            return Ok(Some(stats));
        }
        Ok(None)
    }

    /// One move of the autoencoder player on every ALF block, blocks
    /// distributed block-per-worker. Blocks are mutually independent, so
    /// parallelising across them cannot change any block's arithmetic;
    /// reconstruction losses are folded in block order on the master.
    ///
    /// Returns each block's final [`AeStats`] in block order (empty when
    /// the model has no ALF blocks) — read-only observations for the
    /// telemetry stream.
    fn ae_player_step(&mut self, threads: usize) -> Result<Vec<AeStats>> {
        let ae_lr = self.config.hyper.ae_lr;
        let schedule = self.config.hyper.prune_schedule;
        let ae_steps = self.config.hyper.ae_steps_per_batch.max(1);
        let blocks = self.model.alf_blocks_mut();
        let n_blocks = blocks.len();
        if n_blocks == 0 {
            return Ok(Vec::new());
        }
        let ae_threads = threads.min(n_blocks).max(1);
        while self.ae_ctxs.len() < ae_threads {
            self.ae_ctxs.push(RunCtx::train());
        }
        // Chunk the blocks by shard, back to front so split_off leaves the
        // earlier shards behind.
        let mut chunks = Vec::with_capacity(ae_threads);
        {
            let mut rest = blocks;
            for s in (0..ae_threads).rev() {
                let r = shard_range(n_blocks, s, ae_threads);
                chunks.push(rest.split_off(r.start));
            }
            chunks.reverse();
        }
        let ctxs = &mut self.ae_ctxs[..ae_threads];
        let stats = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (chunk, ctx) in chunks.into_iter().zip(ctxs.iter_mut()) {
                handles.push(scope.spawn(move |_| -> Result<Vec<AeStats>> {
                    let mut out = Vec::with_capacity(chunk.len());
                    for block in chunk {
                        let mut last = None;
                        for _ in 0..ae_steps {
                            last = Some(block.autoencoder_step_in(ae_lr, &schedule, ctx)?);
                        }
                        out.push(last.expect("ae_steps >= 1"));
                    }
                    Ok(out)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("ae worker panicked"))
                .collect::<Result<Vec<_>>>()
        })
        .expect("ae scope panicked")?;
        // Fold the losses in block order (chunks are consecutive block
        // ranges), bitwise identical to the pre-telemetry scalar fold.
        let mut block_l_rec = 0.0f64;
        for chunk_stats in &stats {
            for s in chunk_stats {
                block_l_rec += f64::from(s.l_rec);
            }
        }
        self.l_rec_sum += block_l_rec / n_blocks as f64;
        Ok(stats.into_iter().flatten().collect())
    }

    /// Brings `threads` worker replicas up to date with the master:
    /// in-place state copy where the structure matches, full re-clone
    /// otherwise (the [`StateSnapshot`] pattern shared with `Evaluator`
    /// and `alf-serve`).
    fn sync_replicas(&mut self, threads: usize) {
        self.snapshot.capture(&self.model);
        self.replicas.truncate(threads);
        for (replica, _) in &mut self.replicas {
            if !self.snapshot.restore(replica) {
                *replica = self.model.clone();
            }
        }
        while self.replicas.len() < threads {
            // Workers train with frozen normalisation statistics: batch
            // stats over a single-sample shard would tie the run to the
            // shard layout, while the running stats (refreshed by
            // `calibrate_bn`) are part of the synced weights.
            let mut ctx = RunCtx::train();
            ctx.set_freeze_norm(true);
            self.replicas.push((self.model.clone(), ctx));
        }
    }

    /// Flat copy of the model's full persistent state, for bitwise
    /// comparisons in tests and the determinism gate of `train_bench`.
    pub fn state_vector(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.model
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
