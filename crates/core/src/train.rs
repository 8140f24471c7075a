//! The two-player training scheme (paper §III-B).
//!
//! Each optimisation step plays one round of the two-player game:
//!
//! 1. **Task player** — forward the CNN (ALF blocks convolve with the
//!    current code `Wcode`), compute `Ltask = LCE + νwd·Lreg`, backprop,
//!    and update `W` (via the STE), `Wexp`, BN and classifier parameters
//!    with SGD + momentum. Weight decay implements `νwd·Lreg` and is
//!    *skipped* for `W` (the paper regularises neither `W` nor `Wcode`).
//! 2. **Autoencoder player** — every ALF block runs one dedicated SGD step
//!    on `Lae = Lrec + νprune·Lprune`, updating `Wenc`, `Wdec` and `M`.

use alf_data::{Dataset, Split};
use alf_nn::layer::Layer;
use alf_nn::loss::{correct_count, softmax_cross_entropy};
use alf_nn::optim::{LrSchedule, Sgd};
use alf_nn::{ProfileReport, RunCtx};
use alf_obs::events::{EventLog, TelemetrySink};
use alf_obs::runtime::resolve_threads;
use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::autoencoder::AeStats;
use crate::block::AlfBlock;
use crate::checkpoint::TrainerState;
use crate::model::CnnModel;
use crate::schedule::PruneSchedule;
use crate::Result;

/// Hyper-parameters of the two-player game.
#[derive(Debug, Clone, PartialEq)]
pub struct AlfHyper {
    /// Task-player learning rate.
    pub task_lr: f32,
    /// Task-player momentum.
    pub momentum: f32,
    /// Weight-decay factor `νwd` (L2, applied to decaying params only).
    pub weight_decay: f32,
    /// Task learning-rate schedule.
    pub lr_schedule: LrSchedule,
    /// Autoencoder-player learning rate `lrae` (paper trade-off: `1e-3`).
    pub ae_lr: f32,
    /// Pruning-pressure schedule (paper: `m = 8`, `prmax = 0.85`).
    pub prune_schedule: PruneSchedule,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Autoencoder optimisation steps per task step. The paper uses 1 (one
    /// round of the two-player game per batch); shortened smoke schedules
    /// use more to give the autoencoder player the same number of moves it
    /// would get over a full-length training run.
    pub ae_steps_per_batch: usize,
    /// Optional training-time augmentation applied to each batch.
    pub augment: Option<alf_data::Augment>,
}

impl Default for AlfHyper {
    fn default() -> Self {
        Self {
            task_lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_schedule: LrSchedule::Step {
                every: 40,
                gamma: 0.1,
            },
            ae_lr: 1e-3,
            prune_schedule: PruneSchedule::paper_default(),
            batch_size: 32,
            ae_steps_per_batch: 1,
            augment: None,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean task loss over the epoch.
    pub train_loss: f32,
    /// Training accuracy over the epoch (running, on training batches).
    pub train_accuracy: f32,
    /// Held-out accuracy after the epoch.
    pub test_accuracy: f32,
    /// Fraction of code filters still active (1.0 when no ALF blocks).
    pub remaining_filters: f32,
    /// Mean autoencoder reconstruction loss over the epoch (0 when no ALF
    /// blocks).
    pub mean_l_rec: f32,
}

/// Full training trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Name of the trained model.
    pub model_name: String,
    /// Per-epoch statistics, in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Test accuracy after the last epoch (0.0 for an empty report).
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.test_accuracy)
    }

    /// Remaining-filter fraction after the last epoch.
    pub fn final_remaining_filters(&self) -> f32 {
        self.epochs.last().map_or(1.0, |e| e.remaining_filters)
    }

    /// Best test accuracy across epochs.
    pub fn best_accuracy(&self) -> f32 {
        self.epochs
            .iter()
            .map(|e| e.test_accuracy)
            .fold(0.0, f32::max)
    }

    /// Renders the trace as CSV
    /// (`epoch,train_loss,train_accuracy,test_accuracy,remaining_filters,
    /// mean_l_rec`) for external plotting of Fig. 2c-style curves.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "epoch,train_loss,train_accuracy,test_accuracy,remaining_filters,mean_l_rec\n",
        );
        for e in &self.epochs {
            out.push_str(&format!(
                "{},{:.6},{:.4},{:.4},{:.4},{:.6}\n",
                e.epoch,
                e.train_loss,
                e.train_accuracy,
                e.test_accuracy,
                e.remaining_filters,
                e.mean_l_rec
            ));
        }
        out
    }
}

/// What one move of the task player reports back to the round.
#[derive(Debug, Clone, Copy)]
pub struct TaskOutcome {
    /// Batch-mean task loss.
    pub loss: f64,
    /// Correctly classified samples of the batch.
    pub correct: usize,
    /// Samples in the batch.
    pub seen: usize,
    /// Workers the gradient was computed on; the autoencoder player fans
    /// out over the same number.
    pub workers: usize,
    /// `(before, after)` clipping L2 norm of the reduced gradient. Only a
    /// sharded source has one; it adds `grad_norm`, `grad_norm_clipped`
    /// and `workers` to the `train.step` record.
    pub grad_norm: Option<(f32, f32)>,
}

// Sums over the steps of the epoch in progress. f64 so the accumulation is
// well-conditioned; every sum is a deterministic left fold. Not part of
// `TrainerState`: a resumed epoch's reported statistics cover only the
// post-resume steps (weights are unaffected; see DESIGN.md).
#[derive(Debug, Default)]
struct EpochSums {
    loss: f64,
    l_rec: f64,
    correct: usize,
    seen: usize,
    steps: usize,
}

/// Drives the two-player training of a [`CnnModel`].
///
/// This type owns the round — learning-rate schedule, task player,
/// autoencoder player, optional compaction, statistics, telemetry,
/// held-out evaluation and epoch roll-over — and is itself the paper's
/// whole-batch task-gradient source ([`AlfTrainer::run_epoch`]). `alf-dp`'s
/// `DpTrainer` embeds it and supplies the sharded source through
/// [`AlfTrainer::play_round`].
///
/// Works for vanilla models too: with no ALF blocks the autoencoder player
/// is a no-op and the loop degenerates to ordinary SGD training.
///
/// # Example
///
/// ```no_run
/// use alf_core::models::plain20_alf;
/// use alf_core::{AlfBlockConfig, AlfHyper, AlfTrainer};
/// use alf_data::SynthVision;
///
/// # fn main() -> alf_core::Result<()> {
/// let data = SynthVision::cifar_like(0).with_train_size(256).build()?;
/// let model = plain20_alf(10, 8, AlfBlockConfig::paper_default(), 7)?;
/// let mut trainer = AlfTrainer::new(model, AlfHyper::default(), 7)?;
/// let report = trainer.run(&data, 3)?;
/// println!("acc {:.2}, filters {:.0}%",
///          report.final_accuracy(),
///          100.0 * report.final_remaining_filters());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AlfTrainer {
    model: CnnModel,
    hyper: AlfHyper,
    task_opt: Sgd,
    rng: Rng,
    // Trajectory position: the epoch in progress and the steps played in it.
    epoch: u64,
    step: u64,
    sums: EpochSums,
    // One execution context for the whole run: the arena reaches its
    // steady state during the first batch and every later step reuses it.
    ctx: RunCtx,
    // One more context per worker when the autoencoder player fans out.
    ae_ctxs: Vec<RunCtx>,
    eval: Evaluator,
    // Per-step JSONL telemetry; disabled (one branch per step) by default.
    telemetry: EventLog,
    // Every block's last autoencoder stats of the step, in block order.
    ae_stats: Vec<AeStats>,
    // Occupancy threshold below which blocks physically compact after the
    // autoencoder step (None = never; see `set_compact_below`).
    compact_below: Option<f32>,
}

impl AlfTrainer {
    /// Creates a trainer over a model.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid hyper-parameters; kept fallible for
    /// forward compatibility with validated configs.
    pub fn new(model: CnnModel, hyper: AlfHyper, seed: u64) -> Result<Self> {
        let task_opt = Sgd::new(hyper.task_lr, hyper.momentum, hyper.weight_decay);
        Ok(Self {
            model,
            hyper,
            task_opt,
            rng: Rng::new(seed ^ 0xa1f0_0000),
            epoch: 0,
            step: 0,
            sums: EpochSums::default(),
            ctx: RunCtx::train(),
            ae_ctxs: Vec::new(),
            eval: Evaluator::new(),
            telemetry: EventLog::disabled(),
            ae_stats: Vec::new(),
            compact_below: None,
        })
    }

    /// Pins the trainer's internal per-epoch evaluator to `threads`
    /// workers (clamped to at least 1), overriding `ALF_EVAL_THREADS` and
    /// the host default. Campaign schedulers use this to keep a job's
    /// total worker fan-out inside its thread lease when several trainings
    /// run concurrently; a thread count never changes results (all
    /// threaded paths are bitwise deterministic).
    pub fn set_eval_threads(&mut self, threads: usize) {
        self.eval = Evaluator::with_threads(threads);
    }

    /// Enables (or disables, with `None`) mid-training physical compaction:
    /// after each autoencoder step, any ALF block whose live occupancy
    /// fell strictly below `occupancy` is shrunk in place
    /// ([`AlfBlock::compact_if_below`](crate::AlfBlock::compact_if_below)),
    /// so downstream GEMMs lose the dead dimensions for real. Momentum is
    /// realigned automatically: slots whose parameter shapes changed
    /// restart, all others keep their velocity. Off by default — it is a
    /// performance feature, deliberately *not* an [`AlfHyper`] field, since
    /// it never changes which channels are live.
    pub fn set_compact_below(&mut self, occupancy: Option<f32>) {
        self.compact_below = occupancy;
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

    /// Turns per-layer profiling on or off. While on, every training step
    /// records per-layer wall time, FLOPs and bytes into the trainer's
    /// [`RunCtx`]; read the result with [`AlfTrainer::profile_report`].
    pub fn set_profile(&mut self, on: bool) {
        if on {
            self.ctx.enable_profiler();
        } else {
            self.ctx.take_profiler();
        }
    }

    /// Whether per-layer profiling is currently enabled.
    pub fn profiling(&self) -> bool {
        self.ctx.profiling()
    }

    /// Snapshot of the per-layer profile accumulated so far (`None` unless
    /// [`AlfTrainer::set_profile`] was switched on).
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.ctx.report()
    }

    /// The trainer's execution context (arena + profiler). Exposed so
    /// tests can freeze the arena and benches can inspect its high-water
    /// mark.
    pub fn ctx_mut(&mut self) -> &mut RunCtx {
        &mut self.ctx
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

    /// The hyper-parameters of the game.
    pub fn hyper(&self) -> &AlfHyper {
        &self.hyper
    }

    /// Current epoch (0-based; the epoch in progress).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Step within the current epoch (batches already consumed).
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The non-model half of a v2 checkpoint: momentum, `νprune` schedule
    /// and trajectory position. `data_seed` belongs to the source that
    /// orders the data, so the caller supplies it.
    pub fn trainer_state(&self, data_seed: u64) -> TrainerState {
        TrainerState {
            momentum: self.task_opt.velocities().to_vec(),
            schedule: self.hyper.prune_schedule,
            epoch: self.epoch,
            step: self.step,
            data_seed,
        }
    }

    /// Restores what [`AlfTrainer::trainer_state`] captured (the model
    /// itself is restored by `checkpoint::load_trainer`).
    pub fn restore_trainer_state(&mut self, state: TrainerState) {
        self.task_opt.set_velocities(state.momentum);
        self.hyper.prune_schedule = state.schedule;
        self.epoch = state.epoch;
        self.step = state.step;
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

    /// Runs a single epoch (all training batches + one evaluation) with
    /// the whole-batch task-gradient source: shuffled [`Dataset::batches`]
    /// order, one batch-statistics forward/backward over the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn run_epoch(&mut self, data: &Dataset) -> Result<EpochStats> {
        let augment = self.hyper.augment;
        let mut shuffle_rng = self.rng.split();
        // Only consume an RNG split when augmentation is on, so enabling it
        // is the sole thing that changes the training trajectory.
        let mut augment_rng = augment.map(|_| self.rng.split());
        for batch in data.batches(Split::Train, self.hyper.batch_size, Some(&mut shuffle_rng)) {
            let (mut images, labels) = batch?;
            if let (Some(policy), Some(rng)) = (&augment, augment_rng.as_mut()) {
                policy.apply(&mut images, rng)?;
            }
            self.play_round(|model, opt, ctx| {
                model.zero_grads();
                let logits = model.forward(&images, ctx)?;
                let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                let correct = correct_count(&logits, &labels)?;
                model.backward(&grad, ctx)?;
                opt.step_layer(model);
                Ok::<_, ShapeError>(TaskOutcome {
                    loss: f64::from(loss),
                    correct,
                    seen: labels.len(),
                    workers: 1,
                    grad_norm: None,
                })
            })?;
        }
        self.finish_epoch(data)
    }

    /// Plays one round of the two-player game on one batch: sets the
    /// epoch's learning rate, lets `task` make the task player's move —
    /// compute the batch gradient however the source does, then step the
    /// optimizer on the model, with the round's train-mode context at hand
    /// — then moves every block's autoencoder player, compacts if asked
    /// to, and records the step.
    ///
    /// # Errors
    ///
    /// Whatever `task` fails with, and shape errors from the autoencoder
    /// step or compaction.
    pub fn play_round<E: From<ShapeError>>(
        &mut self,
        task: impl FnOnce(&mut CnnModel, &mut Sgd, &mut RunCtx) -> std::result::Result<TaskOutcome, E>,
    ) -> std::result::Result<(), E> {
        let lr = self
            .hyper
            .lr_schedule
            .lr_at(self.hyper.task_lr, self.epoch as usize);
        self.task_opt.set_lr(lr);
        let out = task(&mut self.model, &mut self.task_opt, &mut self.ctx)?;
        self.autoencoder_player(out.workers)?;
        if let Some(occ) = self.compact_below {
            let compacted = self.model.compact_blocks_below(occ)?;
            if compacted > 0 {
                // Expansion / inter-BN parameter shapes changed:
                // momentum restarts for exactly those slots.
                let reset = self.task_opt.realign(&mut self.model);
                if let Some(mut ev) = self.telemetry.event("train.compact") {
                    ev.field_u64("epoch", self.epoch);
                    ev.field_u64("step", self.step);
                    ev.field_u64("blocks_compacted", compacted as u64);
                    ev.field_u64("momentum_slots_reset", reset as u64);
                    ev.field_f32("remaining_filters", self.model.remaining_filter_fraction());
                }
            }
        }
        if let Some(mut ev) = self.telemetry.event("train.step") {
            ev.field_u64("epoch", self.epoch);
            ev.field_u64("step", self.step);
            ev.field_f32("task_loss", out.loss as f32);
            ev.field_f32("lr", lr);
            if let Some((norm, clipped)) = out.grad_norm {
                ev.field_f32("grad_norm", norm);
                ev.field_f32("grad_norm_clipped", clipped);
                ev.field_u64("workers", out.workers as u64);
            }
            ev.field_f32s("l_rec", self.ae_stats.iter().map(|s| s.l_rec));
            ev.field_f32s("l_prune", self.ae_stats.iter().map(|s| s.l_prune));
            ev.field_f32s("nu_prune", self.ae_stats.iter().map(|s| s.nu_prune));
            ev.field_f32s(
                "mask_occupancy",
                self.ae_stats.iter().map(|s| 1.0 - s.zero_fraction),
            );
        }
        self.sums.loss += out.loss;
        self.sums.correct += out.correct;
        self.sums.seen += out.seen;
        self.sums.steps += 1;
        self.step += 1;
        Ok(())
    }

    /// One move of the autoencoder player on every ALF block: inline on
    /// the round's context at one worker, block-per-worker above. Blocks
    /// are mutually independent, so the fan-out cannot change any block's
    /// arithmetic; reconstruction losses are folded in block order.
    fn autoencoder_player(&mut self, workers: usize) -> Result<()> {
        self.ae_stats.clear();
        let mut blocks = self.model.alf_blocks_mut();
        let n_blocks = blocks.len();
        if n_blocks == 0 {
            return Ok(());
        }
        let workers = workers.clamp(1, n_blocks);
        if workers == 1 {
            play_blocks(&self.hyper, &mut blocks, &mut self.ctx, &mut self.ae_stats)?;
        } else {
            if self.ae_ctxs.len() < workers {
                self.ae_ctxs.resize_with(workers, RunCtx::train);
            }
            let hyper = &self.hyper;
            let per_chunk = std::thread::scope(|scope| {
                let handles: Vec<_> = blocks
                    .chunks_mut(n_blocks.div_ceil(workers))
                    .zip(&mut self.ae_ctxs)
                    .map(|(chunk, ctx)| {
                        scope.spawn(move || -> Result<Vec<AeStats>> {
                            let mut out = Vec::with_capacity(chunk.len());
                            play_blocks(hyper, chunk, ctx, &mut out)?;
                            Ok(out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("autoencoder worker panicked"))
                    .collect::<Result<Vec<_>>>()
            })?;
            self.ae_stats.extend(per_chunk.into_iter().flatten());
        }
        let l_rec = self
            .ae_stats
            .iter()
            .fold(0.0f64, |sum, s| sum + f64::from(s.l_rec));
        self.sums.l_rec += l_rec / n_blocks as f64;
        Ok(())
    }

    /// Closes the epoch in progress: held-out evaluation, the epoch's
    /// statistics and `train.epoch` record, then roll-over to step 0 of
    /// the next epoch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the evaluation.
    pub fn finish_epoch(&mut self, data: &Dataset) -> Result<EpochStats> {
        let test_accuracy =
            self.eval
                .evaluate(&self.model, data, Split::Test, self.hyper.batch_size)?;
        let sums = std::mem::take(&mut self.sums);
        let stats = EpochStats {
            epoch: self.epoch as usize,
            train_loss: (sums.loss / sums.steps.max(1) as f64) as f32,
            train_accuracy: sums.correct as f32 / sums.seen.max(1) as f32,
            test_accuracy,
            remaining_filters: self.model.remaining_filter_fraction(),
            mean_l_rec: (sums.l_rec / sums.steps.max(1) as f64) as f32,
        };
        if let Some(mut ev) = self.telemetry.event("train.epoch") {
            ev.field_u64("epoch", self.epoch);
            ev.field_f32("train_loss", stats.train_loss);
            ev.field_f32("train_accuracy", stats.train_accuracy);
            ev.field_f32("test_accuracy", stats.test_accuracy);
            ev.field_f32("remaining_filters", stats.remaining_filters);
            ev.field_f32("mean_l_rec", stats.mean_l_rec);
        }
        self.telemetry.flush();
        self.epoch += 1;
        self.step = 0;
        Ok(stats)
    }
}

/// Moves the autoencoder player of each of `blocks` in turn
/// (`ae_steps_per_batch` steps each), pushing every block's last stats.
fn play_blocks(
    hyper: &AlfHyper,
    blocks: &mut [&mut AlfBlock],
    ctx: &mut RunCtx,
    out: &mut Vec<AeStats>,
) -> Result<()> {
    for block in blocks {
        let mut last = None;
        for _ in 0..hyper.ae_steps_per_batch.max(1) {
            last = Some(block.autoencoder_step_in(hyper.ae_lr, &hyper.prune_schedule, ctx)?);
        }
        out.push(last.expect("at least one autoencoder step"));
    }
    Ok(())
}

/// A flattened copy of a model's state tensors, used to refresh long-lived
/// model replicas in place instead of re-cloning them.
///
/// This is the weight-sync half of the replica pattern shared by
/// [`Evaluator`], `alf-serve`'s worker pool and `alf-dp`'s training
/// workers: capture the source model once per round through the read-only
/// visitor, then copy the flat buffer into each replica. Capture reuses
/// the snapshot's allocation, so the steady-state cost is one memcpy per
/// replica.
#[derive(Debug, Default, Clone)]
pub struct StateSnapshot {
    state: Vec<f32>,
    shapes: Vec<Vec<usize>>,
}

impl StateSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-captures `model`'s state tensors, reusing the buffers.
    pub fn capture(&mut self, model: &CnnModel) {
        self.state.clear();
        self.shapes.clear();
        let (state, shapes) = (&mut self.state, &mut self.shapes);
        model.visit_state_ref(&mut |t: &Tensor| {
            state.extend_from_slice(t.data());
            shapes.push(t.dims().to_vec());
        });
    }

    /// Copies the snapshot into `model` in place. Returns `false` (leaving
    /// the model partially updated) when the snapshot does not match the
    /// model's structure — the caller re-clones in that case.
    pub fn restore(&self, model: &mut CnnModel) -> bool {
        let mut offset = 0usize;
        let mut idx = 0usize;
        let mut ok = true;
        model.visit_state(&mut |t: &mut Tensor| {
            let len = t.len();
            match self.shapes.get(idx) {
                Some(dims) if t.dims() == &dims[..] && offset + len <= self.state.len() => {
                    t.data_mut()
                        .copy_from_slice(&self.state[offset..offset + len]);
                    offset += len;
                }
                _ => ok = false,
            }
            idx += 1;
        });
        ok && idx == self.shapes.len() && offset == self.state.len()
    }

    /// Brings exactly `n` long-lived `(replica, context)` pairs up to date
    /// with `model`: in-place state copy where the structure matches, full
    /// re-clone otherwise (e.g. after deployment surgery or compaction).
    /// Missing replicas are cloned with a context minted by `ctx`.
    pub fn sync_replicas(
        &mut self,
        model: &CnnModel,
        replicas: &mut Vec<(CnnModel, RunCtx)>,
        n: usize,
        ctx: impl Fn() -> RunCtx,
    ) {
        self.capture(model);
        replicas.truncate(n);
        for (replica, _) in replicas.iter_mut() {
            if !self.restore(replica) {
                *replica = model.clone();
            }
        }
        while replicas.len() < n {
            replicas.push((model.clone(), ctx()));
        }
    }
}

/// Parallel evaluator with persistent per-thread model replicas.
///
/// The seed's `evaluate` cloned the full model into every spawned thread on
/// every call — an epoch loop paid `threads × params` heap traffic per
/// evaluation. `Evaluator` clones each replica **once**, then refreshes it
/// before each run by copying the source model's state tensors into the
/// replica in place (re-cloning only if the architecture changed, e.g.
/// after deployment surgery). Each replica keeps its own [`RunCtx`], so
/// the per-thread arenas also stay warm across evaluations.
///
/// The worker count follows [`resolve_threads`]: an explicit
/// [`Evaluator::with_threads`] value, else `ALF_EVAL_THREADS`, else the
/// host's available parallelism. Accuracy never depends on the choice.
#[derive(Debug, Default)]
pub struct Evaluator {
    slots: Vec<(CnnModel, RunCtx)>,
    snapshot: StateSnapshot,
    threads: Option<usize>,
}

impl Evaluator {
    /// Creates an evaluator with no replicas; they are built lazily on the
    /// first [`Evaluator::evaluate`] call.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an evaluator pinned to `threads` workers (clamped to at
    /// least 1), overriding both `ALF_EVAL_THREADS` and the host default.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
            ..Self::default()
        }
    }

    /// Number of live per-thread replicas (0 before the first evaluation).
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// Evaluates classification accuracy of `model` on a dataset split,
    /// fanning batches out over scoped threads.
    ///
    /// The source model is only read (through [`Layer::visit_state_ref`]),
    /// so callers holding a shared borrow — e.g. a serving loop evaluating
    /// the live model — can evaluate without cloning.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model or data pipeline.
    pub fn evaluate(
        &mut self,
        model: &CnnModel,
        data: &Dataset,
        split: Split,
        batch_size: usize,
    ) -> Result<f32> {
        let n = data.len_of(split);
        if n == 0 {
            return Ok(0.0);
        }
        let threads = resolve_threads(self.threads, "ALF_EVAL_THREADS")
            .min(n.div_ceil(batch_size.max(1)))
            .max(1);
        self.snapshot
            .sync_replicas(model, &mut self.slots, threads, RunCtx::eval);
        let chunk = n.div_ceil(threads);
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (t, slot) in self.slots.iter_mut().enumerate() {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                if lo >= hi {
                    continue;
                }
                handles.push(scope.spawn(move || -> Result<(usize, usize)> {
                    let (local, ctx) = slot;
                    let mut correct = 0usize;
                    let mut start = lo;
                    while start < hi {
                        let end = (start + batch_size.max(1)).min(hi);
                        let idx: Vec<usize> = (start..end).collect();
                        let (images, labels) = data.gather(split, &idx)?;
                        let logits = local.forward(&images, ctx)?;
                        correct += correct_count(&logits, &labels)?;
                        start = end;
                    }
                    Ok((correct, hi - lo))
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluation thread panicked"))
                .collect::<Result<Vec<_>>>()
        })?;
        let (correct, total) = results
            .into_iter()
            .fold((0usize, 0usize), |(c, t), (dc, dt)| (c + dc, t + dt));
        Ok(correct as f32 / total.max(1) as f32)
    }
}

/// Evaluates classification accuracy of a model on a dataset split.
///
/// Thin compatibility wrapper over [`Evaluator`] for one-shot callers; it
/// pays the per-thread replica clones every call. Loops that evaluate
/// repeatedly should hold an [`Evaluator`] instead.
///
/// # Errors
///
/// Propagates shape errors from the model or data pipeline.
pub fn evaluate(model: &CnnModel, data: &Dataset, split: Split, batch_size: usize) -> Result<f32> {
    Evaluator::new().evaluate(model, data, split, batch_size)
}

/// Trains `model` for `epochs` epochs under a fixed seed and returns the
/// trained model together with its full per-epoch trace.
///
/// This is the shared-baseline reuse hook: every results job that needs
/// "the trained vanilla/ALF reference" goes through this one function with
/// a canonical `(model, hyper, seed)` triple, so a campaign scheduler can
/// train each reference exactly once and hand the `(CnnModel,
/// TrainReport)` pair to all consumers. Training is deterministic for a
/// given triple — two calls produce bitwise-identical weights — which is
/// what makes the artifact cacheable in the first place. `threads` caps
/// the trainer's evaluator fan-out ([`AlfTrainer::set_eval_threads`]);
/// `None` keeps the `ALF_EVAL_THREADS`/host default.
///
/// # Errors
///
/// Propagates shape errors from the model or data pipeline.
pub fn train_seeded(
    model: CnnModel,
    hyper: &AlfHyper,
    seed: u64,
    data: &Dataset,
    epochs: usize,
    threads: Option<usize>,
) -> Result<(CnnModel, TrainReport)> {
    let mut trainer = AlfTrainer::new(model, hyper.clone(), seed)?;
    if let Some(n) = threads {
        trainer.set_eval_threads(n);
    }
    let report = trainer.run(data, epochs)?;
    Ok((trainer.into_model(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::AlfBlockConfig;
    use crate::models::{plain20, plain20_alf};
    use alf_data::SynthVision;

    fn small_data(seed: u64) -> Dataset {
        SynthVision::cifar_like(seed)
            .with_image_size(12)
            .with_max_shift(1)
            .with_num_classes(4)
            .with_train_size(128)
            .with_test_size(64)
            .with_noise(0.05)
            .build()
            .unwrap()
    }

    fn quick_hyper() -> AlfHyper {
        AlfHyper {
            task_lr: 0.05,
            batch_size: 16,
            lr_schedule: alf_nn::LrSchedule::Constant,
            ..AlfHyper::default()
        }
    }

    #[test]
    fn vanilla_training_learns_above_chance() {
        let data = small_data(1);
        let model = plain20(4, 8).unwrap();
        let mut trainer = AlfTrainer::new(model, quick_hyper(), 1).unwrap();
        let report = trainer.run(&data, 10).unwrap();
        assert_eq!(report.epochs.len(), 10);
        // 4 classes ⇒ chance = 25%.
        assert!(
            report.final_accuracy() > 0.4,
            "accuracy {} not above chance",
            report.final_accuracy()
        );
        // Loss should drop.
        assert!(report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss);
    }

    #[test]
    fn alf_training_learns_and_tracks_filters() {
        let data = small_data(2);
        let model = plain20_alf(4, 8, AlfBlockConfig::paper_default(), 3).unwrap();
        let mut trainer = AlfTrainer::new(model, quick_hyper(), 3).unwrap();
        let report = trainer.run(&data, 10).unwrap();
        assert!(
            report.final_accuracy() > 0.35,
            "accuracy {}",
            report.final_accuracy()
        );
        let rf = report.final_remaining_filters();
        assert!((0.0..=1.0).contains(&rf));
        assert!(report.epochs.iter().all(|e| e.mean_l_rec.is_finite()));
    }

    #[test]
    fn prune_pressure_reduces_filters_over_time() {
        let data = small_data(4);
        // A wide clip dead-zone (threshold ≫ lrae·ν/Co) so clipped channels
        // stay clipped, and a large lrae so the mask travels from 1 to 0
        // within the few hundred steps this test can afford.
        let mut cfg = AlfBlockConfig::paper_default();
        cfg.threshold = 5e-2;
        let model = plain20_alf(4, 4, cfg, 5).unwrap();
        let mut hyper = quick_hyper();
        hyper.ae_lr = 2e-2;
        hyper.batch_size = 8;
        let mut trainer = AlfTrainer::new(model, hyper, 5).unwrap();
        let report = trainer.run(&data, 15).unwrap();
        assert!(
            report.final_remaining_filters() < 1.0,
            "no pruning happened: {:?}",
            report.epochs.last()
        );
    }

    #[test]
    fn evaluate_is_deterministic_and_bounded() {
        let data = small_data(6);
        let model = plain20(4, 4).unwrap();
        let a = evaluate(&model, &data, Split::Test, 8).unwrap();
        let b = evaluate(&model, &data, Split::Test, 8).unwrap();
        assert_eq!(a, b);
        assert!((0.0..=1.0).contains(&a));
        // Different batch size must not change the result.
        let c = evaluate(&model, &data, Split::Test, 5).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn evaluator_reuses_replicas_and_matches_wrapper() {
        let data = small_data(7);
        let model = plain20(4, 4).unwrap();
        let mut ev = Evaluator::new();
        let a = ev.evaluate(&model, &data, Split::Test, 8).unwrap();
        let replicas = ev.replicas();
        assert!(replicas > 0);
        // Second run refreshes the same replicas in place.
        let b = ev.evaluate(&model, &data, Split::Test, 8).unwrap();
        assert_eq!(a, b);
        assert_eq!(ev.replicas(), replicas);
        // The compat wrapper agrees.
        let c = evaluate(&model, &data, Split::Test, 8).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn evaluator_thread_count_does_not_change_accuracy() {
        let data = small_data(12);
        let model = plain20(4, 4).unwrap();
        let base = evaluate(&model, &data, Split::Test, 8).unwrap();
        for threads in [1usize, 2, 3, 7] {
            let mut ev = Evaluator::with_threads(threads);
            let acc = ev.evaluate(&model, &data, Split::Test, 8).unwrap();
            assert_eq!(acc, base, "accuracy changed at {threads} threads");
            assert!(ev.replicas() <= threads);
        }
    }

    #[test]
    fn state_snapshot_round_trips_and_rejects_mismatch() {
        let model = plain20(4, 4).unwrap();
        let mut snap = StateSnapshot::new();
        snap.capture(&model);
        // Restore into a differently-seeded same-architecture model.
        let mut other = plain20(4, 4).unwrap();
        assert!(snap.restore(&mut other));
        let mut a = Vec::new();
        model.visit_state_ref(&mut |t: &Tensor| a.extend_from_slice(t.data()));
        let mut b = Vec::new();
        other.visit_state_ref(&mut |t: &Tensor| b.extend_from_slice(t.data()));
        assert_eq!(a, b);
        // A different architecture is refused.
        let mut wide = plain20(4, 8).unwrap();
        assert!(!snap.restore(&mut wide));
    }

    #[test]
    fn profiling_can_be_toggled_and_reports_layers() {
        let data = small_data(8);
        let model = plain20(4, 4).unwrap();
        let mut trainer = AlfTrainer::new(model, quick_hyper(), 9).unwrap();
        assert!(!trainer.profiling());
        assert!(trainer.profile_report().is_none());
        trainer.set_profile(true);
        trainer.run(&data, 1).unwrap();
        let report = trainer.profile_report().expect("profile enabled");
        assert!(!report.layers.is_empty());
        assert!(report.total_ns() > 0);
        trainer.set_profile(false);
        assert!(trainer.profile_report().is_none());
    }

    #[test]
    fn augmented_training_still_learns() {
        let data = small_data(10);
        let mut hyper = quick_hyper();
        hyper.augment = Some(alf_data::Augment {
            hflip_prob: 0.5,
            max_shift: 1,
            noise: 0.02,
        });
        let model = plain20(4, 8).unwrap();
        let mut trainer = AlfTrainer::new(model, hyper, 11).unwrap();
        let report = trainer.run(&data, 10).unwrap();
        assert!(
            report.final_accuracy() > 0.35,
            "accuracy {} under augmentation",
            report.final_accuracy()
        );
    }

    #[test]
    fn report_csv_has_header_and_rows() {
        let report = TrainReport {
            model_name: "m".into(),
            epochs: vec![EpochStats {
                epoch: 0,
                train_loss: 1.0,
                train_accuracy: 0.3,
                test_accuracy: 0.5,
                remaining_filters: 0.9,
                mean_l_rec: 0.1,
            }],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("epoch,"));
        assert!(lines[1].starts_with("0,"));
        assert_eq!(lines[1].split(',').count(), 6);
    }

    #[test]
    fn report_helpers() {
        let report = TrainReport {
            model_name: "m".into(),
            epochs: vec![
                EpochStats {
                    epoch: 0,
                    train_loss: 1.0,
                    train_accuracy: 0.3,
                    test_accuracy: 0.5,
                    remaining_filters: 1.0,
                    mean_l_rec: 0.1,
                },
                EpochStats {
                    epoch: 1,
                    train_loss: 0.5,
                    train_accuracy: 0.6,
                    test_accuracy: 0.4,
                    remaining_filters: 0.7,
                    mean_l_rec: 0.05,
                },
            ],
        };
        assert_eq!(report.final_accuracy(), 0.4);
        assert_eq!(report.best_accuracy(), 0.5);
        assert_eq!(report.final_remaining_filters(), 0.7);
        let empty = TrainReport {
            model_name: "e".into(),
            epochs: vec![],
        };
        assert_eq!(empty.final_accuracy(), 0.0);
        assert_eq!(empty.final_remaining_filters(), 1.0);
    }
}
