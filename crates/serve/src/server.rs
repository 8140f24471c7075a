//! The serving engine: bounded admission queue, work-conserving
//! worker-side batch formation, hot checkpoint swap and graceful drain.
//!
//! Concurrency layout (std primitives only; long-lived workers cannot
//! use scoped threads):
//!
//! * One `Mutex<QueueState>` + `Condvar` carries requests, the drain flag
//!   and the count of workers that hold no batch. Batches form
//!   *pull-side* and nobody ever waits for batch-mates: a worker takes
//!   what is queued *now*, at most its `fair_share` of it, leaves the
//!   rest to the idle siblings and wakes one of them. A lone request on an
//!   idle server therefore costs one forward; full batches form by
//!   themselves whenever every replica is busy and the queue backs up —
//!   the only time a batch buys anything (a batch of 8 costs ≈ 8 batches
//!   of 1 on these models, see DESIGN.md "Queue → batcher").
//! * Hot swap is a versioned blob behind its own mutex: `swap_checkpoint`
//!   validates against a staging replica, then publishes the blob with a
//!   bumped version (`AtomicU64`, release). Workers compare the version
//!   before every batch (acquire) and reload between batches — in-flight
//!   requests always run on a consistent model.
//! * Per-request responses travel through a oneshot `ResponseSlot`
//!   (`Mutex<Option<..>>` + `Condvar`) handed back to the caller as a
//!   [`Pending`]. A queued request is answered at most once, and one
//!   dropped unanswered (a replica that panics mid-batch unwinds its
//!   batch) answers [`ServeError::Internal`], so no [`Pending::wait`]
//!   blocks forever.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use alf_core::checkpoint;
use alf_core::model::CnnModel;
use alf_obs::metrics::{Counter, Gauge, HistogramSpec, MetricsRegistry};
use alf_tensor::Tensor;

use crate::replica::{Prediction, Replica};
use crate::stats::{LatencyHistogram, ServerStats};
use crate::{Result, ServeError};

/// Numeric form the worker replicas execute.
///
/// `F32` serves the model exactly as handed to [`Server::start`]. `Int8`
/// lowers it through `alf_core::deploy::Pipeline` first — batch-norm
/// folding, then symmetric int8 quantization with activation scales
/// calibrated on the carried `NCHW` batch — and serves the fused int8
/// engine. The f32 model is kept alongside for checkpoint validation; a
/// hot swap re-runs the lowering against the same calibration batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Precision {
    /// Full-precision f32 execution (the default).
    #[default]
    F32,
    /// Fused int8 execution, calibrated on the carried `NCHW` batch.
    Int8(Tensor),
}

/// Serving configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads, each owning one model replica.
    pub workers: usize,
    /// Largest micro-batch a worker will take from the queue.
    pub max_batch: usize,
    /// Admission bound: submissions beyond this many queued requests are
    /// rejected with [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Run each replica at `max_batch` and at 1 before serving, so the
    /// arenas reach steady state ahead of the first real request.
    pub prewarm: bool,
    /// Instance name for metric prefixes. Empty (the default) keeps the
    /// historical `serve.*` names; a non-empty name exports
    /// `serve.<name>.*` instead, so multiple servers can share one
    /// [`MetricsRegistry`] (multi-model routing) without their counters
    /// and histograms colliding. Restricted to `[A-Za-z0-9_.-]`.
    pub name: String,
    /// Numeric form the replicas execute ([`Precision::F32`] by default).
    pub precision: Precision,
}

impl ServeConfig {
    /// Defaults for a `[channels, height, width]` input geometry: 2
    /// workers, batches of up to 8, 64-deep queue, prewarm on.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            workers: 2,
            max_batch: 8,
            queue_depth: 64,
            channels,
            height,
            width,
            prewarm: true,
            name: String::new(),
            precision: Precision::F32,
        }
    }

    /// The prefix serving instruments are registered under: `serve.` for
    /// an unnamed server, `serve.<name>.` otherwise.
    pub fn metric_prefix(&self) -> String {
        if self.name.is_empty() {
            "serve.".to_string()
        } else {
            format!("serve.{}.", self.name)
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |what: &str| Err(ServeError::BadRequest(format!("config: {what}")));
        if self.workers == 0 {
            return bad("workers must be >= 1");
        }
        if self.max_batch == 0 {
            return bad("max_batch must be >= 1");
        }
        if self.queue_depth == 0 {
            return bad("queue_depth must be >= 1");
        }
        if self.channels == 0 || self.height == 0 || self.width == 0 {
            return bad("image dims must be non-zero");
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        {
            return bad("name must contain only [A-Za-z0-9_.-]");
        }
        if let Precision::Int8(calib) = &self.precision {
            if calib.dims().len() != 4 || calib.dims()[0] == 0 {
                return bad("int8 calibration batch must be a non-empty NCHW tensor");
            }
        }
        Ok(())
    }
}

#[derive(Debug)]
struct ResponseSlot {
    result: Mutex<Option<Result<Prediction>>>,
    cv: Condvar,
}

impl ResponseSlot {
    /// Stores the answer and wakes the [`Pending::wait`]er. Runs from
    /// `QueuedRequest`'s `Drop` too, so it must not panic: the slot holds
    /// one whole value at every step, which makes a poisoned guard safe
    /// to reuse.
    fn fill(&self, r: Result<Prediction>) {
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        self.cv.notify_all();
    }
}

/// Handle to an admitted request; resolves to the prediction once its
/// batch has been served (or to the batch's error).
#[derive(Debug)]
pub struct Pending {
    slot: Arc<ResponseSlot>,
}

impl Pending {
    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// Returns the serving error of this request's batch, if any.
    pub fn wait(self) -> Result<Prediction> {
        let mut guard = self.slot.result.lock().expect("response slot poisoned");
        loop {
            if let Some(r) = guard.take() {
                return r;
            }
            guard = self.slot.cv.wait(guard).expect("response slot poisoned");
        }
    }
}

#[derive(Debug)]
struct QueuedRequest {
    image: Tensor,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// `None` once answered.
    slot: Option<Arc<ResponseSlot>>,
}

impl QueuedRequest {
    /// A request and the caller's handle on its answer.
    fn new(image: Tensor, deadline: Option<Instant>) -> (Self, Pending) {
        let slot = Arc::new(ResponseSlot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        });
        let request = Self {
            image,
            enqueued: Instant::now(),
            deadline,
            slot: Some(Arc::clone(&slot)),
        };
        (request, Pending { slot })
    }

    fn answer(mut self, r: Result<Prediction>) {
        if let Some(slot) = self.slot.take() {
            slot.fill(r);
        }
    }
}

impl Drop for QueuedRequest {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.fill(Err(ServeError::Internal(
                "request dropped unanswered".to_string(),
            )));
        }
    }
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<QueuedRequest>,
    draining: bool,
    /// Workers holding no batch: waiting on the condvar, or about to look
    /// at the queue. A worker leaves the count when it walks off with a
    /// batch and rejoins it *before* it answers that batch, so a request
    /// submitted in reply to an answer already sees its worker as free.
    idle: usize,
}

/// How many of the `queued` requests a worker may take when `idle` workers
/// (itself included) hold no batch: an even split, rounded up, capped at
/// `max_batch`. With siblings free it leaves them their part instead of
/// serialising it behind its own forward; with every sibling busy it takes
/// all it may, which is how full batches form under load.
fn fair_share(queued: usize, idle: usize, max_batch: usize) -> usize {
    queued.div_ceil(idle).min(max_batch)
}

#[derive(Debug)]
struct SwapState {
    /// Architecture validator: a blob must load here before workers see it.
    staging: CnnModel,
    blob: Arc<Vec<u8>>,
    version: u64,
}

/// The exact batch-size distribution (`batch[n]` = batches of exactly `n`
/// requests) keeps linear buckets behind a short mutex; everything else in
/// [`Shared`] is a lock-free registry instrument.
#[derive(Debug, Default)]
struct Hists {
    batch: Vec<u64>,
    occupancy_sum: u64,
}

#[derive(Debug)]
struct Shared {
    cfg: ServeConfig,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    swap: Mutex<SwapState>,
    swap_version: AtomicU64,
    freeze: AtomicBool,
    /// The registry all serving instruments live in (`serve.*` names);
    /// shared with the caller through [`Server::registry`].
    registry: MetricsRegistry,
    submitted: Counter,
    completed: Counter,
    rejected_overloaded: Counter,
    rejected_shutdown: Counter,
    expired: Counter,
    swaps: Counter,
    batches: Counter,
    queue_len: Gauge,
    latency: LatencyHistogram,
    hists: Mutex<Hists>,
    /// Per-worker cumulative arena allocation-event counters, published
    /// after every batch; tests sum them across a frozen window to assert
    /// the zero-allocation steady state.
    worker_alloc_events: Vec<AtomicU64>,
}

/// A running inference server. See the crate docs for the architecture.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    handles: Mutex<Option<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Validates the configuration, builds one prewarmed replica per
    /// worker from `model`, and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid configuration or a model
    /// that rejects the configured geometry.
    pub fn start(model: &CnnModel, cfg: ServeConfig) -> Result<Self> {
        Self::start_with_registry(model, cfg, MetricsRegistry::new())
    }

    /// Like [`Server::start`], but registers the serving instruments
    /// (`serve.submitted`, `serve.completed`, `serve.rejected_*`,
    /// `serve.expired`, `serve.swaps`, `serve.batches`, `serve.queue_len`,
    /// `serve.latency_ns`) in the caller's `registry`, so one registry
    /// snapshot can cover serving alongside training and profiling
    /// metrics. A non-empty [`ServeConfig::name`] prefixes every
    /// instrument as `serve.<name>.*` instead, letting multiple servers
    /// (one per routed model) share a registry without name collisions.
    ///
    /// # Errors
    ///
    /// Same contract as [`Server::start`].
    pub fn start_with_registry(
        model: &CnnModel,
        cfg: ServeConfig,
        registry: MetricsRegistry,
    ) -> Result<Self> {
        cfg.validate()?;
        let prefix = cfg.metric_prefix();
        let dims = [cfg.channels, cfg.height, cfg.width];
        let mut replicas = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let mut replica = Replica::with_precision(model.clone(), dims, &cfg.precision)?;
            if cfg.prewarm {
                replica.prewarm(cfg.max_batch)?;
            }
            replicas.push(replica);
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                draining: false,
                idle: cfg.workers,
            }),
            queue_cv: Condvar::new(),
            swap: Mutex::new(SwapState {
                staging: model.clone(),
                blob: Arc::new(Vec::new()),
                version: 0,
            }),
            swap_version: AtomicU64::new(0),
            freeze: AtomicBool::new(false),
            submitted: registry.counter(&format!("{prefix}submitted")),
            completed: registry.counter(&format!("{prefix}completed")),
            rejected_overloaded: registry.counter(&format!("{prefix}rejected_overloaded")),
            rejected_shutdown: registry.counter(&format!("{prefix}rejected_shutdown")),
            expired: registry.counter(&format!("{prefix}expired")),
            swaps: registry.counter(&format!("{prefix}swaps")),
            batches: registry.counter(&format!("{prefix}batches")),
            queue_len: registry.gauge(&format!("{prefix}queue_len")),
            latency: LatencyHistogram::from_shared(
                registry.histogram(&format!("{prefix}latency_ns"), HistogramSpec::latency_ns()),
            ),
            registry,
            hists: Mutex::new(Hists {
                batch: vec![0; cfg.max_batch + 1],
                occupancy_sum: 0,
            }),
            worker_alloc_events: (0..cfg.workers).map(|_| AtomicU64::new(0)).collect(),
            cfg,
        });
        let handles = replicas
            .into_iter()
            .enumerate()
            .map(|(i, replica)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("alf-serve-{i}"))
                    .spawn(move || worker_loop(i, replica, shared))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(Self {
            shared,
            handles: Mutex::new(Some(handles)),
        })
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Submits one `[C, H, W]` image for classification with no deadline.
    ///
    /// # Errors
    ///
    /// * [`ServeError::BadRequest`] — wrong image geometry (not counted as
    ///   a queue rejection; the request was never a queue candidate).
    /// * [`ServeError::Overloaded`] — the queue is at `queue_depth`.
    /// * [`ServeError::ShuttingDown`] — the server is draining.
    pub fn submit(&self, image: Tensor) -> Result<Pending> {
        self.submit_with_deadline(image, None)
    }

    /// Like [`Server::submit`], but with an optional deadline: a request
    /// whose deadline has passed by the time a worker pops it from the
    /// queue is answered with [`ServeError::Expired`] instead of spending
    /// a replica slot on an answer the caller has given up on. A request
    /// that entered a batch before its deadline passed is served normally.
    ///
    /// # Errors
    ///
    /// Same admission contract as [`Server::submit`].
    pub fn submit_with_deadline(
        &self,
        image: Tensor,
        deadline: Option<Instant>,
    ) -> Result<Pending> {
        let cfg = &self.shared.cfg;
        let want = [cfg.channels, cfg.height, cfg.width];
        if image.dims() != want {
            return Err(ServeError::BadRequest(format!(
                "expected {:?} image, got {:?}",
                want,
                image.dims()
            )));
        }
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if queue.draining {
            self.shared.rejected_shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        if queue.items.len() >= cfg.queue_depth {
            self.shared.rejected_overloaded.inc();
            return Err(ServeError::Overloaded {
                queue_depth: cfg.queue_depth,
            });
        }
        let (request, pending) = QueuedRequest::new(image, deadline);
        queue.items.push_back(request);
        self.shared.queue_len.set(queue.items.len() as f64);
        drop(queue);
        self.shared.queue_cv.notify_one();
        self.shared.submitted.inc();
        Ok(pending)
    }

    /// Validates `blob` against the staging replica and, on success,
    /// publishes it; every worker reloads it before its next batch. No
    /// queued or in-flight request is dropped by a swap.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadCheckpoint`] when the blob is malformed or does
    /// not match the serving architecture; the serving model is unchanged.
    pub fn swap_checkpoint(&self, blob: &[u8]) -> Result<()> {
        let mut swap = self.shared.swap.lock().expect("swap state poisoned");
        checkpoint::load(&mut swap.staging, blob)
            .map_err(|e| ServeError::BadCheckpoint(e.to_string()))?;
        swap.blob = Arc::new(blob.to_vec());
        swap.version += 1;
        self.shared
            .swap_version
            .store(swap.version, Ordering::Release);
        drop(swap);
        self.shared.swaps.inc();
        Ok(())
    }

    /// Hot-swaps to the state of `model` (same architecture) by
    /// serialising it through the read-only state visitor — the source
    /// model only needs a shared borrow, so a trainer can push its live
    /// model into the server without handing over `&mut`.
    ///
    /// # Errors
    ///
    /// Same contract as [`Server::swap_checkpoint`].
    pub fn swap_model(&self, model: &CnnModel) -> Result<()> {
        self.swap_checkpoint(&checkpoint::save(model))
    }

    /// Stops admissions, serves every already-admitted request, then joins
    /// the workers. Idempotent; concurrent callers after the first return
    /// once the drain they observe is complete.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.draining = true;
        }
        self.shared.queue_cv.notify_all();
        let handles = self.handles.lock().expect("handles poisoned").take();
        if let Some(handles) = handles {
            for h in handles {
                let _ = h.join();
            }
        }
    }

    /// The metrics registry the serving instruments live in. With
    /// [`Server::start_with_registry`] this is the caller's registry;
    /// otherwise a private one created at start.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.shared.registry
    }

    /// Point-in-time statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        let hists = self.shared.hists.lock().expect("hists poisoned");
        let batches = self.shared.batches.get();
        ServerStats {
            submitted: self.shared.submitted.get(),
            completed: self.shared.completed.get(),
            rejected_overloaded: self.shared.rejected_overloaded.get(),
            rejected_shutdown: self.shared.rejected_shutdown.get(),
            expired: self.shared.expired.get(),
            swaps: self.shared.swaps.get(),
            batches,
            batch_histogram: hists.batch.clone(),
            mean_batch_occupancy: if batches > 0 {
                hists.occupancy_sum as f64 / batches as f64
            } else {
                0.0
            },
            p50_ms: self.shared.latency.quantile_ms(0.50),
            p95_ms: self.shared.latency.quantile_ms(0.95),
            p99_ms: self.shared.latency.quantile_ms(0.99),
        }
    }

    /// Asks every worker to freeze (or thaw) its arena before its next
    /// batch. With prewarm on, a frozen steady state must not allocate —
    /// growth trips the arena's debug assertion and bumps the counters
    /// read by [`Server::arena_alloc_events`].
    pub fn freeze_arenas(&self, on: bool) {
        self.shared.freeze.store(on, Ordering::Release);
    }

    /// Sum of all workers' cumulative arena allocation-event counters
    /// (published after each batch). Constant across a window ⇒ no arena
    /// allocation happened in that window.
    pub fn arena_alloc_events(&self) -> u64 {
        self.shared
            .worker_alloc_events
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .sum()
    }

    /// Requests currently waiting in the submission queue.
    pub fn queue_len(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("queue poisoned")
            .items
            .len()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Batcher-side deadline enforcement: a popped request whose deadline has
/// passed is answered with [`ServeError::Expired`] on the spot (the slot
/// fill wakes its waiter) and never reaches a replica; one that survived is
/// appended to `batch`.
fn expire_if_late(request: QueuedRequest, shared: &Shared, batch: &mut Vec<QueuedRequest>) {
    let late = request
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline);
    if late {
        shared.expired.inc();
        request.answer(Err(ServeError::Expired));
        return;
    }
    batch.push(request);
}

fn worker_loop(index: usize, mut replica: Replica, shared: Arc<Shared>) {
    let cfg = &shared.cfg;
    let mut seen_version = 0u64;
    let mut frozen = false;
    // Publish the post-prewarm baseline so `arena_alloc_events` reads the
    // same value whether or not this worker has served a batch yet.
    shared.worker_alloc_events[index].store(replica.ctx().ws.alloc_events(), Ordering::Release);
    loop {
        // ---- take this worker's share of what is queued now ----
        let mut batch: Vec<QueuedRequest> = Vec::with_capacity(cfg.max_batch);
        {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            while batch.is_empty() {
                if queue.items.is_empty() {
                    if queue.draining {
                        return; // queue empty + draining ⇒ done
                    }
                    queue = shared.queue_cv.wait(queue).expect("queue poisoned");
                    continue;
                }
                let share = fair_share(queue.items.len(), queue.idle, cfg.max_batch);
                while batch.len() < share {
                    let Some(request) = queue.items.pop_front() else {
                        break;
                    };
                    expire_if_late(request, &shared, &mut batch);
                }
            }
            queue.idle -= 1;
            // The rest belongs to the idle siblings; the submissions'
            // wake-ups may all have landed on this worker, so pass one on.
            if queue.idle > 0 && !queue.items.is_empty() {
                shared.queue_cv.notify_one();
            }
            shared.queue_len.set(queue.items.len() as f64);
        }

        // ---- apply a pending hot swap between batches ----
        if shared.swap_version.load(Ordering::Acquire) != seen_version {
            let swap = shared.swap.lock().expect("swap state poisoned");
            // The staging replica already validated this blob; a failure
            // here would mean this replica diverged from staging, in which
            // case we keep serving the old weights rather than die.
            let _ = replica.load_checkpoint(&swap.blob);
            seen_version = swap.version;
        }

        // ---- honour freeze/thaw requests outside the serving path ----
        let want_freeze = shared.freeze.load(Ordering::Acquire);
        if want_freeze != frozen {
            if want_freeze {
                replica.ctx_mut().ws.freeze();
            } else {
                replica.ctx_mut().ws.thaw();
            }
            frozen = want_freeze;
        }

        // ---- serve the batch ----
        let images: Vec<&Tensor> = batch.iter().map(|r| &r.image).collect();
        let outcome = replica.run_batch(&images);
        drop(images);
        shared.worker_alloc_events[index].store(replica.ctx().ws.alloc_events(), Ordering::Release);
        // Free again — counted before the answers go out (see `idle`).
        shared.queue.lock().expect("queue poisoned").idle += 1;
        match outcome {
            Ok(predictions) => {
                let n = batch.len();
                shared.batches.inc();
                shared.completed.add(n as u64);
                // The latency histogram is lock-free; only the exact
                // batch-size buckets need the short mutex.
                for request in &batch {
                    shared.latency.record(request.enqueued.elapsed());
                }
                {
                    let mut hists = shared.hists.lock().expect("hists poisoned");
                    hists.batch[n] += 1;
                    hists.occupancy_sum += n as u64;
                }
                for (request, prediction) in batch.into_iter().zip(predictions) {
                    request.answer(Ok(prediction));
                }
            }
            Err(e) => {
                // Every request of a failed batch is answered with the
                // error — "answered or explicitly rejected", never lost.
                shared.completed.add(batch.len() as u64);
                for request in batch {
                    request.answer(Err(e.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;
    use alf_nn::layer::Layer;
    use std::time::Duration;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_depth: 32,
            prewarm: true,
            ..ServeConfig::new(3, 12, 12)
        }
    }

    fn image(seed: usize) -> Tensor {
        Tensor::from_fn(&[3, 12, 12], move |i| ((i + seed) % 13) as f32 * 0.1)
    }

    #[test]
    fn config_validation_catches_zeroes() {
        let model = plain20(4, 4).unwrap();
        for broken in [
            ServeConfig {
                workers: 0,
                ..tiny_config()
            },
            ServeConfig {
                max_batch: 0,
                ..tiny_config()
            },
            ServeConfig {
                queue_depth: 0,
                ..tiny_config()
            },
            ServeConfig {
                channels: 0,
                ..tiny_config()
            },
            ServeConfig {
                name: "has space".to_string(),
                ..tiny_config()
            },
        ] {
            assert!(matches!(
                Server::start(&model, broken),
                Err(ServeError::BadRequest(_))
            ));
        }
    }

    #[test]
    fn serves_requests_and_counts_them() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        let pendings: Vec<Pending> = (0..10).map(|i| server.submit(image(i)).unwrap()).collect();
        for p in pendings {
            let prediction = p.wait().unwrap();
            assert!(prediction.class < 4);
            assert_eq!(prediction.logits.dims(), &[4]);
        }
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.rejected(), 0);
        assert!(stats.batches >= 1);
        let histogrammed: u64 = stats.batch_histogram.iter().sum();
        assert_eq!(histogrammed, stats.batches);
        assert!(stats.mean_batch_occupancy >= 1.0);
        assert!(stats.p50_ms > 0.0 && stats.p50_ms <= stats.p99_ms);
    }

    #[test]
    fn registry_snapshot_matches_stats() {
        use alf_obs::metrics::MetricsRegistry;
        let model = plain20(4, 4).unwrap();
        let registry = MetricsRegistry::new();
        let server = Server::start_with_registry(&model, tiny_config(), registry.clone()).unwrap();
        let pendings: Vec<Pending> = (0..6).map(|i| server.submit(image(i)).unwrap()).collect();
        for p in pendings {
            p.wait().unwrap();
        }
        server.shutdown();
        let stats = server.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.submitted"), Some(stats.submitted));
        assert_eq!(snap.counter("serve.completed"), Some(stats.completed));
        assert_eq!(snap.counter("serve.batches"), Some(stats.batches));
        let latency = snap.histogram("serve.latency_ns").unwrap();
        assert_eq!(latency.total, stats.completed);
        assert_eq!(latency.p99 / 1e6, stats.p99_ms);
        assert_eq!(snap.gauge("serve.queue_len"), Some(0.0));
    }

    #[test]
    fn wrong_geometry_is_rejected_before_queueing() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        let err = server.submit(Tensor::zeros(&[3, 8, 8])).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_rejects_late_submits() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        let pending = server.submit(image(0)).unwrap();
        server.shutdown();
        server.shutdown(); // second call is a no-op
        assert!(pending.wait().is_ok(), "queued request served during drain");
        assert_eq!(
            server.submit(image(1)).unwrap_err(),
            ServeError::ShuttingDown
        );
        assert_eq!(server.stats().rejected_shutdown, 1);
    }

    #[test]
    fn overload_rejection_is_typed_and_counted() {
        let model = plain20(4, 4).unwrap();
        // One worker serving one request at a time behind a tiny queue:
        // submissions outrun it, fill the queue, then get rejected.
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_depth: 2,
            ..tiny_config()
        };
        let server = Server::start(&model, cfg).unwrap();
        let mut pendings = Vec::new();
        let mut overloaded = 0usize;
        for i in 0..64 {
            match server.submit(image(i)) {
                Ok(p) => pendings.push(p),
                Err(ServeError::Overloaded { queue_depth }) => {
                    assert_eq!(queue_depth, 2);
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected rejection {other}"),
            }
        }
        assert!(overloaded > 0, "queue never filled");
        for p in pendings {
            p.wait().unwrap();
        }
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.rejected_overloaded, overloaded as u64);
        assert_eq!(stats.submitted + stats.rejected(), 64);
        assert_eq!(stats.completed, stats.submitted);
    }

    #[test]
    fn expired_requests_are_dropped_by_the_batcher() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        // A deadline of "now" has always passed by the time a worker pops
        // the request, so the batcher must answer Expired without running
        // the model; a generous deadline is served normally.
        let expired = server
            .submit_with_deadline(image(0), Some(Instant::now()))
            .unwrap();
        assert_eq!(expired.wait().unwrap_err(), ServeError::Expired);
        let served = server
            .submit_with_deadline(image(1), Some(Instant::now() + Duration::from_secs(60)))
            .unwrap();
        assert!(served.wait().is_ok());
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(
            stats.completed + stats.expired,
            stats.submitted,
            "every admitted request is answered or expired"
        );
    }

    #[test]
    fn fair_share_splits_the_queue_among_idle_workers() {
        // (queued, idle incl. the caller, max_batch) → share
        for (queued, idle, max_batch, want) in [
            (1, 1, 8, 1),
            (1, 2, 8, 1),
            (2, 2, 8, 1), // one each: the sibling runs the other one now
            (3, 2, 8, 2),
            (2, 1, 8, 2), // sibling busy: both, or the second waits a forward
            (8, 1, 8, 8),
            (32, 1, 8, 8), // backlog behind busy replicas: full batches
            (32, 2, 8, 8),
            (15, 2, 8, 8),
            (5, 4, 8, 2),
            (9, 1, 4, 4),
        ] {
            assert_eq!(
                fair_share(queued, idle, max_batch),
                want,
                "queued {queued}, idle {idle}, max_batch {max_batch}"
            );
        }
    }

    #[test]
    fn closed_loop_clients_never_share_a_batch() {
        // Two clients with one request in flight each, two replicas: a
        // worker that finds both requests queued takes one and leaves the
        // other to its (idle) sibling, so no request ever waits behind a
        // batch-mate's forward. Deterministic: both requests queued means
        // neither is in a batch, and a worker counts as idle again before
        // the answer that triggers the next submission goes out.
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        std::thread::scope(|scope| {
            for client in 0..2 {
                let server = &server;
                scope.spawn(move || {
                    for i in 0..200 {
                        server.submit(image(client + i)).unwrap().wait().unwrap();
                    }
                });
            }
        });
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.completed, 400);
        assert_eq!(stats.batch_histogram[1], 400, "{:?}", stats.batch_histogram);
        assert!(stats.batch_histogram[2..].iter().all(|&n| n == 0));
    }

    #[test]
    fn a_backlog_behind_busy_workers_leaves_in_full_batches() {
        let model = plain20(4, 4).unwrap();
        let cfg = ServeConfig {
            queue_depth: 64,
            ..tiny_config()
        };
        let max_batch = cfg.max_batch;
        let server = Server::start(&model, cfg).unwrap();
        // Gate: publish a same-weights swap and keep its lock, so a worker
        // blocks between taking a batch and running it.
        let mut gate = server.shared.swap.lock().unwrap();
        gate.blob = Arc::new(checkpoint::save(&model).to_vec());
        gate.version += 1;
        server
            .shared
            .swap_version
            .store(gate.version, Ordering::Release);
        let idle = || server.shared.queue.lock().unwrap().idle;
        let mut pendings = Vec::new();
        for left in [1, 0] {
            pendings.push(server.submit(image(0)).unwrap());
            while idle() != left {
                std::thread::yield_now();
            }
        }
        // Both workers hold one request at the gate; 32 more queue up.
        pendings.extend((0..32).map(|i| server.submit(image(i)).unwrap()));
        drop(gate);
        for p in pendings {
            p.wait().unwrap();
        }
        server.shutdown();
        let hist = server.stats().batch_histogram;
        // Every take that finds at least max_batch per worker queued is a
        // full batch whoever is idle: 32, 28, .. 8 queued ⇒ 7 of them. How
        // the last 4 split depends on who is free by then.
        assert!(hist[max_batch] >= 7, "{hist:?}");
        assert_eq!(server.stats().completed, 34);
    }

    #[test]
    fn a_request_dropped_unanswered_resolves_internal() {
        // What a replica panicking inside `run_batch` does to its batch.
        let (request, pending) = QueuedRequest::new(image(0), None);
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(pending.wait()).unwrap());
        drop(request);
        let answer = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("the waiter is still blocked on a request nobody will answer");
        assert_eq!(
            answer.unwrap_err(),
            ServeError::Internal("request dropped unanswered".to_string())
        );
        waiter.join().unwrap();
    }

    #[test]
    fn named_servers_share_a_registry_without_collisions() {
        use alf_obs::metrics::MetricsRegistry;
        let model = plain20(4, 4).unwrap();
        let registry = MetricsRegistry::new();
        let alpha = ServeConfig {
            name: "alpha".to_string(),
            ..tiny_config()
        };
        let beta = ServeConfig {
            name: "beta".to_string(),
            ..tiny_config()
        };
        let a = Server::start_with_registry(&model, alpha, registry.clone()).unwrap();
        let b = Server::start_with_registry(&model, beta, registry.clone()).unwrap();
        a.submit(image(0)).unwrap().wait().unwrap();
        for i in 0..2 {
            b.submit(image(i)).unwrap().wait().unwrap();
        }
        a.shutdown();
        b.shutdown();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.alpha.submitted"), Some(1));
        assert_eq!(snap.counter("serve.beta.submitted"), Some(2));
        assert_eq!(snap.histogram("serve.alpha.latency_ns").unwrap().total, 1);
        assert_eq!(snap.histogram("serve.beta.latency_ns").unwrap().total, 2);
        // Unnamed instruments must not appear: nothing collided.
        assert_eq!(snap.counter("serve.submitted"), None);
    }

    #[test]
    fn swap_rejects_garbage_and_mismatched_architectures() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        assert!(matches!(
            server.swap_checkpoint(b"not a checkpoint"),
            Err(ServeError::BadCheckpoint(_))
        ));
        let wide = plain20(4, 8).unwrap();
        assert!(matches!(
            server.swap_model(&wide),
            Err(ServeError::BadCheckpoint(_))
        ));
        assert_eq!(server.stats().swaps, 0);
        // Serving still works on the original weights.
        assert!(server.submit(image(3)).unwrap().wait().is_ok());
        server.shutdown();
    }

    #[test]
    fn hot_swap_changes_answers_without_dropping_requests() {
        let model = plain20(4, 4).unwrap();
        let server = Server::start(&model, tiny_config()).unwrap();
        let probe = image(5);
        let before = server.submit(probe.clone()).unwrap().wait().unwrap();
        let mut swapped = plain20(4, 4).unwrap();
        swapped.visit_params(&mut |p| {
            for v in p.value.data_mut() {
                *v += 0.1;
            }
        });
        server.swap_model(&swapped).unwrap();
        let after = server.submit(probe).unwrap().wait().unwrap();
        assert_ne!(before.logits, after.logits);
        assert_eq!(server.stats().swaps, 1);
        server.shutdown();
    }

    #[test]
    fn int8_engine_arena_is_the_one_the_server_freezes_and_counts() {
        let model = plain20(4, 4).unwrap();
        let calib = Tensor::from_fn(&[4, 3, 12, 12], |i| (i % 17) as f32 * 0.1 - 0.8);
        // One worker: k quick submissions leave as one batch of k or as
        // smaller ones, every size up to max_batch being in prewarm's range.
        let cfg = ServeConfig {
            workers: 1,
            precision: Precision::Int8(calib),
            ..tiny_config()
        };
        let max_batch = cfg.max_batch;
        let server = Server::start(&model, cfg).unwrap();
        server.submit(image(0)).unwrap().wait().unwrap();
        let after_prewarm = server.arena_alloc_events();
        assert!(
            after_prewarm > 0,
            "prewarm grew the int8 engine's arena; the server must see it"
        );
        server.freeze_arenas(true);
        for k in 1..=max_batch {
            let pendings: Vec<Pending> = (0..k).map(|i| server.submit(image(i)).unwrap()).collect();
            for p in pendings {
                p.wait().unwrap();
            }
            if k == 2 {
                // A hot swap re-lowers the engine; the warm frozen arena
                // carries over to the new one.
                server.swap_model(&model).unwrap();
            }
        }
        assert_eq!(
            server.arena_alloc_events(),
            after_prewarm,
            "steady-state int8 serving grew the frozen arena"
        );
        server.shutdown();
    }
}
