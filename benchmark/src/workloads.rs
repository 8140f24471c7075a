//! The four workloads. Each keeps every vCPU computing (exactly `nproc`
//! workers or replicas, never more driver threads or connections than
//! that), runs a closed loop — every caller waits for its reply before
//! sending the next — and checks every output against an oracle.

use std::collections::VecDeque;
use std::time::Instant;

use crate::stats;
use crate::surface::{
    self, Client, Data, EvalEngine, FrontEnd, InferServer, ServeCounts, Tensor, Trainer, BATCH,
};
use crate::trace::SpanLog;

/// Name and reason of every workload, in the order `run.sh` runs them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "train_dense",
        "2-worker two-player training, all masks full: dense GEMM/im2col, conv backward, the DP serial section",
    ),
    (
        "train_pruned",
        "the same training with every mask forced to 40%: ActiveRows elision and sparse gradient rows do the saving",
    ),
    (
        "infer_int8",
        "offline 64-image jobs through the in-process server at Precision::Int8: qmodel/qgemm/i8 micro-kernel at full batches of 8",
    ),
    (
        "serve_http",
        "one image per POST over 2 keep-alive connections to the f32 model: small-batch latency plus HTTP parse, poll loop and batching window",
    ),
];

/// Mask occupancy `train_pruned` pins every block to.
const PRUNED_OCCUPANCY: f32 = 0.4;
/// Warm-up steps; also the step at which the bitwise oracle compares.
const TRAIN_WARMUP_STEPS: usize = 2;
/// No host this benchmark is sized for trains faster than this; sizes the
/// train set (see `stats::train_set_size`).
const TRAIN_MAX_STEPS_PER_S: f64 = 8.0;
/// Images in the serving pool (the held-out split).
const POOL: usize = 128;
/// Pool images the int8 calibration batch is stacked from.
const CALIB: usize = 16;
/// Images per offline inference job and the in-flight bound of its driver.
const JOB_IMAGES: usize = 64;
const JOB_INFLIGHT: usize = 32;
const INFER_WARMUP_JOBS: usize = 4;
/// Warm-up requests per HTTP connection.
const HTTP_WARMUP_REQUESTS: usize = 50;
/// Least share of the decisive pool images on which int8 top-1 must agree
/// with f32.
const INT8_MIN_AGREEMENT: f64 = 0.99;
/// An f32 prediction is decisive when its two highest logits are at least
/// this share of the logit range apart. The model is untrained, so on some
/// seeds most of the pool is a near-tie that quantization noise may
/// legitimately flip (observed: flips only below 0.064; whole-pool agreement
/// anywhere from 75 % to 100 %); those images are checked against the direct
/// int8 engine but not against f32.
const DECISIVE_MARGIN: f32 = 0.10;

/// What every workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed window the workload is sized for.
    pub seconds: f64,
    /// Workers, replicas and (at most) connections: the host's `nproc`.
    pub workers: usize,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Caller (0 unless the workload has several connections), start from
    /// the start of the window, and latency.
    pub op: stats::Op,
    /// Whether the harness recorded spans around this op.
    pub traced: bool,
}

/// Everything one timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub images: u64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub errors: Vec<String>,
}

impl Window {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.images += other.images;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn latencies_ms(&self, traced: Option<bool>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.op.latency_ms)
            .collect()
    }

    pub fn throughput_img_s(&self) -> f64 {
        self.images as f64 / self.wall_s
    }

    /// Every op, each caller's in the order it issued them, for
    /// [`stats::slices`].
    pub fn ops(&self) -> Vec<stats::Op> {
        self.samples.iter().map(|s| s.op).collect()
    }

    pub fn images_per_op(&self) -> f64 {
        self.images as f64 / self.attempted.max(1) as f64
    }
}

/// In a traced window every other op carries spans; comparing the two
/// halves' latencies gives the tracing overhead with host drift cancelled.
fn is_traced(spans: &Option<&mut SpanLog>, op: u64) -> bool {
    spans.is_some() && op.is_multiple_of(2)
}

/// Counts a serving workload reads from the program's public statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Mean images per executed batch over the timed window.
    pub mean_batch: f64,
    /// Arena allocation events during the timed window (expected 0).
    pub arena_allocs: u64,
    /// `net.responses` as the registry counted them (`verify` holds it to
    /// the clients' tally).
    pub net_responses: u64,
}

fn counts_between(before: ServeCounts, after: ServeCounts) -> (f64, u64) {
    let batches = after.batches - before.batches;
    let mean = if batches > 0 {
        (after.occupancy_sum - before.occupancy_sum) / batches as f64
    } else {
        0.0
    };
    (mean, after.arena_allocs - before.arena_allocs)
}

/// A set-up workload. `setup` covers everything from dataset synthesis to
/// the last warm-up op and is what `setup_s` times; `oracle` is computed
/// outside it.
pub trait Workload {
    /// Runs ops for `seconds`; with `spans`, every other op is traced.
    fn run(&mut self, seconds: f64, spans: Option<&mut SpanLog>) -> Window;
    /// Checks that need work after the window; each message is one failure.
    fn verify(&mut self) -> Vec<String>;
    fn layer_counts(&self) -> LayerCounts {
        LayerCounts::default()
    }
    /// Lines for the log that are neither metrics nor failures.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

pub fn setup(name: &str, cfg: Config, oracle: &Oracle) -> Option<Box<dyn Workload>> {
    Some(match name {
        "train_dense" => Box::new(Train::setup(cfg, false)),
        "train_pruned" => Box::new(Train::setup(cfg, true)),
        "infer_int8" => Box::new(Infer::setup(cfg, oracle)),
        "serve_http" => Box::new(Http::setup(cfg, oracle)),
        _ => return None,
    })
}

// ----------------------------------------------------------------- oracle

/// Expected class of every pool image, from a direct forward of the
/// deployed model; empty for the training workloads, whose oracle is a
/// replay after the run.
#[derive(Debug, Default)]
pub struct Oracle {
    pub classes: Vec<usize>,
    /// `infer_int8` only: pool images on which int8 and f32 top-1 agree,
    /// out of those where f32 is decisive.
    pub int8_agreement: Option<(usize, usize)>,
}

struct ServingInputs {
    pool: Vec<Tensor>,
    deployed: surface::Model,
    calib: Tensor,
}

fn serving_inputs(seed: u64) -> ServingInputs {
    let data = surface::dataset(seed, BATCH, POOL);
    let pool = surface::pool_images(&data);
    let deployed = surface::deploy_f32(&surface::clipped_model(seed));
    let calib = surface::stack(&pool[..CALIB]);
    ServingInputs {
        pool,
        deployed,
        calib,
    }
}

pub fn oracle(name: &str, cfg: Config) -> Oracle {
    if !matches!(name, "infer_int8" | "serve_http") {
        return Oracle::default();
    }
    let inputs = serving_inputs(cfg.seed);
    let mut f32_engine = EvalEngine::new(inputs.deployed.clone());
    // Batches of 8, the serving batch: the oracle's workspace stays no
    // larger than a replica's, so it does not set the peak RSS.
    let f32: Vec<(usize, f32)> = inputs
        .pool
        .chunks(8)
        .flat_map(|c| f32_engine.classify_with_margin(&surface::stack(c)))
        .collect();
    if name != "infer_int8" {
        return Oracle {
            classes: f32.into_iter().map(|(class, _)| class).collect(),
            int8_agreement: None,
        };
    }
    let mut int8 = surface::deploy_int8(&inputs.deployed, &inputs.calib);
    let classes: Vec<usize> = inputs
        .pool
        .chunks(8)
        .flat_map(|c| int8.classify(&surface::stack(c)))
        .collect();
    let decisive = || {
        classes
            .iter()
            .zip(&f32)
            .filter(|(_, (_, margin))| *margin >= DECISIVE_MARGIN)
    };
    let agree = decisive().filter(|(q, (f, _))| *q == f).count();
    Oracle {
        int8_agreement: Some((agree, decisive().count())),
        classes,
    }
}

// --------------------------------------------------------------- training

struct Train {
    cfg: Config,
    pruned: bool,
    data: Data,
    trainer: Trainer,
    /// Full state after the warm-up steps, for the bitwise replay.
    state_after_warmup: Vec<f32>,
    step_cap: usize,
}

impl Train {
    fn model(cfg: Config, pruned: bool) -> surface::Model {
        let mut model = surface::training_model(cfg.seed, pruned);
        if pruned {
            surface::force_occupancy(&mut model, PRUNED_OCCUPANCY);
        }
        model
    }

    fn setup(cfg: Config, pruned: bool) -> Self {
        let train = stats::train_set_size(
            BATCH,
            TRAIN_WARMUP_STEPS,
            cfg.seconds,
            TRAIN_MAX_STEPS_PER_S,
        );
        let data = surface::dataset(cfg.seed, train, BATCH);
        let mut trainer = Trainer::new(Self::model(cfg, pruned), cfg.seed, cfg.workers);
        for _ in 0..TRAIN_WARMUP_STEPS {
            trainer.step(&data).expect("warm-up step");
        }
        Self {
            cfg,
            pruned,
            state_after_warmup: trainer.state_vector(),
            data,
            trainer,
            step_cap: stats::step_cap(cfg.seconds, TRAIN_MAX_STEPS_PER_S),
        }
    }
}

impl Workload for Train {
    fn run(&mut self, seconds: f64, mut spans: Option<&mut SpanLog>) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut op = 0u64;
        while (op as usize) < self.step_cap && start.elapsed().as_secs_f64() < seconds {
            let traced = is_traced(&spans, op);
            let t = Instant::now();
            let outcome = match spans.as_deref_mut().filter(|_| traced) {
                Some(log) => {
                    let id = log.begin("op.train_step", None, op);
                    let r = log.record("dp.advance_step", Some(id), op, || {
                        self.trainer.step(&self.data)
                    });
                    log.end(id);
                    r
                }
                None => self.trainer.step(&self.data),
            };
            w.samples.push(Sample {
                op: stats::Op::timed(0, start, t),
                traced,
            });
            w.attempted += 1;
            w.images += BATCH as u64;
            match outcome {
                Ok(false) => {}
                Ok(true) => w.fail("step crossed an epoch boundary".to_string()),
                Err(e) => w.fail(e),
            }
            op += 1;
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w
    }

    fn verify(&mut self) -> Vec<String> {
        let mut bad = Vec::new();
        if self.trainer.workers() != self.cfg.workers {
            bad.push(format!(
                "trainer resolved {} workers, configured {}",
                self.trainer.workers(),
                self.cfg.workers
            ));
        }
        if !self.trainer.state_vector().iter().all(|v| v.is_finite()) {
            bad.push("non-finite value in the trained state".to_string());
        }
        let (x, labels) = surface::train_batch(&self.data, BATCH);
        let loss = EvalEngine::new(self.trainer.model().clone()).loss(&x, &labels);
        if !loss.is_finite() {
            bad.push(format!("loss after the run is {loss}"));
        }
        if self.pruned {
            let occ = surface::occupancy(self.trainer.model());
            if (occ - f64::from(PRUNED_OCCUPANCY)).abs() > 0.05 {
                bad.push(format!("mask occupancy drifted to {occ:.3}"));
            }
        }
        // Worker count must never change the arithmetic: one worker
        // replaying the warm-up steps lands on the same bits.
        let mut replay = Trainer::new(Self::model(self.cfg, self.pruned), self.cfg.seed, 1);
        for _ in 0..TRAIN_WARMUP_STEPS {
            if let Err(e) = replay.step(&self.data) {
                bad.push(format!("replay step failed: {e}"));
                return bad;
            }
        }
        let replayed = replay.state_vector();
        let same = replayed.len() == self.state_after_warmup.len()
            && replayed
                .iter()
                .zip(&self.state_after_warmup)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            bad.push(format!(
                "1-worker replay differs bitwise from the {}-worker state at step {TRAIN_WARMUP_STEPS}",
                self.cfg.workers
            ));
        }
        bad
    }
}

// -------------------------------------------------------- batch inference

struct Infer {
    server: InferServer,
    pool: Vec<Tensor>,
    expected: Vec<usize>,
    int8_agreement: Option<(usize, usize)>,
    jobs_done: u64,
    counts: LayerCounts,
}

impl Infer {
    fn setup(cfg: Config, oracle: &Oracle) -> Self {
        assert_eq!(
            surface::serve_workers(),
            cfg.workers,
            "serving defaults start a worker count other than nproc"
        );
        let inputs = serving_inputs(cfg.seed);
        let server = InferServer::start(&inputs.deployed, Some(&inputs.calib));
        let mut this = Self {
            server,
            pool: inputs.pool,
            expected: oracle.classes.clone(),
            int8_agreement: oracle.int8_agreement,
            jobs_done: 0,
            counts: LayerCounts::default(),
        };
        for _ in 0..INFER_WARMUP_JOBS {
            this.job(None, 0).expect("warm-up job");
        }
        this
    }

    /// One job: `JOB_IMAGES` pool images, at most `JOB_INFLIGHT` in flight,
    /// replies taken in submission order. `Err` on any failed request or
    /// any class that differs from the oracle.
    fn job(&mut self, mut spans: Option<(&mut SpanLog, usize)>, op: u64) -> Result<(), String> {
        let base = (self.jobs_done as usize * JOB_IMAGES) % self.pool.len();
        self.jobs_done += 1;
        let mut inflight = VecDeque::with_capacity(JOB_INFLIGHT);
        let mut next = 0usize;
        let mut wrong = 0usize;
        let mut first_error = None;
        while next < JOB_IMAGES || !inflight.is_empty() {
            while next < JOB_IMAGES && inflight.len() < JOB_INFLIGHT {
                let idx = (base + next) % self.pool.len();
                let image = self.pool[idx].clone();
                let submitted = match spans.as_mut() {
                    Some((log, parent)) => log.record("serve.submit", Some(*parent), op, || {
                        self.server.submit(image)
                    }),
                    None => self.server.submit(image),
                };
                next += 1;
                match submitted {
                    Ok(pending) => inflight.push_back((idx, pending)),
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
            if let Some((idx, pending)) = inflight.pop_front() {
                let reply = match spans.as_mut() {
                    Some((log, parent)) => log.record("serve.wait", Some(*parent), op, || {
                        surface::wait_class(pending)
                    }),
                    None => surface::wait_class(pending),
                };
                match reply {
                    Ok(class) if class == self.expected[idx] => {}
                    Ok(_) => wrong += 1,
                    Err(e) => {
                        first_error.get_or_insert(e);
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None if wrong > 0 => Err(format!(
                "{wrong} of {JOB_IMAGES} classes differ from the oracle"
            )),
            None => Ok(()),
        }
    }
}

impl Workload for Infer {
    fn run(&mut self, seconds: f64, mut spans: Option<&mut SpanLog>) -> Window {
        let mut w = Window::default();
        let before = self.server.counts();
        let start = Instant::now();
        let mut op = 0u64;
        while start.elapsed().as_secs_f64() < seconds {
            let traced = is_traced(&spans, op);
            let t = Instant::now();
            let outcome = match spans.as_deref_mut().filter(|_| traced) {
                Some(log) => {
                    let id = log.begin("op.infer_job", None, op);
                    let r = self.job(Some((log, id)), op);
                    log.end(id);
                    r
                }
                None => self.job(None, op),
            };
            w.samples.push(Sample {
                op: stats::Op::timed(0, start, t),
                traced,
            });
            w.attempted += 1;
            w.images += JOB_IMAGES as u64;
            if let Err(e) = outcome {
                w.fail(e);
            }
            op += 1;
        }
        w.wall_s = start.elapsed().as_secs_f64();
        let (mean_batch, arena_allocs) = counts_between(before, self.server.counts());
        self.counts = LayerCounts {
            mean_batch,
            arena_allocs,
            ..LayerCounts::default()
        };
        w
    }

    fn verify(&mut self) -> Vec<String> {
        match self.int8_agreement {
            Some((agree, decisive)) if (agree as f64) < INT8_MIN_AGREEMENT * decisive as f64 => {
                vec![format!(
                    "int8 agrees with f32 top-1 on {agree} of the {decisive} pool images where \
                     f32 is decisive, below {:.0}%",
                    100.0 * INT8_MIN_AGREEMENT
                )]
            }
            _ => Vec::new(),
        }
    }

    fn layer_counts(&self) -> LayerCounts {
        self.counts
    }

    fn notes(&self) -> Vec<String> {
        self.int8_agreement
            .map(|(agree, decisive)| {
                format!(
                    "int8 top-1 agrees with f32 on {agree} of the {decisive} pool images \
                     (of {POOL}) where f32 is decisive"
                )
            })
            .into_iter()
            .collect()
    }
}

// ------------------------------------------------------------------- http

struct Http {
    front: FrontEnd,
    clients: Vec<Client>,
    bodies: Vec<Vec<u8>>,
    expected: Vec<usize>,
    /// Requests the clients sent over the front end's whole life.
    client_requests: u64,
    counts: LayerCounts,
}

impl Http {
    fn setup(cfg: Config, oracle: &Oracle) -> Self {
        let inputs = serving_inputs(cfg.seed);
        let front = FrontEnd::start(&inputs.deployed, cfg.workers);
        let clients = (0..cfg.workers.min(2))
            .map(|_| Client::connect(front.addr()))
            .collect();
        let mut this = Self {
            front,
            clients,
            bodies: inputs.pool.iter().map(surface::image_body).collect(),
            expected: oracle.classes.clone(),
            client_requests: 0,
            counts: LayerCounts::default(),
        };
        let warm = this.drive(Some(HTTP_WARMUP_REQUESTS), f64::INFINITY, None);
        assert_eq!(warm.failed, 0, "warm-up request failed: {:?}", warm.errors);
        this
    }

    /// Every connection sends its next request when the reply arrives,
    /// until `requests` each (when given) or `seconds` have passed.
    fn drive(
        &mut self,
        requests: Option<usize>,
        seconds: f64,
        spans: Option<&mut SpanLog>,
    ) -> Window {
        let (bodies, expected) = (&self.bodies, &self.expected);
        let conns = self.clients.len();
        let forks: Vec<Option<SpanLog>> = (0..conns)
            .map(|_| spans.as_deref().map(SpanLog::fork))
            .collect();
        let start = Instant::now();
        let parts: Vec<(Window, Option<SpanLog>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(forks)
                .enumerate()
                .map(|(c, (client, mut log))| {
                    scope.spawn(move || {
                        let mut w = Window::default();
                        let mut i = 0usize;
                        while requests.is_none_or(|n| i < n)
                            && start.elapsed().as_secs_f64() < seconds
                        {
                            // Connections walk the pool from different
                            // offsets, so both never ask for one image.
                            let idx = (c * (bodies.len() / conns) + i) % bodies.len();
                            let op = (i * conns + c) as u64;
                            let traced = log.is_some() && i.is_multiple_of(2);
                            let t = Instant::now();
                            let reply = match log.as_mut().filter(|_| traced) {
                                Some(log) => {
                                    let id = log.begin("op.http_request", None, op);
                                    let r = log.record("net.post", Some(id), op, || {
                                        client.predict(&bodies[idx])
                                    });
                                    log.end(id);
                                    r
                                }
                                None => client.predict(&bodies[idx]),
                            };
                            w.samples.push(Sample {
                                op: stats::Op::timed(c, start, t),
                                traced,
                            });
                            w.attempted += 1;
                            w.images += 1;
                            match reply {
                                Ok(class) if class == expected[idx] => {}
                                Ok(class) => w.fail(format!(
                                    "image {idx}: class {class}, oracle {}",
                                    expected[idx]
                                )),
                                Err(e) => w.fail(e),
                            }
                            i += 1;
                        }
                        w.wall_s = start.elapsed().as_secs_f64();
                        (w, log)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("http driver thread"))
                .collect()
        });
        let mut total = Window::default();
        let mut spans = spans;
        for (w, log) in parts {
            total.absorb(w);
            if let (Some(all), Some(log)) = (spans.as_deref_mut(), log) {
                all.merge(log);
            }
        }
        self.client_requests += total.attempted;
        total
    }
}

impl Workload for Http {
    fn run(&mut self, seconds: f64, spans: Option<&mut SpanLog>) -> Window {
        let before = self.front.counts();
        let w = self.drive(None, seconds, spans);
        let (mean_batch, arena_allocs) = counts_between(before, self.front.counts());
        self.counts = LayerCounts {
            mean_batch,
            arena_allocs,
            net_responses: self.front.responses(),
        };
        w
    }

    fn verify(&mut self) -> Vec<String> {
        let served = self.front.responses();
        if served == self.client_requests {
            Vec::new()
        } else {
            vec![format!(
                "net.responses is {served}, the clients sent {}",
                self.client_requests
            )]
        }
    }

    fn layer_counts(&self) -> LayerCounts {
        self.counts
    }
}

impl Drop for Http {
    fn drop(&mut self) {
        // Connections first, so the poll loop sees them closed and exits
        // without waiting on an idle keep-alive peer.
        self.clients.clear();
        self.front.shutdown();
    }
}
