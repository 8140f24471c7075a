//! The benchmark's whole view of the program: every call into `alf::*`
//! (and the one crate the facade does not re-export) is made here.
//!
//! ROADMAP items 2–4 rename `Precision`, `QuantizedModel` and `AlfTrainer`;
//! when they land, this is the one file a follow-up benchmark PR edits.
//! Everything else in `benchmark/src` speaks in the terms defined below.

use std::net::SocketAddr;
use std::time::Duration;

use alf::core::block::AlfBlockConfig;
use alf::core::checkpoint;
use alf::core::deploy::{Pipeline, QuantSpec};
use alf::core::models::plain20_alf;
use alf::core::{AlfHyper, CnnModel, PruneSchedule, QuantizedModel};
use alf::data::{Dataset, Split, SynthVision};
use alf::dist::{decode_grad, encode_grad, GradLayout};
use alf::dp::allreduce::tree_reduce_into_first;
use alf::dp::{DpConfig, DpTrainer};
use alf::net::client::HttpClient;
use alf::net::http::write_response;
use alf::net::{HttpLimits, ModelSpec, NetConfig, NetServer, RequestParser};
use alf::nn::{softmax_cross_entropy, BatchNorm2d, Conv2d, Layer, LrSchedule, RunCtx, Sgd};
use alf::obs::events::{EventLog, MemorySink};
use alf::obs::metrics::{Counter, Histogram, HistogramSpec, MetricsRegistry};
use alf::serve::{Precision, Replica, ServeConfig, Server};
use alf::tensor::init::Init;
use alf::tensor::ops::{
    auto_threads, gemm_active_rows_into, gemm_i8_into, gemm_into, im2col_i8_into, im2col_into,
    ActiveRows, Conv2dSpec, Workspace,
};
use alf::tensor::rng::Rng;
use alf_gemm_kernels::{microkernel_i8_into, microkernel_into, MR, NR};

pub use alf::obs::json::JsonWriter;
pub use alf::serve::Pending;
pub use alf::tensor::Tensor;

/// The one model geometry every workload uses: Plain-20-ALF at the paper's
/// CIFAR size.
pub const CLASSES: usize = 10;
pub const WIDTH: usize = 16;
pub const SIDE: usize = 32;
pub const CHANNELS: usize = 3;
/// Training batch: two 8-image shards on the two workers.
pub const BATCH: usize = 16;
/// Share of each block's code filters clipped before deployment.
pub const DEPLOY_PRUNED: f64 = 0.7;
/// KC of the blocked drivers: the panel depth the tile probes use.
pub const KC: usize = alf::tensor::ops::gemm::KC;
/// Name the HTTP front end serves the model under.
pub const MODEL_NAME: &str = "plain20";

pub type Model = CnnModel;
pub type Data = Dataset;

// ---------------------------------------------------------------- inputs

/// Synthetic CIFAR-geometry data; the same `seed` gives the same images.
pub fn dataset(seed: u64, train: usize, test: usize) -> Data {
    SynthVision::cifar_like(seed)
        .with_image_size(SIDE)
        .with_num_classes(CLASSES)
        .with_train_size(train)
        .with_test_size(test)
        .build()
        .expect("build synthetic dataset")
}

/// The held-out split as single `[C, H, W]` images: the serving pool.
pub fn pool_images(data: &Data) -> Vec<Tensor> {
    let pix = CHANNELS * SIDE * SIDE;
    data.images(Split::Test)
        .chunks_exact(pix)
        .map(|img| Tensor::from_vec(img.to_vec(), &[CHANNELS, SIDE, SIDE]).expect("pool image"))
        .collect()
}

/// Stacks `[C, H, W]` images into one `NCHW` batch.
pub fn stack(images: &[Tensor]) -> Tensor {
    let mut data = Vec::with_capacity(images.len() * CHANNELS * SIDE * SIDE);
    for img in images {
        data.extend_from_slice(img.data());
    }
    Tensor::from_vec(data, &[images.len(), CHANNELS, SIDE, SIDE]).expect("stack batch")
}

/// The first `n` training images as one batch, with labels.
pub fn train_batch(data: &Data, n: usize) -> (Tensor, Vec<usize>) {
    let idx: Vec<usize> = (0..n).collect();
    data.gather(Split::Train, &idx).expect("gather batch")
}

/// The request body of one image: raw little-endian f32.
pub fn image_body(image: &Tensor) -> Vec<u8> {
    image.data().iter().flat_map(|v| v.to_le_bytes()).collect()
}

// ---------------------------------------------------------------- models

/// Plain-20-ALF built from `seed`. `pinned` widens the mask clip threshold
/// to 0.5 (the value `train_bench` uses) so that masks forced by
/// [`force_occupancy`] stay where they were put for the length of a run.
pub fn training_model(seed: u64, pinned: bool) -> Model {
    let config = AlfBlockConfig {
        threshold: if pinned { 0.5 } else { 1e-4 },
        ..AlfBlockConfig::paper_default()
    };
    plain20_alf(CLASSES, WIDTH, config, seed).expect("build plain20-alf")
}

/// Moves the first `(1 − occupancy)·Co` mask entries of every block into
/// the clip band.
pub fn force_occupancy(model: &mut Model, occupancy: f32) {
    for block in model.alf_blocks_mut() {
        let total = block.total_filters();
        let clip = ((1.0 - occupancy) * total as f32).round() as usize;
        for ch in 0..clip.min(total.saturating_sub(1)) {
            block.autoencoder_mut().set_mask_value(ch, 0.05);
        }
    }
}

/// Zeroes the trailing `fraction` of every block's mask so the deploy
/// pipeline has exact zero filters to strip.
pub fn clip_masks(model: &mut Model, fraction: f64) {
    for block in model.alf_blocks_mut() {
        let co = block.autoencoder().mask().len();
        let keep = (((1.0 - fraction) * co as f64).ceil() as usize).clamp(1, co);
        for j in keep..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
}

/// Mean mask occupancy over all blocks (1.0 = nothing pruned).
pub fn occupancy(model: &Model) -> f64 {
    f64::from(model.remaining_filter_fraction())
}

/// A training-form model with [`DEPLOY_PRUNED`] of its code filters clipped.
pub fn clipped_model(seed: u64) -> Model {
    let mut model = training_model(seed, false);
    clip_masks(&mut model, DEPLOY_PRUNED);
    model
}

/// Strips the clipped filters: the deployed f32 form (code conv + 1×1
/// expansion).
pub fn deploy_f32(model: &Model) -> Model {
    Pipeline::new().run(model).expect("deploy").model
}

/// The int8 engine: strip, fold batch-norm, quantize against `calib`.
pub struct Int8Engine(QuantizedModel);

pub fn deploy_int8(model: &Model, calib: &Tensor) -> Int8Engine {
    let deployed = Pipeline::new()
        .fold_bn(true)
        .quantize(QuantSpec::int8(calib.clone()))
        .run(model)
        .expect("int8 deploy");
    Int8Engine(deployed.quantized.expect("quantize(..) produces an engine"))
}

impl Int8Engine {
    pub fn classify(&mut self, batch: &Tensor) -> Vec<usize> {
        self.0.predict(batch).expect("int8 predict")
    }

    pub fn forward(&mut self, batch: &Tensor) {
        std::hint::black_box(self.0.forward(batch).expect("int8 forward"));
    }
}

/// An f32 model with its own eval-mode context: direct forwards, no serving.
pub struct EvalEngine {
    model: Model,
    ctx: RunCtx,
}

impl EvalEngine {
    pub fn new(model: Model) -> Self {
        Self {
            model,
            ctx: RunCtx::eval(),
        }
    }

    pub fn forward(&mut self, batch: &Tensor) -> Tensor {
        self.model.forward(batch, &mut self.ctx).expect("forward")
    }

    /// Top-1 class per row (first on ties, like the serving replica) with
    /// how decisive it was: the gap between the two highest logits as a
    /// share of the row's logit range.
    pub fn classify_with_margin(&mut self, batch: &Tensor) -> Vec<(usize, f32)> {
        let logits = self.forward(batch);
        logits
            .data()
            .chunks_exact(CLASSES)
            .map(|row| {
                let mut best = 0usize;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                let (mut second, mut low) = (f32::NEG_INFINITY, f32::INFINITY);
                for (j, &v) in row.iter().enumerate() {
                    if j != best {
                        second = second.max(v);
                    }
                    low = low.min(v);
                }
                let range = row[best] - low;
                let margin = if range > 0.0 {
                    (row[best] - second) / range
                } else {
                    0.0
                };
                (best, margin)
            })
            .collect()
    }

    /// Mean cross-entropy of the model on `(batch, labels)`.
    pub fn loss(&mut self, batch: &Tensor, labels: &[usize]) -> f32 {
        let logits = self.forward(batch);
        softmax_cross_entropy(&logits, labels).expect("loss").0
    }
}

// -------------------------------------------------------------- training

/// The data-parallel trainer at a pinned worker count, with the
/// hyper-parameters `train_bench` uses.
pub struct Trainer(DpTrainer);

impl Trainer {
    pub fn new(model: Model, seed: u64, workers: usize) -> Self {
        let hyper = AlfHyper {
            task_lr: 0.05,
            batch_size: BATCH,
            lr_schedule: LrSchedule::Constant,
            ..AlfHyper::default()
        };
        let config = DpConfig::new(hyper, seed).with_threads(workers);
        Self(DpTrainer::new(model, config).expect("build trainer"))
    }

    /// One round of the two-player game on one batch. `Ok(true)` when the
    /// step ended an epoch (the sizing rule keeps that from happening).
    pub fn step(&mut self, data: &Data) -> Result<bool, String> {
        self.0
            .advance_step(data)
            .map(|epoch| epoch.is_some())
            .map_err(|e| e.to_string())
    }

    pub fn state_vector(&self) -> Vec<f32> {
        self.0.state_vector()
    }

    pub fn model(&self) -> &Model {
        self.0.model()
    }

    pub fn workers(&self) -> usize {
        self.0.resolved_threads()
    }
}

// --------------------------------------------------------------- serving

/// `ServeConfig::new(3, 32, 32)` as shipped (2 workers, batches of 8, 2 ms
/// window, 64-deep queue, prewarm), optionally at int8.
fn serve_config(int8_calib: Option<&Tensor>) -> ServeConfig {
    ServeConfig {
        precision: precision(int8_calib),
        ..ServeConfig::new(CHANNELS, SIDE, SIDE)
    }
}

fn precision(int8_calib: Option<&Tensor>) -> Precision {
    int8_calib.map_or(Precision::F32, |c| Precision::Int8(c.clone()))
}

/// Workers the default serving configuration starts.
pub fn serve_workers() -> usize {
    serve_config(None).workers
}

/// Counters read from the server's public statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub batches: u64,
    pub occupancy_sum: f64,
    pub arena_allocs: u64,
}

/// The in-process serving engine at its defaults.
pub struct InferServer(Server);

impl InferServer {
    pub fn start(model: &Model, int8_calib: Option<&Tensor>) -> Self {
        Self(Server::start(model, serve_config(int8_calib)).expect("start server"))
    }

    pub fn submit(&self, image: Tensor) -> Result<Pending, String> {
        self.0.submit(image).map_err(|e| e.to_string())
    }

    pub fn counts(&self) -> ServeCounts {
        serve_counts(&self.0)
    }
}

fn serve_counts(server: &Server) -> ServeCounts {
    let s = server.stats();
    ServeCounts {
        batches: s.batches,
        occupancy_sum: s.mean_batch_occupancy * s.batches as f64,
        arena_allocs: server.arena_alloc_events(),
    }
}

/// Blocks for the reply and returns its class.
pub fn wait_class(pending: Pending) -> Result<usize, String> {
    pending.wait().map(|p| p.class).map_err(|e| e.to_string())
}

/// One worker-owned replica, driven directly (no queue, no threads).
pub struct ReplicaProbe {
    replica: Replica,
    images: Vec<Tensor>,
}

impl ReplicaProbe {
    pub fn new(model: &Model, int8_calib: Option<&Tensor>, images: &[Tensor]) -> Self {
        let mut replica = Replica::with_precision(
            model.clone(),
            [CHANNELS, SIDE, SIDE],
            &precision(int8_calib),
        )
        .expect("build replica");
        replica.prewarm(images.len()).expect("prewarm replica");
        Self {
            replica,
            images: images.to_vec(),
        }
    }

    pub fn run_batch(&mut self) {
        let refs: Vec<&Tensor> = self.images.iter().collect();
        std::hint::black_box(self.replica.run_batch(&refs).expect("run batch"));
    }
}

// ------------------------------------------------------------------- net

/// The HTTP front end serving one model on an ephemeral loopback port with
/// a worker budget of `workers`.
pub struct FrontEnd {
    net: NetServer,
    registry: MetricsRegistry,
}

impl FrontEnd {
    pub fn start(model: &Model, workers: usize) -> Self {
        let registry = MetricsRegistry::new();
        let net = NetServer::start(
            vec![ModelSpec {
                name: MODEL_NAME.to_string(),
                model: model.clone(),
                serve: serve_config(None),
            }],
            NetConfig {
                threads: Some(workers),
                ..NetConfig::new("127.0.0.1:0")
            },
            registry.clone(),
        )
        .expect("start net server");
        Self { net, registry }
    }

    pub fn addr(&self) -> SocketAddr {
        self.net.addr()
    }

    /// The registry's `net.responses` counter.
    pub fn responses(&self) -> u64 {
        self.registry
            .snapshot()
            .counter("net.responses")
            .unwrap_or(0)
    }

    pub fn counts(&self) -> ServeCounts {
        self.net
            .router()
            .server(MODEL_NAME)
            .map_or_else(ServeCounts::default, serve_counts)
    }

    pub fn shutdown(&self) {
        self.net.shutdown();
    }
}

/// One blocking keep-alive connection.
pub struct Client(HttpClient);

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        Self(HttpClient::connect(addr, Duration::from_secs(30)).expect("connect"))
    }

    /// `POST /v1/models/<name>/predict`; the class of a 200 reply, an error
    /// for anything else.
    pub fn predict(&mut self, body: &[u8]) -> Result<usize, String> {
        const TARGET: &str = "/v1/models/plain20/predict";
        let resp = self.0.post(TARGET, &[], body).map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("status {}: {}", resp.status, resp.text()));
        }
        parse_class(&resp.body).ok_or_else(|| format!("no class in {}", resp.text()))
    }

    /// `GET /metrics`: a round trip that does no model work.
    pub fn get_metrics(&mut self) -> Result<usize, String> {
        let resp = self.0.get("/metrics").map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!("status {}", resp.status));
        }
        Ok(resp.body.len())
    }
}

/// Pulls `"class":N` out of a predict reply.
pub fn parse_class(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"class\":")? + "\"class\":".len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The bytes of one predict request as a client writes them.
pub fn predict_request_wire(body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST /v1/models/{MODEL_NAME}/predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Parses one request with a fresh parser; true when it completed.
pub fn parse_request(wire: &[u8]) -> bool {
    let mut parser = RequestParser::new(HttpLimits::default());
    matches!(parser.feed(wire), Ok((_, Some(_))))
}

/// Serialises one 200 reply carrying `body` into `out` (cleared first).
pub fn write_reply(out: &mut Vec<u8>, body: &[u8]) {
    out.clear();
    write_response(out, 200, "OK", "application/json", body, true);
}

// ---------------------------------------------------------- layer probes
//
// Each probe owns its operands and exposes the one call the harness times.

/// Flops of one f32 or i8 register tile over a KC-deep panel pair.
pub const TILE_FLOPS: f64 = (2 * MR * NR * KC) as f64;

/// `microkernel_into` / `microkernel_i8_into` on one KC-deep panel pair.
pub struct TileProbe {
    apanel: Vec<f32>,
    bpanel: Vec<f32>,
    c: Vec<f32>,
    ci: Vec<i32>,
}

impl TileProbe {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        // Small integers: valid operands for both the f32 and the i8 kernel.
        let mut small =
            |n: usize| -> Vec<f32> { (0..n).map(|_| (rng.below(15) as f32) - 7.0).collect() };
        Self {
            apanel: small(KC * MR),
            bpanel: small(KC * NR),
            c: vec![0.0; MR * NR],
            ci: vec![0; MR * NR],
        }
    }

    pub fn f32_tiles(&mut self, calls: usize) {
        for _ in 0..calls {
            self.c.fill(0.0);
            microkernel_into(&self.apanel, &self.bpanel, &mut self.c, NR);
        }
        std::hint::black_box(&self.c);
    }

    pub fn i8_tiles(&mut self, calls: usize) {
        for _ in 0..calls {
            self.ci.fill(0);
            microkernel_i8_into(&self.apanel, &self.bpanel, &mut self.ci, NR, MR, NR);
        }
        std::hint::black_box(&self.ci);
    }
}

fn randn(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

/// The blocked f32 GEMM at one shape, threading as shipped
/// (`auto_threads`).
pub struct GemmProbe {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    m: usize,
    k: usize,
    n: usize,
    tb: bool,
    rows: ActiveRows,
    ws: Workspace,
}

impl GemmProbe {
    /// `C[m,n] = A[m,k] · B`, with `B` stored `[n,k]` when `tb` (the
    /// weight-gradient form) and `live` of the `m` rows active for
    /// [`GemmProbe::active_rows`].
    pub fn new(seed: u64, m: usize, k: usize, n: usize, tb: bool, live: usize) -> Self {
        let mut rng = Rng::new(seed);
        Self {
            a: randn(&mut rng, m * k),
            b: randn(&mut rng, k * n),
            c: vec![0.0; m * n],
            m,
            k,
            n,
            tb,
            rows: ActiveRows::from_indices((m - live..m).collect(), m).expect("active rows"),
            ws: Workspace::new(),
        }
    }

    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    pub fn dense(&mut self) {
        let threads = auto_threads(self.m, self.k, self.n);
        gemm_into(
            &mut self.c,
            &self.a,
            false,
            &self.b,
            self.tb,
            self.m,
            self.k,
            self.n,
            &mut self.ws,
            threads,
        );
        std::hint::black_box(&self.c);
    }

    pub fn active_rows(&mut self) {
        let threads = auto_threads(self.m, self.k, self.n);
        gemm_active_rows_into(
            &mut self.c,
            &self.a,
            &self.b,
            self.tb,
            self.m,
            self.k,
            self.n,
            &self.rows,
            &mut self.ws,
            threads,
        );
        std::hint::black_box(&self.c);
    }
}

/// The blocked int8 GEMM at one shape.
pub struct QGemmProbe {
    a: Vec<i8>,
    b: Vec<i8>,
    c: Vec<i32>,
    m: usize,
    k: usize,
    n: usize,
    ws: Workspace,
}

fn rand_i8(rng: &mut Rng, n: usize) -> Vec<i8> {
    (0..n)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect()
}

impl QGemmProbe {
    pub fn new(seed: u64, m: usize, k: usize, n: usize) -> Self {
        let mut rng = Rng::new(seed);
        Self {
            a: rand_i8(&mut rng, m * k),
            b: rand_i8(&mut rng, k * n),
            c: vec![0; m * n],
            m,
            k,
            n,
            ws: Workspace::new(),
        }
    }

    pub fn ops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }

    pub fn call(&mut self) {
        gemm_i8_into(
            &mut self.c,
            &self.a,
            &self.b,
            self.m,
            self.k,
            self.n,
            &mut self.ws,
        );
        std::hint::black_box(&self.c);
    }
}

/// im2col of an 8-image stage-1 activation (16 channels, 32×32, 3×3/1/1),
/// f32 and i8.
pub struct Im2colProbe {
    input: Tensor,
    input_i8: Vec<i8>,
    dst: Vec<f32>,
    dst_i8: Vec<i8>,
    spec: Conv2dSpec,
}

impl Im2colProbe {
    const N: usize = 8;
    const CI: usize = WIDTH;

    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let dims = [Self::N, Self::CI, SIDE, SIDE];
        let len: usize = dims.iter().product();
        let cols = Self::CI * 9 * Self::N * SIDE * SIDE;
        Self {
            input: Tensor::from_vec(randn(&mut rng, len), &dims).expect("im2col input"),
            input_i8: rand_i8(&mut rng, len),
            dst: vec![0.0; cols],
            dst_i8: vec![0; cols],
            spec: Conv2dSpec::new(3, 1, 1),
        }
    }

    /// Computed elements moved per call: the input read once plus the
    /// column matrix written once.
    pub fn elements_moved(&self) -> f64 {
        (self.input.len() + self.dst.len()) as f64
    }

    pub fn f32(&mut self) {
        im2col_into(&mut self.dst, &self.input, self.spec).expect("im2col");
        std::hint::black_box(&self.dst);
    }

    pub fn i8(&mut self) {
        im2col_i8_into(
            &mut self.dst_i8,
            &self.input_i8,
            Self::N,
            Self::CI,
            SIDE,
            SIDE,
            self.spec,
        );
        std::hint::black_box(&self.dst_i8);
    }
}

/// One stage-2 convolution and its batch-norm at an 8-image shard
/// (`[8, 32, 16, 16]`, 3×3/1/1 — the 32×288×2048 GEMM).
pub struct ConvProbe {
    conv: Conv2d,
    bn: BatchNorm2d,
    x: Tensor,
    gy: Tensor,
    ctx: RunCtx,
}

impl ConvProbe {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let c = 2 * WIDTH;
        let dims = [8, c, SIDE / 2, SIDE / 2];
        let len: usize = dims.iter().product();
        Self {
            conv: Conv2d::new(c, c, 3, 1, 1, false, Init::He, &mut rng),
            bn: BatchNorm2d::new(c),
            x: Tensor::from_vec(randn(&mut rng, len), &dims).expect("conv input"),
            gy: Tensor::from_vec(randn(&mut rng, len), &dims).expect("conv grad"),
            ctx: RunCtx::train(),
        }
    }

    pub fn conv_forward(&mut self) {
        std::hint::black_box(self.conv.forward(&self.x, &mut self.ctx).expect("conv fwd"));
    }

    /// Needs a preceding [`ConvProbe::conv_forward`].
    pub fn conv_backward(&mut self) {
        std::hint::black_box(
            self.conv
                .backward(&self.gy, &mut self.ctx)
                .expect("conv bwd"),
        );
    }

    pub fn bn_forward_backward(&mut self) {
        self.bn.forward(&self.x, &mut self.ctx).expect("bn fwd");
        std::hint::black_box(self.bn.backward(&self.gy, &mut self.ctx).expect("bn bwd"));
    }
}

/// The training-form model at an 8-image shard, in the mode the DP workers
/// run (train, frozen normalisation): forward, backward, the optimizer over
/// the whole model, and every block's autoencoder step.
pub struct TrainPassProbe {
    model: Model,
    ctx: RunCtx,
    x: Tensor,
    labels: Vec<usize>,
    grad: Option<Tensor>,
    sgd: Sgd,
}

impl TrainPassProbe {
    pub fn new(model: Model, data: &Data) -> Self {
        let (x, labels) = train_batch(data, 8);
        let mut ctx = RunCtx::train();
        ctx.set_freeze_norm(true);
        Self {
            model,
            ctx,
            x,
            labels,
            grad: None,
            sgd: Sgd::new(0.05, 0.9, 1e-4),
        }
    }

    pub fn forward(&mut self) {
        self.model.zero_grads();
        let logits = self
            .model
            .forward(&self.x, &mut self.ctx)
            .expect("train fwd");
        let (_, grad) = softmax_cross_entropy(&logits, &self.labels).expect("loss");
        self.grad = Some(grad);
    }

    /// Needs a preceding [`TrainPassProbe::forward`].
    pub fn backward(&mut self) {
        let grad = self.grad.as_ref().expect("forward before backward");
        std::hint::black_box(self.model.backward(grad, &mut self.ctx).expect("train bwd"));
    }

    pub fn sgd_step(&mut self) {
        self.sgd.step_layer(&mut self.model);
    }

    pub fn ae_step(&mut self) {
        let schedule = PruneSchedule::paper_default();
        for block in self.model.alf_blocks_mut() {
            block.autoencoder_step(1e-3, &schedule).expect("ae step");
        }
    }

    /// The flat task gradient left by the last backward, in wire order.
    pub fn flat_grad(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.model
            .visit_params_ref(&mut |p| out.extend_from_slice(p.grad.data()));
        out
    }

    pub fn model(&self) -> &Model {
        &self.model
    }
}

/// The gradient wire codec for one model's layout.
pub struct GradCodec {
    layout: GradLayout,
    sparse: Vec<Option<ActiveRows>>,
    grad: Vec<f32>,
    wire: Vec<u8>,
}

impl GradCodec {
    pub fn new(pass: &TrainPassProbe) -> Self {
        let mut codec = Self {
            layout: GradLayout::of_model(pass.model()),
            sparse: pass.model().param_active_rows(),
            grad: pass.flat_grad(),
            wire: Vec::new(),
        };
        codec.encode();
        codec
    }

    /// Encodes the gradient; returns the exact byte count.
    pub fn encode(&mut self) -> usize {
        let mut out = bytes::BytesMut::with_capacity(self.wire.len());
        encode_grad(&self.grad, &self.layout, &self.sparse, &mut out);
        self.wire = out.freeze().to_vec();
        self.wire.len()
    }

    /// Decodes the last encoding; true when it reproduces the gradient
    /// bit for bit.
    pub fn decode(&mut self) -> bool {
        let back = decode_grad(&self.wire, &self.layout).expect("decode grad");
        back.len() == self.grad.len()
            && back
                .iter()
                .zip(&self.grad)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    pub fn grad_len(&self) -> usize {
        self.grad.len()
    }
}

/// `tree_reduce_into_first` over two gradient-length leaves.
pub struct ReduceProbe(Vec<Vec<f32>>);

impl ReduceProbe {
    pub fn new(len: usize) -> Self {
        Self(vec![vec![1.0; len], vec![0.5; len]])
    }

    pub fn call(&mut self) {
        tree_reduce_into_first(&mut self.0);
        std::hint::black_box(&self.0[0]);
    }
}

/// Saves `model` and loads the blob into a second model of the same
/// architecture; returns the blob size.
pub fn checkpoint_roundtrip(model: &Model, into: &mut Model) -> usize {
    let blob = checkpoint::save(model);
    checkpoint::load(into, &blob).expect("load checkpoint");
    blob.len()
}

/// The `alf-obs` primitives, `calls` at a time.
pub struct ObsProbe {
    counter: Counter,
    hist: std::sync::Arc<Histogram>,
    log: EventLog,
}

impl ObsProbe {
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let (sink, _handle) = MemorySink::bounded(1024);
        Self {
            counter: registry.counter("bench.counter"),
            hist: registry.histogram("bench.hist_ns", HistogramSpec::latency_ns()),
            log: EventLog::new(Box::new(sink)),
        }
    }

    pub fn counter_incs(&mut self, calls: usize) {
        for _ in 0..calls {
            self.counter.inc();
        }
        std::hint::black_box(self.counter.get());
    }

    pub fn hist_records(&mut self, calls: usize) {
        for i in 0..calls {
            self.hist.record(1_000 + (i as u64 & 0xFFFF) * 37);
        }
        std::hint::black_box(self.hist.total());
    }

    pub fn event_emits(&mut self, calls: usize) {
        for i in 0..calls {
            if let Some(mut ev) = self.log.event("bench.step") {
                ev.field_u64("step", i as u64);
                ev.field_f64("loss", 0.25);
            }
        }
    }
}
