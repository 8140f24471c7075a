//! Per-layer probes: the harness timing calls into each layer's public
//! functions from outside, one span per call.
//!
//! Shapes `s1/s2/s3` are the three Plain-20 stage GEMMs at an 8-image
//! shard: 16×144×8192, 32×288×2048, 64×576×512. Cheap calls report the
//! median of 30 calls after 5 warm-ups; calls that take tens of
//! milliseconds stop early at a time budget (never below 3 samples), so a
//! traced run stays inside the benchmark's run-time cap.

use std::time::{Duration, Instant};

use crate::stats::median;
use crate::surface::{
    self, Client, ConvProbe, EvalEngine, FrontEnd, GemmProbe, GradCodec, Im2colProbe, InferServer,
    ObsProbe, QGemmProbe, ReduceProbe, ReplicaProbe, TileProbe, TrainPassProbe, Trainer, BATCH,
};
use crate::trace::SpanLog;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// How often a probe calls.
#[derive(Debug, Clone, Copy)]
struct Plan {
    warmups: usize,
    min_samples: usize,
    max_samples: usize,
    budget: Duration,
}

/// Sub-millisecond to few-millisecond calls: always the full 30 samples.
const FAST: Plan = Plan {
    warmups: 5,
    min_samples: 30,
    max_samples: 30,
    budget: Duration::ZERO,
};

/// Calls of tens of milliseconds.
const MEDIUM: Plan = Plan {
    warmups: 2,
    min_samples: 5,
    max_samples: 30,
    budget: Duration::from_millis(400),
};

/// Calls of hundreds of milliseconds (whole training steps).
const SLOW: Plan = Plan {
    warmups: 1,
    min_samples: 3,
    max_samples: 30,
    budget: Duration::from_millis(1000),
};

/// Per-layer metrics that come from the traced workload rather than from a
/// probe; listed here so that one table names every per-layer metric.
pub const WORKLOAD_METRICS: [(&str, &str); 9] = [
    ("serve.mean_batch", "img"),
    ("serve.arena_allocs_steady", "count"),
    ("net.tax_ms", "ms"),
    ("net.responses", "count"),
    ("host.nproc", "count"),
    ("host.spin_ms_before", "ms"),
    ("host.spin_ms_after", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.op_ms_p50", "ms"),
];

pub struct Prober<'a> {
    spans: &'a mut SpanLog,
    out: Vec<Metric>,
    /// Responses the probes' own front end served (checked against the
    /// requests sent to it).
    net_responses: u64,
}

impl<'a> Prober<'a> {
    pub fn new(spans: &'a mut SpanLog) -> Self {
        Self {
            spans,
            out: Vec::new(),
            net_responses: 0,
        }
    }

    pub fn finish(self) -> Vec<Metric> {
        self.out
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Metric { name, value, unit });
    }

    /// Median seconds of one call to `f`. What `f` returns is dropped after
    /// the clock stops, so a probe can hand back something whose teardown is
    /// not part of the measurement.
    fn time<R>(&mut self, name: &'static str, plan: Plan, mut f: impl FnMut() -> R) -> f64 {
        let probe = self.spans.begin(name, None, 0);
        for _ in 0..plan.warmups {
            drop(f());
        }
        let started = Instant::now();
        let mut samples = Vec::with_capacity(plan.max_samples);
        while samples.len() < plan.max_samples
            && (samples.len() < plan.min_samples || started.elapsed() < plan.budget)
        {
            let call = self.spans.begin("call", Some(probe), samples.len() as u64);
            let t = Instant::now();
            let out = f();
            samples.push(t.elapsed().as_secs_f64());
            self.spans.end(call);
            drop(out);
        }
        self.spans.end(probe);
        median(&samples)
    }

    fn time_ms<R>(&mut self, name: &'static str, plan: Plan, f: impl FnMut() -> R) -> f64 {
        let ms = self.time(name, plan, f) * 1e3;
        self.push(name, ms, "ms");
        ms
    }

    // ------------------------------------------------------------ layers

    pub fn gemm_kernels(&mut self, seed: u64) {
        // One sample is many tiles: a single tile is ~0.5 µs, below what a
        // clock read resolves.
        const TILES: usize = 4096;
        let mut tile = TileProbe::new(seed);
        let s = self.time("gemm-kernels.f32_tile_gflops", FAST, || {
            tile.f32_tiles(TILES)
        });
        let rate = surface::TILE_FLOPS * TILES as f64 / s / 1e9;
        self.push("gemm-kernels.f32_tile_gflops", rate, "GFLOP/s");
        let s = self.time("gemm-kernels.i8_tile_gops", FAST, || tile.i8_tiles(TILES));
        let rate = surface::TILE_FLOPS * TILES as f64 / s / 1e9;
        self.push("gemm-kernels.i8_tile_gops", rate, "GOP/s");
    }

    pub fn tensor(&mut self, seed: u64) {
        const SHAPES: [(usize, usize, usize); 3] =
            [(16, 144, 8192), (32, 288, 2048), (64, 576, 512)];
        const GEMM: [&str; 3] = [
            "tensor.gemm_gflops_s1",
            "tensor.gemm_gflops_s2",
            "tensor.gemm_gflops_s3",
        ];
        const QGEMM: [&str; 3] = [
            "tensor.qgemm_gops_s1",
            "tensor.qgemm_gops_s2",
            "tensor.qgemm_gops_s3",
        ];
        for (i, &(m, k, n)) in SHAPES.iter().enumerate() {
            // 40 % of the rows live, as `train_pruned` pins them.
            let live = (0.4 * m as f64).round() as usize;
            let mut g = GemmProbe::new(seed, m, k, n, false, live);
            let s = self.time(GEMM[i], FAST, || g.dense());
            self.push(GEMM[i], g.flops() / s / 1e9, "GFLOP/s");
            if i == 1 {
                self.push("tensor.gemm_dense_ms_s2", s * 1e3, "ms");
                let a = self.time_ms("tensor.gemm_active40_ms_s2", FAST, || g.active_rows());
                self.push("tensor.elision_speedup_s2", s * 1e3 / a, "x");
            }
            let mut q = QGemmProbe::new(seed, m, k, n);
            let s = self.time(QGEMM[i], FAST, || q.call());
            self.push(QGEMM[i], q.ops() / s / 1e9, "GOP/s");
        }
        // Stage-3 weight gradient: dW[64×576] = dY[64×512] · colsᵀ.
        let mut dw = GemmProbe::new(seed, 64, 512, 576, true, 64);
        let s = self.time("tensor.gemm_dw_gflops_s3", FAST, || dw.dense());
        self.push("tensor.gemm_dw_gflops_s3", dw.flops() / s / 1e9, "GFLOP/s");

        // Bytes are computed from the tensor sizes, not measured.
        let mut im = Im2colProbe::new(seed);
        let s = self.time("tensor.im2col_gbps_s1", FAST, || im.f32());
        self.push(
            "tensor.im2col_gbps_s1",
            im.elements_moved() * 4.0 / s / 1e9,
            "GB/s",
        );
        let s = self.time("tensor.im2col_i8_gbps_s1", FAST, || im.i8());
        self.push(
            "tensor.im2col_i8_gbps_s1",
            im.elements_moved() / s / 1e9,
            "GB/s",
        );
    }

    pub fn nn(&mut self, seed: u64) {
        let mut conv = ConvProbe::new(seed);
        self.time_ms("nn.conv_fwd_ms_s2", FAST, || conv.conv_forward());
        self.time_ms("nn.conv_bwd_ms_s2", FAST, || conv.conv_backward());
        self.time_ms("nn.bn_fwd_bwd_ms_s2", FAST, || conv.bn_forward_backward());
    }

    pub fn data(&mut self, seed: u64) {
        const IMAGES: usize = 256;
        let s = self.time("data.synth_ms_per_kimg", FAST, || {
            surface::dataset(seed, IMAGES - BATCH, BATCH)
        });
        self.push(
            "data.synth_ms_per_kimg",
            s * 1e3 * 1000.0 / IMAGES as f64,
            "ms",
        );
        // Microsecond calls are timed a hundred at a time, here and below:
        // one call is too close to the clock's own resolution.
        const CALLS: usize = 100;
        let data = surface::dataset(seed, 4 * BATCH, BATCH);
        let s = self.time("data.batch_ms", FAST, || {
            for _ in 0..CALLS {
                std::hint::black_box(surface::train_batch(&data, BATCH));
            }
        });
        self.push("data.batch_ms", s * 1e3 / CALLS as f64, "ms");
    }

    /// Training-form passes, the optimizer, the autoencoder player, the
    /// gradient codec and the reduction: everything one DP step is made of.
    pub fn training(&mut self, seed: u64) {
        let data = surface::dataset(seed, 8 * BATCH, BATCH);

        let mut dense = TrainPassProbe::new(surface::training_model(seed, false), &data);
        let fwd = self.time_ms("core.fwd_train_ms_b8", MEDIUM, || dense.forward());
        let bwd = self.time_ms("core.bwd_train_ms_b8", MEDIUM, || dense.backward());
        self.time_ms("nn.sgd_step_ms", FAST, || dense.sgd_step());
        self.time_ms("core.ae_step_ms", MEDIUM, || dense.ae_step());

        let mut pruned_model = surface::training_model(seed, true);
        surface::force_occupancy(&mut pruned_model, 0.4);
        let mut pruned = TrainPassProbe::new(pruned_model, &data);
        self.time_ms("core.fwd_train_ms_b8_occ40", MEDIUM, || pruned.forward());
        self.time_ms("core.bwd_train_ms_b8_occ40", MEDIUM, || pruned.backward());

        // Gradients of a fresh forward+backward, so the pruned rows are the
        // exact zeroes the sparse wire form elides.
        dense.forward();
        dense.backward();
        pruned.forward();
        pruned.backward();
        let mut codec100 = GradCodec::new(&dense);
        let mut codec40 = GradCodec::new(&pruned);
        let bytes100 = codec100.encode();
        let bytes40 = codec40.encode();
        self.time_ms("dist.encode_ms", FAST, || {
            codec40.encode();
        });
        self.time_ms("dist.decode_ms", FAST, || {
            assert!(codec40.decode(), "gradient codec round trip is not bitwise");
        });
        self.push("dist.grad_bytes_occ100", bytes100 as f64, "bytes");
        self.push("dist.grad_bytes_occ40", bytes40 as f64, "bytes");

        let mut reduce = ReduceProbe::new(codec100.grad_len());
        self.time_ms("dp.reduce_ms", FAST, || reduce.call());

        let mut into = surface::training_model(seed + 1, false);
        let mut bytes = 0usize;
        self.time_ms("core.ckpt_roundtrip_ms", FAST, || {
            bytes = surface::checkpoint_roundtrip(dense.model(), &mut into);
        });
        self.push("core.ckpt_bytes", bytes as f64, "bytes");

        let mut w1 = Trainer::new(surface::training_model(seed, false), seed, 1);
        let step1 = self.time_ms("dp.step_ms_w1", SLOW, || {
            w1.step(&data).expect("probe step");
        });
        let mut w2 = Trainer::new(surface::training_model(seed, false), seed, 2);
        let step2 = self.time_ms("dp.step_ms_w2", SLOW, || {
            w2.step(&data).expect("probe step");
        });
        self.push("dp.scaling_w2", step1 / step2, "x");
        // The share of a 2-worker step not spent in a shard's forward and
        // backward: pilot forward, gather, reduce, clip, optimizer, the
        // autoencoder player — and the per-sample granularity of the
        // workers, which the batched probe does not pay.
        self.push("dp.serial_share", 1.0 - (fwd + bwd) / step2, "x");
    }

    /// Deployment, the two inference engines, the replica and the server.
    pub fn inference(&mut self, seed: u64) {
        let data = surface::dataset(seed, BATCH, BATCH);
        let pool = surface::pool_images(&data);
        let calib = surface::stack(&pool);
        let b8 = surface::stack(&pool[..8]);
        let clipped = surface::clipped_model(seed);

        self.time_ms("core.deploy_ms", MEDIUM, || surface::deploy_f32(&clipped));
        self.time_ms("core.deploy_int8_ms", MEDIUM, || {
            surface::deploy_int8(&clipped, &calib)
        });
        let deployed = surface::deploy_f32(&clipped);

        let mut training_form = EvalEngine::new(clipped);
        let slow = self.time("core.fwd_eval_train_form", MEDIUM, || {
            training_form.forward(&b8)
        });
        let mut eval = EvalEngine::new(deployed.clone());
        let fast = self.time_ms("core.fwd_eval_ms_b8", MEDIUM, || {
            eval.forward(&b8);
        });
        self.push("core.compress_speedup_b8", slow * 1e3 / fast, "x");
        let mut int8 = surface::deploy_int8(&deployed, &calib);
        self.time_ms("core.qfwd_ms_b8", MEDIUM, || int8.forward(&b8));

        let mut r = ReplicaProbe::new(&deployed, None, &pool[..1]);
        let replica_b1 = self.time_ms("serve.replica_f32_ms_b1", FAST, || r.run_batch());
        let mut r = ReplicaProbe::new(&deployed, None, &pool[..8]);
        self.time_ms("serve.replica_f32_ms_b8", MEDIUM, || r.run_batch());
        let mut r = ReplicaProbe::new(&deployed, Some(&calib), &pool[..1]);
        self.time_ms("serve.replica_int8_ms_b1", FAST, || r.run_batch());
        let mut r = ReplicaProbe::new(&deployed, Some(&calib), &pool[..8]);
        self.time_ms("serve.replica_int8_ms_b8", MEDIUM, || r.run_batch());

        self.time_ms("serve.start_ms", MEDIUM, || {
            InferServer::start(&deployed, None)
        });
        let server = InferServer::start(&deployed, None);
        let submit_wait = self.time_ms("serve.submit_wait_ms_b1", FAST, || {
            let pending = server.submit(pool[0].clone()).expect("probe submit");
            surface::wait_class(pending).expect("probe reply");
        });
        self.push("serve.queue_tax_ms", submit_wait - replica_b1, "ms");
        drop(server);

        self.net(&deployed, &pool);
    }

    fn net(&mut self, deployed: &surface::Model, pool: &[surface::Tensor]) {
        const CALLS: usize = 100;
        let wire = surface::predict_request_wire(&surface::image_body(&pool[0]));
        let s = self.time("net.parse_us", FAST, || {
            for _ in 0..CALLS {
                assert!(
                    surface::parse_request(&wire),
                    "predict request did not parse"
                );
            }
        });
        self.push("net.parse_us", s * 1e6 / CALLS as f64, "us");
        let reply =
            br#"{"model":"plain20","class":3,"logits":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0]}"#;
        let mut out = Vec::new();
        let s = self.time("net.write_us", FAST, || {
            for _ in 0..CALLS {
                surface::write_reply(&mut out, reply);
                std::hint::black_box(&out);
            }
        });
        self.push("net.write_us", s * 1e6 / CALLS as f64, "us");

        let front = FrontEnd::start(deployed, surface::serve_workers());
        let mut client = Client::connect(front.addr());
        let mut sent = 0u64;
        let s = self.time("net.rtt_us_metrics", FAST, || {
            sent += 1;
            client.get_metrics().expect("GET /metrics");
        });
        self.push("net.rtt_us_metrics", s * 1e6, "us");
        self.net_responses = front.responses();
        assert_eq!(
            self.net_responses, sent,
            "net.responses differs from the probe client's tally"
        );
        drop(client);
        front.shutdown();
    }

    pub fn obs(&mut self) {
        const CALLS: usize = 10_000;
        let mut obs = ObsProbe::new();
        let s = self.time("obs.counter_inc_ns", FAST, || obs.counter_incs(CALLS));
        self.push("obs.counter_inc_ns", s * 1e9 / CALLS as f64, "ns");
        let s = self.time("obs.hist_record_ns", FAST, || obs.hist_records(CALLS));
        self.push("obs.hist_record_ns", s * 1e9 / CALLS as f64, "ns");
        let s = self.time("obs.event_emit_ns", FAST, || obs.event_emits(CALLS / 10));
        self.push("obs.event_emit_ns", s * 1e9 / (CALLS / 10) as f64, "ns");
    }
}

/// Runs every probe; the spans land in `spans`. Also returns how many
/// responses the probes' own front end served, for `net.responses`.
pub fn run_all(seed: u64, spans: &mut SpanLog) -> (Vec<Metric>, u64) {
    let mut p = Prober::new(spans);
    p.gemm_kernels(seed);
    p.tensor(seed);
    p.nn(seed);
    p.data(seed);
    p.training(seed);
    p.inference(seed);
    p.obs();
    let responses = p.net_responses;
    (p.finish(), responses)
}
