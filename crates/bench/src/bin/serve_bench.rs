//! Serving throughput benchmark: uncompressed vs compressed vs int8
//! Plain-20.
//!
//! Builds a Plain-20 ALF model, clips 70% of every block's mask entries
//! (the serving cost depends only on the resulting sparsity, not on how
//! training produced it), and serves the same open-loop synthetic load
//! against three forms of the network:
//!
//! * **uncompressed** — the training-form ALF model (full `Co`-filter
//!   convolutions through the masked code),
//! * **compressed** — `deploy::Pipeline` output (stripped code conv +
//!   1×1 expansion, f32), and
//! * **int8** — the same deployment served at [`Precision::Int8`]: the
//!   replica folds batch-norm and lowers to the fused `i8×i8→i32` engine,
//!   calibrated on a batch drawn from the benchmark's own image pool.
//!
//! The offered rate is fixed at 1.5× the faster server's measured
//! capacity, so both runs are saturated and completed-throughput reflects
//! service capacity. Results go to stdout as a table and to
//! `BENCH_serve.json` (throughput in img/s, p50/p95/p99 latency, mean
//! batch occupancy, rejection counts).
//!
//! A second **socket mode** then repeats the comparison end to end over
//! real TCP: one `alf_net::NetServer` routes both model forms, clients
//! probe each model's capacity closed-loop over keep-alive connections,
//! then offer paced traffic at 1.5× the faster capacity. The `socket`
//! section of `BENCH_serve.json` records per-model socket throughput and
//! per-status tallies plus the front end's accept/shed/parse-error
//! counters.
//!
//! `--smoke` (default; a few seconds) **gates**: the process exits
//! nonzero when the compressed model does not serve strictly more images
//! per second than the uncompressed one — in process *and* over the
//! socket — when the int8 form does not serve strictly more than the f32
//! compressed form, or when int8 top-1 agreement with the f32 deployment
//! falls below 99% on a held-out eval set. `--paper` serves the full
//! 32×32/10-class geometry for longer windows.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use alf_bench::Scale;
use alf_core::block::AlfBlockConfig;
use alf_core::deploy::{self, Pipeline, QuantSpec};
use alf_core::model::CnnModel;
use alf_core::models::plain20_alf;
use alf_net::client::HttpClient;
use alf_net::{ModelSpec, NetConfig, NetServer};
use alf_nn::{Layer, RunCtx};
use alf_obs::json::JsonWriter;
use alf_obs::metrics::MetricsRegistry;
use alf_serve::{Precision, ServeConfig, Server, ServerStats};
use alf_tensor::init::Init;
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

/// Fraction of each ALF block's filters clipped before deployment.
const PRUNED_FRACTION: f64 = 0.7;

struct Params {
    classes: usize,
    width: usize,
    image: usize,
    workers: usize,
    max_batch: usize,
    queue_depth: usize,
    probe: Duration,
    run: Duration,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Smoke => Params {
            classes: 4,
            width: 8,
            image: 16,
            workers: 2,
            max_batch: 8,
            queue_depth: 64,
            probe: Duration::from_millis(300),
            run: Duration::from_millis(900),
        },
        Scale::Paper => Params {
            classes: 10,
            width: 16,
            image: 32,
            workers: 4,
            max_batch: 16,
            queue_depth: 256,
            probe: Duration::from_millis(500),
            run: Duration::from_secs(5),
        },
    }
}

struct RunResult {
    throughput: f64,
    stats: ServerStats,
}

fn main() {
    let scale = Scale::from_args();
    let p = params(scale);
    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!(
        "serve bench  scale={}  host-threads={host_threads}  image=3x{}x{}  classes={}",
        scale.label(),
        p.image,
        p.image,
        p.classes
    );

    // --- the two model forms ---
    let mut alf = plain20_alf(p.classes, p.width, AlfBlockConfig::paper_default(), 42)
        .expect("build plain20-alf");
    clip_masks(&mut alf, PRUNED_FRACTION);
    let deployed = deploy::Pipeline::new().run(&alf).expect("deploy").model;
    println!(
        "pruned {:.0}% of code filters (remaining {:.0}%)",
        100.0 * PRUNED_FRACTION,
        100.0 * alf.remaining_filter_fraction()
    );

    let serve_cfg = ServeConfig {
        workers: p.workers,
        max_batch: p.max_batch,
        max_wait: Duration::from_millis(1),
        queue_depth: p.queue_depth,
        ..ServeConfig::new(3, p.image, p.image)
    };

    let mut rng = Rng::new(7);
    let pool: Vec<Tensor> = (0..64)
        .map(|_| Tensor::randn(&[3, p.image, p.image], Init::Rand, &mut rng))
        .collect();
    // Calibration batch for the int8 form, drawn from the same pool the
    // load generator replays.
    let calib = stack_images(&pool[..16.min(pool.len())]);
    let int8_cfg = ServeConfig {
        precision: Precision::Int8(calib.clone()),
        ..serve_cfg.clone()
    };

    // int8 fidelity: top-1 agreement between the int8 engine and the f32
    // deployment on a held-out eval set (fresh draws, not the pool).
    let agreement = int8_agreement(&deployed, &calib, p.image, &mut rng);
    println!(
        "int8 top-1 agreement vs f32 deployment: {:.2}%",
        100.0 * agreement
    );

    // --- capacity probe (closed loop), then one shared offered rate ---
    let cap_alf = probe_capacity(&alf, &serve_cfg, &pool, p.probe);
    let cap_dep = probe_capacity(&deployed, &serve_cfg, &pool, p.probe);
    let cap_int8 = probe_capacity(&deployed, &int8_cfg, &pool, p.probe);
    let offered = 1.5 * cap_alf.max(cap_dep).max(cap_int8);
    println!(
        "capacity probe: uncompressed {cap_alf:.0} img/s, compressed {cap_dep:.0} img/s, \
         int8 {cap_int8:.0} img/s -> offered load {offered:.0} img/s"
    );

    // --- measured open-loop runs ---
    let runs = [
        ("plain20-alf (uncompressed)", &alf, &serve_cfg),
        ("deployed-plain20-alf (compressed)", &deployed, &serve_cfg),
        ("deployed-plain20-alf (int8)", &deployed, &int8_cfg),
    ];
    let mut results = Vec::new();
    println!(
        "{:<36} {:>12} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "model", "img/s", "p50 ms", "p95 ms", "p99 ms", "occupancy", "rejected"
    );
    for (name, model, cfg) in runs {
        let r = run_open_loop(model, cfg, &pool, offered, p.run);
        println!(
            "{:<36} {:>12.1} {:>9.3} {:>9.3} {:>9.3} {:>10.2} {:>9}",
            name,
            r.throughput,
            r.stats.p50_ms,
            r.stats.p95_ms,
            r.stats.p99_ms,
            r.stats.mean_batch_occupancy,
            r.stats.rejected(),
        );
        results.push((name, r));
    }

    let speedup = results[1].1.throughput / results[0].1.throughput;
    let int8_speedup = results[2].1.throughput / results[1].1.throughput;

    // --- socket mode: the same comparison over real TCP connections ---
    let registry = MetricsRegistry::new();
    let net = NetServer::start(
        vec![
            ModelSpec {
                name: "uncompressed".to_string(),
                model: alf.clone(),
                serve: serve_cfg.clone(),
            },
            ModelSpec {
                name: "compressed".to_string(),
                model: deployed.clone(),
                serve: serve_cfg.clone(),
            },
            ModelSpec {
                name: "int8".to_string(),
                model: deployed.clone(),
                serve: int8_cfg.clone(),
            },
        ],
        NetConfig {
            threads: Some(2 * p.workers),
            ..NetConfig::new("127.0.0.1:0")
        },
        registry.clone(),
    )
    .expect("start net server");
    let addr = net.addr();
    let bodies: Vec<Vec<u8>> = pool
        .iter()
        .map(|t| t.data().iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect();

    let sock_cap_alf = socket_probe(addr, "uncompressed", &bodies, p.probe);
    let sock_cap_dep = socket_probe(addr, "compressed", &bodies, p.probe);
    let sock_cap_int8 = socket_probe(addr, "int8", &bodies, p.probe);
    let sock_offered = 1.5 * sock_cap_alf.max(sock_cap_dep).max(sock_cap_int8);
    println!(
        "\nsocket capacity probe: uncompressed {sock_cap_alf:.0} img/s, \
         compressed {sock_cap_dep:.0} img/s, int8 {sock_cap_int8:.0} img/s \
         -> offered load {sock_offered:.0} img/s"
    );
    println!(
        "{:<36} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "socket run", "img/s", "ok", "429", "503", "504"
    );
    let mut socket_results = Vec::new();
    for model in ["uncompressed", "compressed", "int8"] {
        let r = socket_open_loop(addr, model, &bodies, sock_offered, p.run);
        println!(
            "{:<36} {:>12.1} {:>8} {:>8} {:>8} {:>8}",
            model, r.throughput, r.ok, r.quota_429, r.unavailable_503, r.expired_504
        );
        socket_results.push((model, r));
    }
    let socket_speedup = socket_results[1].1.throughput / socket_results[0].1.throughput;
    net.shutdown();
    let net_snapshot = registry.snapshot();

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "serve");
    w.field_str("scale", scale.label());
    w.field_u64("host_threads", host_threads as u64);
    w.key("config");
    w.begin_object();
    w.field_u64("workers", p.workers as u64);
    w.field_u64("max_batch", p.max_batch as u64);
    w.field_f64("max_wait_ms", 1.0);
    w.field_u64("queue_depth", p.queue_depth as u64);
    w.field_u64s("image", [3, p.image as u64, p.image as u64]);
    w.field_u64("classes", p.classes as u64);
    w.field_f64("pruned_fraction", PRUNED_FRACTION);
    w.end_object();
    w.field_f64("offered_rate_img_s", offered);
    w.key("runs");
    w.begin_array();
    for (name, r) in &results {
        w.begin_object();
        w.field_str("model", name);
        w.field_f64("throughput_img_s", r.throughput);
        w.key("stats");
        r.stats.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.field_f64("speedup", speedup);
    w.key("int8");
    w.begin_object();
    w.field_f64("throughput_img_s", results[2].1.throughput);
    w.field_f64("speedup_vs_f32_compressed", int8_speedup);
    w.field_f64("top1_agreement", agreement);
    w.field_u64("calibration_images", calib.dims()[0] as u64);
    w.key("stats");
    results[2].1.stats.write_json(&mut w);
    w.end_object();
    w.key("socket");
    w.begin_object();
    w.field_f64("offered_rate_img_s", sock_offered);
    w.key("runs");
    w.begin_array();
    for (model, r) in &socket_results {
        w.begin_object();
        w.field_str("model", model);
        w.field_f64("throughput_img_s", r.throughput);
        w.field_u64("ok", r.ok);
        w.field_u64("rejected_quota_429", r.quota_429);
        w.field_u64("rejected_unavailable_503", r.unavailable_503);
        w.field_u64("expired_504", r.expired_504);
        w.end_object();
    }
    w.end_array();
    for counter in [
        "net.accepted",
        "net.closed",
        "net.conn_limit_rejected",
        "net.shed_quota",
        "net.parse_errors",
        "net.responses",
    ] {
        w.field_u64(counter, net_snapshot.counter(counter).unwrap_or(0));
    }
    w.field_f64("speedup", socket_speedup);
    w.end_object();
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "\ncompression speedup: {speedup:.2}x in process, {socket_speedup:.2}x over the socket\n\
         int8 speedup over f32 compressed: {int8_speedup:.2}x \
         (top-1 agreement {:.2}%)\nwrote BENCH_serve.json",
        100.0 * agreement
    );

    // Gate: the deployment pipeline must improve serving throughput, both
    // in process and end to end over TCP.
    if speedup <= 1.0 {
        eprintln!(
            "FAIL: compressed model served {speedup:.2}x the uncompressed throughput \
             (expected > 1.0x)"
        );
        std::process::exit(1);
    }
    if socket_speedup <= 1.0 {
        eprintln!(
            "FAIL: compressed model served {socket_speedup:.2}x the uncompressed throughput \
             over the socket (expected > 1.0x)"
        );
        std::process::exit(1);
    }
    // Gate: the int8 engine must beat the f32 compressed path while
    // agreeing with it on ≥99% of top-1 predictions.
    if int8_speedup <= 1.0 {
        eprintln!(
            "FAIL: int8 model served {int8_speedup:.2}x the f32 compressed throughput \
             (expected > 1.0x)"
        );
        std::process::exit(1);
    }
    if agreement < 0.99 {
        eprintln!(
            "FAIL: int8 top-1 agreement {:.2}% with the f32 deployment (expected >= 99%)",
            100.0 * agreement
        );
        std::process::exit(1);
    }
}

/// Stacks `[3, H, W]` images into one `NCHW` calibration batch.
fn stack_images(images: &[Tensor]) -> Tensor {
    let dims = images[0].dims();
    let mut data = Vec::with_capacity(images.len() * images[0].len());
    for img in images {
        data.extend_from_slice(img.data());
    }
    Tensor::from_vec(data, &[images.len(), dims[0], dims[1], dims[2]]).expect("stack calib batch")
}

/// Fraction of a held-out eval set on which the int8 engine's top-1
/// prediction matches the f32 deployment's.
fn int8_agreement(deployed: &CnnModel, calib: &Tensor, image: usize, rng: &mut Rng) -> f64 {
    let lowered = Pipeline::new()
        .fold_bn(true)
        .quantize(QuantSpec::int8(calib.clone()))
        .run(deployed)
        .expect("int8 lowering");
    let mut qm = lowered.quantized.expect("quantized engine");
    let mut f32m = deployed.clone();
    let mut ctx = RunCtx::eval();
    let classes = f32m.num_classes();
    let (batch, batches) = (16usize, 16usize);
    let mut agree = 0usize;
    for _ in 0..batches {
        let x = Tensor::randn(&[batch, 3, image, image], Init::Rand, rng);
        let logits = f32m.forward(&x, &mut ctx).expect("f32 forward");
        let q = qm.predict(&x).expect("int8 predict");
        for (row, &qc) in logits.data().chunks_exact(classes).zip(&q) {
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            agree += usize::from(best == qc);
        }
    }
    agree as f64 / (batch * batches) as f64
}

/// Per-model socket-run tally.
struct SocketResult {
    throughput: f64,
    ok: u64,
    quota_429: u64,
    unavailable_503: u64,
    expired_504: u64,
}

/// Closed-loop capacity estimate over real connections: two keep-alive
/// clients keep one request in flight each; completions per second.
fn socket_probe(addr: SocketAddr, model: &str, bodies: &[Vec<u8>], duration: Duration) -> f64 {
    let target = format!("/v1/models/{model}/predict");
    let start = Instant::now();
    let completed: u64 = std::thread::scope(|scope| {
        (0..2)
            .map(|t| {
                let target = &target;
                scope.spawn(move || {
                    let mut client =
                        HttpClient::connect(addr, Duration::from_secs(30)).expect("connect");
                    let mut ok = 0u64;
                    let mut i = t;
                    while start.elapsed() < duration {
                        let resp = client
                            .post(target, &[], &bodies[i % bodies.len()])
                            .expect("probe request answered");
                        assert_eq!(resp.status, 200, "{}", resp.text());
                        ok += 1;
                        i += 1;
                    }
                    ok
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("probe client"))
            .sum()
    });
    completed as f64 / start.elapsed().as_secs_f64()
}

/// Paced offered traffic over real connections: each client thread paces
/// its share of the offered rate and catches up after slow responses, so
/// the aggregate arrival schedule is fixed while the server sheds what it
/// must (429/503/504 are counted, never dropped silently).
fn socket_open_loop(
    addr: SocketAddr,
    model: &str,
    bodies: &[Vec<u8>],
    rate_per_s: f64,
    duration: Duration,
) -> SocketResult {
    const CLIENTS: usize = 4;
    let target = format!("/v1/models/{model}/predict");
    let per_client = rate_per_s / CLIENTS as f64;
    let start = Instant::now();
    let tallies: Vec<(u64, u64, u64, u64)> = std::thread::scope(|scope| {
        (0..CLIENTS)
            .map(|t| {
                let target = &target;
                scope.spawn(move || {
                    let mut client =
                        HttpClient::connect(addr, Duration::from_secs(30)).expect("connect");
                    let (mut ok, mut quota, mut unavail, mut expired) = (0u64, 0u64, 0u64, 0u64);
                    let mut issued = 0u64;
                    while start.elapsed() < duration {
                        let due = (start.elapsed().as_secs_f64() * per_client) as u64;
                        if issued >= due {
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        let body = &bodies[(t + issued as usize) % bodies.len()];
                        let resp = client.post(target, &[], body).expect("request answered");
                        issued += 1;
                        match resp.status {
                            200 => ok += 1,
                            429 => quota += 1,
                            503 => unavail += 1,
                            504 => expired += 1,
                            other => panic!("untyped status {other}: {}", resp.text()),
                        }
                    }
                    (ok, quota, unavail, expired)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("load client"))
            .collect()
    });
    let elapsed = start.elapsed();
    let sum = |f: fn(&(u64, u64, u64, u64)) -> u64| tallies.iter().map(f).sum::<u64>();
    SocketResult {
        throughput: sum(|t| t.0) as f64 / elapsed.as_secs_f64(),
        ok: sum(|t| t.0),
        quota_429: sum(|t| t.1),
        unavailable_503: sum(|t| t.2),
        expired_504: sum(|t| t.3),
    }
}

/// Clips the trailing `fraction` of every ALF block's mask entries so the
/// code has exact zero filters for `deploy::Pipeline` to strip.
fn clip_masks(model: &mut CnnModel, fraction: f64) {
    for block in model.alf_blocks_mut() {
        let co = block.autoencoder().mask().len();
        let keep = (((1.0 - fraction) * co as f64).ceil() as usize).clamp(1, co);
        for j in keep..co {
            block.autoencoder_mut().set_mask_value(j, 0.0);
        }
    }
}

/// Closed-loop capacity estimate: keep the pipeline full, count
/// completions per second.
fn probe_capacity(model: &CnnModel, cfg: &ServeConfig, pool: &[Tensor], duration: Duration) -> f64 {
    let server = Server::start(model, cfg.clone()).expect("start probe server");
    let inflight_target = (cfg.workers * cfg.max_batch * 2).min(cfg.queue_depth);
    let mut inflight = VecDeque::new();
    let mut submitted = 0usize;
    let mut completed = 0u64;
    let start = Instant::now();
    while start.elapsed() < duration {
        while inflight.len() < inflight_target {
            match server.submit(pool[submitted % pool.len()].clone()) {
                Ok(pending) => inflight.push_back(pending),
                Err(_) => break,
            }
            submitted += 1;
        }
        if let Some(pending) = inflight.pop_front() {
            pending.wait().expect("probe request failed");
            completed += 1;
        }
    }
    let elapsed = start.elapsed();
    for pending in inflight {
        let _ = pending.wait();
    }
    server.shutdown();
    completed as f64 / elapsed.as_secs_f64()
}

/// Open-loop run at a fixed offered rate: requests arrive on schedule
/// regardless of completions; the bounded queue sheds overload as typed
/// rejections. Throughput is completions over the full window including
/// the drain tail.
fn run_open_loop(
    model: &CnnModel,
    cfg: &ServeConfig,
    pool: &[Tensor],
    rate_per_s: f64,
    duration: Duration,
) -> RunResult {
    let server = Server::start(model, cfg.clone()).expect("start server");
    let mut pendings = Vec::new();
    let mut produced = 0u64;
    let start = Instant::now();
    while start.elapsed() < duration {
        let due = (start.elapsed().as_secs_f64() * rate_per_s) as u64;
        while produced < due {
            let image = pool[(produced as usize) % pool.len()].clone();
            if let Ok(pending) = server.submit(image) {
                pendings.push(pending);
            }
            produced += 1;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for pending in pendings {
        pending.wait().expect("request failed");
    }
    let elapsed = start.elapsed();
    server.shutdown();
    let stats = server.stats();
    RunResult {
        throughput: stats.completed as f64 / elapsed.as_secs_f64(),
        stats,
    }
}
