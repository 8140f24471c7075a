//! Data-parallel training benchmark and determinism gate.
//!
//! Trains the same Plain-20 ALF model from the same seeds twice — once
//! with a single worker, once with four — through one epoch of the
//! two-player game, then:
//!
//! * **gates determinism** (always): the two runs' full state vectors
//!   must be bitwise identical, and a run killed mid-epoch and resumed
//!   from its checkpoint at yet another worker count must land on the
//!   same state bitwise;
//! * **gates speedup** (only when the host has a core per worker, i.e.
//!   ≥ 4): the 4-worker run must process at least 1.5× the images per
//!   second of the 1-worker run at smoke scale; on a smaller host the
//!   measured ratio is printed and the gate reported as skipped;
//! * **gates telemetry** (smoke scale): a third 1-worker run with JSONL
//!   telemetry streaming into an in-memory sink must land on the same
//!   state bitwise (telemetry is read-only) and stay within noise of the
//!   telemetry-off run's wall time;
//! * **gates occupancy tracking** (smoke scale): per-step wall-clock of
//!   the sparse execution path must strictly decrease as the forced mask
//!   occupancy drops 100% → 70% → 40%, and the sparse path's final
//!   weights must be bitwise identical to a dense-execution reference —
//!   the training hot loop really does cost less when the mask empties,
//!   without changing a single bit of the trajectory;
//! * **gates the socket collective** (smoke scale): a 2-rank `alf-dist`
//!   run over real loopback TCP must land on the single-process state
//!   bitwise, and with masks forced to 100% → 70% → 40% occupancy the
//!   encoded gradient bytes on the wire must strictly decrease with the
//!   sparse row encoding engaged — distribution changes where the adds
//!   happen, never what they compute, and the wire cost tracks pruning.
//!
//! When a gate cannot run (data-parallel speedup on a host with fewer
//! cores than workers) the bench emits a `train.bench.gate_skipped`
//! telemetry event and prints both the JSONL record and a human-readable
//! reason, so a green CI run on a small host is distinguishable from a
//! gate that actually passed.
//!
//! Results go to stdout as a table and to `BENCH_train.json`
//! (throughput per worker count, speedup, whether each gate was
//! enforced and its outcome). `--smoke` (default, a few seconds) uses a
//! reduced geometry; `--paper` trains the full 32×32/10-class model.

use std::time::Instant;

use alf_bench::Scale;
use alf_core::block::AlfBlockConfig;
use alf_core::models::plain20_alf;
use alf_core::{AlfHyper, AlfTrainer, CnnModel};
use alf_data::{Dataset, SynthVision};
use alf_dp::{DpConfig, DpTrainer};
use alf_nn::layer::Layer;
use alf_nn::LrSchedule;
use alf_obs::events::{EventLog, MemorySink};
use alf_obs::json::JsonWriter;

/// Worker count of the parallel run; the speedup gate threshold.
const PAR_WORKERS: usize = 4;
const MIN_SPEEDUP: f64 = 1.5;
/// Telemetry-on wall time may exceed telemetry-off by at most this factor.
/// Generous by design: the real cost is one JSONL line per step against a
/// multi-millisecond training step, but smoke-scale timings on a loaded
/// 1-core host swing ±25% run to run; the gate exists to catch
/// pathological regressions (per-field allocation, serialisation inside
/// the step's arithmetic), not to measure the sub-1% steady-state cost.
const MAX_TELEMETRY_OVERHEAD: f64 = 1.5;
const DATA_SEED: u64 = 33;
const MODEL_SEED: u64 = 42;

struct Params {
    classes: usize,
    width: usize,
    image: usize,
    train: usize,
    test: usize,
    batch: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Smoke => Params {
            classes: 4,
            width: 8,
            image: 16,
            train: 128,
            test: 32,
            batch: 16,
        },
        Scale::Paper => Params {
            classes: 10,
            width: 16,
            image: 32,
            train: 512,
            test: 128,
            batch: 64,
        },
    }
}

fn build_data(p: &Params) -> Dataset {
    SynthVision::cifar_like(DATA_SEED)
        .with_image_size(p.image)
        .with_max_shift(2)
        .with_num_classes(p.classes)
        .with_train_size(p.train)
        .with_test_size(p.test)
        .with_noise(0.05)
        .build()
        .expect("build synthetic dataset")
}

fn config(p: &Params, threads: usize) -> DpConfig {
    DpConfig::new(
        AlfHyper {
            task_lr: 0.05,
            batch_size: p.batch,
            lr_schedule: LrSchedule::Constant,
            ..AlfHyper::default()
        },
        DATA_SEED,
    )
    .with_threads(threads)
}

fn main() {
    let scale = Scale::from_args();
    let p = params(scale);
    let host_cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let steps = p.train / p.batch;
    println!(
        "train bench  scale={}  host-cores={host_cores}  image=3x{}x{}  classes={}  \
         batch={}  steps={steps}",
        scale.label(),
        p.image,
        p.image,
        p.classes,
        p.batch,
    );

    let data = build_data(&p);
    let model = plain20_alf(
        p.classes,
        p.width,
        AlfBlockConfig::paper_default(),
        MODEL_SEED,
    )
    .expect("build plain20-alf");

    // --- timed runs: identical trajectory, different worker counts ---
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "workers", "elapsed s", "img/s", "final loss"
    );
    let mut throughputs = Vec::new();
    let mut elapsed_by_workers = Vec::new();
    let mut states = Vec::new();
    for threads in [1usize, PAR_WORKERS] {
        let mut trainer =
            DpTrainer::new(model.clone(), config(&p, threads)).expect("build trainer");
        let start = Instant::now();
        let epochs = trainer.run_steps(&data, steps).expect("train");
        let elapsed = start.elapsed().as_secs_f64();
        let throughput = (steps * p.batch) as f64 / elapsed;
        println!(
            "{threads:<10} {elapsed:>12.2} {throughput:>12.1} {:>12.4}",
            epochs.last().map_or(f32::NAN, |e| e.train_loss),
        );
        throughputs.push(throughput);
        elapsed_by_workers.push(elapsed);
        states.push(trainer.state_vector());
    }
    let deterministic = states[0] == states[1];
    let speedup = throughputs[1] / throughputs[0];

    // --- telemetry: same 1-worker trajectory with a live event stream ---
    let (sink, events) = MemorySink::bounded(steps + 8);
    let mut telemetered = DpTrainer::new(model.clone(), config(&p, 1)).expect("build trainer");
    telemetered.set_telemetry_sink(Box::new(sink));
    let start = Instant::now();
    telemetered.run_steps(&data, steps).expect("train");
    let telemetry_elapsed = start.elapsed().as_secs_f64();
    let telemetry_bitwise = telemetered.state_vector() == states[0];
    let telemetry_overhead = telemetry_elapsed / elapsed_by_workers[0];
    let step_events = events
        .lines()
        .iter()
        .filter(|l| l.contains("\"event\":\"train.step\""))
        .count();

    // --- kill/resume: checkpoint mid-epoch, resume at 2 workers ---
    let kill_at = steps / 2;
    let mut victim = DpTrainer::new(model.clone(), config(&p, PAR_WORKERS)).expect("build victim");
    victim.run_steps(&data, kill_at).expect("train victim");
    let blob = victim.checkpoint();
    drop(victim);
    let fresh = plain20_alf(
        p.classes,
        p.width,
        AlfBlockConfig::paper_default(),
        MODEL_SEED + 1,
    )
    .expect("build fresh model");
    let mut resumed = DpTrainer::resume(fresh, config(&p, 2), &blob).expect("resume");
    resumed
        .run_steps(&data, steps - kill_at)
        .expect("finish resumed run");
    let resume_bitwise = resumed.state_vector() == states[0];

    // --- occupancy sweep: training cost must track live mask rows ---
    let sweep = (scale == Scale::Smoke).then(|| occupancy_sweep(&p, &data));

    // --- dist: the socket collective must match bitwise, and its sparse
    // gradient wire must shrink as the mask empties ---
    let dist = (scale == Scale::Smoke).then(|| dist_section(&p, &data, &states[0], steps));

    let speedup_gate = host_cores >= PAR_WORKERS;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "train");
    w.field_str("scale", scale.label());
    w.field_u64("host_cores", host_cores as u64);
    w.key("config");
    w.begin_object();
    w.field_u64s("image", [3, p.image as u64, p.image as u64]);
    w.field_u64("classes", p.classes as u64);
    w.field_u64("width", p.width as u64);
    w.field_u64("batch", p.batch as u64);
    w.field_u64("steps", steps as u64);
    w.field_u64("checkpoint_bytes", blob.len() as u64);
    w.end_object();
    w.field_u64s("workers", [1, PAR_WORKERS as u64]);
    w.field_f64s("throughput_img_s", throughputs.iter().copied());
    w.field_f64("speedup", speedup);
    w.field_bool("deterministic", deterministic);
    w.field_bool("resume_bitwise", resume_bitwise);
    w.field_bool("speedup_gate_enforced", speedup_gate);
    w.field_f64("telemetry_overhead", telemetry_overhead);
    w.field_bool("telemetry_bitwise", telemetry_bitwise);
    w.field_u64("telemetry_step_events", step_events as u64);
    if let Some(sweep) = &sweep {
        w.key("occupancy_sweep");
        w.begin_array();
        for level in &sweep.levels {
            w.begin_object();
            // Two decimals: the f32 level would otherwise print as e.g.
            // 0.699999988079071 through the f64 field.
            w.field_f64(
                "occupancy",
                (f64::from(level.occupancy) * 100.0).round() / 100.0,
            );
            w.field_f64("per_step_ms", level.per_step_ms);
            w.end_object();
        }
        w.end_array();
        w.field_bool("occupancy_gate_ok", sweep.monotone());
        w.field_bool("sparse_bitwise", sweep.sparse_bitwise);
    }
    if let Some(dist) = &dist {
        w.key("dist");
        w.begin_object();
        w.field_u64("world", 2);
        w.field_bool("bitwise_2rank", dist.bitwise);
        w.key("grad_bytes_sweep");
        w.begin_array();
        for level in &dist.levels {
            w.begin_object();
            w.field_f64(
                "occupancy",
                (f64::from(level.occupancy) * 100.0).round() / 100.0,
            );
            w.field_u64("grad_bytes", level.grad_bytes);
            w.field_u64("sparse_tensors", level.sparse_tensors);
            w.end_object();
        }
        w.end_array();
        w.field_bool("grad_bytes_gate_ok", dist.bytes_monotone());
        w.field_bool("sparse_wire_active", dist.sparse_active());
        w.end_object();
    }
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write("BENCH_train.json", &json).expect("write BENCH_train.json");
    println!(
        "\nspeedup {speedup:.2}x  deterministic={deterministic}  \
         resume_bitwise={resume_bitwise}  telemetry_overhead={telemetry_overhead:.2}x  \
         telemetry_bitwise={telemetry_bitwise}\nwrote BENCH_train.json"
    );

    // An unenforceable gate must be loudly visible, not silently green:
    // emit the skip through the same telemetry pipeline the trainers use
    // and print both the JSONL record and the plain-language reason.
    if !speedup_gate {
        let (sink, skipped) = MemorySink::bounded(4);
        let mut log = EventLog::new(Box::new(sink));
        if let Some(mut ev) = log.event("train.bench.gate_skipped") {
            ev.field_str("gate", "dp_speedup");
            ev.field_u64("host_cores", host_cores as u64);
            ev.field_f64("measured_speedup", speedup);
            ev.field_str(
                "reason",
                "host has fewer cores than workers; the speedup gate needs one core per worker",
            );
        }
        log.flush();
        for line in skipped.lines() {
            println!("{line}");
        }
        println!(
            "note: dp-speedup gate SKIPPED — {host_cores} core(s) for {PAR_WORKERS} workers; \
             measured {speedup:.2}x against the {MIN_SPEEDUP}x gate, not enforced here"
        );
    }

    // Gates. Determinism, resume fidelity and telemetry read-only-ness
    // hold on any host; the speedup gate needs real parallelism to be
    // meaningful, and the telemetry-overhead gate needs smoke scale's
    // fixed geometry.
    let mut failed = false;
    if !deterministic {
        eprintln!("FAIL: 1-worker and {PAR_WORKERS}-worker runs diverged bitwise");
        failed = true;
    }
    if !resume_bitwise {
        eprintln!("FAIL: resumed run diverged bitwise from the uninterrupted run");
        failed = true;
    }
    if !telemetry_bitwise {
        eprintln!("FAIL: telemetry-on run diverged bitwise from the telemetry-off run");
        failed = true;
    }
    if step_events < steps {
        eprintln!("FAIL: telemetry stream has {step_events} train.step events, expected {steps}");
        failed = true;
    }
    if speedup_gate && scale == Scale::Smoke && speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: {PAR_WORKERS}-worker speedup {speedup:.2}x below the {MIN_SPEEDUP}x gate \
             on a {host_cores}-core host"
        );
        failed = true;
    }
    if scale == Scale::Smoke && telemetry_overhead > MAX_TELEMETRY_OVERHEAD {
        eprintln!(
            "FAIL: telemetry overhead {telemetry_overhead:.2}x above the \
             {MAX_TELEMETRY_OVERHEAD}x gate"
        );
        failed = true;
    }
    if let Some(sweep) = &sweep {
        if !sweep.monotone() {
            eprintln!(
                "FAIL: per-step wall-clock does not strictly decrease as occupancy drops \
                 ({})",
                sweep
                    .levels
                    .iter()
                    .map(|l| format!("{:.0}%:{:.1}ms", l.occupancy * 100.0, l.per_step_ms))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            failed = true;
        }
        if !sweep.sparse_bitwise {
            eprintln!("FAIL: sparse execution path diverged bitwise from the dense reference");
            failed = true;
        }
    }
    if let Some(dist) = &dist {
        if !dist.bitwise {
            eprintln!("FAIL: 2-rank socket collective diverged bitwise from 1 process");
            failed = true;
        }
        if !dist.bytes_monotone() {
            eprintln!(
                "FAIL: gradient bytes-on-wire do not strictly decrease as occupancy drops ({})",
                dist.levels
                    .iter()
                    .map(|l| format!("{:.0}%:{}B", l.occupancy * 100.0, l.grad_bytes))
                    .collect::<Vec<_>>()
                    .join("  ")
            );
            failed = true;
        }
        if !dist.sparse_active() {
            eprintln!("FAIL: sparse gradient encoding never engaged during the pruned sweep");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// One occupancy level of the dist wire sweep.
struct DistLevel {
    occupancy: f32,
    /// Total encoded gradient payload bytes shipped by both ranks over
    /// the measured steps (subtree roots up + reduced broadcast down).
    grad_bytes: u64,
    /// Tensor segments that took the sparse row encoding.
    sparse_tensors: u64,
}

struct DistResult {
    bitwise: bool,
    levels: Vec<DistLevel>,
}

impl DistResult {
    /// Strictly decreasing bytes-on-wire as occupancy drops.
    fn bytes_monotone(&self) -> bool {
        self.levels
            .windows(2)
            .all(|pair| pair[1].grad_bytes < pair[0].grad_bytes)
    }

    /// The sparse encoding engaged at every pruned level.
    fn sparse_active(&self) -> bool {
        self.levels
            .iter()
            .filter(|l| l.occupancy < 1.0)
            .all(|l| l.sparse_tensors > 0)
    }
}

/// Outcome of one in-process 2-rank collective: both ranks' final
/// states plus the wire counters of both directions.
struct TwoRankRun {
    master_state: Vec<f32>,
    worker_state: Vec<f32>,
    grad_bytes: u64,
    sparse_tensors: u64,
}

/// Runs a 2-rank socket collective (rank 1 on a thread, real loopback
/// TCP) for `steps` steps from `model`.
fn run_two_rank(model: CnnModel, p: &Params, data: &Dataset, steps: usize) -> TwoRankRun {
    use alf_dist::{DistConfig, DistReducer};

    let addr = alf_dist::ephemeral_addr().expect("pick loopback addr");
    let listener = std::net::TcpListener::bind(addr).expect("bind collective addr");
    let worker_model = model.clone();
    std::thread::scope(|s| {
        let worker = s.spawn(move || {
            let dist = DistConfig::new(2, 1, addr);
            let mut t = DpTrainer::new(worker_model, config(p, 2)).expect("worker trainer");
            let mut red = DistReducer::worker(dist, t.model(), None).expect("worker handshake");
            for _ in 0..steps {
                t.advance_step_with(data, &mut red).expect("worker step");
            }
            (t.state_vector(), red.metrics().grad_bytes_tx.get())
        });
        let dist = DistConfig::new(2, 0, addr);
        let mut t = DpTrainer::new(model, config(p, 2)).expect("master trainer");
        let mut red =
            DistReducer::master(dist, t.model(), &listener, None).expect("master handshake");
        for _ in 0..steps {
            t.advance_step_with(data, &mut red).expect("master step");
        }
        let (worker_state, worker_bytes) = worker.join().expect("worker thread");
        TwoRankRun {
            master_state: t.state_vector(),
            worker_state,
            grad_bytes: red.metrics().grad_bytes_tx.get() + worker_bytes,
            sparse_tensors: red.metrics().tensors_sparse.get(),
        }
    })
}

/// The dist gates: a 2-rank collective over real sockets must land on
/// `reference` bitwise, and with masks forced to 100% → 70% → 40%
/// occupancy the encoded gradient bytes on the wire must strictly
/// decrease (run-length sparse rows elide exactly the STE-zeroed ones).
fn dist_section(p: &Params, data: &Dataset, reference: &[f32], steps: usize) -> DistResult {
    const LEVELS: [f32; 3] = [1.0, 0.7, 0.4];
    const SWEEP_STEPS: usize = 2;

    let model = plain20_alf(
        p.classes,
        p.width,
        AlfBlockConfig::paper_default(),
        MODEL_SEED,
    )
    .expect("build dist model");
    let run = run_two_rank(model, p, data, steps);
    let bitwise = run.master_state == reference && run.worker_state == reference;
    println!(
        "\ndist: 2-rank socket collective, {steps} steps — bitwise={bitwise} \
         ({} gradient bytes on wire)",
        run.grad_bytes
    );

    // Byte sweep on forced masks; the widened threshold keeps forced
    // channels pinned for the handful of steps (same trick as the
    // occupancy sweep above).
    let sweep_config = AlfBlockConfig {
        threshold: 0.5,
        ..AlfBlockConfig::paper_default()
    };
    println!(
        "{:<12} {:>16} {:>16}",
        "occupancy", "grad bytes", "sparse tensors"
    );
    let mut levels = Vec::new();
    for &occ in &LEVELS {
        let mut model =
            plain20_alf(p.classes, p.width, sweep_config, MODEL_SEED).expect("build sweep model");
        force_occupancy(&mut model, occ);
        let run = run_two_rank(model, p, data, SWEEP_STEPS);
        println!(
            "{:<12} {:>16} {:>16}",
            format!("{:.0}%", occ * 100.0),
            run.grad_bytes,
            run.sparse_tensors
        );
        levels.push(DistLevel {
            occupancy: occ,
            grad_bytes: run.grad_bytes,
            sparse_tensors: run.sparse_tensors,
        });
    }
    DistResult { bitwise, levels }
}

/// One measured occupancy level of the sweep.
struct OccLevel {
    occupancy: f32,
    /// Min-of-3 epoch wall-clock divided by steps per epoch.
    per_step_ms: f64,
}

struct SweepResult {
    levels: Vec<OccLevel>,
    sparse_bitwise: bool,
}

impl SweepResult {
    /// Strictly decreasing per-step cost as occupancy drops.
    fn monotone(&self) -> bool {
        self.levels
            .windows(2)
            .all(|pair| pair[1].per_step_ms < pair[0].per_step_ms)
    }
}

/// Every state tensor of the model, flattened to bit patterns.
fn state_bits(model: &CnnModel) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_state_ref(&mut |t| out.extend(t.data().iter().map(|v| v.to_bits())));
    out
}

/// Forces each ALF block to the given mask occupancy by moving the first
/// `(1 − occupancy)·Co` mask entries into the clip band. The blocks use a
/// widened threshold (0.5) so the handful of autoencoder steps a bench
/// epoch takes cannot pull a forced channel back out of the band (the
/// mask moves by O(`ae_lr`) per step), nor push a live one in.
fn force_occupancy(model: &mut CnnModel, occupancy: f32) {
    for block in model.alf_blocks_mut() {
        let total = block.total_filters();
        let clip = ((1.0 - occupancy) * total as f32).round() as usize;
        for ch in 0..clip.min(total.saturating_sub(1)) {
            block.autoencoder_mut().set_mask_value(ch, 0.05);
        }
    }
}

/// Trains the smoke model at forced occupancies 100% → 40% and measures
/// per-step wall-clock on the sparse execution path (one warm-up epoch,
/// then min-of-3 timed epochs per level). At the 60% level a dense
/// reference (sparse execution off, identical seeds and forced masks)
/// runs the same schedule and the final states are compared bitwise.
fn occupancy_sweep(p: &Params, data: &Dataset) -> SweepResult {
    // Endpoints per the gate (100% → 40%); the midpoint is placed so that
    // every stage's live-row count crosses an MR-panel boundary between
    // adjacent levels — a 10%-row step can save zero packed panels in the
    // narrow stages and would make the strict-decrease gate noise-bound.
    const LEVELS: [f32; 3] = [1.0, 0.7, 0.4];
    const TIMED_EPOCHS: usize = 3;
    const BITWISE_LEVEL: f32 = 0.7;

    let config = AlfBlockConfig {
        threshold: 0.5,
        ..AlfBlockConfig::paper_default()
    };
    let hyper = AlfHyper {
        task_lr: 0.05,
        batch_size: p.batch,
        lr_schedule: LrSchedule::Constant,
        ..AlfHyper::default()
    };
    let steps = (p.train / p.batch) as f64;
    // Wider than the throughput runs: at smoke width the ALF convolutions
    // are a small share of step cost and the occupancy signal would drown
    // in scheduler noise. Quadrupling the width makes the elided GEMMs the
    // dominant cost, so the gate measures the hot loop, not the fixed
    // overheads around it.
    let width = p.width * 4;

    println!("\noccupancy sweep (width {width}, sparse execution, min-of-{TIMED_EPOCHS} epochs)");
    println!("{:<12} {:>14} {:>12}", "occupancy", "per-step ms", "live");
    let mut levels = Vec::new();
    let mut sparse_bitwise = true;
    for &occ in &LEVELS {
        let mut model =
            plain20_alf(p.classes, width, config, MODEL_SEED).expect("build sweep model");
        force_occupancy(&mut model, occ);

        let mut trainer =
            AlfTrainer::new(model.clone(), hyper.clone(), DATA_SEED).expect("build sweep trainer");
        trainer.run_epoch(data).expect("warm-up epoch");
        let mut best = f64::INFINITY;
        for _ in 0..TIMED_EPOCHS {
            let start = Instant::now();
            trainer.run_epoch(data).expect("timed epoch");
            best = best.min(start.elapsed().as_secs_f64());
        }
        let per_step_ms = best * 1e3 / steps;
        println!(
            "{:<12} {per_step_ms:>14.2} {:>12}",
            format!("{:.0}%", occ * 100.0),
            format!("{:.2}", trainer.model().remaining_filter_fraction())
        );
        levels.push(OccLevel {
            occupancy: occ,
            per_step_ms,
        });

        // Dense reference at one mid-sweep level: same model, same forced
        // masks, same data order — only the execution path differs.
        if occ == BITWISE_LEVEL {
            let mut dense_model = model;
            dense_model.set_sparse_execution(false);
            let mut dense =
                AlfTrainer::new(dense_model, hyper.clone(), DATA_SEED).expect("build dense ref");
            for _ in 0..=TIMED_EPOCHS {
                dense.run_epoch(data).expect("dense reference epoch");
            }
            sparse_bitwise = state_bits(trainer.model()) == state_bits(dense.model());
        }
    }
    SweepResult {
        levels,
        sparse_bitwise,
    }
}
