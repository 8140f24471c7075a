//! GEMM throughput benchmark: blocked kernel vs the seed reference loops.
//!
//! Measures the cache-blocked kernel (`alf_tensor::ops::gemm`) against the
//! preserved seed loops (`alf_tensor::ops::reference`) across a ladder of
//! shapes, reports GFLOP/s and speedups, sweeps worker-thread counts, and
//! sweeps `ActiveRows` occupancy against dense on a `Wcode`-shaped
//! problem. Results go to stdout as a table and to `BENCH_gemm.json`.
//!
//! `--scale smoke` (default) finishes in seconds and **gates**: the
//! process exits nonzero if the blocked kernel is slower than the
//! reference at the largest smoke shape, so CI catches kernel
//! regressions. `--scale paper` adds the training-hot-loop shape
//! `[256×1152]·[1152×1024]` (a width-128 conv layer's forward GEMM) and a
//! 512³ cube.

use std::time::{Duration, Instant};

use alf_bench::Scale;
use alf_obs::json::JsonWriter;
use alf_tensor::init::Init;
use alf_tensor::ops::{
    auto_threads, gemm_active_rows_into, gemm_into, reference, ActiveRows, Workspace,
};
use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

/// Wall-clock budget per measured kernel/shape pair.
const BUDGET: Duration = Duration::from_millis(1200);
/// Sample cap per kernel/shape pair.
const MAX_SAMPLES: usize = 15;
/// Thread counts swept for the scaling section.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

fn main() {
    let scale = Scale::from_args();
    let shapes: Vec<(usize, usize, usize)> = match scale {
        Scale::Smoke => vec![(64, 128, 64), (128, 256, 128), (192, 384, 256)],
        Scale::Paper => vec![
            (64, 128, 64),
            (128, 256, 128),
            (192, 384, 256),
            (256, 1152, 1024),
            (512, 512, 512),
        ],
    };

    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!(
        "GEMM bench  scale={}  host-threads={host_threads}",
        scale.label()
    );
    println!(
        "{:<18} {:>10} {:>10} {:>8}   threads GF/s (scaling)",
        "shape", "ref GF/s", "blk GF/s", "speedup"
    );

    let mut rng = Rng::new(0xa1f);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("bench", "gemm");
    w.field_str("scale", scale.label());
    w.field_u64("host_threads", host_threads as u64);
    w.key("shapes");
    w.begin_array();
    let mut gate_speedup = f64::NAN;

    for &(m, k, n) in &shapes {
        let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
        let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
        let flops = 2.0 * m as f64 * k as f64 * n as f64;

        // Correctness cross-check before timing anything.
        let expect = reference::matmul(&a, &b).expect("reference matmul");
        let mut ws = Workspace::new();
        let mut c = vec![0.0f32; m * n];
        gemm_into(
            &mut c,
            a.data(),
            false,
            b.data(),
            false,
            m,
            k,
            n,
            &mut ws,
            1,
        );
        assert_close(&c, expect.data(), m, k, n);

        let t_ref = time_median(|| {
            std::hint::black_box(reference::matmul(&a, &b).unwrap());
        });
        let mut per_thread = Vec::new();
        for &threads in &THREAD_SWEEP {
            let t = time_median(|| {
                gemm_into(
                    &mut c,
                    a.data(),
                    false,
                    b.data(),
                    false,
                    m,
                    k,
                    n,
                    &mut ws,
                    threads,
                );
                std::hint::black_box(&c);
            });
            per_thread.push((threads, t));
        }

        let t_blk1 = per_thread[0].1;
        let gf = |t: Duration| flops / t.as_secs_f64() / 1e9;
        let speedup = t_ref.as_secs_f64() / t_blk1.as_secs_f64();
        gate_speedup = speedup; // last shape wins: the ladder is ascending

        let scaling: Vec<String> = per_thread
            .iter()
            .map(|&(th, t)| {
                format!(
                    "{th}t:{:.2} ({:.2}x)",
                    gf(t),
                    t_blk1.as_secs_f64() / t.as_secs_f64()
                )
            })
            .collect();
        println!(
            "{:<18} {:>10.2} {:>10.2} {:>7.2}x   {}",
            format!("{m}x{k}x{n}"),
            gf(t_ref),
            gf(t_blk1),
            speedup,
            scaling.join("  ")
        );

        w.begin_object();
        w.field_u64("m", m as u64);
        w.field_u64("k", k as u64);
        w.field_u64("n", n as u64);
        // What the auto-dispatch would actually engage for this shape on
        // this host (1 on single-core hosts regardless of shape).
        w.field_u64("engaged_threads", auto_threads(m, k, n) as u64);
        w.field_f64("reference_ms", t_ref.as_secs_f64() * 1e3);
        w.field_f64("reference_gflops", gf(t_ref));
        w.field_f64("blocked_1t_ms", t_blk1.as_secs_f64() * 1e3);
        w.field_f64("blocked_1t_gflops", gf(t_blk1));
        w.field_f64("speedup_1t", speedup);
        w.key("threads");
        w.begin_array();
        for &(th, t) in &per_thread {
            w.begin_object();
            w.field_u64("threads", th as u64);
            w.field_f64("ms", t.as_secs_f64() * 1e3);
            w.field_f64("gflops", gf(t));
            w.field_f64("scaling", t_blk1.as_secs_f64() / t.as_secs_f64());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();

    let occupancy_ok = bench_occupancy(scale, &mut rng, &mut w);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write("BENCH_gemm.json", &json).expect("write BENCH_gemm.json");
    println!("\nwrote BENCH_gemm.json");

    // Smoke gate: the blocked kernel must not lose to the seed loops at the
    // largest shape of the ladder.
    if gate_speedup < 1.0 {
        eprintln!(
            "FAIL: blocked GEMM is {gate_speedup:.2}x the reference at the largest shape \
             (expected >= 1.0x)"
        );
        std::process::exit(1);
    }
    // Occupancy gate: packed-panel elision must pay off more the emptier
    // the mask gets — speedup strictly increasing in the zero-row
    // fraction. Elided work scales with live rows, so this is a property
    // of the packing path, not of host speed.
    if !occupancy_ok {
        eprintln!(
            "FAIL: packed-elision speedup is not strictly increasing in the zero-row fraction"
        );
        std::process::exit(1);
    }
}

/// Dense blocked GEMM vs the packed-panel elision path at rising
/// zero-row fractions. Writes the `occupancy_sweep` array and
/// `occupancy_gate_ok` field; returns whether the speedup was strictly
/// increasing in the zero-row fraction.
fn bench_occupancy(scale: Scale, rng: &mut Rng, w: &mut JsonWriter) -> bool {
    let (m, k, n) = match scale {
        Scale::Smoke => (64, 288, 2048),
        Scale::Paper => (128, 1152, 8192),
    };
    let b = Tensor::randn(&[k, n], Init::Rand, rng);
    let mut ws = Workspace::new();
    let mut c = vec![0.0f32; m * n];

    println!("\noccupancy sweep ({m}x{k}x{n}, packed-panel elision)");
    w.key("occupancy_sweep");
    w.begin_array();
    let mut speedups = Vec::new();
    for &(num, den) in &[(1usize, 4usize), (2, 4), (3, 4)] {
        let zero_fraction = num as f64 / den as f64;
        // Strided liveness: row i dead iff i % den < num, so dead rows
        // interleave with live ones the way mid-training pruning does.
        let mut a = Tensor::randn(&[m, k], Init::Rand, rng);
        let mut live = vec![1.0f32; m];
        for (i, alive) in live.iter_mut().enumerate() {
            if i % den < num {
                *alive = 0.0;
                a.data_mut()[i * k..(i + 1) * k].fill(0.0);
            }
        }
        let rows = ActiveRows::from_mask(&live);

        let t_dense = time_median(|| {
            gemm_into(
                &mut c,
                a.data(),
                false,
                b.data(),
                false,
                m,
                k,
                n,
                &mut ws,
                1,
            );
            std::hint::black_box(&c);
        });
        let dense_bits: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
        let t_sparse = time_median(|| {
            gemm_active_rows_into(
                &mut c,
                a.data(),
                b.data(),
                false,
                m,
                k,
                n,
                &rows,
                &mut ws,
                1,
            );
            std::hint::black_box(&c);
        });
        // The whole point of the design: elision is bitwise-invisible.
        let sparse_bits: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            dense_bits, sparse_bits,
            "packed elision diverged from dense at zero fraction {zero_fraction}"
        );

        let speedup = t_dense.as_secs_f64() / t_sparse.as_secs_f64();
        println!(
            "  {:>4.0}% rows zero   dense {:.3} ms   elided {:.3} ms   {:.2}x",
            zero_fraction * 100.0,
            t_dense.as_secs_f64() * 1e3,
            t_sparse.as_secs_f64() * 1e3,
            speedup
        );
        w.begin_object();
        w.field_f64("zero_row_fraction", zero_fraction);
        w.field_u64("live_rows", rows.len() as u64);
        w.field_f64("dense_ms", t_dense.as_secs_f64() * 1e3);
        w.field_f64("elided_ms", t_sparse.as_secs_f64() * 1e3);
        w.field_f64("speedup", speedup);
        w.end_object();
        speedups.push(speedup);
    }
    w.end_array();
    let ok = speedups.windows(2).all(|p| p[1] > p[0]);
    w.field_bool("occupancy_gate_ok", ok);
    ok
}

/// Median wall-clock of repeated runs: one warm-up, then up to
/// [`MAX_SAMPLES`] samples within [`BUDGET`].
fn time_median(mut f: impl FnMut()) -> Duration {
    f();
    let mut samples = Vec::with_capacity(MAX_SAMPLES);
    let deadline = Instant::now() + BUDGET;
    for _ in 0..MAX_SAMPLES {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
        if Instant::now() >= deadline {
            break;
        }
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Relative-error check between the blocked and reference results.
fn assert_close(got: &[f32], want: &[f32], m: usize, k: usize, n: usize) {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&g, &w) in got.iter().zip(want.iter()) {
        num += f64::from(g - w) * f64::from(g - w);
        den += f64::from(w) * f64::from(w);
    }
    let rel = (num / den.max(1e-30)).sqrt();
    assert!(
        rel < 1e-4,
        "blocked GEMM diverges from reference at {m}x{k}x{n}: rel err {rel:.2e}"
    );
}
