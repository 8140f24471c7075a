//! The repo benchmark: one workload per process, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! alf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out <dir>] [--commit <id>] [--setups <n>]
//! alf-benchmark --list
//! ```
//!
//! The last line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything above it is
//! the same numbers for a human. The exit code is nonzero when any op or
//! any oracle failed.

mod host;
mod probes;
mod stats;
mod surface;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use probes::Metric;
use surface::JsonWriter;
use trace::SpanLog;
use workloads::{Config, Window, Workload};

/// Name and unit of every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_img_s", "img/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// A run sets up this many times and reports the median, so that one slow
/// page-fault storm does not decide `setup_s`.
const SETUP_REPEATS: usize = 3;
/// A traced run spends this share of `--seconds` in the workload (every
/// other op carries spans: an eighth of a full run's op count) and the rest
/// of its time in the probes.
const TRACED_WINDOW_SHARE: f64 = 0.25;
/// Least length of a slice of the timed window (see [`end_to_end`]): long
/// enough for 5 training steps or 12 inference jobs, short enough that a
/// quiet spell of the host fits one.
const SLICE_SECONDS: f64 = 2.0;
const SPIN_BUDGET: Duration = Duration::from_millis(200);
/// Spin calibrations further apart than this mean the host changed speed
/// during the run.
const NOISY_HOST_RATIO: f64 = 1.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    commit: String,
    setups: usize,
}

fn usage(problem: &str) -> ! {
    eprintln!("alf-benchmark: {problem}");
    eprintln!(
        "usage: alf-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] [--commit <id>] [--setups <n>]",
        workloads::WORKLOADS.map(|(n, _)| n).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
        commit: "unknown".to_string(),
        setups: SETUP_REPEATS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            for (name, why) in workloads::WORKLOADS {
                println!("{name}\t{why}");
            }
            std::process::exit(0);
        }
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name"),
            "--seed" => {
                args.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed is not a whole number"));
            }
            "--seconds" => {
                args.seconds = value("a number")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds is not a positive number"));
            }
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory"))),
            "--commit" => args.commit = value("an id"),
            "--setups" => {
                args.setups = value("a count")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage("--setups is not a positive count"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !workloads::WORKLOADS
        .iter()
        .any(|(n, _)| *n == args.workload)
    {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    // Every caller's ops span the whole window, so this leaves each at
    // least one full slice to report.
    if args.seconds < 1.25 * SLICE_SECONDS {
        usage(&format!(
            "--seconds must be at least {}, one slice and a margin",
            1.25 * SLICE_SECONDS
        ));
    }
    args
}

/// What the three timing metrics were read from: the slices of the window
/// and, for the reader, the same statistics over the whole window.
struct Timing {
    slices: Vec<stats::Slice>,
    whole_p50_ms: f64,
    whole_tail: stats::Tail,
}

/// The five end-to-end metrics of one untraced window. Throughput, median
/// and tail latency are each the best that any one slice of the window
/// showed: the host's slow spells (a neighbour on the sibling hardware
/// thread, 2–15 s at a time) only ever make a slice worse, so the best slice
/// is what the program does on a quiet host and repeats between runs where
/// whole-window statistics do not (README, "A/A").
fn end_to_end(setup_s: f64, window: &Window, peak_rss_mb: f64) -> (Vec<Metric>, Timing) {
    let slices = stats::slices(&window.ops(), window.images_per_op(), SLICE_SECONDS);
    let best = |value: fn(&stats::Slice) -> f64, higher_is_better| {
        stats::best(slices.iter().map(value), higher_is_better)
    };
    let values = [
        setup_s,
        best(|s| s.throughput_img_s, true),
        best(|s| s.p50_ms, false),
        best(|s| s.tail_ms, false),
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let lat = window.latencies_ms(None);
    let timing = Timing {
        slices,
        whole_p50_ms: stats::median(&lat),
        whole_tail: stats::tail(&lat),
    };
    (metrics, timing)
}

struct Outcome {
    notes: Vec<String>,
    metrics: Vec<Metric>,
    window: Window,
    verify_failures: Vec<String>,
    timing: Option<Timing>,
    spin_before: f64,
    spin_after: f64,
    spans: Option<SpanLog>,
}

fn run_untraced(args: &Args, cfg: Config) -> Outcome {
    let spin_before = host::spin_ms(SPIN_BUDGET);
    let oracle = workloads::oracle(&args.workload, cfg);
    let mut setups = Vec::with_capacity(args.setups);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..args.setups {
        // The previous set-up is torn down before the clock starts.
        drop(workload.take());
        let t = Instant::now();
        workload = workloads::setup(&args.workload, cfg, &oracle);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let window = workload.run(cfg.seconds, None);
    // Before the post-run oracles: their replicas are not the workload's.
    let peak_rss_mb = host::peak_rss_mb();
    let verify_failures = workload.verify();
    let notes = workload.notes();
    drop(workload);
    let spin_after = host::spin_ms(SPIN_BUDGET);
    let (metrics, timing) = end_to_end(stats::median(&setups), &window, peak_rss_mb);
    Outcome {
        notes,
        metrics,
        window,
        verify_failures,
        timing: Some(timing),
        spin_before,
        spin_after,
        spans: None,
    }
}

fn run_traced(args: &Args, cfg: Config) -> Outcome {
    let mut spans = SpanLog::new(Instant::now());
    let spin_before = host::spin_ms(SPIN_BUDGET);
    let oracle = workloads::oracle(&args.workload, cfg);
    let mut workload = workloads::setup(&args.workload, cfg, &oracle).expect("known workload");
    let window = workload.run(cfg.seconds * TRACED_WINDOW_SHARE, Some(&mut spans));
    let verify_failures = workload.verify();
    let counts = workload.layer_counts();
    let notes = workload.notes();
    drop(workload);

    let (mut metrics, probe_responses) = probes::run_all(args.seed, &mut spans);
    let spin_after = host::spin_ms(SPIN_BUDGET);

    let traced = stats::median(&window.latencies_ms(Some(true)));
    let untraced = stats::median(&window.latencies_ms(Some(false)));
    let submit_wait = metrics
        .iter()
        .find(|m| m.name == "serve.submit_wait_ms_b1")
        .map_or(f64::NAN, |m| m.value);
    // What HTTP adds to a request the in-process server would answer in
    // `submit_wait`; only the HTTP workload has it.
    let net_tax = if args.workload == "serve_http" {
        traced - submit_wait
    } else {
        0.0
    };
    // Both tallies were checked against their clients where they were made.
    let responses = counts.net_responses + probe_responses;
    let values = [
        counts.mean_batch,
        counts.arena_allocs as f64,
        net_tax,
        responses as f64,
        host::nproc() as f64,
        spin_before,
        spin_after,
        100.0 * (traced - untraced) / untraced,
        traced,
    ];
    metrics.extend(
        probes::WORKLOAD_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit }),
    );
    Outcome {
        notes,
        metrics,
        window,
        verify_failures,
        timing: None,
        spin_before,
        spin_after,
        spans: Some(spans),
    }
}

/// `"metrics": {name: {"value", "unit"}, …}` in the contract's form.
fn write_metrics(w: &mut JsonWriter, metrics: &[Metric]) {
    w.key("metrics");
    w.begin_object();
    for m in metrics {
        w.key(m.name);
        w.begin_object();
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
}

/// The contract's result line.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", correct);
    w.field_u64("attempted", attempted);
    w.field_u64("failed", failed);
    write_metrics(&mut w, metrics);
    w.end_object();
    w.finish()
}

/// The full record of one run: the result line's content plus the host,
/// the tail rule used and the failure messages.
fn record_json(args: &Args, cfg: Config, o: &Outcome, correct: bool, failed: u64) -> String {
    let host = host::record();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_f64("seconds", args.seconds);
    w.field_bool("trace", args.trace);
    w.field_str("commit", &args.commit);
    w.field_u64("workers", cfg.workers as u64);
    w.key("host");
    w.begin_object();
    w.field_u64("nproc", host.nproc as u64);
    w.field_str("cpu_model", &host.cpu_model);
    w.field_str("cpu_flags", &host.cpu_flags);
    for (knob, value) in &host.thread_knobs {
        w.field_str(knob, value);
    }
    w.field_f64("spin_ms_before", o.spin_before);
    w.field_f64("spin_ms_after", o.spin_after);
    w.field_bool("noisy_host", noisy(o));
    w.end_object();
    w.field_bool("correct", correct);
    w.field_u64("attempted", o.window.attempted);
    w.field_u64("failed", failed);
    w.field_f64("window_s", o.window.wall_s);
    if let Some(t) = &o.timing {
        // What the best-slice metrics were chosen from, and the same
        // statistics over the whole window (which move with the host).
        w.key("slices");
        w.begin_array();
        for s in &t.slices {
            w.begin_object();
            w.field_u64("ops", s.ops as u64);
            w.field_f64("throughput_img_s", s.throughput_img_s);
            w.field_f64("latency_ms_p50", s.p50_ms);
            w.field_f64("latency_ms_tail", s.tail_ms);
            w.end_object();
        }
        w.end_array();
        w.key("whole_window");
        w.begin_object();
        w.field_f64("throughput_img_s", o.window.throughput_img_s());
        w.field_f64("latency_ms_p50", t.whole_p50_ms);
        w.field_f64("latency_ms_tail", t.whole_tail.value);
        w.field_str("tail_statistic", t.whole_tail.rule);
        w.field_u64("samples", t.whole_tail.samples as u64);
        w.end_object();
    }
    // Every op latency, each caller's in the order it issued them, so a
    // later analysis can try another statistic without rerunning.
    w.field_f64s("latencies_ms", o.window.latencies_ms(None));
    w.key("failures");
    w.begin_array();
    for e in o.window.errors.iter().chain(&o.verify_failures) {
        w.value_str(e);
    }
    w.end_array();
    write_metrics(&mut w, &o.metrics);
    w.end_object();
    let mut json = w.finish();
    json.push('\n');
    json
}

fn noisy(o: &Outcome) -> bool {
    let (a, b) = (o.spin_before, o.spin_after);
    a.max(b) / a.min(b) > NOISY_HOST_RATIO
}

fn main() {
    let args = parse_args();
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        workers: host::nproc(),
    };
    let outcome = if args.trace {
        run_traced(&args, cfg)
    } else {
        run_untraced(&args, cfg)
    };

    let failed = outcome.window.failed + outcome.verify_failures.len() as u64;
    let all_numbers = outcome.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && all_numbers && outcome.window.attempted > 0;

    println!(
        "workload {}  seed {}  seconds {}  trace {}  workers {}  commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cfg.workers,
        args.commit
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(t) = &outcome.timing {
        let ops: Vec<f64> = t.slices.iter().map(|s| s.ops as f64).collect();
        println!(
            "throughput and latencies are each the best of {} slices of >= {SLICE_SECONDS} s \
             (median {} ops each; the slice tail is its p90, its largest op below 10 ops)",
            t.slices.len(),
            stats::median(&ops)
        );
        println!(
            "whole window: {:.3} img/s, p50 {:.3} ms, {} {:.3} ms of {} ops",
            outcome.window.throughput_img_s(),
            t.whole_p50_ms,
            t.whole_tail.rule,
            t.whole_tail.value,
            t.whole_tail.samples
        );
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "ops attempted {}  failed {}  window {:.3} s",
        outcome.window.attempted, failed, outcome.window.wall_s
    );
    for e in outcome.window.errors.iter().chain(&outcome.verify_failures) {
        println!("FAILED: {e}");
    }
    if noisy(&outcome) {
        println!(
            "WARNING noisy_host: spin calibration moved from {:.3} ms to {:.3} ms during the \
             run (more than {:.0} %); treat this run's timings with suspicion",
            outcome.spin_before,
            outcome.spin_after,
            100.0 * (NOISY_HOST_RATIO - 1.0)
        );
    }

    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create the output directory");
        let kind = if args.trace { "layers" } else { "result" };
        let path = dir.join(format!("{kind}_{}.json", args.workload));
        std::fs::write(&path, record_json(&args, cfg, &outcome, correct, failed))
            .expect("write the run record");
        if let Some(spans) = &outcome.spans {
            let path = dir.join(format!("trace_{}.json", args.workload));
            std::fs::write(&path, spans.to_json(&args.workload)).expect("write the span file");
            println!("{} spans written to {}", spans.len(), path.display());
        }
    }

    println!(
        "{}",
        result_json(
            correct,
            outcome.window.attempted.max(1),
            failed,
            &outcome.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it and the harness
    /// naming the same metrics with the same units.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit) in END_TO_END {
            assert!(listed(name, unit), "end_to_end lacks {name} [{unit}]");
        }
        let mut spans = SpanLog::new(Instant::now());
        let (metrics, _) = probes::run_all(1, &mut spans);
        let per_layer: Vec<(&str, &str)> = metrics
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(probes::WORKLOAD_METRICS)
            .collect();
        for &(name, unit) in &per_layer {
            assert!(listed(name, unit), "per_layer lacks {name} [{unit}]");
        }
        let names = text.matches("\"name\": ").count();
        assert_eq!(
            names,
            workloads::WORKLOADS.len() + END_TO_END.len() + per_layer.len(),
            "BENCHMARK.json names something the harness does not emit"
        );
        for (name, _) in workloads::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\"")),
                "workloads lacks {name}"
            );
        }
    }
}
