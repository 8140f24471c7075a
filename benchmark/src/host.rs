//! What the numbers were measured on: core count, CPU, thread knobs, and a
//! spin calibration that detects a host whose speed changed mid-run.

use std::time::{Duration, Instant};

/// Thread knobs the program reads. The harness sets none of them; a value
/// inherited from the caller's environment is recorded, not overridden.
pub const THREAD_KNOBS: [&str; 4] = [
    "ALF_GEMM_THREADS",
    "ALF_DP_THREADS",
    "ALF_NET_THREADS",
    "ALF_EVAL_THREADS",
];

#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpu_flags: String,
    /// `(knob, value)`; `"unset"` means the program falls back to `nproc`.
    pub thread_knobs: Vec<(&'static str, String)>,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |v| v.get())
}

fn cpuinfo_field(info: &str, key: &str) -> String {
    info.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

pub fn record() -> HostRecord {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    HostRecord {
        nproc: nproc(),
        cpu_model: cpuinfo_field(&info, "model name"),
        cpu_flags: cpuinfo_field(&info, "flags"),
        thread_knobs: THREAD_KNOBS
            .iter()
            .map(|&k| (k, std::env::var(k).unwrap_or_else(|_| "unset".to_string())))
            .collect(),
    }
}

/// One unit of spin work: a dependent xorshift chain that lives in
/// registers (and has no closed form for the compiler to fold), so its time
/// tracks core clock and SMT-sibling pressure and nothing else.
#[inline(never)]
fn spin_unit() -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1u32 << 20) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Spins for about `budget` and returns the median time of one spin unit in
/// milliseconds. On the reference host a unit takes ~2 ms with the SMT
/// sibling idle and ~27 % longer with it busy.
pub fn spin_ms(budget: Duration) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        spin_unit();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Peak resident set of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
