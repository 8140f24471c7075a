//! Order statistics, window slicing and work sizing: the rules the benchmark
//! reports by.

use std::time::Instant;

/// Median of `values` (mean of the two middle samples for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Which order statistic [`tail`] picked, recorded beside the whole-window
/// value so a reader knows what it means for this run's sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// `"p90"`, `"11th-largest"` or `"max"`.
    pub rule: &'static str,
    pub samples: usize,
}

/// The tail statistic of a whole window: the highest percentile that still has at least ten
/// samples beyond it. With ≥ 100 samples that is p90 (nearest rank, so 10 %
/// of the samples lie above it); below 100 it is the 11th-largest sample;
/// below 11 samples nothing qualifies and the maximum is reported.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (value, rule) = if n >= 100 {
        // Nearest rank: the ⌈0.9·n⌉-th smallest sample (integer arithmetic,
        // so n = 100 picks the 90th without float rounding).
        (v[(9 * n).div_ceil(10) - 1], "p90")
    } else if n >= 11 {
        (v[n - 11], "11th-largest")
    } else if n > 0 {
        (v[n - 1], "max")
    } else {
        (f64::NAN, "max")
    };
    Tail {
        value,
        rule,
        samples: n,
    }
}

/// One timed op as the slicing sees it: which closed-loop caller issued it,
/// when it started (milliseconds from the window start) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub caller: usize,
    pub start_ms: f64,
    pub latency_ms: f64,
}

impl Op {
    /// An op of `caller` that began at `began` in a window that began at
    /// `window_start`, and ends now.
    pub fn timed(caller: usize, window_start: Instant, began: Instant) -> Self {
        Self {
            caller,
            start_ms: (began - window_start).as_secs_f64() * 1e3,
            latency_ms: began.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// The timing metrics of one slice of the timed window.
#[derive(Debug, Clone, PartialEq)]
pub struct Slice {
    pub ops: usize,
    pub throughput_img_s: f64,
    pub p50_ms: f64,
    /// p90 by nearest rank; the largest sample when the slice has fewer
    /// than ten.
    pub tail_ms: f64,
}

/// Cuts the window into slices of at least `slice_s` seconds. Each caller's
/// ops are cut in order into runs that close with the first op to end
/// `slice_s` or more after the run's first op started, so a slice's wall
/// time is exactly the time its ops took and no op straddles two slices; a
/// trailing run that did not fill is dropped. Slice k is every caller's
/// k-th run: its throughput is the sum of the callers' rates (images ÷ the
/// run's wall time), its latencies are the runs' ops pooled. `ops` must
/// hold each caller's ops in the order they were issued.
pub fn slices(ops: &[Op], images_per_op: f64, slice_s: f64) -> Vec<Slice> {
    struct Run {
        rate: f64,
        latencies: Vec<f64>,
    }
    let callers = ops.iter().map(|op| op.caller + 1).max().unwrap_or(0);
    let mut runs: Vec<Vec<Run>> = Vec::with_capacity(callers);
    for caller in 0..callers {
        let mut done = Vec::new();
        let mut open: Option<(f64, Vec<f64>)> = None;
        for op in ops.iter().filter(|op| op.caller == caller) {
            let (first_start, latencies) = open.get_or_insert((op.start_ms, Vec::new()));
            latencies.push(op.latency_ms);
            let wall_s = (op.start_ms + op.latency_ms - *first_start) / 1e3;
            if wall_s >= slice_s {
                done.push(Run {
                    rate: images_per_op * latencies.len() as f64 / wall_s,
                    latencies: std::mem::take(latencies),
                });
                open = None;
            }
        }
        runs.push(done);
    }
    let count = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..count)
        .map(|k| {
            let pooled: Vec<f64> = runs
                .iter()
                .flat_map(|r| r[k].latencies.iter().copied())
                .collect();
            let mut sorted = pooled.clone();
            sorted.sort_by(f64::total_cmp);
            Slice {
                ops: pooled.len(),
                throughput_img_s: runs.iter().map(|r| r[k].rate).sum(),
                p50_ms: median(&pooled),
                tail_ms: sorted[(9 * sorted.len()).div_ceil(10) - 1],
            }
        })
        .collect()
}

/// The best of `values`: the largest when `higher_is_better`, else the
/// smallest; NaN for an empty slice.
pub fn best(values: impl Iterator<Item = f64>, higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.reduce(pick).unwrap_or(f64::NAN)
}

/// Training-set size such that a run of `seconds` can never cross an epoch
/// boundary (an epoch end triggers a held-out evaluation pass, which is not
/// the work being timed): warm-up steps plus the most steps a host
/// `max_steps_per_s` fast could take, one batch each. The timed loop stops
/// at this cap if a host is faster still.
pub fn train_set_size(
    batch: usize,
    warmup_steps: usize,
    seconds: f64,
    max_steps_per_s: f64,
) -> usize {
    batch * (warmup_steps + step_cap(seconds, max_steps_per_s) + 1)
}

/// Most timed steps a run of `seconds` may take (see [`train_set_size`]).
pub fn step_cap(seconds: f64, max_steps_per_s: f64) -> usize {
    (seconds * max_steps_per_s).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p90_from_100_samples() {
        let t = tail(&ramp(100));
        assert_eq!((t.value, t.rule, t.samples), (90.0, "p90", 100));
        // 10 samples (91..=100) lie beyond it.
        let t = tail(&ramp(1500));
        assert_eq!((t.value, t.rule), (1350.0, "p90"));
    }

    #[test]
    fn tail_is_11th_largest_below_100() {
        let t = tail(&ramp(99));
        assert_eq!((t.value, t.rule), (89.0, "11th-largest"));
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.rule), (1.0, "11th-largest"));
    }

    #[test]
    fn tail_falls_back_to_max_below_11() {
        let t = tail(&ramp(10));
        assert_eq!((t.value, t.rule, t.samples), (10.0, "max", 10));
        assert!(tail(&[]).value.is_nan());
    }

    /// `n` back-to-back ops of `caller`, `ms` each, from `from_ms`.
    fn back_to_back(caller: usize, from_ms: f64, n: usize, ms: f64) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                caller,
                start_ms: from_ms + i as f64 * ms,
                latency_ms: ms,
            })
            .collect()
    }

    #[test]
    fn slices_close_on_the_op_that_fills_them() {
        // 400 ms ops, 1 s slices: 3 ops (1.2 s) each; 7 ops leave one over.
        let s = slices(&back_to_back(0, 0.0, 7, 400.0), 16.0, 1.0);
        assert_eq!(s.len(), 2);
        for slice in &s {
            assert_eq!(slice.ops, 3);
            assert!((slice.throughput_img_s - 48.0 / 1.2).abs() < 1e-9);
            assert_eq!((slice.p50_ms, slice.tail_ms), (400.0, 400.0));
        }
        assert!(slices(&[], 1.0, 1.0).is_empty());
        // One op longer than a slice is a slice of its own.
        assert_eq!(slices(&back_to_back(0, 0.0, 2, 1500.0), 1.0, 1.0).len(), 2);
    }

    #[test]
    fn slices_see_a_slow_spell_and_the_best_slice_does_not() {
        // 10 fast ops, 10 ops half as fast, 10 fast ops.
        let mut ops = back_to_back(0, 0.0, 10, 100.0);
        ops.extend(back_to_back(0, 1000.0, 10, 200.0));
        ops.extend(back_to_back(0, 3000.0, 10, 100.0));
        let s = slices(&ops, 1.0, 1.0);
        let p50: Vec<f64> = s.iter().map(|s| s.p50_ms).collect();
        assert_eq!(p50, [100.0, 200.0, 200.0, 100.0]);
        assert_eq!(best(p50.into_iter(), false), 100.0);
        let thr: Vec<f64> = s.iter().map(|s| s.throughput_img_s).collect();
        assert_eq!(thr, [10.0, 5.0, 5.0, 10.0]);
        assert_eq!(best(thr.into_iter(), true), 10.0);
        assert!(best(std::iter::empty(), true).is_nan());
    }

    #[test]
    fn slices_sum_the_callers_rates_and_pool_their_latencies() {
        // Two connections, 10 ms and 20 ms requests, 1 s slices, 2.5 s each.
        let mut ops = back_to_back(0, 0.0, 250, 10.0);
        ops.extend(back_to_back(1, 0.0, 125, 20.0));
        let s = slices(&ops, 1.0, 1.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].ops, 150);
        assert!((s[0].throughput_img_s - 150.0).abs() < 1e-9);
        // 100 samples of 10 ms, 50 of 20 ms: the median is 10, the p90 20.
        assert_eq!((s[0].p50_ms, s[0].tail_ms), (10.0, 20.0));
    }

    #[test]
    fn slice_tail_is_nearest_rank_p90() {
        let ops: Vec<Op> = (1..=20)
            .map(|i| Op {
                caller: 0,
                start_ms: 0.0,
                latency_ms: f64::from(i),
            })
            .collect();
        // All start at 0, so the slice closes with the 20 ms op.
        let s = slices(&ops, 1.0, 0.02);
        assert_eq!((s.len(), s[0].ops, s[0].tail_ms), (1, 20, 18.0));
        // Below ten samples the nearest rank is the largest.
        let s = slices(&back_to_back(0, 0.0, 6, 350.0), 1.0, 2.0);
        assert_eq!((s[0].ops, s[0].tail_ms), (6, 350.0));
    }

    #[test]
    fn train_set_never_crosses_an_epoch() {
        // 10 s at no more than 8 steps/s: 80 timed + 2 warm-up + 1 spare.
        assert_eq!(step_cap(10.0, 8.0), 80);
        assert_eq!(train_set_size(16, 2, 10.0, 8.0), 16 * 83);
        // A quick run still gets at least one timed step.
        assert_eq!(step_cap(0.01, 8.0), 1);
        // The epoch has strictly more batches than warm-up + cap, so the
        // step that would end it is never taken.
        let n = train_set_size(16, 2, 1.2, 8.0);
        assert!(n / 16 > 2 + step_cap(1.2, 8.0));
    }
}
