//! Filter pruning via geometric median (He et al., CVPR 2019).
//!
//! FPGM's insight: filters close to the *geometric median* of a layer's
//! filter set are the most replaceable (their information is representable
//! by the others), so they are pruned first — regardless of their norm.
//! The geometric median is computed exactly (to tolerance) with the
//! Weiszfeld fixed-point iteration.

use alf_core::model::ConvKind;
use alf_core::CnnModel;
use alf_tensor::Tensor;

/// Computes the geometric median of `points` (rows of length `dim`) with
/// Weiszfeld's algorithm.
///
/// # Panics
///
/// Panics when `points` is empty or rows have inconsistent lengths.
pub fn geometric_median(points: &[Vec<f32>], iterations: usize, tol: f32) -> Vec<f32> {
    assert!(!points.is_empty(), "geometric median of empty set");
    let dim = points[0].len();
    assert!(
        points.iter().all(|p| p.len() == dim),
        "inconsistent point dimensions"
    );
    // Start at the centroid.
    let mut median = vec![0.0f32; dim];
    for p in points {
        for (m, &v) in median.iter_mut().zip(p) {
            *m += v;
        }
    }
    for m in &mut median {
        *m /= points.len() as f32;
    }
    for _ in 0..iterations {
        let mut numer = vec![0.0f32; dim];
        let mut denom = 0.0f32;
        let mut coincident = false;
        for p in points {
            let dist = p
                .iter()
                .zip(&median)
                .map(|(&a, &b)| (a - b) * (a - b))
                .sum::<f32>()
                .sqrt();
            if dist < 1e-9 {
                coincident = true;
                continue;
            }
            let w = 1.0 / dist;
            for (n, &v) in numer.iter_mut().zip(p) {
                *n += w * v;
            }
            denom += w;
        }
        if denom == 0.0 {
            break; // all points coincide with the median
        }
        let next: Vec<f32> = numer.iter().map(|&n| n / denom).collect();
        let shift: f32 = next
            .iter()
            .zip(&median)
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        median = next;
        if shift < tol && !coincident {
            break;
        }
    }
    median
}

/// Ranks the filters of a conv weight `[Co, Ci, K, K]` by ascending
/// distance to the geometric median of the filter set — the head of the
/// list (closest to the median, most redundant) is pruned first.
pub(crate) fn fpgm_ranking(w: &Tensor) -> Vec<usize> {
    let co = w.dims()[0];
    let fan = w.len() / co.max(1);
    let points: Vec<Vec<f32>> = (0..co)
        .map(|j| w.data()[j * fan..(j + 1) * fan].to_vec())
        .collect();
    let median = geometric_median(&points, 100, 1e-6);
    let mut dists: Vec<(usize, f32)> = points
        .iter()
        .enumerate()
        .map(|(j, p)| {
            (
                j,
                p.iter()
                    .zip(&median)
                    .map(|(&a, &b)| (a - b) * (a - b))
                    .sum::<f32>(),
            )
        })
        .collect();
    dists.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    dists.into_iter().map(|(j, _)| j).collect()
}

/// Applies FPGM to a whole model, silencing the `1 − keep_ratio` most
/// median-like filters of every standard conv layer. Returns
/// `(layer name, kept, total)` per layer.
///
/// # Panics
///
/// Panics if `keep_ratio` is outside `(0, 1]`.
pub fn prune_filters(model: &mut CnnModel, keep_ratio: f32) -> Vec<(String, usize, usize)> {
    assert!(
        keep_ratio > 0.0 && keep_ratio <= 1.0,
        "keep_ratio {keep_ratio} ∉ (0,1]"
    );
    let mut report = Vec::new();
    for cu in model.conv_units_mut() {
        let ConvKind::Standard(conv) = cu.conv() else {
            continue;
        };
        let total = conv.c_out();
        let kept = ((total as f32 * keep_ratio).round() as usize).clamp(1, total);
        let ranking = fpgm_ranking(conv.weight());
        let to_prune: Vec<usize> = ranking[..total - kept].to_vec();
        let name = cu.name().to_string();
        cu.zero_output_channels(&to_prune);
        report.push((name, kept, total));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;

    #[test]
    fn median_of_single_point_is_the_point() {
        let m = geometric_median(&[vec![1.0, 2.0]], 50, 1e-6);
        assert!((m[0] - 1.0).abs() < 1e-5 && (m[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn median_of_symmetric_points_is_center() {
        let pts = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let m = geometric_median(&pts, 200, 1e-7);
        assert!(m[0].abs() < 1e-3 && m[1].abs() < 1e-3, "{m:?}");
    }

    #[test]
    fn median_is_robust_to_outliers_unlike_mean() {
        // 3 points at the origin cluster, 1 far away: the geometric median
        // stays near the cluster while the mean is dragged out.
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![100.0, 100.0],
        ];
        let m = geometric_median(&pts, 500, 1e-7);
        assert!(m[0] < 1.0 && m[1] < 1.0, "median dragged to {m:?}");
    }

    #[test]
    fn ranking_puts_median_like_filter_first() {
        // Filters: three spread out, one exactly at their median region.
        let mut w = Tensor::zeros(&[4, 1, 1, 2]);
        let vals = [[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0], [0.0, 0.1]];
        for (j, v) in vals.iter().enumerate() {
            w.data_mut()[j * 2] = v[0];
            w.data_mut()[j * 2 + 1] = v[1];
        }
        let ranking = fpgm_ranking(&w);
        assert_eq!(ranking[0], 3, "most median-like filter should rank first");
    }

    #[test]
    fn fpgm_differs_from_magnitude_on_crafted_weights() {
        // A small-norm filter far from the median should be KEPT by FPGM
        // but pruned by magnitude.
        let mut w = Tensor::zeros(&[3, 1, 1, 2]);
        // two big coincident filters + one small orthogonal one.
        let vals = [[5.0, 0.0], [5.0, 0.01], [0.0, 0.2]];
        for (j, v) in vals.iter().enumerate() {
            w.data_mut()[j * 2] = v[0];
            w.data_mut()[j * 2 + 1] = v[1];
        }
        let fpgm = fpgm_ranking(&w);
        let magnitude = crate::magnitude::filter_ranking(&w);
        assert_eq!(magnitude[0], 2, "magnitude prunes the small filter");
        assert_ne!(fpgm[0], 2, "fpgm keeps the distinctive small filter");
    }

    #[test]
    fn model_level_pruning_reports_all_layers() {
        let mut model = plain20(4, 4).unwrap();
        let report = prune_filters(&mut model, 0.75);
        assert_eq!(report.len(), 19);
        for (_, kept, total) in &report {
            assert_eq!(*kept, (*total as f32 * 0.75).round() as usize);
        }
    }
}
