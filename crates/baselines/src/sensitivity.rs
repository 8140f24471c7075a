//! Per-layer pruning-sensitivity analysis (Han et al., NeurIPS 2015).
//!
//! The classic handcrafted-pruning workflow measures, for each layer in
//! isolation, how accuracy degrades as that layer's filters are pruned —
//! the "pruning sensitivity" that the paper's `νprune` schedule adopts
//! adaptively (§III-B). This module reproduces the static analysis so the
//! two can be compared.

use alf_core::model::ConvKind;
use alf_core::train::evaluate;
use alf_core::CnnModel;
use alf_data::{Dataset, Split};

use crate::magnitude::filter_ranking;
use crate::Result;

/// Sensitivity curve of one layer: accuracy at each probed keep-ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSensitivity {
    /// Layer name.
    pub name: String,
    /// `(keep_ratio, accuracy)` points, in the probe order.
    pub points: Vec<(f32, f32)>,
}

impl LayerSensitivity {
    /// The smallest probed keep-ratio whose accuracy stays within
    /// `tolerance` of the dense accuracy (`points` with ratio 1.0 must be
    /// present) — the layer's prunability under this tolerance.
    pub fn max_safe_pruning(&self, tolerance: f32) -> Option<f32> {
        let dense = self
            .points
            .iter()
            .find(|(r, _)| *r >= 1.0)
            .map(|(_, a)| *a)?;
        self.points
            .iter()
            .filter(|(_, a)| *a >= dense - tolerance)
            .map(|(r, _)| *r)
            .fold(None, |m: Option<f32>, r| Some(m.map_or(r, |mv| mv.min(r))))
    }
}

/// Probes each conv layer of `model` in isolation: prunes it (magnitude
/// ranking, channel silencing) to every ratio in `keep_ratios` while all
/// other layers stay dense, and measures test accuracy.
///
/// # Errors
///
/// Propagates evaluation shape errors.
///
/// # Panics
///
/// Panics if any ratio is outside `(0, 1]`.
pub fn layer_sensitivity(
    model: &CnnModel,
    data: &Dataset,
    keep_ratios: &[f32],
    eval_batch: usize,
) -> Result<Vec<LayerSensitivity>> {
    assert!(
        keep_ratios.iter().all(|r| *r > 0.0 && *r <= 1.0),
        "keep ratios must lie in (0, 1]"
    );
    // Collect layer names/kinds up front.
    let mut probe = model.clone();
    let layer_info: Vec<(usize, String)> = probe
        .conv_units_mut()
        .into_iter()
        .enumerate()
        .filter(|(_, cu)| matches!(cu.conv(), ConvKind::Standard(_)))
        .map(|(i, cu)| (i, cu.name().to_string()))
        .collect();
    let mut out = Vec::with_capacity(layer_info.len());
    for (index, name) in layer_info {
        let mut points = Vec::with_capacity(keep_ratios.len());
        for &ratio in keep_ratios {
            let mut pruned = model.clone();
            {
                let mut units = pruned.conv_units_mut();
                let cu = &mut units[index];
                if let ConvKind::Standard(conv) = cu.conv() {
                    let total = conv.c_out();
                    let kept = ((total as f32 * ratio).round() as usize).clamp(1, total);
                    let ranking = filter_ranking(conv.weight());
                    let to_prune: Vec<usize> = ranking[..total - kept].to_vec();
                    cu.zero_output_channels(&to_prune);
                }
            }
            let acc = evaluate(&pruned, data, Split::Test, eval_batch)?;
            points.push((ratio, acc));
        }
        out.push(LayerSensitivity { name, points });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alf_core::models::plain20;
    use alf_data::SynthVision;

    fn data() -> Dataset {
        SynthVision::cifar_like(17)
            .with_image_size(12)
            .with_max_shift(1)
            .with_num_classes(4)
            .with_train_size(16)
            .with_test_size(24)
            .build()
            .unwrap()
    }

    #[test]
    fn full_keep_matches_dense_accuracy() {
        let data = data();
        let model = plain20(4, 4).unwrap();
        let dense = evaluate(&model, &data, Split::Test, 12).unwrap();
        let curves = layer_sensitivity(&model, &data, &[1.0], 12).unwrap();
        assert_eq!(curves.len(), 19);
        for c in &curves {
            assert_eq!(c.points, vec![(1.0, dense)], "{}", c.name);
        }
    }

    #[test]
    fn analysis_is_deterministic() {
        let data = data();
        let model = plain20(4, 4).unwrap();
        let a = layer_sensitivity(&model, &data, &[0.5, 1.0], 12).unwrap();
        let b = layer_sensitivity(&model, &data, &[0.5, 1.0], 12).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn max_safe_pruning_finds_smallest_tolerated_ratio() {
        let s = LayerSensitivity {
            name: "l".into(),
            points: vec![(0.25, 0.4), (0.5, 0.68), (0.75, 0.7), (1.0, 0.7)],
        };
        assert_eq!(s.max_safe_pruning(0.05), Some(0.5));
        assert_eq!(s.max_safe_pruning(0.5), Some(0.25));
        assert_eq!(s.max_safe_pruning(0.0), Some(0.75));
        let empty = LayerSensitivity {
            name: "e".into(),
            points: vec![(0.5, 0.5)],
        };
        assert_eq!(empty.max_safe_pruning(0.1), None); // no dense point
    }

    #[test]
    #[should_panic(expected = "keep ratios")]
    fn rejects_zero_ratio() {
        let data = data();
        let model = plain20(4, 4).unwrap();
        let _ = layer_sensitivity(&model, &data, &[0.0], 12);
    }
}
