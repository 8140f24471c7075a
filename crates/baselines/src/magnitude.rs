//! Magnitude-based structured pruning (Han et al., NeurIPS 2015):
//! `filter_ranking` + [`prune_filters`] rank whole filters by L1 norm
//! and silence the weakest, keeping a fraction per layer.

use alf_core::model::ConvKind;
use alf_core::CnnModel;
use alf_tensor::Tensor;

/// Ranks the filters of a conv weight `[Co, Ci, K, K]` by ascending L1
/// norm; the head of the list is pruned first.
pub(crate) fn filter_ranking(w: &Tensor) -> Vec<usize> {
    let co = w.dims()[0];
    let fan = w.len() / co.max(1);
    let mut norms: Vec<(usize, f32)> = (0..co)
        .map(|j| {
            (
                j,
                w.data()[j * fan..(j + 1) * fan]
                    .iter()
                    .map(|x| x.abs())
                    .sum(),
            )
        })
        .collect();
    norms.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    norms.into_iter().map(|(j, _)| j).collect()
}

/// Structured magnitude pruning of a whole model: keeps the strongest
/// `keep_ratio` of filters per conv layer (at least one), silencing the
/// rest. Returns `(layer name, kept, total)` per layer.
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
        let ranking = filter_ranking(conv.weight());
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
    use alf_nn::{Layer, RunCtx};

    #[test]
    fn filter_ranking_orders_by_l1() {
        let mut w = Tensor::zeros(&[3, 1, 2, 2]);
        // filter 0 norm 4, filter 1 norm 0.4, filter 2 norm 8.
        for i in 0..4 {
            w.data_mut()[i] = 1.0;
            w.data_mut()[4 + i] = 0.1;
            w.data_mut()[8 + i] = -2.0;
        }
        assert_eq!(filter_ranking(&w), vec![1, 0, 2]);
    }

    #[test]
    fn structured_pruning_silences_channels() {
        let mut model = plain20(4, 4).unwrap();
        let report = prune_filters(&mut model, 0.5);
        assert_eq!(report.len(), 19);
        for (_, kept, total) in &report {
            assert_eq!(*kept, total / 2);
        }
        // Forward still works; silenced channels output zero after BN.
        let y = model
            .forward(&Tensor::ones(&[1, 3, 16, 16]), &mut RunCtx::eval())
            .unwrap();
        assert!(y.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn keep_ratio_one_prunes_nothing() {
        let mut model = plain20(4, 4).unwrap();
        let before: Vec<f32> = {
            let mut sums = Vec::new();
            model.visit_params(&mut |p| sums.push(p.value.sum()));
            sums
        };
        prune_filters(&mut model, 1.0);
        let mut after = Vec::new();
        model.visit_params(&mut |p| after.push(p.value.sum()));
        assert_eq!(before, after);
    }
}
