//! Shared types and cost accounting for the compression baselines.

use alf_core::model::ConvKind;
use alf_core::{CnnModel, ConvShape, NetworkCost};

use crate::magnitude::filter_ranking;

/// The policy class of a compression method (Table I's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Handcrafted rule (magnitude, FPGM).
    Handcrafted,
    /// Learned agent with an engineered reward (AMC).
    RlAgent,
    /// Automatic — learned during task training with no agent (LCNN, ALF).
    Automatic,
}

impl Policy {
    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::Handcrafted => "Handcrafted",
            Policy::RlAgent => "RL-Agent",
            Policy::Automatic => "Automatic",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Chained Params/MACs accounting for structured filter pruning: layer
/// `i`'s kept filters become layer `i+1`'s input channels (the coupling the
/// paper calls out as the difficulty of removing filters).
///
/// `keep[i]` must be `1..=shapes[i].c_out`. The first layer's input
/// channels are the raw image channels and are never pruned.
///
/// # Panics
///
/// Panics when `keep.len() != shapes.len()` or a keep count is out of
/// range.
pub fn chained_cost(shapes: &[ConvShape], keep: &[usize]) -> NetworkCost {
    assert_eq!(shapes.len(), keep.len(), "keep list length mismatch");
    let mut cost = NetworkCost::default();
    let mut prev_kept: Option<usize> = None;
    for (shape, &k) in shapes.iter().zip(keep) {
        assert!(
            k >= 1 && k <= shape.c_out,
            "keep {k} out of range for {} ({} filters)",
            shape.name,
            shape.c_out
        );
        let c_in = prev_kept.unwrap_or(shape.c_in).min(shape.c_in);
        let params = (c_in * k * shape.kernel * shape.kernel) as u64;
        cost.params += params;
        cost.macs += params * (shape.h_out * shape.w_out) as u64;
        prev_kept = Some(k);
    }
    cost
}

/// Applies per-layer keep ratios to a model in place (magnitude ranking,
/// channel silencing), returning `(name, kept, total)` per conv layer.
/// Layers beyond the ratio list keep everything. Re-invoking after a
/// fine-tuning epoch re-silences channels that training revived.
///
/// # Panics
///
/// Panics when a ratio is outside `(0, 1]`.
pub fn apply_keep_ratios(model: &mut CnnModel, ratios: &[f32]) -> Vec<(String, usize, usize)> {
    let mut report = Vec::new();
    for (i, cu) in model.conv_units_mut().into_iter().enumerate() {
        let ratio = ratios.get(i).copied().unwrap_or(1.0);
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "keep ratio {ratio} ∉ (0,1] for layer {i}"
        );
        let ConvKind::Standard(conv) = cu.conv() else {
            report.push((cu.name().to_string(), cu.conv().c_out(), cu.conv().c_out()));
            continue;
        };
        let total = conv.c_out();
        let kept = ((total as f32 * ratio).round() as usize).clamp(1, total);
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

    fn shapes() -> Vec<ConvShape> {
        vec![
            ConvShape::new("a", 3, 8, 3, 1, 8, 8),
            ConvShape::new("b", 8, 8, 3, 1, 8, 8),
        ]
    }

    #[test]
    fn unpruned_chain_matches_plain_cost() {
        let s = shapes();
        let full = chained_cost(&s, &[8, 8]);
        assert_eq!(full, NetworkCost::of_layers(&s));
    }

    #[test]
    fn pruning_first_layer_shrinks_second_layer_inputs() {
        let s = shapes();
        let pruned = chained_cost(&s, &[4, 8]);
        // layer a: 3·4·9; layer b: 4·8·9 (inputs shrank from 8 to 4).
        assert_eq!(pruned.params, (3 * 4 * 9 + 4 * 8 * 9) as u64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_zero_keep() {
        chained_cost(&shapes(), &[0, 8]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_length_mismatch() {
        chained_cost(&shapes(), &[8]);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Handcrafted.to_string(), "Handcrafted");
        assert_eq!(Policy::RlAgent.to_string(), "RL-Agent");
        assert_eq!(Policy::Automatic.to_string(), "Automatic");
    }
}
