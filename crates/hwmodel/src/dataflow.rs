//! Dataflow taxonomy (Chen et al., ISCA 2016).
//!
//! A dataflow fixes *which* datatype stays stationary in each PE's register
//! file and therefore which reuse the lower memory levels provide. The
//! row-stationary dataflow is the one Eyeriss implements and the paper
//! models; weight- and output-stationary are provided for the ablation
//! bench (`ablation_dataflow`).

/// The spatial/temporal reuse pattern of the PE array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Eyeriss row-stationary: a PE holds one filter row and slides it over
    /// one input row; kernel rows map onto PE rows, output rows onto PE
    /// columns. Inputs are reused `K`× inside a PE (sliding window) and
    /// multicast to the vertically-replicated filters; partial sums
    /// accumulate inside the PE over the kernel window.
    RowStationary,
    /// Weights pinned in the register files; inputs stream past them.
    /// Minimises weight DRAM traffic at the cost of partial-sum movement.
    WeightStationary,
    /// Partial sums pinned; each PE owns an output pixel. Weights must be
    /// re-streamed for every use (they bypass the global buffer on this
    /// accelerator), which is the dataflow's known weakness.
    OutputStationary,
}

impl Dataflow {
    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Dataflow::RowStationary => "row-stationary",
            Dataflow::WeightStationary => "weight-stationary",
            Dataflow::OutputStationary => "output-stationary",
        }
    }

    /// Register-file accesses per MAC charged at the innermost level
    /// (operand reads plus the partial-sum update that stays local).
    pub fn rf_accesses_per_mac(self) -> f64 {
        match self {
            // weight read + input read + psum read/write folded into one
            // local update.
            Dataflow::RowStationary => 3.0,
            // stationary weight is a register hit; input + psum traffic.
            Dataflow::WeightStationary => 3.0,
            // stationary psum; weight + input reads.
            Dataflow::OutputStationary => 3.0,
        }
    }
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Dataflow::RowStationary.label(),
            Dataflow::WeightStationary.label(),
            Dataflow::OutputStationary.label(),
        ];
        assert_eq!(
            labels.len(),
            labels
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn rf_cost_is_positive() {
        for df in [
            Dataflow::RowStationary,
            Dataflow::WeightStationary,
            Dataflow::OutputStationary,
        ] {
            assert!(df.rf_accesses_per_mac() > 0.0);
        }
    }
}
