//! Parameter and operation accounting.
//!
//! The paper reports `Params` (trainable convolution weights) and `OPs`
//! (multiply *and* accumulate counted separately, i.e. `OPs = 2·MACs`) "for
//! Conv layers only" (Table II). This module reproduces that accounting
//! exactly; the unit tests check the paper's own numbers (Plain-20 /
//! ResNet-20: 0.27 M params, 81.1 M OPs at 32×32).

/// Geometry of one executed convolution layer.
///
/// Everything the cost model (and the accelerator model in `alf-hwmodel`)
/// needs to know about a layer: channel counts, kernel, stride and the
/// *output* spatial size.
///
/// # Example
///
/// ```
/// use alf_core::ConvShape;
///
/// // Plain-20's first layer: 3→16, 3×3, on 32×32 CIFAR images.
/// let conv1 = ConvShape::new("conv1", 3, 16, 3, 1, 32, 32);
/// assert_eq!(conv1.params(), 432);
/// assert_eq!(conv1.macs(), 432 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Layer name (e.g. `conv311` in the paper's Fig. 3 notation).
    pub name: String,
    /// Input channels `Ci`.
    pub c_in: usize,
    /// Output channels `Co`.
    pub c_out: usize,
    /// Square kernel size `K`.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Output height `Ho`.
    pub h_out: usize,
    /// Output width `Wo`.
    pub w_out: usize,
}

impl ConvShape {
    /// Creates a layer geometry record.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        h_out: usize,
        w_out: usize,
    ) -> Self {
        Self {
            name: name.into(),
            c_in,
            c_out,
            kernel,
            stride,
            h_out,
            w_out,
        }
    }

    /// Trainable weight count `Ci·Co·K²` (biases excluded, matching the
    /// paper's conv-only accounting).
    pub fn params(&self) -> u64 {
        (self.c_in * self.c_out * self.kernel * self.kernel) as u64
    }

    /// Multiply–accumulate count for one inference:
    /// `Ci·Co·K²·Ho·Wo`.
    pub fn macs(&self) -> u64 {
        self.params() * (self.h_out * self.w_out) as u64
    }

    /// Operations, counting multiply and add separately (`2·MACs`) — the
    /// paper's `OPs` metric.
    pub fn ops(&self) -> u64 {
        2 * self.macs()
    }

    /// Input spatial height implied by the output size and stride (the
    /// `floor` inverse used by the accelerator model).
    pub fn h_in(&self) -> usize {
        self.h_out * self.stride
    }

    /// Input spatial width implied by the output size and stride.
    pub fn w_in(&self) -> usize {
        self.w_out * self.stride
    }

    /// The paper's `Ccode,max` bound (Eq. 2): the largest code size for
    /// which an ALF block (code conv + 1×1 expansion) is cheaper than the
    /// standard convolution it replaces.
    ///
    /// `Ccode,max = ⌊ Ci·Co·K² / (Ci·K² + Co) ⌋`
    pub fn c_code_max(&self) -> usize {
        let k2 = self.kernel * self.kernel;
        (self.c_in * self.c_out * k2) / (self.c_in * k2 + self.c_out)
    }

    /// Params of the ALF-block replacement with `c_code` retained filters:
    /// code conv `Ci·K²·Ccode` plus expansion `Ccode·Co`.
    pub fn alf_params(&self, c_code: usize) -> u64 {
        (self.c_in * self.kernel * self.kernel * c_code + c_code * self.c_out) as u64
    }

    /// MACs of the ALF-block replacement with `c_code` retained filters.
    pub fn alf_macs(&self, c_code: usize) -> u64 {
        let hw = (self.h_out * self.w_out) as u64;
        (self.c_in * self.kernel * self.kernel * c_code) as u64 * hw
            + (c_code * self.c_out) as u64 * hw
    }

    /// OPs of the ALF-block replacement (`2·MACs`).
    pub fn alf_ops(&self, c_code: usize) -> u64 {
        2 * self.alf_macs(c_code)
    }
}

/// Aggregate cost of a network: totals of [`ConvShape`] layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkCost {
    /// Total trainable parameters.
    pub params: u64,
    /// Total MACs for one inference.
    pub macs: u64,
}

impl NetworkCost {
    /// Sums the standard-convolution cost of a layer list.
    pub fn of_layers<'a>(layers: impl IntoIterator<Item = &'a ConvShape>) -> Self {
        layers.into_iter().fold(Self::default(), |acc, l| Self {
            params: acc.params + l.params(),
            macs: acc.macs + l.macs(),
        })
    }

    /// Sums the ALF-compressed cost of `(layer, c_code)` pairs.
    pub fn of_alf_layers<'a>(layers: impl IntoIterator<Item = (&'a ConvShape, usize)>) -> Self {
        layers
            .into_iter()
            .fold(Self::default(), |acc, (l, c)| Self {
                params: acc.params + l.alf_params(c),
                macs: acc.macs + l.alf_macs(c),
            })
    }

    /// OPs (`2·MACs`).
    pub fn ops(&self) -> u64 {
        2 * self.macs
    }

    /// Relative reduction of `self` w.r.t. a baseline, in percent
    /// (positive = smaller than baseline).
    pub fn reduction_vs(&self, baseline: &NetworkCost) -> (f64, f64) {
        let pct = |ours: u64, base: u64| {
            if base == 0 {
                0.0
            } else {
                100.0 * (1.0 - ours as f64 / base as f64)
            }
        };
        (
            pct(self.params, baseline.params),
            pct(self.macs, baseline.macs),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::geometry;

    #[test]
    fn conv_shape_arithmetic() {
        let l = ConvShape::new("l", 16, 32, 3, 2, 16, 16);
        assert_eq!(l.params(), 16 * 32 * 9);
        assert_eq!(l.macs(), 16 * 32 * 9 * 256);
        assert_eq!(l.ops(), 2 * l.macs());
        assert_eq!(l.h_in(), 32);
    }

    #[test]
    fn c_code_max_matches_eq2() {
        // Eq. 2 with Ci=Co=16, K=3: 16·16·9 / (16·9 + 16) = 2304/160 = 14.4 → 14.
        let l = ConvShape::new("l", 16, 16, 3, 1, 32, 32);
        assert_eq!(l.c_code_max(), 14);
        // 1×1 conv: Ci·Co / (Ci + Co).
        let pw = ConvShape::new("pw", 64, 256, 1, 1, 8, 8);
        assert_eq!(pw.c_code_max(), 64 * 256 / (64 + 256));
    }

    #[test]
    fn alf_block_cheaper_iff_code_below_bound() {
        let l = ConvShape::new("l", 16, 16, 3, 1, 32, 32);
        let bound = l.c_code_max();
        assert!(l.alf_ops(bound) <= l.ops());
        assert!(l.alf_ops(bound + 1) > l.ops());
        assert!(l.alf_params(bound) <= l.params());
    }

    #[test]
    fn paper_plain20_totals() {
        // Table II: Plain-20 / ResNet-20 → 0.27 M params, 81.1 M OPs
        // (conv layers only).
        let layers = geometry::plain20_layers(32, 3);
        let cost = NetworkCost::of_layers(&layers);
        assert_eq!(layers.len(), 19);
        assert!(
            (cost.params as f64 / 1e6 - 0.27).abs() < 0.01,
            "{}",
            cost.params
        );
        assert!(
            (cost.ops() as f64 / 1e6 - 81.1).abs() < 1.0,
            "{} MOPs",
            cost.ops() as f64 / 1e6
        );
    }

    #[test]
    fn reduction_percentages() {
        let base = NetworkCost {
            params: 1000,
            macs: 2000,
        };
        let ours = NetworkCost {
            params: 300,
            macs: 780,
        };
        let (dp, dm) = ours.reduction_vs(&base);
        assert!((dp - 70.0).abs() < 1e-9);
        assert!((dm - 61.0).abs() < 1e-9);
    }

    #[test]
    fn of_alf_layers_sums_pairs() {
        let l = ConvShape::new("l", 8, 8, 3, 1, 4, 4);
        let cost = NetworkCost::of_alf_layers([(&l, 4)]);
        assert_eq!(cost.params, l.alf_params(4));
        assert_eq!(cost.macs, l.alf_macs(4));
    }
}
