//! Convolution workload description (loop bounds of one layer).

use alf_core::ConvShape;

/// One convolution layer's execution bounds, including the batch size.
///
/// Constructed directly or from an [`alf_core::ConvShape`] via
/// [`ConvWorkload::from_shape`].
///
/// # Example
///
/// ```
/// use alf_core::ConvShape;
/// use alf_hwmodel::ConvWorkload;
///
/// let shape = ConvShape::new("conv1", 3, 16, 3, 1, 32, 32);
/// let w = ConvWorkload::from_shape(&shape, 16);
/// assert_eq!(w.macs(), 16 * 3 * 16 * 9 * 32 * 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvWorkload {
    /// Layer name.
    pub name: String,
    /// Batch size `N`.
    pub batch: usize,
    /// Input channels `Ci`.
    pub c_in: usize,
    /// Output channels `Co`.
    pub c_out: usize,
    /// Square kernel `K`.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Output height `Ho`.
    pub h_out: usize,
    /// Output width `Wo`.
    pub w_out: usize,
}

impl ConvWorkload {
    /// Builds a workload from a layer geometry and a batch size.
    pub fn from_shape(shape: &ConvShape, batch: usize) -> Self {
        Self {
            name: shape.name.clone(),
            batch,
            c_in: shape.c_in,
            c_out: shape.c_out,
            kernel: shape.kernel,
            stride: shape.stride,
            h_out: shape.h_out,
            w_out: shape.w_out,
        }
    }

    /// Input spatial height (`Ho·stride + K − stride` exactly covers the
    /// taps the output touches; we use the common `Ho·stride` convention
    /// consistent with [`ConvShape::h_in`]).
    pub fn h_in(&self) -> usize {
        self.h_out * self.stride + self.kernel.saturating_sub(self.stride)
    }

    /// Input spatial width.
    pub fn w_in(&self) -> usize {
        self.w_out * self.stride + self.kernel.saturating_sub(self.stride)
    }

    /// Total multiply–accumulates for the whole batch.
    pub fn macs(&self) -> u64 {
        (self.batch * self.c_in * self.c_out * self.kernel * self.kernel) as u64
            * (self.h_out * self.w_out) as u64
    }

    /// Input volume in words (whole batch).
    pub fn input_words(&self) -> u64 {
        (self.batch * self.c_in * self.h_in() * self.w_in()) as u64
    }

    /// Weight volume in words.
    pub fn weight_words(&self) -> u64 {
        (self.c_in * self.c_out * self.kernel * self.kernel) as u64
    }

    /// Output volume in words (whole batch).
    pub fn output_words(&self) -> u64 {
        (self.batch * self.c_out * self.h_out * self.w_out) as u64
    }

    /// Validates the bounds.
    ///
    /// # Errors
    ///
    /// Returns a message when any bound is zero.
    pub fn validate(&self) -> Result<(), String> {
        for (label, v) in [
            ("batch", self.batch),
            ("c_in", self.c_in),
            ("c_out", self.c_out),
            ("kernel", self.kernel),
            ("stride", self.stride),
            ("h_out", self.h_out),
            ("w_out", self.w_out),
        ] {
            if v == 0 {
                return Err(format!("{label} must be positive"));
            }
        }
        Ok(())
    }
}

/// Expands a layer geometry into the ALF block's two executed
/// convolutions: the code conv (`Ci → c_code` at the original
/// kernel/stride) named `<layer>+code`, and the 1×1 expansion
/// (`c_code → Co`) named `<layer>+exp`. Merge the evaluated pair back into
/// one display row with [`crate::NetworkReport::merged`].
///
/// # Panics
///
/// Panics when `c_code` is zero or exceeds the layer's output channels.
pub fn alf_pair(shape: &ConvShape, c_code: usize, batch: usize) -> (ConvWorkload, ConvWorkload) {
    assert!(
        c_code >= 1 && c_code <= shape.c_out,
        "c_code {c_code} out of range for {} ({} filters)",
        shape.name,
        shape.c_out
    );
    let code = ConvWorkload::from_shape(
        &ConvShape::new(
            format!("{}+code", shape.name),
            shape.c_in,
            c_code,
            shape.kernel,
            shape.stride,
            shape.h_out,
            shape.w_out,
        ),
        batch,
    );
    let expansion = ConvWorkload::from_shape(
        &ConvShape::new(
            format!("{}+exp", shape.name),
            c_code,
            shape.c_out,
            1,
            1,
            shape.h_out,
            shape.w_out,
        ),
        batch,
    );
    (code, expansion)
}

/// Builds the workload list of an ALF-compressed network from its layer
/// geometries and per-layer remaining-filter ratios (`ratio[i]` of layer
/// `i`'s filters kept; missing entries default to fully dense). Layers
/// come back as `+code`/`+exp` pairs, flattened in execution order.
pub fn alf_network(shapes: &[ConvShape], ratios: &[f32], batch: usize) -> Vec<ConvWorkload> {
    shapes
        .iter()
        .enumerate()
        .flat_map(|(i, s)| {
            let r = ratios.get(i).copied().unwrap_or(1.0);
            let c_code = ((s.c_out as f32 * r).round() as usize).clamp(1, s.c_out);
            let (code, exp) = alf_pair(s, c_code, batch);
            [code, exp]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv1() -> ConvWorkload {
        ConvWorkload::from_shape(&ConvShape::new("conv1", 3, 16, 3, 1, 32, 32), 16)
    }

    #[test]
    fn volumes_and_macs() {
        let w = conv1();
        assert_eq!(w.macs(), 16 * 442_368);
        assert_eq!(w.weight_words(), 432);
        assert_eq!(w.output_words(), 16 * 16 * 1024);
        assert_eq!(w.h_in(), 34); // 32 + 3 − 1 (padding halo included)
    }

    #[test]
    fn strided_input_geometry() {
        let w = ConvWorkload::from_shape(&ConvShape::new("s", 16, 32, 3, 2, 16, 16), 1);
        assert_eq!(w.h_in(), 33);
        assert_eq!(w.w_in(), 33);
    }

    #[test]
    fn pointwise_geometry() {
        let w = ConvWorkload::from_shape(&ConvShape::new("pw", 8, 4, 1, 1, 10, 10), 2);
        assert_eq!(w.h_in(), 10);
        assert_eq!(w.macs(), 2 * 8 * 4 * 100);
    }

    #[test]
    fn validate_rejects_zero_bounds() {
        let mut w = conv1();
        assert!(w.validate().is_ok());
        w.c_in = 0;
        assert!(w.validate().is_err());
    }

    #[test]
    fn alf_pair_builds_code_and_expansion() {
        let shape = ConvShape::new("conv211", 16, 16, 3, 1, 32, 32);
        let (code, exp) = alf_pair(&shape, 6, 16);
        assert_eq!(code.name, "conv211+code");
        assert_eq!(code.c_out, 6);
        assert_eq!(code.kernel, 3);
        assert_eq!(exp.name, "conv211+exp");
        assert_eq!(exp.c_in, 6);
        assert_eq!(exp.c_out, 16);
        assert_eq!(exp.kernel, 1);
        assert_eq!(exp.h_out, code.h_out);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn alf_pair_rejects_oversized_code() {
        let shape = ConvShape::new("l", 16, 16, 3, 1, 8, 8);
        alf_pair(&shape, 17, 1);
    }

    #[test]
    fn alf_network_defaults_missing_ratios_to_dense() {
        let shapes = vec![
            ConvShape::new("a", 3, 8, 3, 1, 8, 8),
            ConvShape::new("b", 8, 8, 3, 1, 8, 8),
        ];
        let ws = alf_network(&shapes, &[0.5], 4);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[0].c_out, 4); // 0.5 × 8
        assert_eq!(ws[2].c_out, 8); // defaulted dense
    }
}
