//! Post-training weight quantization — the orthogonal technique the paper
//! points to ("quantization and binarization are orthogonal to this work
//! and can be applied in conjunction with the proposed ALF method", §II).
//!
//! Symmetric per-tensor linear quantization to a configurable bit-width:
//! `q = clamp(round(x / s), −2^{b−1}+1, 2^{b−1}−1)` with
//! `s = max|x| / (2^{b−1}−1)`. [`fake_quantize_model`] rewrites every
//! persistent tensor of a model with its dequantised value so accuracy
//! under quantization can be measured with the ordinary f32 inference
//! path, while [`QuantReport::footprint_bytes`] accounts the deployed storage win.

use alf_nn::layer::Layer;
use alf_tensor::Tensor;

use crate::model::CnnModel;

/// Typed quantization failure, carrying bit-width / tensor context. The
/// facade crate surfaces this as `alf::Error::Quant`.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantError {
    /// Bit-width outside the supported `[2, 16]` range.
    BadBits {
        /// The rejected bit-width.
        bits: u8,
    },
    /// A tensor held a NaN or infinity — fitting a scale to it would
    /// silently poison every quantized value downstream.
    NonFinite {
        /// Shape of the offending tensor.
        tensor: String,
        /// Flat index of the first non-finite element.
        index: usize,
    },
    /// A calibration pass produced no usable activation statistics.
    EmptyCalibration {
        /// The layer whose activation range came up empty.
        layer: String,
    },
    /// A model form the int8 engine does not support.
    Unsupported {
        /// What was encountered and why it cannot be quantized.
        what: String,
    },
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantError::BadBits { bits } => write!(f, "bit-width {bits} outside [2, 16]"),
            QuantError::NonFinite { tensor, index } => {
                write!(
                    f,
                    "non-finite value at flat index {index} of tensor {tensor}"
                )
            }
            QuantError::EmptyCalibration { layer } => {
                write!(
                    f,
                    "calibration produced no activation range for layer '{layer}'"
                )
            }
            QuantError::Unsupported { what } => write!(f, "unsupported for int8: {what}"),
        }
    }
}

impl std::error::Error for QuantError {}

/// A symmetric linear quantizer for one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    /// Bit-width `b ∈ [2, 16]`.
    pub bits: u8,
    /// Scale `s` (the value of one quantization step).
    pub scale: f32,
}

impl Quantizer {
    /// Fits a quantizer to a tensor's range.
    ///
    /// # Errors
    ///
    /// [`QuantError::BadBits`] when `bits` is outside `[2, 16]`;
    /// [`QuantError::NonFinite`] when the tensor holds a NaN or infinity
    /// (a NaN would otherwise propagate through the `max_abs` scan and
    /// poison the scale silently).
    pub fn fit(t: &Tensor, bits: u8) -> Result<Self, QuantError> {
        if !(2..=16).contains(&bits) {
            return Err(QuantError::BadBits { bits });
        }
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let mut max_abs = 0.0f32;
        for (i, &v) in t.data().iter().enumerate() {
            if !v.is_finite() {
                return Err(QuantError::NonFinite {
                    tensor: t.shape().to_string(),
                    index: i,
                });
            }
            max_abs = max_abs.max(v.abs());
        }
        Ok(Self {
            bits,
            scale: if max_abs == 0.0 { 1.0 } else { max_abs / qmax },
        })
    }

    /// Largest representable integer level.
    pub(crate) fn q_max(&self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantizes one value to its integer level.
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round() as i32;
        q.clamp(-self.q_max(), self.q_max())
    }

    /// Reconstructs the real value of an integer level.
    pub(crate) fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantize-then-dequantize (the "fake quantization" used for accuracy
    /// evaluation).
    pub fn round_trip(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// Summary of quantizing a model.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantReport {
    /// Bit-width applied.
    pub bits: u8,
    /// Number of tensors rewritten.
    pub tensors: usize,
    /// Total scalar count.
    pub scalars: u64,
    /// Worst per-element absolute rounding error observed.
    pub max_abs_error: f32,
}

impl QuantReport {
    /// Deployed weight storage at this bit-width, in bytes (scales stored
    /// as one f32 per tensor).
    pub fn footprint_bytes(&self) -> u64 {
        (self.scalars * self.bits as u64).div_ceil(8) + 4 * self.tensors as u64
    }
}

/// Rewrites the model's *weight* tensors (rank ≥ 2 trainable parameters —
/// convolution and linear weights) with their quantize-dequantize image at
/// the given bit-width. Rank-1 parameters (biases, batch-norm affine) and
/// the BN running statistics stay in full precision, the standard
/// deployment practice: they are tiny, and quantizing running variances in
/// particular is numerically destructive.
///
/// # Errors
///
/// [`QuantError::BadBits`] when `bits` is outside `[2, 16]` (checked
/// before any tensor is touched); [`QuantError::NonFinite`] when a weight
/// tensor holds a NaN or infinity — tensors visited before the offender
/// have already been rewritten in that case.
///
/// # Example
///
/// ```
/// use alf_core::models::plain20;
/// use alf_core::quant;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut model = plain20(10, 4)?;
/// let report = quant::fake_quantize_model(&mut model, 8)?;
/// // Below the 2 bytes per weight of the accelerator's native 16-bit width.
/// assert!(report.footprint_bytes() < 2 * report.scalars);
/// # Ok(())
/// # }
/// ```
pub fn fake_quantize_model(model: &mut CnnModel, bits: u8) -> Result<QuantReport, QuantError> {
    if !(2..=16).contains(&bits) {
        return Err(QuantError::BadBits { bits });
    }
    let mut report = QuantReport {
        bits,
        tensors: 0,
        scalars: 0,
        max_abs_error: 0.0,
    };
    let mut failure: Option<QuantError> = None;
    model.visit_params(&mut |p| {
        let t = &mut p.value;
        if t.shape().rank() < 2 || failure.is_some() {
            return;
        }
        let q = match Quantizer::fit(t, bits) {
            Ok(q) => q,
            Err(e) => {
                failure = Some(e);
                return;
            }
        };
        report.tensors += 1;
        report.scalars += t.len() as u64;
        for v in t.data_mut() {
            let rounded = q.round_trip(*v);
            report.max_abs_error = report.max_abs_error.max((rounded - *v).abs());
            *v = rounded;
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::plain20;
    use alf_nn::RunCtx;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    #[test]
    fn quantizer_round_trip_error_is_bounded_by_half_step() {
        let mut rng = Rng::new(0);
        let t = Tensor::randn(&[512], Init::He, &mut rng);
        let q = Quantizer::fit(&t, 8).unwrap();
        for &v in t.data() {
            let err = (q.round_trip(v) - v).abs();
            assert!(
                err <= q.scale / 2.0 + 1e-7,
                "err {err} > step/2 {}",
                q.scale / 2.0
            );
        }
    }

    #[test]
    fn extremes_are_representable() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[3]).unwrap();
        let q = Quantizer::fit(&t, 8).unwrap();
        assert!((q.round_trip(3.0) - 3.0).abs() < 1e-6);
        assert!((q.round_trip(-3.0) + 3.0).abs() < 1e-6);
        assert_eq!(q.round_trip(0.0), 0.0);
    }

    #[test]
    fn zero_tensor_quantizes_safely() {
        let t = Tensor::zeros(&[4]);
        let q = Quantizer::fit(&t, 8).unwrap();
        assert_eq!(q.round_trip(0.0), 0.0);
    }

    #[test]
    fn more_bits_less_error() {
        let mut rng = Rng::new(1);
        let t = Tensor::randn(&[1024], Init::He, &mut rng);
        let err = |bits| {
            let q = Quantizer::fit(&t, bits).unwrap();
            t.data()
                .iter()
                .map(|&v| (q.round_trip(v) - v).abs())
                .fold(0.0f32, f32::max)
        };
        assert!(err(4) > err(8));
        assert!(err(8) > err(12));
    }

    #[test]
    fn rejects_bad_bit_widths() {
        let t = Tensor::ones(&[1]);
        assert_eq!(Quantizer::fit(&t, 1), Err(QuantError::BadBits { bits: 1 }));
        assert_eq!(
            Quantizer::fit(&t, 17),
            Err(QuantError::BadBits { bits: 17 })
        );
        let mut model = plain20(4, 4).unwrap();
        assert_eq!(
            fake_quantize_model(&mut model, 1),
            Err(QuantError::BadBits { bits: 1 })
        );
    }

    #[test]
    fn non_finite_values_are_a_typed_error_not_a_poisoned_scale() {
        // A NaN used to slide through the max_abs fold (f32::max keeps the
        // accumulator's NaN) and emerge as a silently-NaN scale.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = Tensor::from_vec(vec![1.0, bad, 2.0], &[3]).unwrap();
            match Quantizer::fit(&t, 8) {
                Err(QuantError::NonFinite { index, .. }) => assert_eq!(index, 1),
                other => panic!("expected NonFinite, got {other:?}"),
            }
        }
        let mut model = plain20(4, 4).unwrap();
        model.visit_params(&mut |p| {
            if p.value.shape().rank() >= 2 {
                p.value.data_mut()[0] = f32::NAN;
            }
        });
        assert!(matches!(
            fake_quantize_model(&mut model, 8),
            Err(QuantError::NonFinite { .. })
        ));
    }

    #[test]
    fn int8_model_output_stays_close_to_f32() {
        let mut model = plain20(4, 4).unwrap();
        let x = Tensor::randn(&[2, 3, 12, 12], Init::Rand, &mut Rng::new(2));
        let y_f32 = model.forward(&x, &mut RunCtx::eval()).unwrap();
        let report = fake_quantize_model(&mut model, 8).unwrap();
        let y_q = model.forward(&x, &mut RunCtx::eval()).unwrap();
        assert!(report.max_abs_error > 0.0);
        // Logit perturbation should be small relative to the logit scale.
        let diff = y_q.sub(&y_f32).unwrap().norm() / y_f32.norm().max(1e-6);
        assert!(diff < 0.2, "relative logit drift {diff}");
    }

    #[test]
    fn footprint_accounting() {
        let mut model = plain20(4, 4).unwrap();
        let report = fake_quantize_model(&mut model, 8).unwrap();
        // 8-bit weights halve the 16-bit footprint (plus tiny scale
        // overhead).
        let native16 = 2 * report.scalars;
        assert!(report.footprint_bytes() < native16);
        assert!(report.footprint_bytes() as f64 > 0.45 * native16 as f64);
        // 4-bit quarters it.
        let mut model = plain20(4, 4).unwrap();
        let r4 = fake_quantize_model(&mut model, 4).unwrap();
        assert!(r4.footprint_bytes() < report.footprint_bytes());
    }
}
