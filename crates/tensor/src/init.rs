//! Weight-initialisation schemes compared in the paper's design-space
//! exploration (Fig. 2a/2b): He (Kaiming) normal, Xavier (Glorot) uniform,
//! and plain uniform random.
//!
//! The fan-in/fan-out needed by He and Xavier is derived from the tensor
//! shape using the convolution convention `[c_out, c_in, k_h, k_w]`; rank-2
//! tensors are treated as `[fan_out, fan_in]` linear weights.

use crate::rng::Rng;
use crate::Tensor;

/// Weight-initialisation scheme.
///
/// # Example
///
/// ```
/// use alf_tensor::{init::Init, rng::Rng, Tensor};
///
/// let mut rng = Rng::new(0);
/// let w = Tensor::randn(&[16, 3, 3, 3], Init::He, &mut rng);
/// assert_eq!(w.len(), 16 * 3 * 3 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Init {
    /// He normal: `N(0, sqrt(2 / fan_in))` — suited to ReLU networks.
    He,
    /// Xavier (Glorot) uniform: `U(±sqrt(6 / (fan_in + fan_out)))`.
    Xavier,
    /// Plain uniform in `[-0.05, 0.05]` (the paper's "rand" configuration).
    Rand,
    /// All zeros (used for biases and the BN shift).
    Zeros,
    /// All ones (used for the BN scale and the initial ALF mask `M`).
    Ones,
}

impl Init {
    /// Fills `t` in place according to the scheme.
    pub fn fill(self, t: &mut Tensor, rng: &mut Rng) {
        let (fan_in, fan_out) = fans(t.dims());
        match self {
            Init::He => {
                let std = (2.0 / fan_in as f32).sqrt();
                for x in t.data_mut() {
                    *x = rng.normal_with(0.0, std);
                }
            }
            Init::Xavier => {
                let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
                for x in t.data_mut() {
                    *x = rng.uniform(-bound, bound);
                }
            }
            Init::Rand => {
                for x in t.data_mut() {
                    *x = rng.uniform(-0.05, 0.05);
                }
            }
            Init::Zeros => t.fill_zero(),
            Init::Ones => t.map_inplace(|_| 1.0),
        }
    }

    /// Short lowercase label used in experiment reports ("he", "xavier", …).
    pub fn label(self) -> &'static str {
        match self {
            Init::He => "he",
            Init::Xavier => "xavier",
            Init::Rand => "rand",
            Init::Zeros => "zeros",
            Init::Ones => "ones",
        }
    }
}

impl std::fmt::Display for Init {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Derives `(fan_in, fan_out)` from a weight shape.
///
/// * rank 4 `[c_out, c_in, k_h, k_w]` → `(c_in·k_h·k_w, c_out·k_h·k_w)`
/// * rank 2 `[out, in]` → `(in, out)`
/// * anything else → `(len, len)` — a safe, symmetric fallback.
pub fn fans(dims: &[usize]) -> (usize, usize) {
    match dims {
        [co, ci, kh, kw] => (ci * kh * kw, co * kh * kw),
        [out, inp] => (*inp, *out),
        other => {
            let n: usize = other.iter().product::<usize>().max(1);
            (n, n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fans_conv_and_linear() {
        assert_eq!(fans(&[16, 3, 5, 5]), (75, 400));
        assert_eq!(fans(&[10, 64]), (64, 10));
        assert_eq!(fans(&[7]), (7, 7));
    }

    #[test]
    fn he_std_matches_fan_in() {
        let mut rng = Rng::new(1);
        let w = Tensor::randn(&[64, 64, 3, 3], Init::He, &mut rng);
        let expected_std = (2.0f32 / (64.0 * 9.0)).sqrt();
        let mean = w.mean();
        let var = w
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / w.len() as f32;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!(
            (var.sqrt() - expected_std).abs() / expected_std < 0.05,
            "std {} vs {}",
            var.sqrt(),
            expected_std
        );
    }

    #[test]
    fn xavier_respects_bound() {
        let mut rng = Rng::new(2);
        let w = Tensor::randn(&[32, 32, 3, 3], Init::Xavier, &mut rng);
        let bound = (6.0 / ((32 * 9 + 32 * 9) as f32)).sqrt();
        assert!(w.max() <= bound && w.min() >= -bound);
        // Should actually use most of the range.
        assert!(w.max() > 0.8 * bound);
    }

    #[test]
    fn rand_is_small_uniform() {
        let mut rng = Rng::new(3);
        let w = Tensor::randn(&[1000], Init::Rand, &mut rng);
        assert!(w.max() <= 0.05 && w.min() >= -0.05);
    }

    #[test]
    fn zeros_and_ones() {
        let mut rng = Rng::new(4);
        assert_eq!(Tensor::randn(&[4], Init::Zeros, &mut rng).sum(), 0.0);
        assert_eq!(Tensor::randn(&[4], Init::Ones, &mut rng).sum(), 4.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Init::He.to_string(), "he");
        assert_eq!(Init::Xavier.to_string(), "xavier");
        assert_eq!(Init::Rand.to_string(), "rand");
    }

    #[test]
    fn same_seed_same_init() {
        let a = Tensor::randn(&[8, 8], Init::He, &mut Rng::new(9));
        let b = Tensor::randn(&[8, 8], Init::He, &mut Rng::new(9));
        assert_eq!(a, b);
    }
}
