//! Training-time data augmentation.
//!
//! The standard CIFAR recipe (random horizontal flip + shifted crop, plus
//! optional pixel noise), applied in place to `NCHW` batch tensors.
//! Deterministic given the caller's RNG, like everything else in the
//! workspace.

use alf_tensor::rng::Rng;
use alf_tensor::{ShapeError, Tensor};

use crate::Result;

/// Augmentation policy applied independently to each sample of a batch.
///
/// # Example
///
/// ```
/// use alf_data::Augment;
/// use alf_tensor::{rng::Rng, Tensor};
///
/// # fn main() -> alf_data::Result<()> {
/// // The standard CIFAR policy: flip with probability 0.5, shift ±2 px.
/// let policy = Augment { hflip_prob: 0.5, max_shift: 2, noise: 0.0 };
/// let mut batch = Tensor::ones(&[2, 3, 16, 16]);
/// policy.apply(&mut batch, &mut Rng::new(0))?;
/// assert_eq!(batch.dims(), &[2, 3, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Augment {
    /// Probability of a horizontal flip per sample.
    pub hflip_prob: f32,
    /// Maximum random translation per axis, in pixels (zero-filled).
    pub max_shift: usize,
    /// Additive Gaussian pixel-noise standard deviation.
    pub noise: f32,
}

impl Augment {
    /// No-op policy.
    pub fn none() -> Self {
        Self {
            hflip_prob: 0.0,
            max_shift: 0,
            noise: 0.0,
        }
    }

    /// Applies the policy in place to an `NCHW` batch.
    ///
    /// # Errors
    ///
    /// Returns an error when `batch` is not rank 4 or smaller than twice
    /// the shift range.
    pub fn apply(&self, batch: &mut Tensor, rng: &mut Rng) -> Result<()> {
        let (n, c, h, w) = match batch.dims() {
            &[n, c, h, w] => (n, c, h, w),
            _ => {
                return Err(ShapeError::new(
                    "augment",
                    format!("expected NCHW batch, got {}", batch.shape()),
                ))
            }
        };
        if h <= 2 * self.max_shift || w <= 2 * self.max_shift {
            return Err(ShapeError::new(
                "augment",
                format!("{h}x{w} image too small for shift ±{}", self.max_shift),
            ));
        }
        let plane = h * w;
        let mut scratch = vec![0.0f32; plane];
        for b in 0..n {
            let flip = self.hflip_prob > 0.0 && rng.next_f32() < self.hflip_prob;
            let (dx, dy) = if self.max_shift > 0 {
                let s = self.max_shift as isize;
                (
                    rng.below(2 * self.max_shift + 1) as isize - s,
                    rng.below(2 * self.max_shift + 1) as isize - s,
                )
            } else {
                (0, 0)
            };
            for ch in 0..c {
                let base = (b * c + ch) * plane;
                let src = &batch.data()[base..base + plane];
                for y in 0..h {
                    for x in 0..w {
                        let sx0 = if flip { w - 1 - x } else { x } as isize;
                        let sy = y as isize - dy;
                        let sx = sx0 - dx * if flip { -1 } else { 1 };
                        scratch[y * w + x] =
                            if sy >= 0 && sx >= 0 && (sy as usize) < h && (sx as usize) < w {
                                src[sy as usize * w + sx as usize]
                            } else {
                                0.0
                            };
                    }
                }
                let dst = &mut batch.data_mut()[base..base + plane];
                if self.noise > 0.0 {
                    for (d, &s) in dst.iter_mut().zip(&scratch) {
                        *d = s + self.noise * rng.normal();
                    }
                } else {
                    dst.copy_from_slice(&scratch);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CIFAR: Augment = Augment {
        hflip_prob: 0.5,
        max_shift: 2,
        noise: 0.0,
    };

    fn batch() -> Tensor {
        Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32)
    }

    #[test]
    fn none_policy_is_identity() {
        let mut b = batch();
        let before = b.clone();
        Augment::none().apply(&mut b, &mut Rng::new(0)).unwrap();
        assert_eq!(b, before);
    }

    #[test]
    fn flip_reverses_rows() {
        let policy = Augment {
            hflip_prob: 1.0,
            max_shift: 0,
            noise: 0.0,
        };
        let mut b = batch();
        policy.apply(&mut b, &mut Rng::new(1)).unwrap();
        // Row 0 was [0,1,2,3]; flipped → [3,2,1,0].
        assert_eq!(&b.data()[..4], &[3.0, 2.0, 1.0, 0.0]);
        // Double flip restores.
        policy.apply(&mut b, &mut Rng::new(1)).unwrap();
        assert_eq!(b, batch());
    }

    #[test]
    fn shift_moves_content_and_zero_fills() {
        // Deterministically probe: with max_shift=1 some shift occurs over
        // many draws; check zero padding appears and content is preserved
        // in count.
        let policy = Augment {
            hflip_prob: 0.0,
            max_shift: 1,
            noise: 0.0,
        };
        let mut rng = Rng::new(2);
        let mut seen_shifted = false;
        for _ in 0..20 {
            let mut b = Tensor::ones(&[1, 1, 4, 4]);
            policy.apply(&mut b, &mut rng).unwrap();
            let zeros = b.count_near_zero(0.0);
            assert!(
                zeros == 0 || zeros.is_multiple_of(4) || zeros == 7,
                "zeros {zeros}"
            );
            if zeros > 0 {
                seen_shifted = true;
            }
        }
        assert!(seen_shifted, "a shift should occur within 20 draws");
    }

    #[test]
    fn noise_perturbs_every_pixel() {
        let policy = Augment {
            hflip_prob: 0.0,
            max_shift: 0,
            noise: 0.1,
        };
        let mut b = Tensor::zeros(&[1, 1, 4, 4]);
        policy.apply(&mut b, &mut Rng::new(3)).unwrap();
        assert!(b.data().iter().all(|&v| v != 0.0));
        assert!(b.data().iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn rejects_bad_inputs() {
        let policy = CIFAR;
        let mut wrong_rank = Tensor::zeros(&[4, 4]);
        assert!(policy.apply(&mut wrong_rank, &mut Rng::new(0)).is_err());
        let mut too_small = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(policy.apply(&mut too_small, &mut Rng::new(0)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let policy = CIFAR;
        let run = |seed| {
            let mut b = Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 17) as f32);
            policy.apply(&mut b, &mut Rng::new(seed)).unwrap();
            b
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
