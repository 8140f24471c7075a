//! In-memory labelled image dataset.

use alf_tensor::{ShapeError, Tensor};

use crate::batcher::Batches;
use crate::Result;

/// Which partition of a [`Dataset`] to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Split {
    /// Training partition.
    Train,
    /// Held-out evaluation partition.
    Test,
}

/// A labelled image dataset held fully in memory (`NCHW`, `f32`).
///
/// Construction goes through `Dataset::from_parts`, which validates that
/// image count, label count and geometry are mutually consistent; the
/// invariants therefore hold for the dataset's whole lifetime.
///
/// # Example
///
/// ```
/// use alf_data::SynthVision;
///
/// # fn main() -> alf_data::Result<()> {
/// let data = SynthVision::cifar_like(0)
///     .with_train_size(64)
///     .with_test_size(32)
///     .build()?;
/// assert_eq!(data.num_classes(), 10);
/// assert_eq!(data.image_dims(), [3, 32, 32]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    train_images: Vec<f32>,
    train_labels: Vec<usize>,
    test_images: Vec<f32>,
    test_labels: Vec<usize>,
    channels: usize,
    height: usize,
    width: usize,
    num_classes: usize,
}

impl Dataset {
    /// Builds a dataset from raw buffers.
    ///
    /// # Errors
    ///
    /// Returns an error when buffer lengths disagree with the geometry or
    /// any label is out of range.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        train_images: Vec<f32>,
        train_labels: Vec<usize>,
        test_images: Vec<f32>,
        test_labels: Vec<usize>,
        channels: usize,
        height: usize,
        width: usize,
        num_classes: usize,
    ) -> Result<Self> {
        let pix = channels * height * width;
        if pix == 0 || num_classes == 0 {
            return Err(ShapeError::new("dataset", "zero-sized geometry"));
        }
        for (name, images, labels) in [
            ("train", &train_images, &train_labels),
            ("test", &test_images, &test_labels),
        ] {
            if images.len() != labels.len() * pix {
                return Err(ShapeError::new(
                    "dataset",
                    format!(
                        "{name}: {} floats for {} labels × {pix} pixels",
                        images.len(),
                        labels.len()
                    ),
                ));
            }
            if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
                return Err(ShapeError::new(
                    "dataset",
                    format!("{name}: label {bad} out of range ({num_classes} classes)"),
                ));
            }
        }
        Ok(Self {
            train_images,
            train_labels,
            test_images,
            test_labels,
            channels,
            height,
            width,
            num_classes,
        })
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Per-image dimensions `[channels, height, width]`.
    pub fn image_dims(&self) -> [usize; 3] {
        [self.channels, self.height, self.width]
    }

    /// Number of samples in a split.
    pub fn len_of(&self, split: Split) -> usize {
        match split {
            Split::Train => self.train_labels.len(),
            Split::Test => self.test_labels.len(),
        }
    }

    /// Labels of a split.
    pub fn labels(&self, split: Split) -> &[usize] {
        match split {
            Split::Train => &self.train_labels,
            Split::Test => &self.test_labels,
        }
    }

    /// Raw pixel buffer of a split (row-major `NCHW`).
    pub fn images(&self, split: Split) -> &[f32] {
        match split {
            Split::Train => &self.train_images,
            Split::Test => &self.test_images,
        }
    }

    /// Materialises the samples at `indices` as an `NCHW` batch tensor plus
    /// labels.
    ///
    /// # Errors
    ///
    /// Returns an error when any index is out of range or `indices` is
    /// empty.
    pub fn gather(&self, split: Split, indices: &[usize]) -> Result<(Tensor, Vec<usize>)> {
        if indices.is_empty() {
            return Err(ShapeError::new("dataset gather", "empty index list"));
        }
        let n = self.len_of(split);
        let pix = self.channels * self.height * self.width;
        let mut out = Vec::with_capacity(indices.len() * pix);
        let mut labels = Vec::with_capacity(indices.len());
        let (images, all_labels) = (self.images(split), self.labels(split));
        for &i in indices {
            if i >= n {
                return Err(ShapeError::new(
                    "dataset gather",
                    format!("index {i} out of range ({n} samples)"),
                ));
            }
            out.extend_from_slice(&images[i * pix..(i + 1) * pix]);
            labels.push(all_labels[i]);
        }
        let batch = Tensor::from_vec(
            out,
            &[indices.len(), self.channels, self.height, self.width],
        )?;
        Ok((batch, labels))
    }

    /// Iterates a split in fixed-size batches, optionally shuffled.
    ///
    /// The final short batch is included. See [`Batches`].
    pub fn batches(
        &self,
        split: Split,
        batch_size: usize,
        shuffle: Option<&mut alf_tensor::rng::Rng>,
    ) -> Batches<'_> {
        Batches::new(self, split, batch_size, shuffle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // 3 train + 2 test samples of 1×2×2.
        Dataset::from_parts(
            (0..12).map(|i| i as f32).collect(),
            vec![0, 1, 0],
            (0..8).map(|i| i as f32).collect(),
            vec![1, 1],
            1,
            2,
            2,
            2,
        )
        .unwrap()
    }

    #[test]
    fn from_parts_validates_lengths() {
        assert!(Dataset::from_parts(vec![0.0; 3], vec![0], vec![], vec![], 1, 2, 2, 2).is_err());
        assert!(Dataset::from_parts(vec![0.0; 4], vec![5], vec![], vec![], 1, 2, 2, 2).is_err());
        assert!(Dataset::from_parts(vec![], vec![], vec![], vec![], 0, 2, 2, 2).is_err());
        assert!(Dataset::from_parts(vec![0.0; 4], vec![0], vec![], vec![], 1, 2, 2, 2).is_ok());
    }

    #[test]
    fn gather_builds_batches() {
        let d = tiny();
        let (batch, labels) = d.gather(Split::Train, &[2, 0]).unwrap();
        assert_eq!(batch.dims(), &[2, 1, 2, 2]);
        assert_eq!(labels, vec![0, 0]);
        assert_eq!(batch.at(&[0, 0, 0, 0]), 8.0); // sample 2 starts at 8
        assert_eq!(batch.at(&[1, 0, 0, 0]), 0.0);
    }

    #[test]
    fn gather_rejects_bad_indices() {
        let d = tiny();
        assert!(d.gather(Split::Train, &[3]).is_err());
        assert!(d.gather(Split::Test, &[2]).is_err());
        assert!(d.gather(Split::Train, &[]).is_err());
    }

    #[test]
    fn split_accessors() {
        let d = tiny();
        assert_eq!(d.len_of(Split::Train), 3);
        assert_eq!(d.len_of(Split::Test), 2);
        assert_eq!(d.labels(Split::Test), &[1, 1]);
        assert_eq!(d.images(Split::Train).len(), 12);
    }
}
