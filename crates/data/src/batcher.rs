//! Batched iteration over a [`Dataset`] split.

use alf_tensor::rng::Rng;
use alf_tensor::Tensor;

use crate::dataset::{Dataset, Split};

/// Iterator yielding `(images, labels)` batches from a dataset split.
///
/// Produced by [`Dataset::batches`]. When a shuffling RNG is supplied the
/// sample order is a fresh Fisher–Yates permutation; otherwise samples are
/// visited in storage order. The final batch may be short.
///
/// # Example
///
/// ```
/// use alf_data::{Split, SynthVision};
///
/// # fn main() -> alf_data::Result<()> {
/// let data = SynthVision::cifar_like(1).with_train_size(10).build()?;
/// let sizes: Vec<usize> = data
///     .batches(Split::Train, 4, None)
///     .map(|b| b.map(|(x, _)| x.dims()[0]))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(sizes, vec![4, 4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Batches<'a> {
    dataset: &'a Dataset,
    split: Split,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl<'a> Batches<'a> {
    pub(crate) fn new(
        dataset: &'a Dataset,
        split: Split,
        batch_size: usize,
        shuffle: Option<&mut Rng>,
    ) -> Self {
        let mut order: Vec<usize> = (0..dataset.len_of(split)).collect();
        if let Some(rng) = shuffle {
            rng.shuffle(&mut order);
        }
        Self {
            dataset,
            split,
            order,
            batch_size: batch_size.max(1),
            cursor: 0,
        }
    }
}

impl Iterator for Batches<'_> {
    type Item = crate::Result<(Tensor, Vec<usize>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let idx = &self.order[self.cursor..end];
        self.cursor = end;
        Some(self.dataset.gather(self.split, idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.order.len() - self.cursor).div_ceil(self.batch_size);
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Batches<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthVision;

    fn data() -> Dataset {
        SynthVision::cifar_like(7)
            .with_train_size(13)
            .with_test_size(5)
            .with_image_size(8)
            .build()
            .unwrap()
    }

    #[test]
    fn covers_every_sample_exactly_once() {
        let d = data();
        let mut count = 0;
        for batch in d.batches(Split::Train, 4, None) {
            let (x, labels) = batch.unwrap();
            assert_eq!(x.dims()[0], labels.len());
            count += labels.len();
        }
        assert_eq!(count, 13);
    }

    #[test]
    fn shuffled_order_is_a_permutation() {
        let d = data();
        let mut rng = Rng::new(99);
        let mut all_labels = Vec::new();
        for batch in d.batches(Split::Train, 5, Some(&mut rng)) {
            all_labels.extend(batch.unwrap().1);
        }
        let mut sorted = all_labels.clone();
        sorted.sort_unstable();
        let mut expected = d.labels(Split::Train).to_vec();
        expected.sort_unstable();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn len_is_the_batch_count() {
        let d = data();
        let it = d.batches(Split::Train, 4, None);
        assert_eq!(it.len(), 4); // ceil(13/4)
        let it = d.batches(Split::Test, 10, None);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn zero_batch_size_is_clamped_to_one() {
        let d = data();
        assert_eq!(d.batches(Split::Test, 0, None).len(), 5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `size_hint` stays exact at every step of consumption and
            /// agrees with `len`, including a short final batch and
            /// `batch_size > len` (single short batch).
            #[test]
            fn size_hint_and_batch_count_agree(
                len in 1usize..24,
                batch_size in 1usize..32,
                seed in 0u64..1000,
            ) {
                let d = SynthVision::cifar_like(seed)
                    .with_train_size(len)
                    .with_test_size(1)
                    .with_image_size(4)
                    .with_max_shift(1)
                    .build()
                    .unwrap();
                let mut it = d.batches(Split::Train, batch_size, None);
                let expected_total = len.div_ceil(batch_size);
                prop_assert_eq!(it.len(), expected_total);

                let mut yielded = 0usize;
                let mut samples = 0usize;
                loop {
                    let remaining = expected_total - yielded;
                    prop_assert_eq!(it.size_hint(), (remaining, Some(remaining)));
                    let Some(batch) = it.next() else { break };
                    let (x, labels) = batch.unwrap();
                    prop_assert_eq!(x.dims()[0], labels.len());
                    yielded += 1;
                    samples += labels.len();
                    // Only the final batch may be short.
                    if yielded < expected_total {
                        prop_assert_eq!(labels.len(), batch_size);
                    } else {
                        let tail = len - (expected_total - 1) * batch_size;
                        prop_assert_eq!(labels.len(), tail);
                    }
                }
                prop_assert_eq!(yielded, expected_total);
                prop_assert_eq!(samples, len);
                prop_assert_eq!(it.size_hint(), (0, Some(0)));
            }
        }
    }
}
