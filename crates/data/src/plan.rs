//! Seeded epoch plans: deterministic, resumable sample orders for
//! data-parallel training.
//!
//! [`crate::Batches`] owns its shuffle RNG, which is the right shape for a
//! single-process epoch loop but the wrong one for two things the
//! data-parallel engine needs:
//!
//! 1. **Sharding** — workers need *index* access to a batch so each can
//!    gather its own contiguous slice of samples.
//! 2. **Resume** — a killed run must be able to regenerate the exact order
//!    of a half-finished epoch from nothing but a checkpoint. A stateful
//!    RNG threaded through the epoch loop cannot do that cheaply; a pure
//!    function of `(seed, epoch)` can.
//!
//! [`EpochPlan`] is that pure function: the order for epoch `e` depends
//! only on `(len, seed, e)` — never on how many workers consume it, how far
//! a previous run got, or what other RNG consumers exist in the process.
//! That property is the data half of the engine's bitwise-resume contract.

use alf_tensor::rng::Rng;

/// Derives the shuffle generator for one epoch as a pure function of
/// `(seed, epoch)`.
///
/// Both inputs pass through a SplitMix64 avalanche before being combined,
/// so structured seeds (0, 1, 2, …) and consecutive epochs still yield
/// uncorrelated permutations; the rotate keeps `seed == epoch` from
/// cancelling to a zero state.
pub(crate) fn epoch_rng(seed: u64, epoch: u64) -> Rng {
    let s = Rng::new(seed).next_u64();
    let e = Rng::new(epoch).next_u64();
    Rng::new(s ^ e.rotate_left(1))
}

/// The contiguous index range `[lo, hi)` of shard `shard` out of `shards`
/// over `len` items. Ranges cover `0..len` exactly once, are in order, and
/// differ in size by at most one item.
///
/// # Panics
///
/// Panics when `shards == 0` or `shard >= shards`.
///
/// # Example
///
/// ```
/// use alf_data::plan::shard_range;
///
/// assert_eq!(shard_range(10, 0, 4), 0..2);
/// assert_eq!(shard_range(10, 3, 4), 7..10);
/// assert_eq!(shard_range(2, 0, 4), 0..0); // more shards than items: some empty
/// ```
pub fn shard_range(len: usize, shard: usize, shards: usize) -> std::ops::Range<usize> {
    assert!(shards > 0, "shard_range needs at least one shard");
    assert!(shard < shards, "shard {shard} out of range ({shards})");
    let lo = shard * len / shards;
    let hi = (shard + 1) * len / shards;
    lo..hi
}

/// A deterministic batch schedule for one training epoch.
///
/// The plan is a shuffled permutation of `0..len` cut into fixed-size
/// contiguous batches (the final batch may be short). Two plans built from
/// equal `(len, batch_size, seed, epoch)` are identical — the resume
/// contract checkpointing relies on.
///
/// # Example
///
/// ```
/// use alf_data::plan::EpochPlan;
///
/// let plan = EpochPlan::new(10, 4, 7, 0);
/// assert_eq!(plan.num_batches(), 3);
/// assert_eq!(plan.batch(0).len(), 4);
/// assert_eq!(plan.batch(2).len(), 2); // short tail
/// // Regenerating the plan reproduces it exactly.
/// assert_eq!(plan.batch(1), EpochPlan::new(10, 4, 7, 0).batch(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    order: Vec<usize>,
    batch_size: usize,
}

impl EpochPlan {
    /// Builds the plan for `epoch` over a split of `len` samples.
    /// `batch_size` is clamped to at least 1.
    pub fn new(len: usize, batch_size: usize, seed: u64, epoch: u64) -> Self {
        let mut order: Vec<usize> = (0..len).collect();
        epoch_rng(seed, epoch).shuffle(&mut order);
        Self {
            order,
            batch_size: batch_size.max(1),
        }
    }

    /// Number of samples in the epoch.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the epoch has no samples.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Configured batch size (the final batch may be shorter).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches in the epoch.
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Sample indices of batch `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= num_batches()`.
    pub fn batch(&self, i: usize) -> &[usize] {
        assert!(i < self.num_batches(), "batch {i} out of range");
        let lo = i * self.batch_size;
        let hi = (lo + self.batch_size).min(self.order.len());
        &self.order[lo..hi]
    }

    /// The full shuffled sample order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_permutation_and_reproducible() {
        let a = EpochPlan::new(37, 8, 123, 4);
        let b = EpochPlan::new(37, 8, 123, 4);
        assert_eq!(a, b);
        let mut sorted = a.order().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn different_epochs_and_seeds_give_different_orders() {
        let base = EpochPlan::new(64, 8, 1, 0);
        assert_ne!(base.order(), EpochPlan::new(64, 8, 1, 1).order());
        assert_ne!(base.order(), EpochPlan::new(64, 8, 2, 0).order());
    }

    #[test]
    fn batches_cover_the_epoch_exactly() {
        let plan = EpochPlan::new(13, 4, 9, 2);
        assert_eq!(plan.num_batches(), 4);
        let mut seen: Vec<usize> = Vec::new();
        for i in 0..plan.num_batches() {
            seen.extend_from_slice(plan.batch(i));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..13).collect::<Vec<_>>());
        assert_eq!(plan.batch(3).len(), 1); // 13 = 3·4 + 1
    }

    #[test]
    fn zero_len_and_zero_batch_size_are_safe() {
        let empty = EpochPlan::new(0, 4, 0, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.num_batches(), 0);
        let clamped = EpochPlan::new(3, 0, 0, 0);
        assert_eq!(clamped.batch_size(), 1);
        assert_eq!(clamped.num_batches(), 3);
    }

    #[test]
    fn shard_ranges_partition_in_order() {
        for (len, shards) in [(10usize, 4usize), (3, 7), (16, 1), (0, 3), (7, 7)] {
            let mut next = 0usize;
            for s in 0..shards {
                let r = shard_range(len, s, shards);
                assert_eq!(r.start, next, "gap at shard {s} of {len}/{shards}");
                assert!(r.end >= r.start);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..4).map(|s| shard_range(10, s, 4).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_out_of_range_panics() {
        shard_range(10, 4, 4);
    }

    #[test]
    fn epoch_rng_is_pure() {
        assert_eq!(epoch_rng(5, 9).next_u64(), epoch_rng(5, 9).next_u64());
        assert_ne!(epoch_rng(5, 9).next_u64(), epoch_rng(5, 10).next_u64());
        // seed == epoch must not collapse to a degenerate state.
        assert_ne!(epoch_rng(3, 3).next_u64(), 0);
    }
}
