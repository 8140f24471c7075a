//! Fixed-order tree reduction over per-sample gradient leaves.
//!
//! Floating-point addition is not associative, so the *order* in which
//! gradient contributions are summed is part of a training run's identity.
//! The data-parallel engine therefore never lets the reduction order
//! depend on how work was scheduled: workers produce one gradient leaf
//! per **sample**, and this module sums the leaves in a stride-doubling
//! binary-tree order that is a pure function of the leaf *count* — the
//! batch size — and nothing else. Any shard layout over the same batch
//! feeds identical leaves into an identical tree and yields a bitwise
//! identical reduced gradient.

/// Sums `leaves` into `leaves[0]` in a fixed stride-doubling binary-tree
/// order.
///
/// The tree pairs `(0,1), (2,3), …` at stride 1, then `(0,2), (4,6), …`
/// at stride 2, and so on — e.g. for six leaves the result is
/// `((l0+l1)+(l2+l3)) + (l4+l5)`, with every `+` an elementwise f32 add.
/// The summation order depends only on `leaves.len()`, which is what
/// makes the reduction bitwise reproducible across worker counts.
///
/// Leaves other than index 0 are used as scratch and hold partial sums
/// afterwards.
///
/// # Panics
///
/// Panics when the leaves do not all have the same length.
pub fn tree_reduce_into_first(leaves: &mut [Vec<f32>]) {
    let n = leaves.len();
    if n == 0 {
        return;
    }
    let len = leaves[0].len();
    assert!(
        leaves.iter().all(|l| l.len() == len),
        "tree_reduce: leaf length mismatch"
    );
    let mut stride = 1usize;
    while stride < n {
        let mut i = 0usize;
        while i + stride < n {
            // Disjoint borrows of leaves[i] (dst) and leaves[i+stride] (src).
            let (head, tail) = leaves.split_at_mut(i + stride);
            let (dst, src) = (&mut head[i], &tail[0]);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += *s;
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves_of(values: &[&[f32]]) -> Vec<Vec<f32>> {
        values.iter().map(|v| v.to_vec()).collect()
    }

    #[test]
    fn sums_ones_for_any_count() {
        for n in [1usize, 2, 3, 4, 5, 6, 7, 8, 13] {
            let mut leaves = vec![vec![1.0f32; 3]; n];
            tree_reduce_into_first(&mut leaves);
            assert_eq!(leaves[0], vec![n as f32; 3], "count {n}");
        }
    }

    #[test]
    fn order_is_the_documented_tree() {
        // Values chosen so float addition order matters: summing left to
        // right gives a different bit pattern than the tree.
        let vals = [1.0e8f32, 1.0, -1.0e8, 1.0, 0.25, 0.5];
        let mut leaves = leaves_of(&[
            &[vals[0]],
            &[vals[1]],
            &[vals[2]],
            &[vals[3]],
            &[vals[4]],
            &[vals[5]],
        ]);
        tree_reduce_into_first(&mut leaves);
        let expected = ((vals[0] + vals[1]) + (vals[2] + vals[3])) + (vals[4] + vals[5]);
        assert_eq!(leaves[0][0].to_bits(), expected.to_bits());
        let left_fold: f32 = vals.iter().sum();
        // Sanity: the orders genuinely disagree on these inputs, so the
        // equality above actually pinned the tree order.
        assert_ne!(left_fold.to_bits(), expected.to_bits());
    }

    #[test]
    fn single_leaf_is_untouched_and_empty_is_a_noop() {
        let mut one = leaves_of(&[&[3.5, -1.0]]);
        tree_reduce_into_first(&mut one);
        assert_eq!(one[0], vec![3.5, -1.0]);
        let mut none: Vec<Vec<f32>> = Vec::new();
        tree_reduce_into_first(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn reduction_is_a_pure_function_of_count() {
        // Same leaves, reduced twice from fresh copies: identical bits.
        let base: Vec<Vec<f32>> = (0..7)
            .map(|i| vec![(i as f32 * 0.731).sin(), (i as f32 * 1.37).cos()])
            .collect();
        let mut a = base.clone();
        let mut b = base.clone();
        tree_reduce_into_first(&mut a);
        tree_reduce_into_first(&mut b);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    #[should_panic(expected = "leaf length mismatch")]
    fn mismatched_lengths_panic() {
        let mut bad = leaves_of(&[&[1.0, 2.0], &[3.0]]);
        tree_reduce_into_first(&mut bad);
    }
}
