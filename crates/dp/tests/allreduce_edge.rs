//! Edge-case coverage for the fixed-order stride-doubling tree
//! ([`alf_dp::allreduce`]): the reduction the whole determinism story —
//! worker-count invariance and checkpoint/resume — hangs off.

use alf_dp::allreduce::tree_reduce_into_first;

/// Deterministic pseudo-random leaves: `n` vectors of `len` f32s with
/// varied signs and magnitudes (so float addition is genuinely
/// non-associative across orders).
fn leaves(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Spread across ±[1e-4, ~16): enough dynamic range that
        // reassociating sums changes low-order bits.
        let mantissa = (state >> 40) as f32 / (1u64 << 24) as f32;
        let scale = [1e-4f32, 1e-2, 1.0, 16.0][(state & 3) as usize];
        (mantissa - 0.5) * scale
    };
    (0..n).map(|_| (0..len).map(|_| next()).collect()).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn single_leaf_is_identity() {
    let mut l = leaves(1, 7, 42);
    let want = l[0].clone();
    tree_reduce_into_first(&mut l);
    assert_eq!(bits(&l[0]), bits(&want));
}

#[test]
fn empty_leaf_set_is_a_no_op() {
    let mut l: Vec<Vec<f32>> = Vec::new();
    tree_reduce_into_first(&mut l);
    assert!(l.is_empty());
}

#[test]
fn non_power_of_two_counts_match_the_tree_order_reference() {
    // Reference: replay the stride-doubling schedule by hand.
    for n in [2usize, 3, 5, 6, 7, 9, 11, 12, 13, 15, 17] {
        let reference = {
            let l = leaves(n, 5, n as u64);
            let mut acc = l.clone();
            let mut stride = 1;
            while stride < n {
                let mut dst = 0;
                while dst + stride < n {
                    let src = std::mem::take(&mut acc[dst + stride]);
                    for (a, v) in acc[dst].iter_mut().zip(src.iter()) {
                        *a += *v;
                    }
                    dst += 2 * stride;
                }
                stride *= 2;
            }
            std::mem::take(&mut acc[0])
        };
        let mut l = leaves(n, 5, n as u64);
        tree_reduce_into_first(&mut l);
        assert_eq!(bits(&l[0]), bits(&reference), "n = {n}");
    }
}
