//! Seed matmul kernels, preserved as the reference implementations.
//!
//! These are the exact loop nests the repo shipped with before the
//! blocked GEMM landed ([`super::gemm`]): single-threaded, no packing, no
//! tiling, and — in the non-transposed variants — an unconditional
//! `av == 0.0` skip in the inner loop. They exist for differential
//! testing: the blocked kernel is property-tested against these across
//! randomized shapes; any divergence beyond accumulation-order rounding
//! is a kernel bug.
//!
//! Do not "optimise" this module; route performance work through
//! [`super::gemm`] instead.

use crate::{ShapeError, Tensor};

use super::matmul::dims_for;

/// Seed `C = A · B`: `i-k-j` loop order with a zero-skip on `A` elements.
///
/// The zero-skip made every dense matmul pay a branch per `A` element to
/// speed up the rare masked-weight case; the production path now splits
/// that into [`super::matmul`] (dense, branch-free) and
/// [`super::gemm_active_rows_into`] (declared row elision).
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[k, n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = dims_for("reference::matmul", a, b, false, false)?;
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut od[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// Seed `C = Aᵀ · B`: `k`-outer loop order.
///
/// # Errors
///
/// Returns an error unless `A` is `[k, m]` and `B` is `[k, n]`.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = dims_for("reference::matmul_at", a, b, true, false)?;
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    // A is [k, m]: column i of A is stride-m. Iterate over k outermost so both
    // A and B rows stream sequentially.
    for p in 0..k {
        let arow = &ad[p * m..(p + 1) * m];
        let brow = &bd[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut od[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
    Ok(out)
}

/// Seed `C = A · Bᵀ`: per-element dot products.
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[n, k]`.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    let (m, k, n) = dims_for("reference::matmul_bt", a, b, false, true)?;
    let mut out = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            od[i * n + j] = acc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::rng::Rng;

    #[test]
    fn reference_kernels_agree_with_each_other() {
        let mut rng = Rng::new(17);
        let a = Tensor::randn(&[5, 7], Init::Rand, &mut rng);
        let b = Tensor::randn(&[7, 4], Init::Rand, &mut rng);
        let direct = matmul(&a, &b).unwrap();
        let via_at = matmul_at(&a.transpose2().unwrap(), &b).unwrap();
        let via_bt = matmul_bt(&a, &b.transpose2().unwrap()).unwrap();
        assert!(direct.allclose(&via_at, 1e-5));
        assert!(direct.allclose(&via_bt, 1e-5));
    }

    #[test]
    fn zero_rows_short_circuit_correctly() {
        // The av == 0.0 skip must not change results.
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap().data(), &[5.0, 6.0, 0.0, 0.0]);
    }
}
