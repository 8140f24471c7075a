use crate::{ShapeError, Tensor};

use super::gemm::{auto_threads, gemm_into};
use super::workspace::{with_thread_workspace, Workspace};

/// `op(A) · op(B)` as a fresh tensor — the one body behind the whole
/// `matmul*` family; the public functions only choose the transposes and
/// where packing scratch comes from.
fn product(
    op: &str,
    a: &Tensor,
    ta: bool,
    b: &Tensor,
    tb: bool,
    ws: &mut Workspace,
) -> Result<Tensor, ShapeError> {
    let (m, k, n) = dims_for(op, a, b, ta, tb)?;
    let mut out = Tensor::zeros(&[m, n]);
    gemm_into(
        out.data_mut(),
        a.data(),
        ta,
        b.data(),
        tb,
        m,
        k,
        n,
        ws,
        auto_threads(m, k, n),
    );
    Ok(out)
}

/// Dense matrix product `C = A · B` for rank-2 tensors.
///
/// Routed through the cache-blocked, register-tiled kernel in
/// [`super::gemm`] (packing + `8×8` micro-tiles, multithreaded above a
/// flop threshold), with packing scratch drawn from the calling thread's
/// shared [`Workspace`](super::Workspace). The seed's naive loop survives
/// as [`super::reference::matmul`] for differential testing; unlike the
/// seed, this path has **no** per-element zero test — masked weights with
/// pruned rows should declare them through
/// [`gemm_active_rows_into`](super::gemm_active_rows_into).
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[k, n]`.
///
/// # Example
///
/// ```
/// use alf_tensor::{ops::matmul, Tensor};
/// # fn main() -> Result<(), alf_tensor::ShapeError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &b)?.data(), &[19.0, 22.0, 43.0, 50.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    with_thread_workspace(|ws| matmul_ws(a, b, ws))
}

/// `C = Aᵀ · B` without materialising the transpose.
///
/// The transpose is absorbed by the GEMM packing stage — `A` is read with
/// a transposed stride while being packed into row panels, so the inner
/// kernel is identical to the non-transposed case.
///
/// # Errors
///
/// Returns an error unless `A` is `[k, m]` and `B` is `[k, n]`.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    with_thread_workspace(|ws| matmul_at_ws(a, b, ws))
}

/// `C = A · Bᵀ` without materialising the transpose.
///
/// As with [`matmul_at`], the transpose costs only a different read
/// stride during `B` packing.
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[n, k]`.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Result<Tensor, ShapeError> {
    with_thread_workspace(|ws| matmul_bt_ws(a, b, ws))
}

/// [`matmul`] drawing packing scratch from a caller-supplied arena
/// instead of the calling thread's workspace.
///
/// Callers that run many products per step (the ALF autoencoder player)
/// route them all through one arena so the whole step reuses a single set
/// of packing buffers — and so a frozen arena can *prove* the steady state
/// allocates nothing.
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[k, n]`.
pub fn matmul_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
    product("matmul", a, false, b, false, ws)
}

/// [`matmul_at`] drawing packing scratch from a caller-supplied arena.
///
/// # Errors
///
/// Returns an error unless `A` is `[k, m]` and `B` is `[k, n]`.
pub fn matmul_at_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
    product("matmul_at", a, true, b, false, ws)
}

/// [`matmul_bt`] drawing packing scratch from a caller-supplied arena.
///
/// # Errors
///
/// Returns an error unless `A` is `[m, k]` and `B` is `[n, k]`.
pub fn matmul_bt_ws(a: &Tensor, b: &Tensor, ws: &mut Workspace) -> Result<Tensor, ShapeError> {
    product("matmul_bt", a, false, b, true, ws)
}

pub(crate) fn dims_for(
    op: &str,
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
) -> Result<(usize, usize, usize), ShapeError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(ShapeError::new(
            op,
            format!(
                "expected rank-2 operands, got {} and {}",
                a.shape(),
                b.shape()
            ),
        ));
    }
    let (m, ka) = if ta {
        (a.dims()[1], a.dims()[0])
    } else {
        (a.dims()[0], a.dims()[1])
    };
    let (kb, n) = if tb {
        (b.dims()[1], b.dims()[0])
    } else {
        (b.dims()[0], b.dims()[1])
    };
    if ka != kb {
        return Err(ShapeError::new(
            op,
            format!("inner dims differ: {} vs {}", a.shape(), b.shape()),
        ));
    }
    Ok((m, ka, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use crate::ops::reference;
    use crate::rng::Rng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    #[test]
    fn matches_naive_on_random_matrices() {
        let mut rng = Rng::new(42);
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (8, 8, 8), (13, 1, 9)] {
            let a = Tensor::randn(&[m, k], Init::Rand, &mut rng);
            let b = Tensor::randn(&[k, n], Init::Rand, &mut rng);
            let fast = matmul(&a, &b).unwrap();
            assert!(fast.allclose(&naive(&a, &b), 1e-5), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matches_seed_reference_kernels() {
        let mut rng = Rng::new(44);
        let a = Tensor::randn(&[19, 23], Init::Rand, &mut rng);
        let b = Tensor::randn(&[23, 17], Init::Rand, &mut rng);
        assert!(matmul(&a, &b)
            .unwrap()
            .allclose(&reference::matmul(&a, &b).unwrap(), 1e-4));
        let at = Tensor::randn(&[23, 19], Init::Rand, &mut rng);
        assert!(matmul_at(&at, &b)
            .unwrap()
            .allclose(&reference::matmul_at(&at, &b).unwrap(), 1e-4));
        let bt = Tensor::randn(&[17, 23], Init::Rand, &mut rng);
        assert!(matmul_bt(&a, &bt)
            .unwrap()
            .allclose(&reference::matmul_bt(&a, &bt).unwrap(), 1e-4));
    }

    #[test]
    fn at_variant_equals_explicit_transpose() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn(&[6, 4], Init::Rand, &mut rng);
        let b = Tensor::randn(&[6, 5], Init::Rand, &mut rng);
        let via_t = matmul(&a.transpose2().unwrap(), &b).unwrap();
        assert!(matmul_at(&a, &b).unwrap().allclose(&via_t, 1e-5));
    }

    #[test]
    fn bt_variant_equals_explicit_transpose() {
        let mut rng = Rng::new(2);
        let a = Tensor::randn(&[3, 7], Init::Rand, &mut rng);
        let b = Tensor::randn(&[5, 7], Init::Rand, &mut rng);
        let via_t = matmul(&a, &b.transpose2().unwrap()).unwrap();
        assert!(matmul_bt(&a, &b).unwrap().allclose(&via_t, 1e-5));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn(&[4, 4], Init::Rand, &mut rng);
        assert!(matmul(&a, &Tensor::eye(4)).unwrap().allclose(&a, 1e-6));
        assert!(matmul(&Tensor::eye(4), &a).unwrap().allclose(&a, 1e-6));
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &Tensor::zeros(&[4, 2])).is_err());
        assert!(matmul(&a, &Tensor::zeros(&[3])).is_err());
        assert!(matmul_at(&a, &Tensor::zeros(&[3, 2])).is_err());
        assert!(matmul_bt(&a, &Tensor::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn zero_rows_short_circuit_correctly() {
        // Kept from the seed: zero LHS rows must yield zero output rows.
        let a = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &b).unwrap().data(), &[5.0, 6.0, 0.0, 0.0]);
    }
}
