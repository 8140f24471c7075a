//! Loss functions: softmax cross-entropy (`LCE` of the task player) and
//! mean squared error (`Lrec` of the autoencoder player).

use alf_tensor::{ShapeError, Tensor};

use crate::Result;

/// Softmax cross-entropy over a batch of logits.
///
/// Returns `(mean loss, gradient w.r.t. logits)`. The gradient is already
/// divided by the batch size, so it feeds straight into `backward`.
/// Numerically stabilised with the max-subtraction trick.
///
/// # Errors
///
/// Returns an error unless `logits` is `[n, classes]`, `labels.len() == n`
/// and every label is within range.
///
/// # Example
///
/// ```
/// use alf_nn::softmax_cross_entropy;
/// use alf_tensor::Tensor;
///
/// # fn main() -> alf_nn::Result<()> {
/// let logits = Tensor::from_vec(vec![10.0, -10.0], &[1, 2])?;
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0])?;
/// assert!(loss < 1e-6);           // confident and correct
/// assert!(grad.data()[0].abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[allow(clippy::needless_range_loop)] // index `i` addresses three parallel buffers
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor)> {
    let (n, c) = match logits.dims() {
        &[n, c] => (n, c),
        _ => {
            return Err(ShapeError::new(
                "softmax_cross_entropy",
                format!("logits {} not rank 2", logits.shape()),
            ))
        }
    };
    if labels.len() != n {
        return Err(ShapeError::new(
            "softmax_cross_entropy",
            format!("{} labels for batch of {n}", labels.len()),
        ));
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= c) {
        return Err(ShapeError::new(
            "softmax_cross_entropy",
            format!("label {bad} out of range for {c} classes"),
        ));
    }
    let mut grad = Tensor::zeros(&[n, c]);
    let mut total = 0.0;
    for i in 0..n {
        let row = &logits.data()[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let label = labels[i];
        total += z.ln() - (row[label] - max);
        let grow = &mut grad.data_mut()[i * c..(i + 1) * c];
        for (j, g) in grow.iter_mut().enumerate() {
            let p = exps[j] / z;
            *g = (p - if j == label { 1.0 } else { 0.0 }) / n as f32;
        }
    }
    Ok((total / n as f32, grad))
}

/// Number of rows whose argmax equals the label, as an exact integer.
///
/// Aggregating correct counts as `usize` avoids the lossy round-trip of
/// multiplying a per-batch accuracy back by the batch size in `f32`, which
/// can drift by whole samples over a large evaluation set.
///
/// # Errors
///
/// Returns an error on shape/label mismatches (same contract as
/// [`softmax_cross_entropy`]).
pub fn correct_count(logits: &Tensor, labels: &[usize]) -> Result<usize> {
    let (n, c) = match logits.dims() {
        &[n, c] => (n, c),
        _ => {
            return Err(ShapeError::new(
                "correct_count",
                format!("logits {} not rank 2", logits.shape()),
            ))
        }
    };
    if labels.len() != n || n == 0 {
        return Err(ShapeError::new(
            "correct_count",
            format!("{} labels for batch of {n}", labels.len()),
        ));
    }
    Ok((0..n)
        .filter(|&i| alf_tensor::argmax(&logits.data()[i * c..(i + 1) * c]) == labels[i])
        .count())
}

/// Classification accuracy of a batch of logits: fraction of rows whose
/// argmax equals the label.
///
/// # Errors
///
/// Returns an error on shape/label mismatches (same contract as
/// [`softmax_cross_entropy`]).
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> Result<f32> {
    Ok(correct_count(logits, labels)? as f32 / labels.len() as f32)
}

/// Mean squared error between a prediction and a target of equal shape.
///
/// Returns `(loss, gradient w.r.t. prediction)`; the gradient is
/// `2·(pred − target)/len`, matching `d/dpred mean((pred − target)²)`.
///
/// # Errors
///
/// Returns an error when the shapes differ.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> Result<(f32, Tensor)> {
    pred.shape().expect_same(target.shape(), "mse_loss")?;
    let n = pred.len().max(1) as f32;
    let diff = pred.sub(target)?;
    let loss = diff.sq_norm() / n;
    let grad = diff.scale(2.0 / n);
    Ok((loss, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use alf_tensor::init::Init;
    use alf_tensor::rng::Rng;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[3, 4]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_sums_to_zero_per_row() {
        let mut rng = Rng::new(0);
        let logits = Tensor::randn(&[2, 5], Init::He, &mut rng);
        let (_, grad) = softmax_cross_entropy(&logits, &[3, 1]).unwrap();
        for i in 0..2 {
            let row_sum: f32 = grad.data()[i * 5..(i + 1) * 5].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn ce_gradcheck() {
        let mut rng = Rng::new(1);
        let logits = Tensor::randn(&[3, 4], Init::He, &mut rng);
        let labels = [0, 2, 3];
        let (a, n) = gradcheck::input_gradients(
            &logits,
            |l| Ok(softmax_cross_entropy(l, &labels)?.0),
            |l| Ok(softmax_cross_entropy(l, &labels)?.1),
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 1e-2);
    }

    #[test]
    fn ce_is_stable_for_huge_logits() {
        let logits = Tensor::from_vec(vec![1e4, -1e4], &[1, 2]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss.is_finite() && loss < 1e-6);
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn ce_validates_inputs() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(softmax_cross_entropy(&logits, &[0]).is_err());
        assert!(softmax_cross_entropy(&logits, &[0, 3]).is_err());
        assert!(softmax_cross_entropy(&Tensor::zeros(&[6]), &[0]).is_err());
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.0, 5.0, 1.0, 1.0], &[2, 3]).unwrap();
        assert_eq!(accuracy(&logits, &[1, 0]).unwrap(), 1.0);
        assert_eq!(accuracy(&logits, &[0, 0]).unwrap(), 0.5);
        assert_eq!(correct_count(&logits, &[1, 0]).unwrap(), 2);
        assert_eq!(correct_count(&logits, &[0, 1]).unwrap(), 0);
    }

    #[test]
    fn mse_zero_when_equal() {
        let t = Tensor::ones(&[4]);
        let (loss, grad) = mse_loss(&t, &t).unwrap();
        assert_eq!(loss, 0.0);
        assert_eq!(grad.sum(), 0.0);
    }

    #[test]
    fn mse_gradcheck() {
        let mut rng = Rng::new(2);
        let pred = Tensor::randn(&[6], Init::Rand, &mut rng);
        let target = Tensor::randn(&[6], Init::Rand, &mut rng);
        let (a, n) = gradcheck::input_gradients(
            &pred,
            |p| Ok(mse_loss(p, &target)?.0),
            |p| Ok(mse_loss(p, &target)?.1),
        )
        .unwrap();
        gradcheck::assert_close(&a, &n, 1e-2);
    }

    #[test]
    fn mse_validates_shapes() {
        assert!(mse_loss(&Tensor::zeros(&[2]), &Tensor::zeros(&[3])).is_err());
    }
}
