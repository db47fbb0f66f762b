//! Loss functions.

use reveil_tensor::{ops, Tensor};

use crate::NnError;

/// Mean softmax cross-entropy over a batch, returning the scalar loss and
/// the gradient with respect to the logits.
///
/// `logits` has shape `[n, classes]`; `labels` holds `n` class indices. The
/// returned gradient is `(softmax(logits) − onehot(labels)) / n`, ready to
/// feed into `Network::backward_to_input`.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] if `logits` is not rank-2, if
/// `labels.len()` differs from the batch size, or if any label is out of
/// range — malformed inputs surface as structured errors instead of
/// aborting mid-training.
///
/// # Example
///
/// ```
/// use reveil_nn::loss::softmax_cross_entropy;
/// use reveil_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let logits = Tensor::from_vec(vec![1, 2], vec![2.0, 0.0])?;
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0])?;
/// assert!(loss < 0.2, "confident correct prediction has low loss");
/// assert_eq!(grad.shape(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> Result<(f32, Tensor), NnError> {
    let mut grad = Tensor::default();
    let loss = softmax_cross_entropy_into(logits, labels, &mut grad)?;
    Ok((loss, grad))
}

/// [`softmax_cross_entropy`] writing the gradient into a caller-provided
/// tensor, reusing its allocation — the zero-allocation training-step path
/// (`TrainStep` in [`crate::train`] holds the gradient buffer across
/// batches). Results are bit-identical to the allocating variant.
///
/// # Errors
///
/// Same conditions as [`softmax_cross_entropy`].
pub fn softmax_cross_entropy_into(
    logits: &Tensor,
    labels: &[usize],
    grad: &mut Tensor,
) -> Result<f32, NnError> {
    // Validate everything up front so no tensor op below can fail.
    let &[n, k] = logits.shape() else {
        return Err(NnError::InvalidConfig {
            what: "softmax_cross_entropy",
            message: format!(
                "expects [n, classes] logits, got shape {:?}",
                logits.shape()
            ),
        });
    };
    if labels.len() != n {
        return Err(NnError::InvalidConfig {
            what: "softmax_cross_entropy",
            message: format!("batch of {n} logit rows got {} labels", labels.len()),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= k) {
        return Err(NnError::InvalidConfig {
            what: "softmax_cross_entropy",
            message: format!("label {bad} out of range for {k} classes"),
        });
    }
    // Row-wise softmax straight into the gradient buffer.
    ops::softmax_rows_into(logits, grad)?;
    let mut loss = 0.0f32;
    let inv_n = 1.0 / n as f32;
    for (i, &label) in labels.iter().enumerate() {
        let p = grad.data()[i * k + label].max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * k + label] -= 1.0;
    }
    grad.scale(inv_n);
    Ok(loss * inv_n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k_loss() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
        // Gradient sums to zero per row.
        for row in grad.data().chunks(10) {
            assert!(row.iter().sum::<f32>().abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
        let eps = 1e-3;
        for probe in 0..6 {
            let mut plus = logits.clone();
            plus.data_mut()[probe] += eps;
            let mut minus = logits.clone();
            minus.data_mut()[probe] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels).unwrap();
            let (lm, _) = softmax_cross_entropy(&minus, &labels).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[probe]).abs() < 1e-3,
                "probe {probe}: {numeric} vs {}",
                grad.data()[probe]
            );
        }
    }

    #[test]
    fn confident_wrong_prediction_has_high_loss() {
        let logits = Tensor::from_vec(vec![1, 2], vec![10.0, -10.0]).unwrap();
        let (loss_correct, _) = softmax_cross_entropy(&logits, &[0]).unwrap();
        let (loss_wrong, _) = softmax_cross_entropy(&logits, &[1]).unwrap();
        assert!(loss_wrong > 10.0 * loss_correct);
    }

    #[test]
    fn rejects_out_of_range_label_with_structured_error() {
        let err = softmax_cross_entropy(&Tensor::zeros(&[1, 2]), &[5]).unwrap_err();
        assert!(
            matches!(err, NnError::InvalidConfig { .. }),
            "out-of-range label must be a structured error, got {err}"
        );
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_malformed_logits_without_panicking() {
        // Rank-1 logits: previously an abort via panic!, now a Result whose
        // message states the required shape.
        let err = softmax_cross_entropy(&Tensor::zeros(&[4]), &[0]).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("[n, classes]"), "{err}");
        // Rank-3 logits.
        let err = softmax_cross_entropy(&Tensor::zeros(&[1, 2, 3]), &[0]).unwrap_err();
        assert!(err.to_string().contains("softmax_cross_entropy"), "{err}");
    }

    #[test]
    fn rejects_label_count_mismatch() {
        let err = softmax_cross_entropy(&Tensor::zeros(&[2, 3]), &[0]).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }), "{err}");
    }
}
