//! Activation functions: sigmoid, tanh, softmax and ReLU.

/// Sigmoid applied element-wise.
pub(crate) fn sigmoid(input: &[f32]) -> Vec<f32> {
    input.iter().map(|&x| 1.0 / (1.0 + (-x).exp())).collect()
}

/// Tanh applied element-wise.
pub(crate) fn tanh(input: &[f32]) -> Vec<f32> {
    input.iter().map(|&x| x.tanh()).collect()
}

/// ReLU applied element-wise.
pub(crate) fn relu(input: &[f32]) -> Vec<f32> {
    input.iter().map(|&x| x.max(0.0)).collect()
}

/// Numerically stable softmax over each row of a `[batch, classes]` tensor.
///
/// # Panics
///
/// Panics if the input length is not a multiple of `classes` or `classes`
/// is zero.
pub(crate) fn softmax(input: &[f32], classes: usize) -> Vec<f32> {
    assert!(classes > 0, "classes must be non-zero");
    assert!(
        input.len() % classes == 0,
        "input is not a whole number of rows"
    );
    let mut output = Vec::with_capacity(input.len());
    for row in input.chunks_exact(classes) {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&x| (x - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        output.extend(exps.into_iter().map(|e| e / sum));
    }
    output
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_midpoint() {
        let out = sigmoid(&[-100.0, 0.0, 100.0]);
        assert!(out[0] < 1e-6);
        assert!((out[1] - 0.5).abs() < 1e-6);
        assert!(out[2] > 1.0 - 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let out = tanh(&[-1.0, 0.0, 1.0]);
        assert!((out[0] + out[2]).abs() < 1e-6);
        assert_eq!(out[1], 0.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(relu(&[-2.0, -0.1, 0.0, 3.5]), vec![0.0, 0.0, 0.0, 3.5]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let out = softmax(&[1.0, 2.0, 3.0, 10.0, 10.0, 10.0], 3);
        let row1: f32 = out[..3].iter().sum();
        let row2: f32 = out[3..].iter().sum();
        assert!((row1 - 1.0).abs() < 1e-6);
        assert!((row2 - 1.0).abs() < 1e-6);
        // Uniform logits give uniform probabilities.
        assert!((out[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let out = softmax(&[1000.0, 1001.0], 2);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!(out[1] > out[0]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn softmax_rejects_ragged_input() {
        let _ = softmax(&[1.0, 2.0, 3.0], 2);
    }
}
