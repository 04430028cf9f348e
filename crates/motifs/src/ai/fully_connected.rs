//! Fully connected (dense) layer and element-wise multiplication.

/// Forward pass of a fully connected layer: `output = input * weightsᵀ + bias`.
///
/// `input` is `[batch, in_features]` flattened row-major, `weights` is
/// `[out_features, in_features]` flattened row-major, `bias` has
/// `out_features` entries.  Returns `[batch, out_features]`.
///
/// # Panics
///
/// Panics if the shapes are inconsistent.
pub(crate) fn fully_connected(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    batch: usize,
    in_features: usize,
    out_features: usize,
) -> Vec<f32> {
    assert_eq!(input.len(), batch * in_features, "input shape mismatch");
    assert_eq!(
        weights.len(),
        out_features * in_features,
        "weight shape mismatch"
    );
    assert_eq!(bias.len(), out_features, "bias shape mismatch");
    let mut output = vec![0.0f32; batch * out_features];
    for b in 0..batch {
        let row = &input[b * in_features..(b + 1) * in_features];
        for o in 0..out_features {
            let w = &weights[o * in_features..(o + 1) * in_features];
            let mut acc = bias[o];
            for (x, wv) in row.iter().zip(w) {
                acc += x * wv;
            }
            output[b * out_features + o] = acc;
        }
    }
    output
}

/// Element-wise multiplication of two equally shaped tensors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub(crate) fn element_wise_multiply(a: &[f32], b: &[f32]) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "tensor length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_matches_hand_computation() {
        // batch=1, in=3, out=2
        let input = [1.0, 2.0, 3.0];
        let weights = [1.0, 0.0, -1.0, 0.5, 0.5, 0.5];
        let bias = [0.5, -1.0];
        let out = fully_connected(&input, &weights, &bias, 1, 3, 2);
        assert_eq!(out, vec![1.0 - 3.0 + 0.5, 0.5 + 1.0 + 1.5 - 1.0]);
    }

    #[test]
    fn fully_connected_handles_batches_independently() {
        let input = [1.0, 0.0, 0.0, 1.0]; // batch=2, in=2
        let weights = [2.0, 3.0]; // out=1
        let bias = [0.0];
        let out = fully_connected(&input, &weights, &bias, 2, 2, 1);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn identity_weights_reproduce_input() {
        let input = [3.0, 7.0];
        let weights = [1.0, 0.0, 0.0, 1.0];
        let bias = [0.0, 0.0];
        let out = fully_connected(&input, &weights, &bias, 1, 2, 2);
        assert_eq!(out, vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "weight shape")]
    fn rejects_bad_weight_shape() {
        let _ = fully_connected(&[1.0], &[1.0, 2.0, 3.0], &[0.0], 1, 1, 1);
    }

    #[test]
    fn element_wise_multiply_works() {
        assert_eq!(
            element_wise_multiply(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]),
            vec![4.0, 10.0, 18.0]
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn element_wise_multiply_rejects_mismatch() {
        let _ = element_wise_multiply(&[1.0], &[1.0, 2.0]);
    }
}
