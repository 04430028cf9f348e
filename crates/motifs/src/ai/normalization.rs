//! Normalisation motifs: batch normalisation and cosine normalisation.

use dmpb_datagen::image::ImageTensor;

/// Batch normalisation over an `ImageTensor`: per channel, normalise to
/// zero mean and unit variance across batch and spatial dimensions, then
/// scale and shift.
///
/// # Panics
///
/// Panics if `gamma` / `beta` length does not match the channel count.
pub fn batch_norm(input: &ImageTensor, gamma: &[f32], beta: &[f32], epsilon: f32) -> ImageTensor {
    let shape = input.shape();
    assert_eq!(gamma.len(), shape.channels, "gamma length mismatch");
    assert_eq!(beta.len(), shape.channels, "beta length mismatch");
    let per_channel = (shape.batch * shape.height * shape.width) as f32;
    let mut output = input.clone();
    for c in 0..shape.channels {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for n in 0..shape.batch {
            for h in 0..shape.height {
                for w in 0..shape.width {
                    let v = input.get(n, c, h, w) as f64;
                    sum += v;
                    sum_sq += v * v;
                }
            }
        }
        let mean = (sum / per_channel as f64) as f32;
        let var = (sum_sq / per_channel as f64) as f32 - mean * mean;
        let inv_std = 1.0 / (var.max(0.0) + epsilon).sqrt();
        for n in 0..shape.batch {
            for h in 0..shape.height {
                for w in 0..shape.width {
                    let v = input.get(n, c, h, w);
                    output.set(n, c, h, w, gamma[c] * (v - mean) * inv_std + beta[c]);
                }
            }
        }
    }
    output
}

/// Cosine normalisation of a flat vector: divides by its L2 norm (returns
/// the input unchanged when the norm is zero).
pub(crate) fn cosine_normalize(input: &[f32]) -> Vec<f32> {
    let norm: f32 = input.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm == 0.0 {
        return input.to_vec();
    }
    input.iter().map(|v| v / norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::image::{ImageGenerator, TensorLayout, TensorShape};

    #[test]
    fn batch_norm_zero_means_unit_variance() {
        let input =
            ImageGenerator::new(3).generate(TensorShape::new(4, 2, 8, 8), TensorLayout::Nchw);
        let out = batch_norm(&input, &[1.0, 1.0], &[0.0, 0.0], 1e-5);
        let shape = out.shape();
        for c in 0..2 {
            let mut values = Vec::new();
            for n in 0..shape.batch {
                for h in 0..shape.height {
                    for w in 0..shape.width {
                        values.push(out.get(n, c, h, w) as f64);
                    }
                }
            }
            let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
            let var: f64 =
                values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batch_norm_applies_gamma_and_beta() {
        let input =
            ImageGenerator::new(4).generate(TensorShape::new(2, 1, 4, 4), TensorLayout::Nchw);
        let plain = batch_norm(&input, &[1.0], &[0.0], 1e-5);
        let scaled = batch_norm(&input, &[2.0], &[1.0], 1e-5);
        for (p, s) in plain.as_slice().iter().zip(scaled.as_slice()) {
            assert!((s - (2.0 * p + 1.0)).abs() < 1e-4);
        }
    }

    #[test]
    fn cosine_normalize_produces_unit_vector() {
        let out = cosine_normalize(&[3.0, 4.0]);
        let norm: f32 = out.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        assert!((out[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn cosine_normalize_of_zero_vector_is_identity() {
        assert_eq!(cosine_normalize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "gamma length")]
    fn batch_norm_rejects_bad_gamma() {
        let input =
            ImageGenerator::new(5).generate(TensorShape::new(1, 3, 2, 2), TensorLayout::Nchw);
        let _ = batch_norm(&input, &[1.0], &[0.0, 0.0, 0.0], 1e-5);
    }
}
