//! Dropout motif.

use rand::Rng;

use dmpb_datagen::rng::seeded_rng;

/// Inverted dropout: zeroes each element with probability `rate` and scales
/// the survivors by `1 / (1 - rate)` so the expected activation is
/// unchanged.  Deterministic for a given seed.
///
/// # Panics
///
/// Panics if `rate` is outside `[0, 1)`.
pub(crate) fn dropout(input: &[f32], rate: f64, seed: u64) -> Vec<f32> {
    assert!(
        (0.0..1.0).contains(&rate),
        "dropout rate must be within [0, 1)"
    );
    if rate == 0.0 {
        return input.to_vec();
    }
    let scale = 1.0 / (1.0 - rate) as f32;
    let mut rng = seeded_rng(seed);
    input
        .iter()
        .map(|&v| {
            if rng.gen::<f64>() < rate {
                0.0
            } else {
                v * scale
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropout_zeroes_roughly_the_requested_fraction() {
        let input = vec![1.0f32; 100_000];
        let out = dropout(&input, 0.4, 9);
        let zeroed = out.iter().filter(|&&v| v == 0.0).count();
        let ratio = zeroed as f64 / input.len() as f64;
        assert!((ratio - 0.4).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn dropout_preserves_expected_value() {
        let input = vec![2.0f32; 100_000];
        let out = dropout(&input, 0.5, 10);
        let mean: f64 = out.iter().map(|&v| v as f64).sum::<f64>() / out.len() as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_rate_is_identity() {
        let input = vec![1.0, 2.0, 3.0];
        assert_eq!(dropout(&input, 0.0, 1), input);
    }

    #[test]
    fn dropout_is_deterministic() {
        let input: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        assert_eq!(dropout(&input, 0.3, 7), dropout(&input, 0.3, 7));
    }

    #[test]
    #[should_panic(expected = "within [0, 1)")]
    fn rate_of_one_is_rejected() {
        let _ = dropout(&[1.0], 1.0, 1);
    }
}
