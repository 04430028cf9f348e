//! Sampling motif: random sampling and interval (systematic) sampling.
//!
//! TeraSort uses sampling to compute its partition boundaries; the motif
//! implementations select a subset of records either uniformly at random or
//! at a fixed interval.

use rand::Rng;

use dmpb_datagen::rng::seeded_rng;

/// Selects each index in `0..count` independently with probability
/// `fraction`, deterministically for a given seed.
///
/// # Panics
///
/// Panics if `fraction` is outside `[0, 1]`.
pub(crate) fn random_sample_indices(count: usize, fraction: f64, seed: u64) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "fraction must be within [0, 1]"
    );
    let mut rng = seeded_rng(seed);
    (0..count).filter(|_| rng.gen::<f64>() < fraction).collect()
}

/// Selects every `interval`-th index starting at `offset`.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub(crate) fn interval_sample_indices(count: usize, interval: usize, offset: usize) -> Vec<usize> {
    assert!(interval > 0, "interval must be non-zero");
    (offset..count).step_by(interval).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sample_hits_requested_fraction() {
        let idx = random_sample_indices(100_000, 0.1, 42);
        let ratio = idx.len() as f64 / 100_000.0;
        assert!((ratio - 0.1).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn random_sample_is_deterministic_and_sorted() {
        let a = random_sample_indices(10_000, 0.05, 7);
        let b = random_sample_indices(10_000, 0.05, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn extreme_fractions() {
        assert!(random_sample_indices(100, 0.0, 1).is_empty());
        assert_eq!(random_sample_indices(100, 1.0, 1).len(), 100);
    }

    #[test]
    fn interval_sampling_takes_every_nth() {
        assert_eq!(interval_sample_indices(10, 3, 0), vec![0, 3, 6, 9]);
        assert_eq!(interval_sample_indices(10, 3, 1), vec![1, 4, 7]);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_is_rejected() {
        let _ = interval_sample_indices(10, 0, 0);
    }
}
