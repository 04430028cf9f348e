//! Value distributions used by the data generators.
//!
//! The paper stresses that proxy benchmarks must preserve the *pattern and
//! distribution* of input data, not just its volume.  The generators in
//! this crate therefore sample from a small set of distributions that cover
//! the data sets used in the evaluation: uniform values (gensort records),
//! gaussian features (K-means vectors), zipf/power-law popularity (graph
//! degrees, word frequencies) and bernoulli masks (vector sparsity).

use rand::Rng;

/// A zipf (power-law) sampler over the integers `0..n`.
///
/// Item `i` is drawn with probability proportional to `1 / (i + 1)^s`.
/// The implementation precomputes the cumulative distribution and samples
/// by binary search, which is exact and fast enough for the data sizes used
/// here (the generators sample at most a few million values).
///
/// ```
/// use dmpb_datagen::distributions::Zipf;
/// use dmpb_datagen::rng::seeded_rng;
///
/// let zipf = Zipf::new(1000, 1.0);
/// let mut rng = seeded_rng(1);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a zipf distribution over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf distribution needs at least one item");
        assert!(s.is_finite(), "zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i as f64) + 1.0).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n > 0");
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Draws one item index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite cdf"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// A gaussian sampler based on the Box–Muller transform.
///
/// `rand_distr` is not part of the approved dependency set, so the normal
/// distribution is implemented directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Gaussian {
    mean: f64,
    std_dev: f64,
}

impl Gaussian {
    /// Creates a gaussian with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub(crate) fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "std_dev must be >= 0"
        );
        Self { mean, std_dev }
    }

    /// Draws one sample.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: avoid u1 == 0 to keep ln finite.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen();
        let mag = (-2.0 * u1.ln()).sqrt();
        self.mean + self.std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Bernoulli mask used to generate sparse data: each element is zero with
/// probability `sparsity`.
///
/// A `sparsity` of `0.9` reproduces the paper's "90 % sparse" K-means
/// vectors; `0.0` reproduces the dense configuration of Fig. 7 / Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SparsityMask {
    sparsity: f64,
}

impl SparsityMask {
    /// Creates a mask that zeroes elements with probability `sparsity`.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]`.
    pub(crate) fn new(sparsity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be within [0, 1], got {sparsity}"
        );
        Self { sparsity }
    }

    /// Returns true if the next element should be kept (non-zero).
    pub(crate) fn keep<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if self.sparsity <= 0.0 {
            true
        } else if self.sparsity >= 1.0 {
            false
        } else {
            rng.gen::<f64>() >= self.sparsity
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn zipf_samples_within_support() {
        let zipf = Zipf::new(100, 1.2);
        let mut rng = seeded_rng(5);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn zipf_is_skewed_towards_small_indices() {
        let zipf = Zipf::new(1000, 1.0);
        let mut rng = seeded_rng(6);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if zipf.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The first 10 of 1000 items should receive far more than their
        // uniform share (1%) of samples.
        assert!(head as f64 / n as f64 > 0.3, "head share too small: {head}");
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn gaussian_mean_and_spread() {
        let g = Gaussian::new(10.0, 2.0);
        let mut rng = seeded_rng(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn gaussian_zero_std_is_constant() {
        let g = Gaussian::new(3.0, 0.0);
        let mut rng = seeded_rng(8);
        for _ in 0..100 {
            assert_eq!(g.sample(&mut rng), 3.0);
        }
    }

    #[test]
    fn sparsity_mask_ratio_matches() {
        let mask = SparsityMask::new(0.9);
        let mut rng = seeded_rng(9);
        let n = 100_000;
        let kept = (0..n).filter(|_| mask.keep(&mut rng)).count();
        let ratio = kept as f64 / n as f64;
        assert!((ratio - 0.1).abs() < 0.01, "kept ratio {ratio}");
    }

    #[test]
    fn sparsity_extremes() {
        let mut rng = seeded_rng(10);
        assert!(SparsityMask::new(0.0).keep(&mut rng));
        assert!(!SparsityMask::new(1.0).keep(&mut rng));
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn sparsity_rejects_out_of_range() {
        let _ = SparsityMask::new(1.5);
    }
}
