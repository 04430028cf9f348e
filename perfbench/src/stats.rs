//! Order statistics and the metric-name grammar.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median; the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean, or `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// The geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The highest whole percentile whose nearest-rank sample still has at
/// least [`TAIL_BEYOND`] samples beyond it among `n`, or `None` when `n`
/// is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..=99)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_BEYOND)
}

/// The nearest-rank percentile `p` of `values`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let sorted = sorted(values);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond_and_is_the_highest_that_does() {
        assert_eq!(tail_percentile(10), None);
        for n in 11..2000 {
            let p = tail_percentile(n).expect("enough samples");
            assert!(n - nearest_rank(p, n) >= TAIL_BEYOND, "n {n} p {p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(p + 1, n) < TAIL_BEYOND,
                    "n {n}: p{} also fits",
                    p + 1
                );
            }
        }
        assert_eq!(tail_percentile(48), Some(79));
        assert_eq!(tail_percentile(1000), Some(99));
    }

    #[test]
    fn tail_sample_has_ten_larger_samples() {
        let values: Vec<f64> = (0..48).map(f64::from).collect();
        let p = tail_percentile(values.len()).unwrap();
        let tail = percentile(&values, p);
        assert_eq!(values.iter().filter(|&&v| v > tail).count(), TAIL_BEYOND);
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 50), 3.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "cells_per_s",
            "perfmodel.run_ms",
            "share.perfmodel-core",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "cell ms",
            "p50%",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
