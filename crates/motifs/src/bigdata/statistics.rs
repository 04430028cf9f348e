//! Statistics motif: count / average, probability statistics and min / max.
//!
//! These kernels implement the aggregation steps of the K-means and
//! PageRank proxies (cluster counting, average computation, out/in-degree
//! counting, min/max calculation) and the word-frequency style probability
//! statistics of Fig. 2.

use std::collections::HashMap;

/// Count and mean of a stream of values (one pass).
///
/// Returns `(0, 0.0)` for an empty slice.
pub(crate) fn count_average(values: &[f64]) -> (usize, f64) {
    if values.is_empty() {
        return (0, 0.0);
    }
    let sum: f64 = values.iter().sum();
    (values.len(), sum / values.len() as f64)
}

/// Per-key counts of a stream of keys (the "cluster count" of Table III).
pub(crate) fn group_counts(keys: &[u32]) -> HashMap<u32, usize> {
    let mut counts = HashMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    counts
}

/// Per-key empirical probabilities (counts normalised by the total).
pub(crate) fn probabilities(keys: &[u32]) -> HashMap<u32, f64> {
    let counts = group_counts(keys);
    let total: usize = counts.values().sum();
    counts
        .into_iter()
        .map(|(k, c)| (k, c as f64 / total as f64))
        .collect()
}

/// Minimum and maximum of a stream of values; `None` for an empty slice.
pub(crate) fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    if values.is_empty() {
        return None;
    }
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    Some((min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_average_of_values() {
        let (n, avg) = count_average(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(n, 4);
        assert_eq!(avg, 2.5);
        assert_eq!(count_average(&[]), (0, 0.0));
    }

    #[test]
    fn group_counts_counts_each_key() {
        let counts = group_counts(&[1, 2, 2, 3, 3, 3]);
        assert_eq!(counts[&1], 1);
        assert_eq!(counts[&2], 2);
        assert_eq!(counts[&3], 3);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let p = probabilities(&[5, 5, 7, 9, 9, 9, 9, 7]);
        let total: f64 = p.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((p[&9] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_of_values() {
        assert_eq!(min_max(&[3.0, -1.0, 7.5, 0.0]), Some((-1.0, 7.5)));
        assert_eq!(min_max(&[]), None);
    }
}
