//! A lock-free latency histogram for long-running services.
//!
//! The campaign daemon records every cell's wall-clock latency here and
//! exposes the buckets on its Prometheus-style `/metrics` endpoint.
//! Recording is a handful of relaxed atomic adds — cheap enough to sit
//! on the per-cell hot path of a concurrent campaign — and snapshots are
//! consistent enough for monitoring (counters are read individually;
//! they never tear, though a snapshot taken mid-record may be ahead on
//! one counter and behind on another by one event).
//!
//! The bucket bounds are fixed at compile time and chosen for the two
//! regimes a result-store-backed campaign produces: store-served cells
//! (tens of microseconds) and cold tuned-and-executed cells
//! (milliseconds to seconds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (inclusive, in nanoseconds) of the histogram buckets.
/// An observation larger than every bound lands in the overflow bucket.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 13] = [
    10_000,         // 10µs
    50_000,         // 50µs
    100_000,        // 100µs
    500_000,        // 500µs
    1_000_000,      // 1ms
    5_000_000,      // 5ms
    10_000_000,     // 10ms
    50_000_000,     // 50ms
    100_000_000,    // 100ms
    500_000_000,    // 500ms
    1_000_000_000,  // 1s
    5_000_000_000,  // 5s
    10_000_000_000, // 10s
];

/// Number of buckets, including the overflow bucket.
pub(crate) const LATENCY_BUCKETS: usize = LATENCY_BUCKET_BOUNDS_NS.len() + 1;

/// A fixed-bucket latency histogram with lock-free recording.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.record_ns(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observation in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let bucket = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`LATENCY_BUCKET_BOUNDS_NS`] order,
    /// plus the overflow bucket last).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Cumulative counts per bucket — the Prometheus `le` convention,
    /// where each entry counts every observation at or below its bound
    /// (the final entry equals [`HistogramSnapshot::count`]).
    pub fn cumulative(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = self.buckets;
        for i in 1..out.len() {
            out[i] += out[i - 1];
        }
        out
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in nanoseconds as the
    /// upper bound of the bucket the quantile falls into (the overflow
    /// bucket reports the largest finite bound).  `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(
                    *LATENCY_BUCKET_BOUNDS_NS
                        .get(i)
                        .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.last().unwrap()),
                );
            }
        }
        LATENCY_BUCKET_BOUNDS_NS.last().copied()
    }

    /// Mean observation in nanoseconds; `None` when empty.
    pub fn mean_ns(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_ns as f64 / self.count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_their_buckets() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(5)); // <= 10µs: bucket 0
        h.record(Duration::from_micros(10)); // inclusive bound: bucket 0
        h.record(Duration::from_millis(2)); // <= 5ms: bucket 5
        h.record(Duration::from_secs(60)); // beyond every bound: overflow
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[5], 1);
        assert_eq!(s.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.cumulative()[LATENCY_BUCKETS - 1], 4);
        assert_eq!(s.sum_ns, 5_000 + 10_000 + 2_000_000 + 60 * 1_000_000_000u64);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_ns(40_000); // bucket 1 (≤ 50µs)
        }
        h.record_ns(900_000_000); // bucket 10 (≤ 1s)
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), Some(50_000));
        assert_eq!(s.quantile_ns(0.95), Some(50_000));
        assert_eq!(s.quantile_ns(1.0), Some(1_000_000_000));
        assert!((s.mean_ns().unwrap() - 9_039_600.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile_ns(0.5), None);
        assert_eq!(s.mean_ns(), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        h.record_ns(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4_000);
        assert_eq!(s.cumulative()[LATENCY_BUCKETS - 1], 4_000);
    }
}
