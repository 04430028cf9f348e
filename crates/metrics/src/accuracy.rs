//! Accuracy scoring (Equation 3 of the paper).
//!
//! `Accuracy(ValR, ValP) = 1 - |ValP - ValR| / ValR`, where `ValR` is the
//! real workload's (node-averaged) value and `ValP` the proxy's value.
//! The paper clamps interpretation to `[0, 1]`: numbers closer to 1 mean
//! higher accuracy.  The feedback stage of the auto-tuner works with the
//! same scores: it keeps a candidate when the mean accuracy over the
//! tracked metrics rises, and stops once [`AccuracyReport::is_qualified`]
//! holds, i.e. every metric's accuracy is at least `1 - t` for the
//! configured bound `t` (15 %).

use crate::vector::{MetricId, MetricVector};

/// Per-metric accuracy of a proxy benchmark versus the real workload,
/// following Equation 3.
///
/// A zero real value with a non-zero proxy value yields an accuracy of 0
/// (the deviation is unbounded); two zero values are a perfect match.
pub fn accuracy(real: f64, proxy: f64) -> f64 {
    if real == 0.0 {
        return if proxy == 0.0 { 1.0 } else { 0.0 };
    }
    (1.0 - ((proxy - real) / real).abs()).clamp(0.0, 1.0)
}

/// Accuracy of a proxy metric vector against the real workload's vector
/// over a chosen set of metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    entries: Vec<(MetricId, f64)>,
}

impl AccuracyReport {
    /// Compares `proxy` against `real` over `metrics`.
    pub fn compare(real: &MetricVector, proxy: &MetricVector, metrics: &[MetricId]) -> Self {
        let entries = metrics
            .iter()
            .map(|&id| (id, accuracy(real.get(id), proxy.get(id))))
            .collect();
        Self { entries }
    }

    /// Per-metric `(id, accuracy)` entries in the order they were requested.
    pub fn entries(&self) -> &[(MetricId, f64)] {
        &self.entries
    }

    /// Accuracy of a single metric, if it was part of the comparison.
    pub fn get(&self, id: MetricId) -> Option<f64> {
        self.entries.iter().find(|(m, _)| *m == id).map(|(_, a)| *a)
    }

    /// Arithmetic mean accuracy across all compared metrics (the "average
    /// accuracy above 90 %" headline number of the paper).
    pub fn average(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        self.entries.iter().map(|(_, a)| a).sum::<f64>() / self.entries.len() as f64
    }

    /// The metric with the lowest accuracy, if any metrics were compared.
    pub fn worst_metric(&self) -> Option<(MetricId, f64)> {
        self.entries
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("accuracy is finite"))
    }

    /// Metrics whose deviation exceeds `threshold` (i.e. accuracy below
    /// `1 - threshold`), the set fed back to the adjusting stage.
    pub(crate) fn exceeding(&self, threshold: f64) -> Vec<(MetricId, f64)> {
        self.entries
            .iter()
            .copied()
            .filter(|(_, a)| *a < 1.0 - threshold)
            .collect()
    }

    /// Returns true if every compared metric's accuracy is at least
    /// `1 - threshold` — the paper's qualification condition.
    pub fn is_qualified(&self, threshold: f64) -> bool {
        self.exceeding(threshold).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction_mix::InstructionMix;

    fn vector(scale: f64) -> MetricVector {
        MetricVector {
            runtime_secs: 100.0 * scale,
            ipc: 1.0 * scale,
            mips: 2000.0 * scale,
            instruction_mix: InstructionMix::from_counts(40, 5, 25, 15, 15),
            branch_miss_ratio: 0.05 * scale,
            l1i_hit_ratio: 0.95,
            l1d_hit_ratio: 0.9,
            l2_hit_ratio: 0.6,
            l3_hit_ratio: 0.5,
            mem_read_bw_mbps: 1000.0 * scale,
            mem_write_bw_mbps: 500.0 * scale,
            disk_io_bw_mbps: 30.0 * scale,
        }
    }

    #[test]
    fn accuracy_of_exact_match_is_one() {
        assert_eq!(accuracy(10.0, 10.0), 1.0);
    }

    #[test]
    fn accuracy_of_ten_percent_error_is_point_nine() {
        assert!((accuracy(100.0, 110.0) - 0.9).abs() < 1e-12);
        assert!((accuracy(100.0, 90.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn accuracy_clamps_to_zero_for_huge_errors() {
        assert_eq!(accuracy(1.0, 100.0), 0.0);
    }

    #[test]
    fn accuracy_handles_zero_real_value() {
        assert_eq!(accuracy(0.0, 0.0), 1.0);
        assert_eq!(accuracy(0.0, 1.0), 0.0);
    }

    #[test]
    fn identical_vectors_are_fully_accurate() {
        let v = vector(1.0);
        let report = AccuracyReport::compare(&v, &v, &MetricId::TUNABLE);
        assert_eq!(report.average(), 1.0);
        assert!(report.is_qualified(0.15));
    }

    #[test]
    fn ten_percent_off_is_qualified_at_fifteen_percent() {
        let real = vector(1.0);
        let proxy = vector(1.1);
        let report = AccuracyReport::compare(&real, &proxy, &MetricId::TUNABLE);
        assert!(
            report.is_qualified(0.15),
            "worst {:?}",
            report.worst_metric()
        );
        assert!(!report.is_qualified(0.05));
    }

    #[test]
    fn worst_metric_identifies_biggest_deviation() {
        let real = vector(1.0);
        let mut proxy = vector(1.0);
        proxy.disk_io_bw_mbps = real.disk_io_bw_mbps * 2.0;
        let report = AccuracyReport::compare(&real, &proxy, &MetricId::TUNABLE);
        let (worst, acc) = report.worst_metric().unwrap();
        assert_eq!(worst, MetricId::DiskIoBandwidth);
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn exceeding_lists_only_violations() {
        let real = vector(1.0);
        let mut proxy = vector(1.0);
        proxy.ipc = real.ipc * 0.5;
        proxy.l2_hit_ratio = real.l2_hit_ratio * 0.99;
        let report = AccuracyReport::compare(&real, &proxy, &MetricId::TUNABLE);
        let violations = report.exceeding(0.15);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].0, MetricId::Ipc);
    }

    #[test]
    fn get_returns_only_compared_metrics() {
        let v = vector(1.0);
        let report = AccuracyReport::compare(&v, &v, &[MetricId::Ipc]);
        assert!(report.get(MetricId::Ipc).is_some());
        assert!(report.get(MetricId::Runtime).is_none());
    }

    #[test]
    fn empty_report_is_trivially_qualified() {
        let v = vector(1.0);
        let report = AccuracyReport::compare(&v, &v, &[]);
        assert_eq!(report.average(), 1.0);
        assert!(report.is_qualified(0.0));
        assert!(report.worst_metric().is_none());
    }
}
