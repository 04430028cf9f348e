//! The eight-proxy suite: the paper's five workloads plus the three
//! Spark stack twins.

use dmpb_workloads::{ClusterConfig, WorkloadKind};

use crate::generator::{GenerationReport, ProxyGenerator};

/// The generated proxy benchmarks — one per [`WorkloadKind`] (the
/// paper's five plus Proxy Spark TeraSort / K-means / PageRank) — with
/// their generation reports.
#[derive(Debug, Clone)]
pub struct ProxySuite {
    reports: Vec<GenerationReport>,
}

impl ProxySuite {
    /// Generates all eight proxies against the given cluster (the paper
    /// generates its five against the five-node Westmere cluster of
    /// Section III).
    pub fn generate(cluster: ClusterConfig) -> Self {
        let generator = ProxyGenerator::new(cluster);
        let reports = WorkloadKind::ALL
            .iter()
            .map(|&kind| generator.generate_kind(kind))
            .collect();
        Self { reports }
    }

    /// Generation reports in Table VI order.
    pub fn reports(&self) -> &[GenerationReport] {
        &self.reports
    }

    /// The report for one workload.
    pub fn report(&self, kind: WorkloadKind) -> &GenerationReport {
        self.reports
            .iter()
            .find(|r| r.kind == kind)
            .expect("suite contains every workload kind")
    }

    /// Average accuracy across all proxies (the paper's headline
    /// "above 90 % on average" figure covers its five).
    pub fn average_accuracy(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.accuracy.average())
            .sum::<f64>()
            / self.reports.len() as f64
    }

    /// Minimum runtime speedup across all proxies.
    pub fn min_speedup(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.speedup)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_generates_all_eight_proxies_with_high_accuracy_and_speedup() {
        let suite = ProxySuite::generate(ClusterConfig::five_node_westmere());
        assert_eq!(suite.reports().len(), 8);
        for kind in WorkloadKind::ALL {
            let report = suite.report(kind);
            assert_eq!(report.kind, kind);
            assert!(
                report.accuracy.average() > 0.5,
                "{kind}: accuracy {}",
                report.accuracy.average()
            );
            assert!(report.speedup > 10.0, "{kind}: speedup {}", report.speedup);
        }
        assert!(
            suite.average_accuracy() > 0.65,
            "suite accuracy {}",
            suite.average_accuracy()
        );
        assert!(suite.min_speedup() > 10.0);
    }
}
