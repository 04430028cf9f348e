//! End-to-end proxy benchmark generation (Fig. 1 of the paper).
//!
//! The generated proxy carries the workload's declared fork/join
//! [`DagPlan`](dmpb_motifs::DagPlan) through the decomposition, so
//! [`ProxyBenchmark::dag`](crate::ProxyBenchmark::dag) yields the
//! executable branching DAG the serial [`crate::executor::DagExecutor`]
//! runs.

use dmpb_metrics::{AccuracyReport, MetricVector};
use dmpb_workloads::workload::Workload;
use dmpb_workloads::{workload_by_kind, ClusterConfig, WorkloadKind};

use crate::autotune::AutoTuner;
use crate::decompose::{decompose, Decomposition};
use crate::features::{initial_parameters, FeatureSelection};
use crate::proxy::ProxyBenchmark;

/// The full record of generating one qualified proxy benchmark.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    /// The workload the proxy stands in for.
    pub kind: WorkloadKind,
    /// The decomposition that seeded the proxy.
    pub decomposition: Decomposition,
    /// The (tuned) proxy benchmark.
    pub proxy: ProxyBenchmark,
    /// Metric vector of the original workload on the generation cluster.
    pub real_metrics: MetricVector,
    /// Metric vector of the qualified proxy.
    pub proxy_metrics: MetricVector,
    /// Per-metric accuracy (Equation 3).
    pub accuracy: AccuracyReport,
    /// Whether the proxy met the deviation threshold on every metric.
    pub qualified: bool,
    /// Auto-tuning iterations spent.
    pub iterations: usize,
    /// Runtime speedup of the proxy over the original (Table VI).
    pub speedup: f64,
}

/// Drives decomposition, feature selection and auto-tuning for a workload
/// on a given cluster.
#[derive(Debug, Clone)]
pub struct ProxyGenerator {
    /// The cluster the original workload is profiled on.
    pub cluster: ClusterConfig,
    /// Metric targets and deviation threshold.
    pub features: FeatureSelection,
    /// Auto-tuner configuration.
    pub tuner: AutoTuner,
}

impl ProxyGenerator {
    /// A generator with the paper's defaults on the given cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            features: FeatureSelection::paper_default(),
            tuner: AutoTuner::default(),
        }
    }

    /// Generates a qualified proxy for `workload`.
    pub fn generate(&self, workload: &dyn Workload) -> GenerationReport {
        // 1. Profile the original workload (tracing & profiling).
        let real_metrics = workload.measure(&self.cluster);

        // 2. Decompose into motif components with initial weights.
        let decomposition = decompose(workload);

        // 3. Feature selection: metrics + initial parameters.
        let parameters = initial_parameters(workload, &self.cluster);
        let initial = ProxyBenchmark::from_decomposition(&decomposition, parameters);

        // 4./5. Adjusting + feedback stages.
        let outcome = self.tuner.tune(
            initial,
            &real_metrics,
            &self.cluster.node.arch,
            &self.features.metrics,
        );

        let speedup = if outcome.metrics.runtime_secs > 0.0 {
            real_metrics.runtime_secs / outcome.metrics.runtime_secs
        } else {
            f64::INFINITY
        };

        GenerationReport {
            kind: workload.kind(),
            decomposition,
            proxy: outcome.proxy,
            real_metrics,
            proxy_metrics: outcome.metrics,
            accuracy: outcome.accuracy,
            qualified: outcome.qualified,
            iterations: outcome.iterations,
            speedup,
        }
    }

    /// Generates a qualified proxy for one of the eight suite workloads in
    /// its reference (Section III-style) configuration.
    pub fn generate_kind(&self, kind: WorkloadKind) -> GenerationReport {
        self.generate(workload_by_kind(kind).as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_terasort_proxy_is_accurate_and_much_faster() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let report = generator.generate_kind(WorkloadKind::TeraSort);
        assert!(
            report.accuracy.average() > 0.8,
            "average accuracy {}",
            report.accuracy.average()
        );
        assert!(report.speedup > 20.0, "speedup {}", report.speedup);
        assert_eq!(report.kind, WorkloadKind::TeraSort);
        assert!(!report.decomposition.components.is_empty());
    }
}
