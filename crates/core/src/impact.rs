//! Impact analysis: how each parameter adjustment moves each metric.
//!
//! "The learning process changes one parameter each time and execute
//! multiple times to characterize the parameter's impact on each metric."
//! The resulting table is both human-readable (which knob moves which
//! metric) and the training set for the decision tree of the adjusting
//! stage.

use dmpb_metrics::{MetricId, MetricVector};
use dmpb_perfmodel::arch::ArchProfile;
use dmpb_perfmodel::{ExecutionEngine, SimMemo};

use crate::dtree::Sample;
use crate::parameters::{Direction, ParameterId};
use crate::proxy::ProxyBenchmark;

/// One candidate tuning action.
pub(crate) type Action = (ParameterId, Direction);

/// Relative metric changes caused by one action.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactEntry {
    /// The action that was applied.
    pub action: Action,
    /// Relative change of each tracked metric, in the order of
    /// [`ImpactAnalysis::metrics`].
    pub deltas: Vec<f64>,
}

/// The full impact table of one proxy benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpactAnalysis {
    /// The unadjusted proxy's metric vector, the base of every delta.
    pub baseline: MetricVector,
    /// Metrics the impacts refer to.
    pub metrics: Vec<MetricId>,
    /// One entry per candidate action.
    pub entries: Vec<ImpactEntry>,
}

/// Runs the impact analysis: measures the proxy once as a baseline, then
/// re-measures it with every parameter nudged one step in each direction.
pub fn analyze(proxy: &ProxyBenchmark, arch: &ArchProfile, metrics: &[MetricId]) -> ImpactAnalysis {
    analyze_with(
        proxy,
        metrics,
        &mut SimMemo::new(ExecutionEngine::new(*arch)),
    )
}

/// [`analyze`] on the memo's architecture, measuring every probe through
/// `memo` so later probes of the same tune can reuse its simulations.
pub(crate) fn analyze_with(
    proxy: &ProxyBenchmark,
    metrics: &[MetricId],
    memo: &mut SimMemo,
) -> ImpactAnalysis {
    let baseline = proxy.measure_with(memo);
    let mut entries = Vec::new();
    for parameter in ParameterId::ALL {
        for direction in [Direction::Up, Direction::Down] {
            let adjusted = proxy.parameters().adjusted(parameter, direction);
            if adjusted == proxy.parameters() {
                // Already at the bound; the action does nothing.
                continue;
            }
            let measured = proxy.with_parameters(adjusted).measure_with(memo);
            let deltas = metrics
                .iter()
                .map(|&m| {
                    let base = baseline.get(m);
                    if base == 0.0 {
                        0.0
                    } else {
                        (measured.get(m) - base) / base
                    }
                })
                .collect();
            entries.push(ImpactEntry {
                action: (parameter, direction),
                deltas,
            });
        }
    }
    ImpactAnalysis {
        baseline,
        metrics: metrics.to_vec(),
        entries,
    }
}

impl ImpactAnalysis {
    /// The candidate actions in entry order.
    pub(crate) fn actions(&self) -> Vec<Action> {
        self.entries.iter().map(|e| e.action).collect()
    }

    /// Training samples for the decision tree: each action's impact vector
    /// labels itself, augmented with scaled copies so the tree sees that
    /// the *direction* of the needed change matters more than its size.
    pub(crate) fn training_samples(&self) -> Vec<Sample> {
        let mut samples = Vec::new();
        for (label, entry) in self.entries.iter().enumerate() {
            for scale in [0.5, 1.0, 2.0] {
                samples.push(Sample {
                    features: entry.deltas.iter().map(|d| d * scale).collect(),
                    label,
                });
            }
        }
        samples
    }

    /// The action whose impact on `metric` is strongest in the direction of
    /// `needed_change` (the greedy baseline tuner).
    pub(crate) fn best_greedy_action(
        &self,
        metric: MetricId,
        needed_change: f64,
    ) -> Option<Action> {
        let index = self.metrics.iter().position(|&m| m == metric)?;
        self.entries
            .iter()
            .filter(|e| e.deltas[index] * needed_change > 0.0)
            .max_by(|a, b| {
                a.deltas[index]
                    .abs()
                    .partial_cmp(&b.deltas[index].abs())
                    .expect("finite impact")
            })
            .map(|e| e.action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::features::initial_parameters;
    use dmpb_workloads::{workload_by_kind, ClusterConfig, WorkloadKind};

    fn terasort_proxy() -> ProxyBenchmark {
        let cluster = ClusterConfig::five_node_westmere();
        let workload = workload_by_kind(WorkloadKind::TeraSort);
        ProxyBenchmark::from_decomposition(
            &decompose(workload.as_ref()),
            initial_parameters(workload.as_ref(), &cluster),
        )
    }

    #[test]
    fn impact_table_covers_both_directions_of_most_parameters() {
        let arch = ArchProfile::westmere_e5645();
        let metrics = [
            MetricId::Ipc,
            MetricId::DiskIoBandwidth,
            MetricId::L1dHitRatio,
        ];
        let analysis = analyze(&terasort_proxy(), &arch, &metrics);
        assert!(
            analysis.entries.len() >= 8,
            "entries {}",
            analysis.entries.len()
        );
        assert!(analysis.entries.iter().all(|e| e.deltas.len() == 3));
    }

    #[test]
    fn training_samples_label_every_entry() {
        let arch = ArchProfile::westmere_e5645();
        let metrics = [MetricId::Ipc, MetricId::Mips];
        let analysis = analyze(&terasort_proxy(), &arch, &metrics);
        let samples = analysis.training_samples();
        assert_eq!(samples.len(), analysis.entries.len() * 3);
        let max_label = samples.iter().map(|s| s.label).max().unwrap();
        assert_eq!(max_label, analysis.entries.len() - 1);
    }

    #[test]
    fn greedy_action_moves_the_metric_in_the_needed_direction() {
        let arch = ArchProfile::westmere_e5645();
        let metrics = [MetricId::DiskIoBandwidth];
        let analysis = analyze(&terasort_proxy(), &arch, &metrics);
        if let Some(action) = analysis.best_greedy_action(MetricId::DiskIoBandwidth, 1.0) {
            let index = 0;
            let entry = analysis
                .entries
                .iter()
                .find(|e| e.action == action)
                .unwrap();
            assert!(entry.deltas[index] > 0.0);
        }
    }
}
