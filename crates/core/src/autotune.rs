//! The adjusting and feedback stages: decision-tree-guided auto-tuning.
//!
//! The tuner measures the candidate proxy, compares it against the original
//! workload's metric vector (Equation 3), and while any tracked metric
//! deviates by more than the threshold it adjusts one parameter chosen by
//! the decision tree trained on the impact analysis.
//!
//! Every probe of one tune, impact analysis included, is measured through
//! one [`SimMemo`]: a probe whose cache or branch inputs an earlier probe
//! already simulated (a `numTasks` step, an action undoing the last
//! accepted one) only redoes the engine's analytic arithmetic.

use dmpb_metrics::{AccuracyReport, MetricId, MetricVector};
use dmpb_perfmodel::arch::ArchProfile;
use dmpb_perfmodel::{ExecutionEngine, SimMemo};

use crate::dtree::DecisionTree;
use crate::impact::{analyze_with, Action, ImpactAnalysis};
use crate::proxy::ProxyBenchmark;

/// Auto-tuner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuner {
    /// Maximum allowed relative deviation per metric (0.15 in the paper).
    pub deviation_threshold: f64,
    /// Upper bound on adjusting/feedback iterations.
    pub max_iterations: usize,
}

impl Default for AutoTuner {
    fn default() -> Self {
        Self {
            deviation_threshold: 0.15,
            max_iterations: 30,
        }
    }
}

/// Result of one tuning run.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// The best proxy found.
    pub proxy: ProxyBenchmark,
    /// Its metric vector.
    pub metrics: MetricVector,
    /// Its accuracy against the target.
    pub accuracy: AccuracyReport,
    /// Whether every tracked metric is within the deviation threshold.
    pub qualified: bool,
    /// Number of adjusting/feedback iterations performed.
    pub iterations: usize,
    /// Average accuracy after each iteration (starting with the initial
    /// proxy): the tuner's convergence trace.
    pub history: Vec<f64>,
    /// Cache-hierarchy and branch simulations the tune ran.
    pub sim_runs: usize,
    /// Simulations the tune skipped because an earlier probe had run them.
    pub sim_memo_hits: usize,
}

impl AutoTuner {
    /// A stable fingerprint of the tuner configuration, used by the
    /// [`crate::runner::TuningCache`] to key memoized tuning results: two
    /// tuners with the same threshold and iteration budget produce the
    /// same fingerprint; any difference changes it.
    pub(crate) fn fingerprint(&self) -> u64 {
        crate::fnv::hash_u64s([
            self.deviation_threshold.to_bits(),
            self.max_iterations as u64,
        ])
    }

    /// Runs the adjusting / feedback loop for `initial` against the
    /// original workload's `target` metric vector on `arch`.
    pub fn tune(
        &self,
        initial: ProxyBenchmark,
        target: &MetricVector,
        arch: &ArchProfile,
        metrics: &[MetricId],
    ) -> TuningOutcome {
        // --- Impact analysis + decision-tree training --------------------
        let mut memo = SimMemo::new(ExecutionEngine::new(*arch));
        let impact = analyze_with(&initial, metrics, &mut memo);
        let tree = DecisionTree::train(&impact.training_samples(), 6);

        let mut best = initial;
        let mut best_metrics = impact.baseline;
        let mut best_accuracy = AccuracyReport::compare(target, &best_metrics, metrics);
        let mut history = vec![best_accuracy.average()];
        let mut iterations = 0;

        while iterations < self.max_iterations
            && !best_accuracy.is_qualified(self.deviation_threshold)
        {
            iterations += 1;
            let candidates =
                self.candidate_actions(&impact, &tree, target, &best_metrics, &best_accuracy);

            // Feedback stage: accept the first candidate that improves the
            // average accuracy; stop if none does.
            let mut improved = false;
            for action in candidates {
                let adjusted = best.parameters().adjusted(action.0, action.1);
                if adjusted == best.parameters() {
                    continue;
                }
                let candidate = best.with_parameters(adjusted);
                let candidate_metrics = candidate.measure_with(&mut memo);
                let candidate_accuracy =
                    AccuracyReport::compare(target, &candidate_metrics, metrics);
                if candidate_accuracy.average() > best_accuracy.average() + 1e-6 {
                    best = candidate;
                    best_metrics = candidate_metrics;
                    best_accuracy = candidate_accuracy;
                    improved = true;
                    break;
                }
            }
            history.push(best_accuracy.average());
            if !improved {
                break;
            }
        }

        let qualified = best_accuracy.is_qualified(self.deviation_threshold);
        TuningOutcome {
            proxy: best,
            metrics: best_metrics,
            accuracy: best_accuracy,
            qualified,
            iterations,
            history,
            sim_runs: memo.sim_runs(),
            sim_memo_hits: memo.sim_memo_hits(),
        }
    }

    /// Ranks candidate actions for the current deviation: the decision
    /// tree's pick, then the greedy best action for the worst metric, then
    /// every remaining action so that the feedback stage can fall through.
    fn candidate_actions(
        &self,
        impact: &ImpactAnalysis,
        tree: &DecisionTree,
        target: &MetricVector,
        current: &MetricVector,
        accuracy: &AccuracyReport,
    ) -> Vec<Action> {
        let mut ranked: Vec<Action> = Vec::new();

        let worst = accuracy.worst_metric().map(|(m, _)| m);
        if let Some(worst_metric) = worst {
            let needed = {
                let base = current.get(worst_metric);
                if base == 0.0 {
                    1.0
                } else {
                    (target.get(worst_metric) - base) / base
                }
            };
            // Ask the tree which action produces the change the proxy
            // needs: the feature vector is the needed relative change of
            // every tracked metric.
            let needed_vector: Vec<f64> = impact
                .metrics
                .iter()
                .map(|&m| {
                    let base = current.get(m);
                    if base == 0.0 {
                        0.0
                    } else {
                        (target.get(m) - base) / base
                    }
                })
                .collect();
            let label = tree.predict(&needed_vector);
            if let Some(action) = impact.actions().get(label).copied() {
                ranked.push(action);
            }
            if let Some(action) = impact.best_greedy_action(worst_metric, needed) {
                if !ranked.contains(&action) {
                    ranked.push(action);
                }
            }
        }

        for action in impact.actions() {
            if !ranked.contains(&action) {
                ranked.push(action);
            }
        }
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::features::{initial_parameters, FeatureSelection};
    use dmpb_workloads::{workload_by_kind, ClusterConfig, WorkloadKind};

    fn tune_kind(kind: WorkloadKind) -> TuningOutcome {
        let cluster = ClusterConfig::five_node_westmere();
        let workload = workload_by_kind(kind);
        let target = workload.measure(&cluster);
        let proxy = ProxyBenchmark::from_decomposition(
            &decompose(workload.as_ref()),
            initial_parameters(workload.as_ref(), &cluster),
        );
        let tuner = AutoTuner {
            max_iterations: 12,
            ..AutoTuner::default()
        };
        tuner.tune(
            proxy,
            &target,
            &cluster.node.arch,
            &FeatureSelection::paper_default().metrics,
        )
    }

    #[test]
    fn tuning_never_decreases_accuracy() {
        let outcome = tune_kind(WorkloadKind::TeraSort);
        assert!(outcome.history.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        assert!(!outcome.history.is_empty());
    }

    #[test]
    fn tuning_improves_over_the_initial_proxy() {
        let outcome = tune_kind(WorkloadKind::AlexNet);
        let first = outcome.history.first().copied().unwrap();
        let last = outcome.history.last().copied().unwrap();
        assert!(last >= first, "first {first} last {last}");
        assert!(outcome.accuracy.average() >= first);
    }

    #[test]
    fn outcome_metrics_match_the_reported_proxy() {
        let cluster = ClusterConfig::five_node_westmere();
        let outcome = tune_kind(WorkloadKind::KMeans);
        let remeasured = outcome.proxy.measure(&cluster.node.arch);
        assert_eq!(remeasured, outcome.metrics);
    }

    #[test]
    fn tunes_reuse_simulations_and_count_them_deterministically() {
        let first = tune_kind(WorkloadKind::TeraSort);
        assert!(first.sim_memo_hits > 0, "no memo hits");
        assert!(first.sim_runs > 0);
        let second = tune_kind(WorkloadKind::TeraSort);
        assert_eq!(
            (first.sim_runs, first.sim_memo_hits),
            (second.sim_runs, second.sim_memo_hits)
        );
    }
}
