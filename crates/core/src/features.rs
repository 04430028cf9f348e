//! Feature selecting: the metrics to match and the initial parameter
//! vector.
//!
//! "The feature selecting stage is used to choose the concerned metrics and
//! initialize the parameters of data motifs." — the metrics default to the
//! full Table V set (minus raw runtime, which the proxy is *supposed* to
//! shrink), and the parameters are initialised from the original workload's
//! configuration with the input data scaled down.

use dmpb_metrics::MetricId;
use dmpb_workloads::workload::Workload;
use dmpb_workloads::{ClusterConfig, Framework};

use crate::parameters::ProxyParameters;

/// How much the original input volume is scaled down for the proxy's
/// initial `dataSize` (the auto-tuner may adjust it further).
pub(crate) const DEFAULT_DATA_SCALE_DOWN: u64 = 512;

/// Initial stack-emulation weight for a Spark-stack proxy.  Spark pipelines
/// narrow stages and caches deserialised RDDs, so a smaller share of its
/// time is managed-runtime overhead than under MapReduce (whose big-data
/// default is 0.45); the auto-tuner refines it from there.
pub(crate) const SPARK_INITIAL_FRAMEWORK_WEIGHT: f64 = 0.30;

/// The metric targets and qualification threshold of a proxy generation
/// run.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSelection {
    /// Metrics the proxy must match.
    pub metrics: Vec<MetricId>,
    /// Maximum allowed relative deviation per metric (the paper uses 15 %).
    pub deviation_threshold: f64,
}

impl FeatureSelection {
    /// The paper's default: every Table V metric except raw runtime, with a
    /// 15 % deviation bound.
    pub fn paper_default() -> Self {
        Self {
            metrics: MetricId::TUNABLE.to_vec(),
            deviation_threshold: 0.15,
        }
    }
}

impl Default for FeatureSelection {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Initialises the parameter vector **P** from the original workload's
/// configuration: the input data set and chunk size are scaled down, and
/// `numTasks` is initialised to the original parallelism degree.
pub fn initial_parameters(workload: &dyn Workload, cluster: &ClusterConfig) -> ProxyParameters {
    let input = workload.input_descriptor();
    let data_size = (input.total_bytes / DEFAULT_DATA_SCALE_DOWN).clamp(16 << 20, 4 << 30);
    let num_tasks = workload.tasks_per_node(cluster);

    if workload.kind().is_ai() {
        // Geometry / batch follow the original network input.
        // The geometry follows the network's dominant interior layers (the
        // stem downsamples the 299x299 input almost immediately), so the
        // proxy's convolutions see representative channel counts.
        let (batch, geometry) = match workload.kind() {
            dmpb_workloads::WorkloadKind::InceptionV3 => (32, (35, 35, 192)),
            _ => (128, (32, 32, 3)),
        };
        ProxyParameters::ai(data_size, num_tasks, batch, geometry)
    } else {
        let mut params = ProxyParameters::big_data(data_size, num_tasks);
        if workload.kind().framework() == Framework::Spark {
            params.framework_weight = SPARK_INITIAL_FRAMEWORK_WEIGHT;
        }
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_workloads::{all_workloads, WorkloadKind};

    #[test]
    fn paper_default_covers_all_tunable_metrics() {
        let f = FeatureSelection::paper_default();
        assert_eq!(f.metrics.len(), MetricId::TUNABLE.len());
        assert!((f.deviation_threshold - 0.15).abs() < 1e-12);
        assert!(!f.metrics.contains(&MetricId::Runtime));
    }

    #[test]
    fn initial_parameters_scale_down_the_input() {
        let cluster = ClusterConfig::five_node_westmere();
        for w in all_workloads() {
            let p = initial_parameters(w.as_ref(), &cluster);
            assert!(p.data_size_bytes < w.input_descriptor().total_bytes);
            assert_eq!(p.num_tasks, cluster.tasks_per_node);
            assert_eq!(p.spill_to_disk, !w.kind().is_ai(), "{}", w.name());
        }
    }

    #[test]
    fn spark_proxies_start_with_a_lighter_stack_emulation_weight() {
        let cluster = ClusterConfig::five_node_westmere();
        for w in all_workloads() {
            let p = initial_parameters(w.as_ref(), &cluster);
            match w.kind().framework() {
                dmpb_workloads::Framework::Spark => {
                    assert_eq!(
                        p.framework_weight,
                        SPARK_INITIAL_FRAMEWORK_WEIGHT,
                        "{}",
                        w.name()
                    );
                }
                dmpb_workloads::Framework::Hadoop => {
                    assert!(
                        p.framework_weight > SPARK_INITIAL_FRAMEWORK_WEIGHT,
                        "{}",
                        w.name()
                    );
                }
                dmpb_workloads::Framework::TensorFlow => {}
            }
        }
    }

    #[test]
    fn ai_parameters_follow_the_network_input() {
        let cluster = ClusterConfig::five_node_westmere();
        let workloads = all_workloads();
        let inception = workloads
            .iter()
            .find(|w| w.kind() == WorkloadKind::InceptionV3)
            .unwrap();
        let p = initial_parameters(inception.as_ref(), &cluster);
        assert_eq!(p.batch_size, 32);
        assert_eq!(p.geometry, (35, 35, 192));
    }
}
