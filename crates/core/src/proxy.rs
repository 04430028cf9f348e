//! The proxy benchmark itself: a DAG of weighted data motifs plus a
//! parameter vector, measurable under the performance model and executable
//! for real.
//!
//! All motif cost modelling and kernel execution dispatches through the
//! [`MotifRegistry`] — the proxy holds no per-motif `match` blocks.  The
//! DAG topology comes from the workload's declared [`DagPlan`] (fork/join
//! structure included) and is executed by the serial [`DagExecutor`].

use std::collections::HashMap;

use dmpb_datagen::DataDescriptor;
use dmpb_metrics::MetricVector;
use dmpb_motifs::{DagPlan, MotifKind, MotifRegistry};
use dmpb_perfmodel::arch::ArchProfile;
use dmpb_perfmodel::profile::OpProfile;
use dmpb_perfmodel::{ExecutionEngine, SimMemo};
use dmpb_workloads::framework::jvm;
use dmpb_workloads::WorkloadKind;

use crate::dag::ProxyDag;
use crate::decompose::{Decomposition, MotifComponent};
use crate::executor::{DagExecution, DagExecutor};
use crate::parameters::ProxyParameters;

/// A generated proxy benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ProxyBenchmark {
    kind: WorkloadKind,
    components: Vec<MotifComponent>,
    plan: DagPlan,
    input: DataDescriptor,
    parameters: ProxyParameters,
}

/// Result of really executing a (scaled-down) proxy on generated data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Number of motif kernels executed.
    pub kernels_run: usize,
    /// Folded checksum over all kernel outputs (stability check).
    pub checksum: u64,
}

impl From<&DagExecution> for ExecutionSummary {
    fn from(execution: &DagExecution) -> Self {
        Self {
            kernels_run: execution.kernels_run(),
            checksum: execution.checksum,
        }
    }
}

impl ProxyBenchmark {
    /// Builds a proxy from a decomposition and an initial parameter vector.
    pub fn from_decomposition(decomposition: &Decomposition, parameters: ProxyParameters) -> Self {
        Self {
            kind: decomposition.kind,
            components: decomposition.components.clone(),
            plan: decomposition.plan.clone(),
            input: decomposition.input,
            parameters,
        }
    }

    /// The proxy's name (e.g. "Proxy TeraSort").
    pub fn name(&self) -> &'static str {
        self.kind.proxy_name()
    }

    /// The motif components and their weights.
    pub fn components(&self) -> &[MotifComponent] {
        &self.components
    }

    /// The declared DAG topology the proxy's edges follow.
    pub fn plan(&self) -> &DagPlan {
        &self.plan
    }

    /// The current parameter vector.
    pub fn parameters(&self) -> ProxyParameters {
        self.parameters
    }

    /// Returns a copy with a different parameter vector (used by the
    /// auto-tuner's adjusting stage).
    pub(crate) fn with_parameters(&self, parameters: ProxyParameters) -> Self {
        Self {
            parameters,
            ..self.clone()
        }
    }

    /// Returns a copy driven by a different input data set (same motifs and
    /// parameters) — the Fig. 8 experiment drives one Proxy K-means with
    /// both sparse and dense inputs.
    pub fn with_input(&self, input: DataDescriptor) -> Self {
        Self {
            input,
            ..self.clone()
        }
    }

    /// Descriptor of the data the proxy processes (the original input
    /// scaled down to the proxy's `dataSize`, keeping type, distribution
    /// and sparsity).
    pub fn proxy_input(&self) -> DataDescriptor {
        self.input.scaled_to(self.parameters.data_size_bytes)
    }

    /// Effective component weights after applying the weight-skew
    /// parameter: the dominant component is scaled by the skew and the
    /// result renormalised.
    pub(crate) fn effective_weights(&self) -> Vec<(MotifKind, f64)> {
        if self.components.is_empty() {
            return Vec::new();
        }
        let dominant = self
            .components
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.weight.partial_cmp(&b.1.weight).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut weights: Vec<(MotifKind, f64)> = self
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let w = if i == dominant {
                    c.weight * self.parameters.weight_skew
                } else {
                    c.weight
                };
                (c.motif, w)
            })
            .collect();
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        for (_, w) in &mut weights {
            *w /= total;
        }
        weights
    }

    /// The proxy's DAG: the workload's declared fork/join topology
    /// ([`ProxyBenchmark::plan`]) instantiated with the effectively
    /// weighted motif edges and scaled data descriptors.  Source nodes
    /// carry the proxy input, intermediate and sink nodes the (half-sized)
    /// in-flight data sets.
    pub fn dag(&self) -> ProxyDag {
        let plan = &self.plan;
        let weights: HashMap<MotifKind, f64> = self.effective_weights().into_iter().collect();
        let intermediate = self
            .proxy_input()
            .scaled_to((self.parameters.data_size_bytes / 2).max(1));

        let mut has_incoming = vec![false; plan.node_labels().len()];
        for edge in plan.edges() {
            has_incoming[edge.to] = true;
        }

        let mut dag = ProxyDag::new();
        for (id, label) in plan.node_labels().iter().enumerate() {
            let descriptor = if has_incoming[id] {
                intermediate
            } else {
                self.proxy_input()
            };
            dag.add_node(label.clone(), descriptor);
        }
        for edge in plan.edges() {
            let weight = weights
                .get(&edge.motif)
                .copied()
                .expect("plan motifs match the decomposition components");
            dag.add_edge(edge.from, edge.to, edge.motif, weight);
        }
        dag
    }

    /// The operation profile of the proxy: every component's cost model
    /// over the scaled-down input, rescaled so each component contributes
    /// its weight of the total work, plus the software-stack-emulation
    /// component (the unified memory-management module of the paper's motif
    /// implementations).
    pub fn profile(&self) -> OpProfile {
        let data = self.proxy_input();
        let config = self.parameters.motif_config();
        let weights = self.effective_weights();
        let registry = MotifRegistry::global();

        // Raw cost of each motif over the full proxy input.
        let raw: Vec<(f64, OpProfile)> = weights
            .iter()
            .map(|(motif, weight)| {
                (
                    *weight,
                    registry.kernel(*motif).cost_profile(&data, &config),
                )
            })
            .collect();
        let total_raw: f64 = raw.iter().map(|(_, p)| p.total_instructions() as f64).sum();

        // Rescale each component so its instruction share equals its weight.
        let mut merged: Option<OpProfile> = None;
        for (weight, profile) in raw {
            let share = profile.total_instructions() as f64 / total_raw.max(1.0);
            let scaled = profile.scaled((weight / share.max(1e-9)).max(1e-6));
            merged = Some(match merged {
                None => scaled,
                Some(acc) => acc.merge(&scaled),
            });
        }
        let mut user = merged.expect("proxy has at least one component");

        // Software-stack emulation (GC-like memory management) component.
        if self.parameters.framework_weight > 0.0 {
            let fw_fraction = self.parameters.framework_weight.min(0.9);
            let user_instr = user.total_instructions() as f64;
            let fw_bytes = (user_instr * fw_fraction
                / (1.0 - fw_fraction)
                / jvm::JVM_INSTRUCTIONS_PER_BYTE) as u64;
            let mut overhead = jvm::jvm_overhead_profile(fw_bytes.max(1 << 20), 1 << 30);
            overhead.name = "stack-emulation".to_string();
            // The proxy's memory-management module is a light-weight
            // reimplementation, not a full JVM: far smaller code footprint.
            overhead.code_footprint_bytes = 256 * 1024;
            user = user.merge(&overhead);
        }

        // Disk traffic of a proxy-scale run: the input is read once and the
        // dominant spill path writes a fraction of it back; at these sizes
        // most intermediate data is absorbed by the page cache, so only a
        // fraction of the logical spill reaches the device.  AI proxies
        // only stream a small input sample.
        let data_bytes = self.parameters.data_size_bytes;
        if self.parameters.spill_to_disk {
            user.disk_read_bytes = (data_bytes as f64 * 0.25) as u64;
            user.disk_write_bytes = (data_bytes as f64 * 0.15) as u64;
        } else {
            user.disk_read_bytes = data_bytes / 400;
            user.disk_write_bytes = 0;
        }

        user.name = self.name().to_string();
        user.parallel_fraction = user.parallel_fraction.min(0.96);
        user
    }

    /// Measures the proxy on one node of `arch` using the shared
    /// performance-model instrument.
    pub fn measure(&self, arch: &ArchProfile) -> MetricVector {
        ExecutionEngine::new(*arch).run(&self.profile(), self.parameters.num_tasks)
    }

    /// [`ProxyBenchmark::measure`] on the memo's architecture, reusing any
    /// cache or branch simulation `memo` already holds (bit-identical).
    pub(crate) fn measure_with(&self, memo: &mut SimMemo) -> MetricVector {
        memo.run(&self.profile(), self.parameters.num_tasks)
    }

    /// Really executes every motif kernel of the proxy's DAG on freshly
    /// generated data through `executor`, returning the full per-edge
    /// execution record.  This is the "runs on a real machine" face of the
    /// proxy; `elements` bounds the per-kernel input size.
    pub fn execute_dag(&self, executor: &DagExecutor, elements: usize, seed: u64) -> DagExecution {
        executor.execute(&self.dag(), elements, seed)
    }

    /// Convenience wrapper around [`ProxyBenchmark::execute_dag`] with a
    /// serial executor, summarised to kernel count + checksum (used by the
    /// tests).
    pub fn execute_sample(&self, elements: usize, seed: u64) -> ExecutionSummary {
        ExecutionSummary::from(&self.execute_dag(&DagExecutor::new(), elements, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::decompose;
    use crate::features::initial_parameters;
    use dmpb_workloads::{all_workloads, ClusterConfig};

    fn proxies() -> Vec<ProxyBenchmark> {
        let cluster = ClusterConfig::five_node_westmere();
        all_workloads()
            .iter()
            .map(|w| {
                let d = decompose(w.as_ref());
                let p = initial_parameters(w.as_ref(), &cluster);
                ProxyBenchmark::from_decomposition(&d, p)
            })
            .collect()
    }

    #[test]
    fn effective_weights_are_normalised_for_every_proxy() {
        for proxy in proxies() {
            let total: f64 = proxy.effective_weights().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", proxy.name());
        }
    }

    #[test]
    fn weight_skew_emphasises_the_dominant_component() {
        let proxy = &proxies()[0]; // TeraSort
        let neutral = proxy.effective_weights();
        let mut params = proxy.parameters();
        params.weight_skew = 1.1;
        let skewed = proxy.with_parameters(params).effective_weights();
        let dominant = neutral
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.partial_cmp(&b.1 .1).unwrap())
            .unwrap()
            .0;
        assert!(skewed[dominant].1 > neutral[dominant].1);
    }

    #[test]
    fn dag_has_one_edge_per_component() {
        for proxy in proxies() {
            let dag = proxy.dag();
            assert_eq!(dag.num_edges(), proxy.components().len());
            assert!(!dag.describe().is_empty());
        }
    }

    #[test]
    fn dag_follows_the_declared_plan() {
        for proxy in proxies() {
            let dag = proxy.dag();
            assert_eq!(
                dag.is_branching(),
                proxy.plan().is_branching(),
                "{}",
                proxy.name()
            );
        }
    }

    #[test]
    fn dag_edge_weights_are_the_effective_weights() {
        for proxy in proxies() {
            let weights: HashMap<MotifKind, f64> = proxy.effective_weights().into_iter().collect();
            for edge in proxy.dag().topological_edges() {
                assert_eq!(edge.weight, weights[&edge.motif], "{}", proxy.name());
            }
        }
    }

    #[test]
    fn profile_and_measurement_are_sane_for_every_proxy() {
        let arch = dmpb_perfmodel::ArchProfile::westmere_e5645();
        for proxy in proxies() {
            let profile = proxy.profile();
            assert!(profile.total_instructions() > 0, "{}", proxy.name());
            let metrics = proxy.measure(&arch);
            assert!(metrics.is_finite());
            assert!(metrics.runtime_secs > 0.0);
            assert!(
                metrics.runtime_secs < 600.0,
                "{} proxy runtime {} is not proxy-fast",
                proxy.name(),
                metrics.runtime_secs
            );
        }
    }

    #[test]
    fn bigger_data_size_means_more_work() {
        let proxy = &proxies()[0];
        let small = proxy.profile().total_instructions();
        let mut params = proxy.parameters();
        params.data_size_bytes *= 4;
        let large = proxy.with_parameters(params).profile().total_instructions();
        assert!(large > 2 * small);
    }

    #[test]
    fn execute_sample_is_deterministic_and_runs_every_kernel() {
        for proxy in proxies() {
            let a = proxy.execute_sample(256, 7);
            let b = proxy.execute_sample(256, 7);
            assert_eq!(a, b, "{}", proxy.name());
            assert_eq!(a.kernels_run, proxy.components().len());
        }
    }

    #[test]
    fn with_input_changes_only_the_data() {
        let proxy = proxies().remove(1); // K-means
        let dense = proxy.with_input(proxy.proxy_input().with_sparsity(0.0));
        assert_eq!(dense.parameters(), proxy.parameters());
        assert_eq!(dense.proxy_input().sparsity, 0.0);
    }
}
