//! Hadoop PageRank: the CPU- and I/O-intensive workload.
//!
//! A 2^26-vertex power-law graph (BDGS) is iterated: the graph is expressed
//! as a sparse matrix, each iteration multiplies the rank vector by that
//! matrix, contributions are aggregated per vertex (out-degree / in-degree
//! statistics, min/max for convergence checks) and the updated ranks are
//! written back to HDFS for the next iteration.  Table III lists the
//! involved motifs as Matrix, Sort and Statistics.

use dmpb_datagen::graph::GraphSpec;
use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::mapreduce::{per_node_job_profile, JobShape};
use crate::workload::{Workload, WorkloadKind};

/// Average out-degree of the modelled graph (BDGS graphs are sparse).
const AVG_DEGREE: usize = 16;

/// The Hadoop PageRank workload model (one iteration, as timed by the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    /// Number of vertices (the paper uses 2^26).
    pub num_vertices: u64,
}

impl PageRank {
    /// The paper's Section III configuration: a 2^26-vertex graph.
    pub fn paper_configuration() -> Self {
        Self {
            num_vertices: 1 << 26,
        }
    }

    /// A scaled-down configuration.
    pub(crate) fn scaled(num_vertices: u64) -> Self {
        Self { num_vertices }
    }

    /// Total edge bytes of the modelled graph.
    fn graph_bytes(&self) -> u64 {
        self.num_vertices * AVG_DEGREE as u64 * 8
    }

    fn user_profiles(&self, cluster: &ClusterConfig) -> Vec<OpProfile> {
        let per_node = self.graph_bytes() / u64::from(cluster.slave_nodes());
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = self.input_descriptor().scaled_to(per_node);
        let ranks = data.scaled_to(self.num_vertices * 8 / u64::from(cluster.slave_nodes()));
        vec![
            // Adjacency / matrix construction and the rank propagation
            // (sparse matrix times rank vector).
            MotifKind::GraphConstruct.cost_profile(&data, &config),
            MotifKind::MatrixMultiply.cost_profile(&ranks, &config),
            MotifKind::GraphTraversal.cost_profile(&data, &config),
            // Out-degree / in-degree counting and convergence min/max.
            MotifKind::CountStatistics.cost_profile(&data, &config),
            MotifKind::MinMax.cost_profile(&ranks, &config),
            // Per-vertex contribution ordering on the reduce side.
            MotifKind::QuickSort.cost_profile(&ranks, &config),
        ]
    }

    fn job_shape(&self) -> JobShape {
        JobShape {
            input_bytes: self.graph_bytes(),
            // Rank contributions for every edge cross the shuffle.
            shuffle_ratio: 0.8,
            output_ratio: 0.1,
            output_replication: 2,
            heap_bytes: 10 << 30,
            pipeline_factor: 1.0,
        }
    }
}

impl Workload for PageRank {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::PageRank
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive, I/O intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        GraphSpec::power_law(self.num_vertices as usize, AVG_DEGREE, 0x5052).descriptor()
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        vec![
            (MotifClass::Matrix, 0.40),
            (MotifClass::Graph, 0.25),
            (MotifClass::Statistics, 0.20),
            (MotifClass::Sort, 0.15),
        ]
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        vec![
            MotifKind::GraphConstruct,
            MotifKind::GraphTraversal,
            MotifKind::MatrixMultiply,
            MotifKind::QuickSort,
            MotifKind::MinMax,
            MotifKind::CountStatistics,
        ]
    }

    /// PageRank forks on the adjacency structure: the rank-contribution
    /// matrix product and the frontier traversal read it concurrently and
    /// join at the rank aggregation (dangling-node mass is folded in by
    /// the min-max clamp); the final ranks are sorted for output.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let input = b.node("edge-list");
        let adjacency = b.node("adjacency");
        let contribs = b.node("contributions");
        let frontier = b.node("frontier");
        let ranks = b.node("ranks");
        let output = b.node("top-ranks");
        b.edge(input, adjacency, MotifKind::GraphConstruct);
        b.edge(adjacency, contribs, MotifKind::MatrixMultiply);
        b.edge(adjacency, frontier, MotifKind::GraphTraversal);
        b.edge(contribs, ranks, MotifKind::CountStatistics);
        b.edge(frontier, ranks, MotifKind::MinMax);
        b.edge(ranks, output, MotifKind::QuickSort);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_job_profile(
            &self.job_shape(),
            cluster,
            self.user_profiles(cluster),
            "hadoop-pagerank",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_has_2_pow_26_vertices() {
        let p = PageRank::paper_configuration();
        assert_eq!(p.num_vertices, 1 << 26);
        assert_eq!(
            p.input_descriptor().element_count(),
            (1 << 26) * AVG_DEGREE as u64
        );
    }

    #[test]
    fn profile_mixes_cpu_and_io() {
        let cluster = ClusterConfig::five_node_westmere();
        let p = PageRank::paper_configuration().per_node_profile(&cluster);
        assert!(p.total_disk_bytes() > 1 << 30);
        assert!(p.total_instructions() > 1_000_000_000);
    }

    #[test]
    fn graph_size_scales_the_work() {
        let cluster = ClusterConfig::five_node_westmere();
        let small = PageRank::scaled(1 << 20).per_node_profile(&cluster);
        let big = PageRank::scaled(1 << 24).per_node_profile(&cluster);
        assert!(big.total_instructions() > 8 * small.total_instructions());
    }
}
