//! Spark PageRank: the CPU- and I/O-intensive workload on the Spark stack.
//!
//! The same 2^26-vertex power-law graph as Hadoop PageRank, iterated as
//! GraphX / the classic RDD implementation does: the edge list is parsed
//! and cached once, and every iteration joins ranks with adjacency,
//! scatters contributions across a wide `reduceByKey` shuffle and
//! aggregates the new ranks — without writing the graph back to HDFS
//! between iterations.  The motif DAG is identical to the Hadoop twin
//! (Matrix, Graph, Statistics, Sort); the stack differences are the cached
//! edge RDD and the per-iteration contribution shuffle being the only
//! serde boundary.

use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::spark::{per_node_app_profile, AppShape};
use crate::hadoop::PageRank;
use crate::workload::{Workload, WorkloadKind};

/// The Spark PageRank workload model (a short cached power-iteration run,
/// unlike the single materialised iteration the Hadoop model times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkPageRank {
    /// Number of vertices (2^26, as the Hadoop twin).
    pub num_vertices: u64,
    /// Power iterations over the cached graph.
    pub iterations: u32,
}

impl SparkPageRank {
    /// The reference configuration: the Hadoop twin's 2^26-vertex graph,
    /// iterated five times over the cached edge RDD.
    pub(crate) fn reference_configuration() -> Self {
        Self {
            num_vertices: 1 << 26,
            iterations: 5,
        }
    }

    /// A scaled-down configuration.
    pub fn scaled(num_vertices: u64, iterations: u32) -> Self {
        Self {
            num_vertices,
            iterations,
        }
    }

    /// Total edge bytes of the modelled graph, taken from the shared
    /// descriptor so the twins can never disagree about the input size
    /// (the Hadoop model owns the vertex-degree assumption).
    fn graph_bytes(&self) -> u64 {
        self.input_descriptor().total_bytes
    }

    fn user_profiles(&self, cluster: &ClusterConfig) -> Vec<OpProfile> {
        let per_node = self.graph_bytes() / u64::from(cluster.slave_nodes());
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = self.input_descriptor().scaled_to(per_node);
        let ranks = data.scaled_to(self.num_vertices * 8 / u64::from(cluster.slave_nodes()));
        let iterations = f64::from(self.iterations.max(1));
        vec![
            // Adjacency construction and the pointer-heavy structure walk
            // happen once — the cached edge partitions are then iterated
            // sequentially by the per-iteration join, not re-traversed.
            MotifKind::GraphConstruct.cost_profile(&data, &config),
            MotifKind::GraphTraversal.cost_profile(&data, &config),
            // Propagation, aggregation and convergence checks run every
            // iteration over the cached graph.
            MotifKind::MatrixMultiply
                .cost_profile(&ranks, &config)
                .scaled(iterations),
            MotifKind::CountStatistics
                .cost_profile(&data, &config)
                .scaled(iterations),
            MotifKind::MinMax
                .cost_profile(&ranks, &config)
                .scaled(iterations),
            MotifKind::QuickSort
                .cost_profile(&ranks, &config)
                .scaled(iterations),
        ]
    }

    fn app_shape(&self) -> AppShape {
        AppShape {
            input_bytes: self.graph_bytes(),
            iterations: self.iterations,
            // The cached edge RDD mostly fits; a slice of the partitions is
            // evicted and re-materialised under memory pressure.
            cached_fraction: 0.9,
            // Rank contributions for every edge cross the per-iteration
            // `reduceByKey` shuffle.
            wide_shuffle_ratio: 0.5,
            // Only the final ranks are written out, not the graph.
            output_ratio: 0.1,
            output_replication: 2,
            heap_bytes: 16 << 30,
            // Contribution tuples are boxed (vertex-id, rank) pairs
            // serialised record-at-a-time on both shuffle sides — the
            // classic RDD PageRank has no columnar fast path.
            pipeline_factor: 0.9,
        }
    }
}

impl Workload for SparkPageRank {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SparkPageRank
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive, I/O intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        // Same BDGS power-law graph as the Hadoop twin.
        PageRank::scaled(self.num_vertices).input_descriptor()
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        PageRank::paper_configuration().motif_composition()
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        PageRank::paper_configuration().involved_motifs()
    }

    /// Spark PageRank caches the links RDD and forks on it every
    /// iteration: the rank-link join (a wide dependency) and the
    /// contribution flatMap read the same cached lineage and join at the
    /// `reduceByKey` rank aggregation (with the damping clamp); the final
    /// ranks are sorted for output.  Same motifs as the Hadoop twin,
    /// Spark's lineage shape.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let input = b.node("edge-list");
        let links = b.node("links-rdd");
        let joined = b.node("rank-link-join");
        let contribs = b.node("contributions");
        let ranks = b.node("ranks-rdd");
        let output = b.node("top-ranks");
        b.edge(input, links, MotifKind::GraphConstruct);
        b.edge(links, joined, MotifKind::GraphTraversal);
        b.edge(links, contribs, MotifKind::MatrixMultiply);
        b.edge(joined, ranks, MotifKind::CountStatistics);
        b.edge(contribs, ranks, MotifKind::MinMax);
        b.edge(ranks, output, MotifKind::QuickSort);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_app_profile(
            &self.app_shape(),
            cluster,
            self.user_profiles(cluster),
            "spark-pagerank",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configuration_matches_the_hadoop_twin_graph() {
        let s = SparkPageRank::reference_configuration();
        let h = PageRank::paper_configuration();
        assert_eq!(s.num_vertices, h.num_vertices);
        assert_eq!(s.input_descriptor(), h.input_descriptor());
        assert_eq!(s.motif_composition(), h.motif_composition());
        assert_eq!(s.involved_motifs(), h.involved_motifs());
    }

    #[test]
    fn profile_mixes_cpu_and_io() {
        let cluster = ClusterConfig::five_node_westmere();
        let p = SparkPageRank::reference_configuration().per_node_profile(&cluster);
        assert!(p.total_disk_bytes() > 1 << 30);
        assert!(p.total_instructions() > 1_000_000_000);
    }

    #[test]
    fn graph_size_scales_the_work() {
        let cluster = ClusterConfig::five_node_westmere();
        let small = SparkPageRank::scaled(1 << 20, 5).per_node_profile(&cluster);
        let big = SparkPageRank::scaled(1 << 24, 5).per_node_profile(&cluster);
        assert!(big.total_instructions() > 8 * small.total_instructions());
    }

    #[test]
    fn five_cached_iterations_cost_less_than_five_hadoop_jobs() {
        let cluster = ClusterConfig::five_node_westmere();
        let spark = SparkPageRank::reference_configuration().measure(&cluster);
        let one_hadoop_job = PageRank::paper_configuration().measure(&cluster);
        assert!(
            spark.runtime_secs < 5.0 * one_hadoop_job.runtime_secs,
            "spark x5 {} vs hadoop x1 {}",
            spark.runtime_secs,
            one_hadoop_job.runtime_secs
        );
        // And the per-iteration disk traffic is far below a Hadoop job's:
        // the graph is cached, not re-materialised.
        let spark_profile = SparkPageRank::reference_configuration().per_node_profile(&cluster);
        let hadoop_profile = PageRank::paper_configuration().per_node_profile(&cluster);
        assert!(spark_profile.disk_read_bytes / 5 < hadoop_profile.disk_read_bytes);
    }
}
