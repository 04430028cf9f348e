//! Spark TeraSort: the I/O-intensive workload on the Spark stack.
//!
//! The same 100 GB of gensort records as Hadoop TeraSort, sorted with
//! `sortByKey`: partition boundaries are sampled, each map-side task sorts
//! its partition, the sort-based shuffle routes each key range to its
//! range-partitioned reducer, and the sorted output is written back to
//! HDFS.  The motif DAG is identical to the Hadoop variant (Sort, Sampling
//! and Graph for the partition trie, 70/10/20); the difference is the
//! stack: one wide `sortByKey` boundary instead of a spill/merge on every
//! hop, and the cheaper unsafe-shuffle serde path.

use dmpb_datagen::text::TextGenerator;
use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::spark::{per_node_app_profile, AppShape};
use crate::hadoop::TeraSort;
use crate::workload::{Workload, WorkloadKind};

/// Fraction of the input inspected by the range-partition sampler
/// (`RangePartitioner` samples much less than Hadoop's TotalOrderPartitioner
/// scan).
const SAMPLING_FRACTION: f64 = 0.01;
/// Size of the partition structure (trie over splitter keys) relative to
/// the input.
const PARTITION_STRUCTURE_FRACTION: f64 = 0.001;

/// The Spark TeraSort workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkTeraSort {
    /// Total input volume in bytes.
    pub input_bytes: u64,
}

impl SparkTeraSort {
    /// The reference configuration matching the Hadoop twin: 100 GB of
    /// gensort text (BigDataBench ships Spark TeraSort over the same
    /// input).
    pub(crate) fn reference_configuration() -> Self {
        Self {
            input_bytes: 100 << 30,
        }
    }

    /// A scaled-down configuration for quick experiments and tests.
    pub fn scaled(input_bytes: u64) -> Self {
        Self { input_bytes }
    }

    fn user_profiles(&self, cluster: &ClusterConfig) -> Vec<OpProfile> {
        let per_node = self.input_bytes / u64::from(cluster.slave_nodes());
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = TextGenerator::descriptor(per_node);
        let sample = data.scaled_to((per_node as f64 * SAMPLING_FRACTION) as u64);
        let partition = data.scaled_to((per_node as f64 * PARTITION_STRUCTURE_FRACTION) as u64);
        vec![
            // Map side: per-partition sort; reduce side: merge of the
            // fetched sorted runs (same kernels as the Hadoop twin).
            MotifKind::QuickSort.cost_profile(&data, &config),
            MotifKind::MergeSort.cost_profile(&data, &config),
            // Range-partition sampling.
            MotifKind::RandomSampling.cost_profile(&sample, &config),
            MotifKind::IntervalSampling.cost_profile(&sample, &config),
            // Partition trie construction and lookups.
            MotifKind::GraphConstruct.cost_profile(&partition, &config),
            MotifKind::GraphTraversal.cost_profile(&data.scaled_to(per_node / 10), &config),
        ]
    }

    fn app_shape(&self) -> AppShape {
        AppShape {
            input_bytes: self.input_bytes,
            // One pass, nothing to cache across iterations.
            iterations: 1,
            cached_fraction: 0.0,
            // `sortByKey` shuffles every record byte exactly once.
            wide_shuffle_ratio: 1.0,
            output_ratio: 1.0,
            // TeraSort conventionally writes its output with replication 1.
            output_replication: 1,
            heap_bytes: 12 << 30,
            // The serialised shuffle still touches every byte, but through
            // the unsafe-row path rather than writables and comparators.
            pipeline_factor: 0.8,
        }
    }
}

impl Workload for SparkTeraSort {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SparkTeraSort
    }

    fn pattern(&self) -> &'static str {
        "I/O intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        TextGenerator::descriptor(self.input_bytes)
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        // Identical motif DAG to the Hadoop twin (Table III).
        TeraSort::paper_configuration().motif_composition()
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        TeraSort::paper_configuration().involved_motifs()
    }

    /// Spark's `sortByKey` is one wide dependency: the `RangePartitioner`
    /// sample job forks off the shuffle-block map build, both feed the
    /// wide shuffle (fetches are routed through the range bounds, blocks
    /// are partition-sorted map-side), and the post-shuffle partitions are
    /// merged into the output.  Same motifs as the Hadoop twin, Spark's
    /// lineage shape.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let input = b.node("input-rdd");
        let sampled = b.node("sampled-keys");
        let bounds = b.node("range-bounds");
        let blocks = b.node("shuffle-blocks");
        let partitions = b.node("shuffled-partitions");
        let output = b.node("output");
        b.edge(input, sampled, MotifKind::RandomSampling);
        b.edge(sampled, bounds, MotifKind::IntervalSampling);
        b.edge(input, blocks, MotifKind::GraphConstruct);
        b.edge(bounds, partitions, MotifKind::GraphTraversal);
        b.edge(blocks, partitions, MotifKind::QuickSort);
        b.edge(partitions, output, MotifKind::MergeSort);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_app_profile(
            &self.app_shape(),
            cluster,
            self.user_profiles(cluster),
            "spark-terasort",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configuration_matches_the_hadoop_twin() {
        let s = SparkTeraSort::reference_configuration();
        let h = TeraSort::paper_configuration();
        assert_eq!(s.input_bytes, h.input_bytes);
        assert_eq!(s.input_descriptor(), h.input_descriptor());
        assert_eq!(s.motif_composition(), h.motif_composition());
        assert_eq!(s.involved_motifs(), h.involved_motifs());
    }

    #[test]
    fn profile_is_io_heavy_and_integer_dominated() {
        let cluster = ClusterConfig::five_node_westmere();
        let p = SparkTeraSort::reference_configuration().per_node_profile(&cluster);
        assert!(
            p.total_disk_bytes() > 40 << 30,
            "disk {}",
            p.total_disk_bytes()
        );
        let mix = p.instructions.mix();
        assert!(mix.floating_point < 0.05, "fp {}", mix.floating_point);
        assert!(mix.integer > 0.3);
    }

    #[test]
    fn spark_sort_is_faster_than_hadoop_sort_on_the_same_input() {
        let cluster = ClusterConfig::five_node_westmere();
        let spark = SparkTeraSort::reference_configuration().measure(&cluster);
        let hadoop = TeraSort::paper_configuration().measure(&cluster);
        assert!(
            spark.runtime_secs < hadoop.runtime_secs,
            "spark {} vs hadoop {}",
            spark.runtime_secs,
            hadoop.runtime_secs
        );
        // But not free: it is the same 100 GB through the same 1 GbE-class
        // disks, so the gap stays well under an order of magnitude.
        assert!(spark.runtime_secs > hadoop.runtime_secs / 10.0);
    }

    #[test]
    fn measured_runtime_is_in_the_hundreds_of_seconds() {
        let cluster = ClusterConfig::five_node_westmere();
        let m = SparkTeraSort::reference_configuration().measure(&cluster);
        assert!(
            (200.0..=6000.0).contains(&m.runtime_secs),
            "runtime {}",
            m.runtime_secs
        );
    }

    #[test]
    fn fewer_nodes_means_longer_runtime() {
        let t = SparkTeraSort::reference_configuration();
        let five = t.measure(&ClusterConfig::five_node_westmere());
        let three = t.measure(&ClusterConfig::three_node_westmere_64gb());
        assert!(three.runtime_secs > five.runtime_secs);
    }
}
