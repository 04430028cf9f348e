//! Spark K-means: the CPU- and memory-intensive workload on the Spark
//! stack.
//!
//! The same 100 GB of sparse feature vectors as Hadoop K-means, but run as
//! MLlib runs it: the vector RDD is deserialised once, cached in memory,
//! and every Lloyd iteration assigns vectors to centroids and aggregates
//! per-cluster statistics with a `reduceByKey`-style tree aggregation —
//! only the tiny partial sums cross the shuffle.  The motif DAG is
//! identical to the Hadoop twin (Matrix, Statistics, Sort); the stack
//! differences are the cached iterations (no per-iteration HDFS scan) and
//! MLlib's primitive-array math instead of Mahout's boxed vector objects.

use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::spark::{per_node_app_profile, AppShape};
use crate::hadoop::KMeans;
use crate::workload::{Workload, WorkloadKind};

/// How many times more expensive MLlib's JVM-based per-value math is than
/// the native distance kernel.  Breeze operates on primitive arrays — far
/// cheaper than Mahout's boxed object iteration (30x in the Hadoop model)
/// but still a managed runtime away from the bare kernel.
const MLLIB_MATH_OVERHEAD: f64 = 6.0;

/// The Spark K-means workload model (a short cached Lloyd run, unlike the
/// single materialised iteration the Hadoop model times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparkKMeans {
    /// Total input volume in bytes.
    pub input_bytes: u64,
    /// Sparsity of the input vectors.
    pub sparsity: f64,
    /// Lloyd iterations over the cached RDD.
    pub iterations: u32,
}

impl SparkKMeans {
    /// The reference configuration: the Hadoop twin's 100 GB / 90 %-sparse
    /// input, iterated five times over the cached RDD.
    pub(crate) fn reference_configuration() -> Self {
        Self {
            input_bytes: 100 << 30,
            sparsity: 0.9,
            iterations: 5,
        }
    }

    /// A scaled-down configuration.
    pub fn scaled(input_bytes: u64, sparsity: f64, iterations: u32) -> Self {
        Self {
            input_bytes,
            sparsity,
            iterations,
        }
    }

    fn user_profiles(&self, cluster: &ClusterConfig) -> Vec<OpProfile> {
        let per_node = self.input_bytes / u64::from(cluster.slave_nodes());
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = self.input_descriptor().scaled_to(per_node);
        let aggregates = data.scaled_to(per_node / 100);
        let iterations = f64::from(self.iterations.max(1));
        // The assignment step dominates every iteration: distance of every
        // cached vector to every centroid through Breeze's primitive-array
        // math.
        let distance = MotifKind::DistanceCalculation
            .cost_profile(&data, &config)
            .scaled(MLLIB_MATH_OVERHEAD * iterations);
        vec![
            distance,
            // Update: per-cluster count / average statistics, every
            // iteration.
            MotifKind::CountStatistics
                .cost_profile(&data, &config)
                .scaled(iterations),
            MotifKind::MinMax
                .cost_profile(&aggregates, &config)
                .scaled(iterations),
            // Tree-aggregation ordering of per-cluster partials.
            MotifKind::QuickSort
                .cost_profile(&aggregates, &config)
                .scaled(iterations),
            MotifKind::MergeSort
                .cost_profile(&aggregates, &config)
                .scaled(iterations),
        ]
    }

    fn app_shape(&self) -> AppShape {
        AppShape {
            input_bytes: self.input_bytes,
            iterations: self.iterations,
            // The deserialised vector RDD fits the executors' memory.
            cached_fraction: 1.0,
            // Only per-cluster partial sums cross the tree aggregation.
            wide_shuffle_ratio: 0.01,
            output_ratio: 0.001,
            output_replication: 2,
            heap_bytes: 20 << 30,
            // Each vector is deserialised once into the cache; the numeric
            // loops run on primitive arrays afterwards.
            pipeline_factor: 0.3,
        }
    }
}

impl Workload for SparkKMeans {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::SparkKMeans
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive, memory intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        // Same on-disk layout as the Hadoop twin (BDGS sparse vectors).
        KMeans::scaled(self.input_bytes, self.sparsity).input_descriptor()
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        KMeans::paper_configuration().motif_composition()
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        KMeans::paper_configuration().involved_motifs()
    }

    /// Spark K-means assigns points from the cached RDD, then
    /// `treeAggregate`s: per-partition sum and extent accumulators are
    /// computed in parallel branches and joined at the driver, where the
    /// merged partials yield the new centroids.  Same motifs as the Hadoop
    /// twin, Spark's aggregation shape.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let cached = b.node("cached-points");
        let assign = b.node("assignments");
        let sums = b.node("partial-sums");
        let extents = b.node("partial-extents");
        let centroids = b.node("centroids");
        b.edge(cached, assign, MotifKind::DistanceCalculation);
        b.edge(assign, sums, MotifKind::CountStatistics);
        b.edge(assign, extents, MotifKind::MinMax);
        b.edge(sums, centroids, MotifKind::MergeSort);
        b.edge(extents, centroids, MotifKind::QuickSort);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_app_profile(
            &self.app_shape(),
            cluster,
            self.user_profiles(cluster),
            "spark-kmeans",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_configuration_matches_the_hadoop_twin_input() {
        let s = SparkKMeans::reference_configuration();
        let h = KMeans::paper_configuration();
        assert_eq!(s.input_bytes, h.input_bytes);
        assert_eq!(s.sparsity, h.sparsity);
        assert_eq!(s.input_descriptor(), h.input_descriptor());
        assert_eq!(s.motif_composition(), h.motif_composition());
        assert_eq!(s.involved_motifs(), h.involved_motifs());
        assert_eq!(s.iterations, 5);
    }

    #[test]
    fn cached_iterations_are_lighter_on_disk_than_one_hadoop_iteration() {
        let cluster = ClusterConfig::five_node_westmere();
        let spark = SparkKMeans::reference_configuration().per_node_profile(&cluster);
        let hadoop = KMeans::paper_configuration().per_node_profile(&cluster);
        // Five cached iterations still read the input from HDFS only once,
        // so total disk traffic stays in the range of the single
        // materialised Hadoop iteration.
        assert!(
            spark.total_disk_bytes() < 2 * hadoop.total_disk_bytes(),
            "spark {} vs hadoop {}",
            spark.total_disk_bytes(),
            hadoop.total_disk_bytes()
        );
    }

    #[test]
    fn per_iteration_cost_is_far_below_mahouts() {
        let cluster = ClusterConfig::five_node_westmere();
        let spark = SparkKMeans::reference_configuration();
        let per_iteration = spark.measure(&cluster).runtime_secs / f64::from(spark.iterations);
        let hadoop = KMeans::paper_configuration().measure(&cluster).runtime_secs;
        assert!(
            per_iteration < hadoop / 3.0,
            "spark per-iteration {per_iteration} vs hadoop {hadoop}"
        );
    }

    #[test]
    fn more_iterations_scale_compute_but_not_input_io() {
        let cluster = ClusterConfig::five_node_westmere();
        let short = SparkKMeans::scaled(10 << 30, 0.9, 2);
        let long = SparkKMeans::scaled(10 << 30, 0.9, 8);
        let p_short = short.per_node_profile(&cluster);
        let p_long = long.per_node_profile(&cluster);
        assert!(p_long.total_instructions() > 3 * p_short.total_instructions());
        // The cached input is read once either way; only shuffle and output
        // traffic grow.
        assert!(p_long.disk_read_bytes < p_short.disk_read_bytes * 2);
    }

    #[test]
    fn five_cached_iterations_cost_about_one_mahout_iteration() {
        let cluster = ClusterConfig::five_node_westmere();
        let m = SparkKMeans::reference_configuration().measure(&cluster);
        let hadoop = KMeans::paper_configuration().measure(&cluster);
        assert!(m.runtime_secs > 200.0, "runtime {}", m.runtime_secs);
        assert!(
            m.runtime_secs < 2.0 * hadoop.runtime_secs,
            "runtime {} (hadoop {})",
            m.runtime_secs,
            hadoop.runtime_secs
        );
    }
}
