//! Hadoop K-means: the CPU- and memory-intensive workload.
//!
//! 100 GB of sparse feature vectors (90 % sparsity from BDGS) are assigned
//! to centroids (distance computation), per-cluster statistics are
//! aggregated (count / average) and the new centroids are broadcast for
//! the next iteration.  Table III lists the involved motifs as Matrix,
//! Sort and Statistics.  The paper's Fig. 7 / Fig. 8 case study drives the
//! same workload with dense (0 % sparse) vectors, so the sparsity is a
//! parameter of this model.

use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::mapreduce::{per_node_job_profile, JobShape};
use crate::workload::{Workload, WorkloadKind};

/// Dimensionality of the modelled feature vectors (400 bytes / 8 per value,
/// matching the vector descriptor's element size).
const VECTOR_DIM: usize = 50;

/// How many times more expensive Mahout's JVM-based per-value math is than
/// the native distance kernel (object iteration, boxing, virtual calls).
/// Calibrated so the K-means runtime lands well above TeraSort's, as the
/// paper reports (5 971 s vs 1 500 s on the five-node cluster).
const MAHOUT_MATH_OVERHEAD: f64 = 30.0;

/// The Hadoop K-means workload model (one iteration, as the paper times a
/// single iteration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeans {
    /// Total input volume in bytes.
    pub input_bytes: u64,
    /// Sparsity of the input vectors (0.9 in Section III, 0.0 in the
    /// dense case study).
    pub sparsity: f64,
}

impl KMeans {
    /// The paper's Section III configuration: 100 GB, 90 % sparse.
    pub fn paper_configuration() -> Self {
        Self {
            input_bytes: 100 << 30,
            sparsity: 0.9,
        }
    }

    /// The dense-input variant of the Fig. 7 / Fig. 8 case study.
    pub fn dense_configuration() -> Self {
        Self {
            sparsity: 0.0,
            ..Self::paper_configuration()
        }
    }

    /// A scaled-down configuration.
    pub(crate) fn scaled(input_bytes: u64, sparsity: f64) -> Self {
        Self {
            input_bytes,
            sparsity,
        }
    }

    fn user_profiles(&self, cluster: &ClusterConfig) -> Vec<OpProfile> {
        let per_node = self.input_bytes / u64::from(cluster.slave_nodes());
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = self.input_descriptor().scaled_to(per_node);
        // Aggregation outputs (per-cluster partial sums) are tiny compared
        // to the input.
        let aggregates = data.scaled_to(per_node / 100);
        // The assignment step dominates: distance of every vector to every
        // centroid, paid through Mahout's object-based vector math.
        let distance = MotifKind::DistanceCalculation
            .cost_profile(&data, &config)
            .scaled(MAHOUT_MATH_OVERHEAD);
        vec![
            distance,
            // Update: per-cluster count / average statistics.
            MotifKind::CountStatistics.cost_profile(&data, &config),
            MotifKind::MinMax.cost_profile(&aggregates, &config),
            // Combiner-side ordering of per-cluster partials.
            MotifKind::QuickSort.cost_profile(&aggregates, &config),
            MotifKind::MergeSort.cost_profile(&aggregates, &config),
        ]
    }

    fn job_shape(&self) -> JobShape {
        JobShape {
            input_bytes: self.input_bytes,
            // Only per-cluster partial sums cross the shuffle.
            shuffle_ratio: 0.01,
            output_ratio: 0.001,
            output_replication: 2,
            heap_bytes: 12 << 30,
            // Each vector is deserialised once; the bulk of the time is the
            // numeric assignment loop, not the writable pipeline.
            pipeline_factor: 0.3,
        }
    }
}

impl Workload for KMeans {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::KMeans
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive, memory intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        // The 100 GB input always occupies 100 GB on disk: dense vectors
        // store every value (8 bytes each), sparse vectors store only the
        // non-zero values as (index, value) pairs plus a small header, so a
        // sparser data set packs more vectors into the same volume — as the
        // BDGS-generated inputs of the paper do.
        let values_per_vector = (VECTOR_DIM as f64 * (1.0 - self.sparsity)).max(1.0);
        let per_vector_bytes = if self.sparsity > 0.0 {
            (values_per_vector * 12.0) as u64 + 16
        } else {
            VECTOR_DIM as u64 * 8
        };
        DataDescriptor::new(
            dmpb_datagen::DataClass::Vector,
            self.input_bytes,
            per_vector_bytes,
            self.sparsity,
            dmpb_datagen::Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
        )
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        vec![
            (MotifClass::Matrix, 0.55),
            (MotifClass::Statistics, 0.30),
            (MotifClass::Sort, 0.15),
        ]
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        vec![
            MotifKind::DistanceCalculation,
            MotifKind::QuickSort,
            MotifKind::MergeSort,
            MotifKind::CountStatistics,
            MotifKind::MinMax,
        ]
    }

    /// One K-means iteration forks after the distance-based assignment:
    /// the combiner sorts records by cluster id while the partial sums are
    /// accumulated, and both join at the reducer that recomputes the
    /// centroids and checks movement extents.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let input = b.node("points");
        let assign = b.node("assignments");
        let sorted = b.node("sorted-by-cluster");
        let partials = b.node("partial-sums");
        let centroids = b.node("centroids");
        b.edge(input, assign, MotifKind::DistanceCalculation);
        b.edge(assign, sorted, MotifKind::QuickSort);
        b.edge(assign, partials, MotifKind::CountStatistics);
        b.edge(sorted, centroids, MotifKind::MergeSort);
        b.edge(partials, centroids, MotifKind::MinMax);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_job_profile(
            &self.job_shape(),
            cluster,
            self.user_profiles(cluster),
            "hadoop-kmeans",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_is_sparse_100gb() {
        let k = KMeans::paper_configuration();
        assert_eq!(k.input_bytes, 100 << 30);
        assert_eq!(k.sparsity, 0.9);
        assert_eq!(k.input_descriptor().sparsity, 0.9);
    }

    #[test]
    fn dense_configuration_only_changes_sparsity() {
        let d = KMeans::dense_configuration();
        assert_eq!(d.sparsity, 0.0);
        assert_eq!(d.input_bytes, 100 << 30);
    }

    #[test]
    fn kmeans_is_lighter_on_disk_than_terasort() {
        let cluster = ClusterConfig::five_node_westmere();
        let k = KMeans::paper_configuration().per_node_profile(&cluster);
        let t = crate::hadoop::TeraSort::paper_configuration().per_node_profile(&cluster);
        assert!(k.total_disk_bytes() < t.total_disk_bytes() / 2);
    }

    #[test]
    fn dense_input_is_more_floating_point_dominated() {
        let cluster = ClusterConfig::five_node_westmere();
        let sparse = KMeans::paper_configuration().per_node_profile(&cluster);
        let dense = KMeans::dense_configuration().per_node_profile(&cluster);
        assert!(
            dense.instructions.mix().floating_point > sparse.instructions.mix().floating_point,
            "dense {} sparse {}",
            dense.instructions.mix().floating_point,
            sparse.instructions.mix().floating_point
        );
    }

    #[test]
    fn sparsity_changes_behaviour_not_just_volume() {
        // The Fig. 7 case study drives the same workload with sparse and
        // dense vectors of identical volume.  In this model the dense run
        // finishes faster (its inner loops vectorise) while the sparse run
        // spends more instructions per byte; the memory bandwidths stay in
        // the same range.  (The paper observes a larger bandwidth gap; see
        // EXPERIMENTS.md for the discussion of this deviation.)
        let cluster = ClusterConfig::five_node_westmere();
        let sparse = KMeans::paper_configuration().measure(&cluster);
        let dense = KMeans::dense_configuration().measure(&cluster);
        assert!(dense.runtime_secs < sparse.runtime_secs);
        let ratio = dense.mem_total_bw_mbps() / sparse.mem_total_bw_mbps();
        assert!((0.5..=3.0).contains(&ratio), "bandwidth ratio {ratio}");
        assert!(dense.instruction_mix.floating_point > sparse.instruction_mix.floating_point);
    }
}
