//! MapReduce / HDFS execution model.
//!
//! A Hadoop job over `input` on a cluster runs, per slave node:
//!
//! 1. **Map phase** — read the node's share of the input from HDFS, run the
//!    map-side motifs, spill sorted map output to local disk;
//! 2. **Shuffle** — every reducer fetches its partition (crossing the
//!    1 GbE network and the local disks);
//! 3. **Reduce phase** — merge the fetched runs, run the reduce-side
//!    motifs, write the output to HDFS with the configured replication.
//!
//! The model composes the user-side motif profiles (supplied by the
//! workload) with the JVM overhead model and the disk traffic each phase
//! causes, and yields one per-node [`OpProfile`].  Shuffle traffic is
//! accounted as disk traffic — Hadoop materialises shuffle data on disk on
//! both the map and reduce side — which also stands in for the (slower)
//! 1 GbE network the paper's cluster uses.

use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::jvm;

/// Description of one Hadoop job's data movement, independent of which
/// motifs run in its map and reduce functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobShape {
    /// Total job input in bytes (across the cluster).
    pub input_bytes: u64,
    /// Ratio of map-output to input volume (1.0 for TeraSort, small for
    /// aggregating jobs like K-means).
    pub shuffle_ratio: f64,
    /// Ratio of final output to input volume.
    pub output_ratio: f64,
    /// HDFS replication factor for the job output.
    pub output_replication: u32,
    /// Live JVM heap per node the job keeps resident (spill buffers,
    /// in-memory segments), in bytes.
    pub heap_bytes: u64,
    /// Fraction of the piped bytes that incur full per-byte JVM overhead.
    /// TeraSort moves every record byte through writables and comparators
    /// (1.0); aggregating jobs like K-means deserialise each vector once
    /// but spend the rest of their time in numeric code (< 1.0).
    pub pipeline_factor: f64,
}

impl JobShape {
    /// Per-node share of the input.
    pub(crate) fn input_bytes_per_node(&self, cluster: &ClusterConfig) -> u64 {
        self.input_bytes / u64::from(cluster.slave_nodes())
    }

    /// Per-node disk traffic `(read, write)` caused by the job's data
    /// movement (input read, spill, shuffle materialisation, output
    /// replication), excluding whatever the motifs themselves request.
    pub(crate) fn disk_traffic_per_node(&self, cluster: &ClusterConfig) -> (u64, u64) {
        let input = self.input_bytes_per_node(cluster) as f64;
        let shuffle = input * self.shuffle_ratio;
        let output = input * self.output_ratio;
        // Read: job input plus re-reading the spilled map output on the
        // reduce side (a fraction stays in the page cache).
        let read = input + shuffle * 0.5;
        // Write: map-side spill plus the replicated job output.
        let write = shuffle * 0.5 + output * f64::from(self.output_replication.max(1));
        (read as u64, write as u64)
    }
}

/// Composes a per-node profile for a Hadoop job.
///
/// `user_profiles` are the motif profiles of the map and reduce functions,
/// already scaled to the *per-node* share of the data.  The function merges
/// them, adds the JVM / framework overhead proportional to the bytes moved
/// through the task pipeline, and adds the job's framework-level disk
/// traffic.
///
/// # Panics
///
/// Panics if `user_profiles` is empty.
pub fn per_node_job_profile(
    shape: &JobShape,
    cluster: &ClusterConfig,
    user_profiles: Vec<OpProfile>,
    name: &str,
) -> OpProfile {
    assert!(
        !user_profiles.is_empty(),
        "a job needs at least one user profile"
    );
    let user = OpProfile::merge_all(user_profiles).expect("non-empty");

    let input_per_node = shape.input_bytes_per_node(cluster);
    // Bytes moved through the task pipeline: map input plus shuffled bytes
    // on the reduce side, weighted by how much of that movement really goes
    // through the heavy writable/comparator path.
    let piped_bytes = ((input_per_node as f64 * (1.0 + shape.shuffle_ratio))
        * shape.pipeline_factor.max(0.0)) as u64;
    let overhead = jvm::jvm_overhead_profile(piped_bytes, shape.heap_bytes);

    let mut profile = user.merge(&overhead);
    profile.name = name.to_string();

    let (fw_read, fw_write) = shape.disk_traffic_per_node(cluster);
    // The motif cost models already account for reading their own input
    // once; replace motif-level disk accounting with the job-level model to
    // avoid double counting.
    profile.disk_read_bytes = fw_read;
    profile.disk_write_bytes = fw_write;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::descriptor::{DataClass, DataDescriptor, Distribution};
    use dmpb_motifs::{MotifConfig, MotifKind};

    fn shape() -> JobShape {
        JobShape {
            input_bytes: 100 << 30,
            shuffle_ratio: 1.0,
            output_ratio: 1.0,
            output_replication: 2,
            heap_bytes: 8 << 30,
            pipeline_factor: 1.0,
        }
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::five_node_westmere()
    }

    #[test]
    fn input_is_split_across_slave_nodes() {
        assert_eq!(shape().input_bytes_per_node(&cluster()), 25 << 30);
    }

    #[test]
    fn disk_traffic_includes_spill_and_replication() {
        let (read, write) = shape().disk_traffic_per_node(&cluster());
        assert!(read > 25 << 30, "read {read}");
        assert!(write > 25 << 30, "write {write}");
        // An aggregating job with tiny shuffle writes much less.
        let agg = JobShape {
            shuffle_ratio: 0.01,
            output_ratio: 0.01,
            ..shape()
        };
        let (_, agg_write) = agg.disk_traffic_per_node(&cluster());
        assert!(agg_write < write / 10);
    }

    #[test]
    fn job_profile_contains_user_and_framework_work() {
        let data = DataDescriptor::new(DataClass::Text, 25 << 30, 100, 0.0, Distribution::Uniform);
        let sort = MotifKind::QuickSort.cost_profile(&data, &MotifConfig::big_data_default());
        let user_instructions = sort.total_instructions();
        let job = per_node_job_profile(&shape(), &cluster(), vec![sort], "terasort");
        assert!(
            job.total_instructions() > user_instructions,
            "framework overhead missing"
        );
        assert_eq!(job.name, "terasort");
        assert!(job.code_footprint_bytes >= jvm::JVM_CODE_FOOTPRINT_BYTES);
        assert!(job.disk_read_bytes > 0 && job.disk_write_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "at least one user profile")]
    fn empty_user_profiles_are_rejected() {
        let _ = per_node_job_profile(&shape(), &cluster(), Vec::new(), "x");
    }
}
