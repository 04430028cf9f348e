//! Spark execution model: an RDD lineage executed as a DAG of stages.
//!
//! A Spark application over `input` on a cluster runs, per executor node:
//!
//! 1. **Input stage** — read the node's share of the input from HDFS once
//!    and deserialise it into an RDD; iterative applications persist the
//!    deserialised partitions in the block-manager cache (`MEMORY_ONLY`),
//!    so later iterations never touch the disk for their input.
//! 2. **Narrow stages** — chains of narrow-dependency transformations
//!    (`map`, `filter`, `mapPartitions`) are pipelined inside one stage:
//!    records flow operator to operator without materialisation, so no
//!    per-operator spill and no extra serde.
//! 3. **Wide stages** — a wide dependency (`sortByKey`, `reduceByKey`,
//!    `join`) ends the stage: the sort-based shuffle serialises map output
//!    to local shuffle files and the next stage fetches and deserialises
//!    them.  Only these boundaries pay the serde + disk cost that Hadoop
//!    pays on every map/reduce hop.
//! 4. **Output** — the final RDD is written back to HDFS with the
//!    configured replication.
//!
//! # Model assumptions
//!
//! * **Shared JVM cost.**  Spark executors are JVMs, so the per-byte
//!   managed-runtime overhead is the same [`jvm`] model Hadoop uses — what
//!   changes is *how many bytes* cross the serde pipeline: input
//!   deserialisation happens once (then cached), and shuffle serde is paid
//!   only at wide-dependency boundaries, scaled by
//!   [`AppShape::pipeline_factor`].
//! * **In-memory caching.**  A cached RDD is stored as deserialised Java
//!   objects on the heap.  Re-reading it is cheap on the disk but
//!   pointer-heavy on the memory system — the model adds a pointer-chase
//!   segment over the cached partitions, which is the distinctive Spark
//!   micro-architectural signature the companion data-motif paper observes
//!   (the software stack dominates behaviour).  The fraction of the input
//!   that fits the cache is [`AppShape::cached_fraction`]; the rest is
//!   recomputed/re-read every iteration.
//! * **DAG scheduling.**  The driver schedules one task per partition per
//!   stage; each launch costs closure deserialisation, shuffle bookkeeping
//!   and result serialisation on the executor
//!   (`TASK_DISPATCH_INSTRUCTIONS`).  Stage barriers are cheaper than
//!   MapReduce job barriers, so a larger fraction of the work parallelises
//!   across cores (`SPARK_PARALLEL_FRACTION` vs the JVM model's 0.72).
//! * **Shuffle traffic is disk traffic.**  As in the MapReduce model,
//!   shuffle-file writes and fetches stand in for both the local disks and
//!   the 1 GbE network of the paper's cluster.
//!
//! The entry point is `per_node_app_profile`, the Spark analogue of
//! [`crate::framework::mapreduce::per_node_job_profile`].

use dmpb_perfmodel::access::AccessPattern;
use dmpb_perfmodel::profile::{BranchBehavior, InstructionCounts, MemorySegment, OpProfile};

use crate::cluster::ClusterConfig;
use crate::framework::jvm;

/// Instructions one task launch costs on the executor: closure
/// deserialisation, block-manager lookups, shuffle bookkeeping and result
/// serialisation back to the driver.
pub(crate) const TASK_DISPATCH_INSTRUCTIONS: f64 = 6.0e6;

/// Code footprint of the JVM + Spark runtime (Spark jars on top of the
/// managed runtime; larger than Hadoop's task footprint).
pub(crate) const SPARK_CODE_FOOTPRINT_BYTES: u64 = 9 * 1024 * 1024;

/// Fraction of an executor's work that parallelises across the node's
/// cores.  Stage barriers are cheaper than MapReduce job barriers and
/// narrow stages pipeline freely, so Spark parallelises better than the
/// 0.72 of the MapReduce/JVM model.
pub(crate) const SPARK_PARALLEL_FRACTION: f64 = 0.80;

/// Description of one Spark application's data movement, independent of
/// which motifs run inside its stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppShape {
    /// Total application input in bytes (across the cluster).
    pub input_bytes: u64,
    /// Number of iterations over the (cached) input RDD.  `1` for one-pass
    /// applications like TeraSort.
    pub iterations: u32,
    /// Fraction of the input RDD that fits in the block-manager cache;
    /// the remainder is re-read from HDFS on every iteration after the
    /// first.
    pub cached_fraction: f64,
    /// Ratio of bytes crossing a wide-dependency shuffle to input volume,
    /// per iteration (1.0 for TeraSort's `sortByKey`, small for
    /// `reduceByKey`-style aggregation).
    pub wide_shuffle_ratio: f64,
    /// Ratio of final output to input volume.
    pub output_ratio: f64,
    /// HDFS replication factor for the application output.
    pub output_replication: u32,
    /// Live executor heap per node (cached partitions, shuffle buffers),
    /// in bytes.
    pub heap_bytes: u64,
    /// Fraction of the serde-crossing bytes that incur full per-byte JVM
    /// overhead (record-at-a-time serialisation vs. batched columnar
    /// paths).
    pub pipeline_factor: f64,
}

impl AppShape {
    /// Per-node share of the input.
    pub fn input_bytes_per_node(&self, cluster: &ClusterConfig) -> u64 {
        self.input_bytes / u64::from(cluster.slave_nodes())
    }

    /// Per-node bytes crossing a wide-dependency shuffle in one iteration.
    pub fn shuffle_bytes_per_node(&self, cluster: &ClusterConfig) -> u64 {
        (self.input_bytes_per_node(cluster) as f64 * self.wide_shuffle_ratio) as u64
    }

    /// Per-node bytes re-read from HDFS per iteration after the first
    /// because they did not fit the cache.
    pub(crate) fn uncached_bytes_per_node(&self, cluster: &ClusterConfig) -> u64 {
        let spill = 1.0 - self.cached_fraction.clamp(0.0, 1.0);
        (self.input_bytes_per_node(cluster) as f64 * spill) as u64
    }

    /// Per-node disk traffic `(read, write)` of the application: the input
    /// read once (plus cache-miss re-reads on later iterations), shuffle
    /// files written and fetched at every wide boundary, and the replicated
    /// output — excluding whatever the motifs themselves request.
    pub fn disk_traffic_per_node(&self, cluster: &ClusterConfig) -> (u64, u64) {
        let input = self.input_bytes_per_node(cluster) as f64;
        let iterations = f64::from(self.iterations.max(1));
        let reread = self.uncached_bytes_per_node(cluster) as f64 * (iterations - 1.0);
        let shuffle = self.shuffle_bytes_per_node(cluster) as f64 * iterations;
        let output = input * self.output_ratio;
        // Read: the one-time input scan, cache-miss re-reads, and fetching
        // shuffle files (a fraction stays in the page cache).
        let read = input + reread + shuffle * 0.5;
        // Write: shuffle files plus the replicated application output.
        let write = shuffle * 0.5 + output * f64::from(self.output_replication.max(1));
        (read as u64, write as u64)
    }

    /// Per-node bytes that cross the JVM serde pipeline: the input is
    /// deserialised once (cached partitions stay deserialised), cache
    /// misses are re-deserialised, and every wide shuffle serialises on the
    /// map side and deserialises on the reduce side.
    pub fn serde_bytes_per_node(&self, cluster: &ClusterConfig) -> u64 {
        let input = self.input_bytes_per_node(cluster) as f64;
        let iterations = f64::from(self.iterations.max(1));
        let reread = self.uncached_bytes_per_node(cluster) as f64 * (iterations - 1.0);
        let shuffle = self.shuffle_bytes_per_node(cluster) as f64 * iterations * 2.0;
        ((input + reread + shuffle) * self.pipeline_factor.max(0.0)) as u64
    }
}

/// Builds the DAG-scheduler / task-launch overhead profile: one task per
/// partition per stage, each paying [`TASK_DISPATCH_INSTRUCTIONS`], plus
/// the block-manager's pointer-heavy walk over the cached partitions.
fn scheduler_profile(shape: &AppShape, cluster: &ClusterConfig) -> OpProfile {
    let stages_per_iteration = if shape.wide_shuffle_ratio > 0.0 {
        2.0
    } else {
        1.0
    };
    let stages = 1.0 + stages_per_iteration * f64::from(shape.iterations.max(1));
    let launches = f64::from(cluster.tasks_per_node) * stages;
    let instructions = launches * TASK_DISPATCH_INSTRUCTIONS;

    let cached_bytes =
        (shape.input_bytes_per_node(cluster) as f64 * shape.cached_fraction.clamp(0.0, 1.0)) as u64;

    let mut profile = OpProfile::new("spark-scheduler");
    profile.instructions = InstructionCounts {
        integer: (instructions * 0.42) as u64,
        floating_point: (instructions * 0.01) as u64,
        load: (instructions * 0.26) as u64,
        store: (instructions * 0.11) as u64,
        branch: (instructions * 0.20) as u64,
    };
    profile.memory_segments = vec![
        // Task descriptors, shuffle index files, block-manager maps.
        MemorySegment::new(AccessPattern::Random, 4 << 20, 0.45),
        // Cached RDD partitions are deserialised Java objects on the heap:
        // iterating them is a pointer chase over the old generation.
        MemorySegment::new(
            AccessPattern::PointerChase,
            (cached_bytes / 64).max(16 << 20),
            0.55,
        ),
    ];
    profile.branch = BranchBehavior::new(0.52, 0.86);
    profile.code_footprint_bytes = SPARK_CODE_FOOTPRINT_BYTES;
    profile.parallel_fraction = SPARK_PARALLEL_FRACTION;
    profile
}

/// Composes a per-node profile for a Spark application.
///
/// `user_profiles` are the motif profiles of the application's stages,
/// already scaled to the *per-node, all-iterations* share of the data.
/// The function merges them, adds the JVM serde overhead for the bytes
/// that really cross a serialisation boundary (input once, shuffle per
/// wide stage — not every operator hop, as Hadoop pays), adds the DAG
/// scheduler / block-manager overhead, and replaces motif-level disk
/// accounting with the application-level lineage model.
///
/// # Panics
///
/// Panics if `user_profiles` is empty.
pub(crate) fn per_node_app_profile(
    shape: &AppShape,
    cluster: &ClusterConfig,
    user_profiles: Vec<OpProfile>,
    name: &str,
) -> OpProfile {
    assert!(
        !user_profiles.is_empty(),
        "an application needs at least one user profile"
    );
    let user = OpProfile::merge_all(user_profiles).expect("non-empty");

    let serde_bytes = shape.serde_bytes_per_node(cluster);
    let jvm_overhead = jvm::jvm_overhead_profile(serde_bytes, shape.heap_bytes);
    let scheduler = scheduler_profile(shape, cluster);

    let mut profile = user.merge(&jvm_overhead).merge(&scheduler);
    profile.name = name.to_string();
    profile.code_footprint_bytes = profile.code_footprint_bytes.max(SPARK_CODE_FOOTPRINT_BYTES);
    profile.parallel_fraction = profile.parallel_fraction.max(SPARK_PARALLEL_FRACTION);

    let (fw_read, fw_write) = shape.disk_traffic_per_node(cluster);
    // The motif cost models account for reading their own input once;
    // replace motif-level disk accounting with the lineage-level model to
    // avoid double counting (same convention as the MapReduce model).
    profile.disk_read_bytes = fw_read;
    profile.disk_write_bytes = fw_write;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::mapreduce::{per_node_job_profile, JobShape};
    use dmpb_datagen::descriptor::{DataClass, DataDescriptor, Distribution};
    use dmpb_motifs::{MotifConfig, MotifKind};

    fn one_pass_shape() -> AppShape {
        AppShape {
            input_bytes: 100 << 30,
            iterations: 1,
            cached_fraction: 0.0,
            wide_shuffle_ratio: 1.0,
            output_ratio: 1.0,
            output_replication: 1,
            heap_bytes: 12 << 30,
            pipeline_factor: 1.0,
        }
    }

    fn iterative_shape() -> AppShape {
        AppShape {
            input_bytes: 100 << 30,
            iterations: 5,
            cached_fraction: 1.0,
            wide_shuffle_ratio: 0.01,
            output_ratio: 0.001,
            output_replication: 2,
            heap_bytes: 20 << 30,
            pipeline_factor: 0.3,
        }
    }

    fn cluster() -> ClusterConfig {
        ClusterConfig::five_node_westmere()
    }

    #[test]
    fn input_is_split_across_slave_nodes() {
        assert_eq!(one_pass_shape().input_bytes_per_node(&cluster()), 25 << 30);
    }

    #[test]
    fn cached_iterations_do_not_reread_the_input() {
        let (read, _) = iterative_shape().disk_traffic_per_node(&cluster());
        // Five iterations, but the input is read from HDFS exactly once.
        let input = iterative_shape().input_bytes_per_node(&cluster());
        assert!(read < input + input / 10, "read {read} vs input {input}");

        let uncached = AppShape {
            cached_fraction: 0.0,
            ..iterative_shape()
        };
        let (uncached_read, _) = uncached.disk_traffic_per_node(&cluster());
        assert!(uncached_read > 4 * input, "uncached read {uncached_read}");
    }

    #[test]
    fn serde_is_paid_only_at_wide_boundaries() {
        // A narrow-only iterative app deserialises the input once.
        let narrow = AppShape {
            wide_shuffle_ratio: 0.0,
            ..iterative_shape()
        };
        assert_eq!(
            narrow.serde_bytes_per_node(&cluster()),
            (narrow.input_bytes_per_node(&cluster()) as f64 * narrow.pipeline_factor) as u64
        );
        // Adding a wide stage per iteration adds serde on both sides.
        let wide = AppShape {
            wide_shuffle_ratio: 0.5,
            ..iterative_shape()
        };
        assert!(
            wide.serde_bytes_per_node(&cluster()) > 2 * narrow.serde_bytes_per_node(&cluster())
        );
    }

    #[test]
    fn app_profile_contains_user_jvm_and_scheduler_work() {
        let data = DataDescriptor::new(DataClass::Text, 25 << 30, 100, 0.0, Distribution::Uniform);
        let sort = MotifKind::QuickSort.cost_profile(&data, &MotifConfig::big_data_default());
        let user_instructions = sort.total_instructions();
        let app = per_node_app_profile(&one_pass_shape(), &cluster(), vec![sort], "spark-terasort");
        assert!(
            app.total_instructions() > user_instructions,
            "framework overhead missing"
        );
        assert_eq!(app.name, "spark-terasort");
        assert!(app.code_footprint_bytes >= SPARK_CODE_FOOTPRINT_BYTES);
        assert!(app.disk_read_bytes > 0 && app.disk_write_bytes > 0);
        assert!(app
            .memory_segments
            .iter()
            .any(|s| matches!(s.pattern, AccessPattern::PointerChase)));
    }

    #[test]
    fn spark_moves_fewer_bytes_through_serde_than_hadoop_for_the_same_job() {
        // Same 100 GB sort: Hadoop pays the writable pipeline on input and
        // shuffle of every hop; Spark pipelines narrow stages and caches,
        // so the equivalent iterative aggregation touches the disk and the
        // serde path far less.
        let data =
            DataDescriptor::new(DataClass::Vector, 25 << 30, 400, 0.9, Distribution::Uniform);
        let motif =
            MotifKind::DistanceCalculation.cost_profile(&data, &MotifConfig::big_data_default());
        let hadoop_shape = JobShape {
            input_bytes: 100 << 30,
            shuffle_ratio: 0.01,
            output_ratio: 0.001,
            output_replication: 2,
            heap_bytes: 12 << 30,
            pipeline_factor: 0.3,
        };
        let hadoop = per_node_job_profile(&hadoop_shape, &cluster(), vec![motif.clone()], "h");
        let spark = per_node_app_profile(&iterative_shape(), &cluster(), vec![motif], "s");
        // One Spark iteration's framework disk traffic is far below one
        // Hadoop job's (no per-job output materialisation, cached input).
        let per_iter_read = spark.disk_read_bytes / 5;
        assert!(
            per_iter_read < hadoop.disk_read_bytes,
            "{per_iter_read} vs {}",
            hadoop.disk_read_bytes
        );
        // And one Spark iteration's serde bytes are far below one Hadoop
        // job's writable-pipeline bytes: the cached RDD is deserialised
        // once, so later iterations pay serde only on the tiny shuffle.
        let spark_serde_per_iter = iterative_shape().serde_bytes_per_node(&cluster()) / 5;
        let hadoop_piped = (hadoop_shape.input_bytes_per_node(&cluster()) as f64
            * (1.0 + hadoop_shape.shuffle_ratio)
            * hadoop_shape.pipeline_factor) as u64;
        assert!(
            spark_serde_per_iter < hadoop_piped / 2,
            "{spark_serde_per_iter} vs {hadoop_piped}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one user profile")]
    fn empty_user_profiles_are_rejected() {
        let _ = per_node_app_profile(&one_pass_shape(), &cluster(), Vec::new(), "x");
    }
}
