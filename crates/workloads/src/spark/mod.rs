//! Models of the three Spark workloads: TeraSort, K-means and PageRank.
//!
//! Each Spark workload reuses its Hadoop twin's motif DAG decomposition
//! (Table III: the hotspot functions are the same algorithms) and the same
//! input data set, but composes the motifs with the Spark stack model of
//! [`crate::framework::spark`] instead of the MapReduce one — in-memory
//! cached iterations for K-means and PageRank rather than per-iteration
//! HDFS materialisation, and serde paid only at wide-dependency shuffles.
//! The pairing gives the suite a direct Hadoop-vs-Spark comparison on
//! identical motifs and inputs (see
//! [`crate::workload::WorkloadKind::stack_twin`]).

pub(crate) mod kmeans;
pub(crate) mod pagerank;
pub(crate) mod terasort;

pub use kmeans::SparkKMeans;
pub use pagerank::SparkPageRank;
pub use terasort::SparkTeraSort;
