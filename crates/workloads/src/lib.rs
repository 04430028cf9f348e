//! # dmpb-workloads — models of the original big data and AI workloads
//!
//! The paper evaluates its proxy benchmarks against five real workloads
//! from BigDataBench 4.0 running on a Hadoop / TensorFlow cluster; the
//! companion data-motif characterisation paper profiles the same motifs on
//! **Spark** as well and shows the software stack dominates behaviour, so
//! this crate models the paper's five plus the three Spark twins:
//!
//! | Workload | Pattern | Input |
//! |---|---|---|
//! | Hadoop TeraSort | I/O intensive | 100 GB gensort text |
//! | Hadoop K-means | CPU + memory intensive | 100 GB sparse vectors (90 % sparse) |
//! | Hadoop PageRank | CPU + I/O intensive | 2^26-vertex graph |
//! | TensorFlow AlexNet | CPU + memory intensive | CIFAR-10, batch 128, 10 000 steps |
//! | TensorFlow Inception-V3 | CPU intensive | ILSVRC2012, batch 32, 1 000 steps |
//! | Spark TeraSort | I/O intensive | 100 GB gensort text |
//! | Spark K-means | CPU + memory intensive | 100 GB sparse vectors, 5 cached iterations |
//! | Spark PageRank | CPU + I/O intensive | 2^26-vertex graph, 5 cached iterations |
//!
//! Neither Hadoop, Spark, TensorFlow nor the cluster exist in this
//! reproduction, so this crate models the originals: each workload
//! composes the motif cost models of `dmpb-motifs` (the same ones the
//! proxies are built from) with **software-stack overhead models** — the
//! JVM / MapReduce runtime ([`framework::jvm`], [`framework::mapreduce`]),
//! the Spark RDD/DAG runtime with in-memory caching
//! ([`framework::spark`]), and the TensorFlow graph executor with its
//! parameter-server step loop ([`framework::tensorflow`]) — plus the
//! HDFS-style disk traffic and the cluster topology (`cluster`).  The
//! result of a workload model is a per-node [`dmpb_perfmodel::OpProfile`],
//! measured by the same [`dmpb_perfmodel::ExecutionEngine`] that measures
//! the proxies.
//!
//! The [`workload::Workload`] trait is the entry point;
//! [`workload::all_workloads`] returns the eight workloads, and each
//! Hadoop workload's [`workload::WorkloadKind::stack_twin`] names the
//! Spark variant that shares its motif DAG and input.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod cluster;
pub mod framework;
pub mod hadoop;
pub mod spark;
pub mod tensorflow;
pub mod workload;

pub use cluster::ClusterConfig;
pub use workload::{all_workloads, workload_by_kind, Framework, Workload, WorkloadKind};
