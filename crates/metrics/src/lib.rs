//! # dmpb-metrics — metric vectors, accuracy scoring and reporting
//!
//! The proxy benchmark methodology evaluates a candidate proxy by comparing
//! its **metric vector M** against the metric vector of the original
//! workload (Table V of the paper):
//!
//! * processor performance — IPC, MIPS;
//! * instruction mix — load / store / branch / floating-point / integer ratios;
//! * branch prediction — branch miss-prediction ratio;
//! * cache behaviour — L1I / L1D / L2 / L3 hit ratios;
//! * memory bandwidth — read / write / total;
//! * disk I/O behaviour — disk I/O bandwidth;
//! * runtime.
//!
//! The per-metric accuracy is Equation 3 of the paper:
//! `Accuracy(ValR, ValP) = 1 - |ValP - ValR| / ValR`, and a proxy is
//! *qualified* when every tracked metric deviates by less than the
//! configured bound (15 % by default).
//!
//! This crate is dependency-free so every other crate in the workspace can
//! use it: the performance-model substrate produces [`MetricVector`]s, the
//! auto-tuner consumes [`accuracy::AccuracyReport`]s, and the experiment
//! harness renders them with [`table`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accuracy;
pub mod histogram;
pub(crate) mod instruction_mix;
pub mod json;
pub mod table;
pub(crate) mod vector;

pub use accuracy::{accuracy, AccuracyReport};
pub use histogram::{HistogramSnapshot, LatencyHistogram, LATENCY_BUCKET_BOUNDS_NS};
pub use instruction_mix::InstructionMix;
pub use vector::{MetricId, MetricVector};
