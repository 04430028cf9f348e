//! # dmpb-motifs — the eight data motifs
//!
//! The paper builds its proxy benchmarks out of **data motifs**: the most
//! time-consuming units of computation performed on initial or intermediate
//! data, identified in earlier work as eight classes — Matrix, Sampling,
//! Transform, Graph, Logic, Set, Sort and Statistics.  Each class has
//! several concrete light-weight implementations (Fig. 2 of the paper),
//! split into **big-data motif implementations** (quick/merge sort,
//! random/interval sampling, set algebra, graph construction and traversal,
//! MD5 and stream encryption, FFT/IFFT/DCT, distance computation and matrix
//! multiplication, count/probability/min-max statistics) and **AI data
//! motif implementations** (fully connected layers, element-wise ops and
//! activations, max/average pooling, convolution, dropout, batch and cosine
//! normalisation, ReLU, reductions).
//!
//! Every implementation in this crate has two faces:
//!
//! * a **real kernel** — a plain Rust function that actually computes
//!   (sorts, convolves, hashes…), run by the proxies' DAG executor, the
//!   examples and the correctness tests; and
//! * a **cost model** — [`MotifKind::cost_profile`], which maps an input
//!   [`dmpb_datagen::DataDescriptor`] and a [`MotifConfig`] to the
//!   [`dmpb_perfmodel::OpProfile`] consumed by the shared performance-model
//!   instrument.  This is how motifs are measured at the paper's scale
//!   (100 GB inputs) without materialising the data.
//!
//! Both faces are unified behind the [`kernel::MotifKernel`] trait: the
//! [`kernel::MotifRegistry`] holds one kernel object per [`MotifKind`],
//! exposing `cost_profile(...)` and `execute(n, seed)`.  Downstream crates
//! dispatch through the registry instead of per-kind `match` blocks, and
//! workload models declare fork/join structure with a
//! [`topology::DagPlan`].
//!
//! Kernels never spawn threads: campaign cells are the only unit of
//! concurrency, and [`workers::hardware_parallelism`] is all this crate
//! offers a caller that sizes them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ai;
pub mod bigdata;
pub mod class;
pub mod config;
pub mod cost;
pub mod kernel;
pub mod profile;
pub mod topology;
pub mod workers;

pub use class::{MotifClass, MotifKind};
pub use config::MotifConfig;
pub use kernel::{GranuleCtx, MotifKernel, MotifRegistry};
pub use profile::{KernelProfile, KernelProfiler};
pub use topology::{DagPlan, PlanEdge};
