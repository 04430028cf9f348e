//! # dmpb-perfmodel — architectural performance-model substrate
//!
//! The paper measures both the original workloads and the generated proxy
//! benchmarks with Linux `perf` reading the hardware performance monitoring
//! counters (PMCs) of two Intel Xeon machines — a Westmere E5645 cluster
//! (Table IV) and a Haswell E5-2620 v3 cluster (Section IV-C).  Neither the
//! machines nor the counters exist in this reproduction, so this crate is
//! the substitute instrument: a deterministic architectural performance
//! model that produces the full metric vector of Table V for any workload
//! expressed as an [`profile::OpProfile`].
//!
//! The model has the following parts:
//!
//! * [`arch`] — [`arch::ArchProfile`] descriptions of the two processors
//!   and [`arch::NodeConfig`]s of the evaluation clusters;
//! * [`cache`] / `hierarchy` — set-associative LRU caches combined into
//!   the L1D / L2 / L3 hierarchy, which the L1I's misses enter at L2;
//! * `branch` — the gshare branch predictor;
//! * [`access`] — memory access-pattern descriptors and the sampled
//!   synthetic address streams derived from them;
//! * [`profile`] — [`profile::OpProfile`], the workload-side interface:
//!   dynamic instruction counts, memory segments, branch behaviour,
//!   code footprint and disk I/O volume;
//! * `pipeline` — a CPI model that folds cache and branch penalties into
//!   IPC;
//! * [`engine`] — [`engine::ExecutionEngine`], which runs an `OpProfile`
//!   through all of the above and emits a [`dmpb_metrics::MetricVector`]:
//!   `run` is `derive(&simulate(profile), profile, threads)`, the cache
//!   and branch simulations followed by the analytic pipeline, runtime
//!   and bandwidth arithmetic;
//! * `memo` — [`memo::SimMemo`], one tune's memo of simulation
//!   outcomes keyed on exactly the inputs each simulator reads, so a
//!   probe that repeats an earlier probe's cache or branch inputs only
//!   redoes the arithmetic, with bit-identical results, plus the L1I
//!   fetch trace of each code footprint.
//!
//! Both the "real" workload models (`dmpb-workloads`) and the proxy
//! benchmarks (`dmpb-core`) are measured by this same engine, mirroring the
//! paper's use of one instrument on both sides of the comparison.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod arch;
pub(crate) mod branch;
pub mod cache;
pub mod engine;
pub(crate) mod hierarchy;
pub(crate) mod memo;
pub(crate) mod pipeline;
pub mod profile;

pub use arch::{ArchProfile, NodeConfig};
pub use engine::ExecutionEngine;
pub use memo::SimMemo;
pub use profile::{InstructionCounts, MemorySegment, OpProfile};
