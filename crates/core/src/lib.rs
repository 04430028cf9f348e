//! # dmpb-core — the data motif-based proxy benchmark generating methodology
//!
//! This crate is the paper's primary contribution: given a big data or AI
//! workload, generate a **proxy benchmark** — a DAG-like combination of
//! data motifs with per-motif weights and parameters — that runs orders of
//! magnitude faster while matching the original workload's system-level and
//! micro-architectural metric vector to within a deviation bound.
//!
//! The pipeline mirrors Fig. 1 / Fig. 3 of the paper:
//!
//! 1. **Decomposing** ([`decompose`]) — profile the workload, correlate its
//!    hotspots to motif classes and select the concrete motif
//!    implementations, with initial weights set from execution ratios
//!    (Table III; e.g. TeraSort = 70 % sort, 10 % sampling, 20 % graph).
//! 2. **Feature selecting** ([`features`], [`parameters`]) — choose the
//!    metrics to match (Table V) and initialise the parameter vector **P**
//!    (Table I: dataSize, chunkSize, numTasks, weight, batchSize, …) from
//!    the original workload's configuration, scaling the input data down.
//! 3. **Adjusting stage** ([`impact`], [`dtree`], [`autotune`]) — learn the
//!    impact of each parameter on each metric by one-parameter-at-a-time
//!    perturbation, train a decision tree on those impacts, and use it to
//!    pick which parameter to adjust when a metric deviates.
//! 4. **Feedback stage** ([`autotune`]) — re-measure the tuned proxy; if
//!    every tracked metric deviates by less than the bound (15 % by
//!    default) the proxy is *qualified*, otherwise the offending metrics
//!    are fed back to the adjusting stage.
//!
//! The result is a [`proxy::ProxyBenchmark`] (see [`generator`] for the
//! end-to-end driver and [`suite`] for the eight-proxy suite: the five
//! proxies of the paper's evaluation plus the three Spark stack twins),
//! which can be measured under the shared performance-model instrument or
//! executed for real on generated sample data: the workload's declared
//! fork/join topology becomes a branching [`dag::ProxyDag`], and the
//! serial [`executor::DagExecutor`] runs its motif kernels in topological
//! order through the motif-kernel registry, with per-edge derived seeds
//! keeping digests byte-identical across chunk sizes and runs.
//!
//! [`runner`] holds the per-cell building blocks the scenario campaign
//! engine (`dmpb-scenario`) drives — the one path a proxy is tuned and
//! executed by: a [`TuningCache`] that memoizes tunes across cells, and
//! [`runner::ProxyRun::execute`], which runs a tuned proxy's DAG on a
//! cell's sample size and seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod autotune;
pub mod dag;
pub mod decompose;
pub mod dtree;
pub mod executor;
pub mod features;
pub mod fnv;
pub mod generator;
pub mod impact;
pub mod parameters;
pub mod proxy;
pub mod runner;
pub mod suite;

pub use executor::{DagExecution, DagExecutor};
pub use generator::{GenerationReport, ProxyGenerator};
pub use parameters::ProxyParameters;
pub use proxy::ProxyBenchmark;
pub use runner::TuningCache;
pub use suite::ProxySuite;
