//! # dmpb-scenario — the scenario campaign engine
//!
//! The proxy-benchmark methodology pays off when it is *swept*: workloads
//! × clusters × microarchitectures × data scales × seeds, the way the
//! BigDataBench line of work positions motif proxies as a scalable
//! methodology.  This crate turns such experiments into data:
//!
//! 1. **A declarative scenario DSL** (`dsl`) — a hand-rolled
//!    TOML-subset parser (no dependencies, in the `crates/compat` spirit)
//!    that names axes over the existing registries: workloads
//!    ([`WorkloadKind`](dmpb_workloads::WorkloadKind)'s `FromStr`),
//!    clusters ([`ClusterConfig::by_name`](dmpb_workloads::ClusterConfig::by_name)),
//!    architectures ([`ArchProfile::by_name`](dmpb_perfmodel::arch::ArchProfile::by_name)),
//!    sample sizes and seeds, plus include/exclude filters.
//! 2. **Deterministic expansion** (`matrix`) — the axes expand to a
//!    cartesian campaign matrix in a fixed order with per-cell seeds
//!    derived from the base seed and the workload's position in
//!    [`WorkloadKind::ALL`](dmpb_workloads::WorkloadKind::ALL), so the
//!    default axes reproduce the paper's eight-proxy suite byte for
//!    byte.
//! 3. **A content-addressed result store** (`store`) — each cell is
//!    fingerprinted (workload + stack + full cluster/tuning-cluster
//!    configuration + scale + seed + [`CODE_MODEL_VERSION`]) with the
//!    workspace FNV hasher; results persist as JSON lines in a store
//!    directory (`segment-<k>.jsonl` per `fingerprint % N` shard, plus
//!    a sidecar index for replay-free warm opens) — and re-runs skip
//!    every already-computed cell, byte-identically.
//! 4. **A batch campaign runner** ([`runner`]) — the one path a proxy is
//!    tuned and executed by.  Cells are the only unit of concurrency:
//!    a campaign runs up to its width of cells at once under one
//!    [`std::thread::scope`], whose threads end with the campaign, and
//!    runs each proxy DAG serially inside its cell, and one
//!    [`TuningCache`](dmpb_core::TuningCache) keyed on the tuning
//!    cluster means a runner tunes each (workload, tuning-cluster)
//!    pair once no matter how many cells — or campaigns — sweep it.
//!
//! The paper-table binaries (`table6`, `fig4`, `fig10`, `table3`) are
//! thin renderers over the built-in scenarios in [`builtin`]; the
//! `campaign` binary runs any scenario file, diffs against stored
//! baselines and gates on accuracy regressions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builtin;
pub(crate) mod dsl;
#[cfg(test)]
mod fuzz;
pub(crate) mod matrix;
pub mod runner;
pub(crate) mod store;

pub use dsl::{ParseError, Scenario};
pub use matrix::{CampaignCell, CellFilter, PopulationCell, PopulationPlan};
pub use runner::{
    CampaignDiff, CampaignError, CampaignReport, CampaignRunner, CellObserver, CellOutcome,
};
pub use store::{
    compact_sharded_store, read_records, read_store_records, segment_path, shard_for, CellResult,
    CompactionStats, PopulationResult, ResultStore, StoreStats, TornTail, DEFAULT_STORE_SHARDS,
    SIDECAR_FILE,
};

/// Version of the modelled methodology a stored result was computed
/// under.  Part of every cell fingerprint: bump it whenever a change to
/// the performance model, tuner, kernels or seed derivation would make
/// previously stored results stale — old entries then simply never hit.
/// History: 2 — PR 8's granule-streamed kernels changed every kernel
/// checksum (the reduce is an exact integer monoid over per-granule
/// outcomes instead of one sequential fold).  3 — PR 10's population
/// fingerprint segment: every cell address gains a `|population:…`
/// segment (`-` for named workloads, `spec/rank/member` for synthetic
/// population members) so synthetic cells can never shadow, or be
/// served, a named workload's stored results.
pub const CODE_MODEL_VERSION: u32 = 3;
