//! # dmpb-population — stochastic workload populations
//!
//! The paper's central claim is that *any* big-data or AI workload
//! decomposes into the eight data motifs — yet the repro's campaign
//! engine only ever sweeps the eight hand-ported paper workloads.  This
//! crate breaks out of that set: a [`PopulationGenerator`] synthesizes
//! *novel* workloads as random-but-seeded motif DAGs, so a campaign can
//! sweep hundreds of distinct workload shapes from one `u64` seed.
//!
//! Each synthesized member is a [`SyntheticWorkload`] implementing the
//! existing `Workload` / `dag_plan()` contract, so it flows through the
//! whole pipeline unchanged: decomposition adopts its sampled fork/join
//! topology (the plan is built from exactly the sampled motif set, so
//! `covers_exactly` always holds), proxy generation tunes it like any
//! named workload, and the `DagExecutor` runs it like any other proxy
//! DAG.
//!
//! A member is sampled from a [`PopulationSpec`]:
//!
//! * **Topology** from a parameterized [`TopologyFamily`] — chain,
//!   fork-join, diamond, or layered random-acyclic graphs built over
//!   `DagPlanBuilder` (or `mixed`, which draws a family per member);
//! * **Kernel mix** — a distinct subset of [`MotifKind`]s (big-data or
//!   AI pool, chosen per member by `ai_fraction`) with weighted
//!   class ratios;
//! * **Data shape** — total bytes from a [`SizeDistribution`] (uniform,
//!   log-uniform or bounded zipf), plus sampled sparsity, element size,
//!   data class and value distribution.
//!
//! [`PopulationSpec::fit_to_paper`] estimates the family parameters from
//! the eight known workloads' configurations, so fitted populations stay
//! in-distribution with the paper's suite.
//!
//! Determinism is the contract everything downstream leans on: member
//! `rank` is synthesized from `derive_seed(base_seed, rank)` with a
//! fixed draw order, so one seed byte-reproduces the entire population —
//! and a campaign's duration budget truncates the population to a rank
//! prefix using the members' *modeled* cost, never wall-clock, keeping
//! truncation identical across machines, worker counts and store warmth.
//!
//! [`MotifKind`]: dmpb_motifs::MotifKind

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod spec;
pub(crate) mod synth;

pub use spec::{PopulationSpec, SizeDistribution, TopologyFamily, DEFAULT_POPULATION_SEED};
pub use synth::{BudgetedPopulation, PopulationGenerator, SyntheticWorkload};
