//! Deterministic expansion of a [`Scenario`] into its campaign matrix.
//!
//! The axes expand as nested loops in a fixed order — clusters ▸
//! architectures ▸ elements ▸ seeds ▸ workloads (workloads innermost, so
//! each suite slice is contiguous) — and the include/exclude filters are
//! applied during expansion.  Expansion is a pure function of the
//! scenario: expanding the same scenario twice yields the same cells in
//! the same order with the same fingerprints, which is what lets the
//! content-addressed [`ResultStore`](crate::store::ResultStore) serve
//! re-runs.
//!
//! Each cell's sample-execution seed is *derived*, not taken verbatim:
//! `derive_seed(base_seed, workload's position in WorkloadKind::ALL)`.
//! The derivation depends only on the workload, never on which other
//! workloads the scenario sweeps, so every campaign over the default
//! seed ([`DEFAULT_BASE_SEED`](dmpb_core::runner::DEFAULT_BASE_SEED))
//! gives a workload the same sample as the paper-tables scenario.

use dmpb_core::fnv::hash_bytes;
use dmpb_core::runner::fingerprint_cluster;
use dmpb_datagen::rng::derive_seed;
use dmpb_perfmodel::arch::ArchProfile;
use dmpb_population::{BudgetedPopulation, PopulationGenerator, PopulationSpec};
use dmpb_workloads::{ClusterConfig, Workload, WorkloadKind};

use crate::dsl::{Scenario, DEFAULT_ARCHITECTURE};

/// A predicate over campaign cells: every named axis must match.  Used
/// for the scenario DSL's `[[include]]` / `[[exclude]]` tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellFilter {
    /// Match cells of this workload.
    pub workload: Option<WorkloadKind>,
    /// Match cells on this cluster (slug).
    pub cluster: Option<String>,
    /// Match cells with this architecture override (`"default"` matches
    /// cells without an override).
    pub architecture: Option<String>,
    /// Match cells with this sample size.
    pub elements: Option<usize>,
    /// Match cells derived from this base seed.
    pub seed: Option<u64>,
}

impl CellFilter {
    /// Whether `cell` satisfies every axis this filter names.
    pub(crate) fn matches(&self, cell: &CampaignCell) -> bool {
        self.workload.map_or(true, |w| w == cell.kind)
            && self
                .cluster
                .as_ref()
                .map_or(true, |c| *c == cell.cluster_name)
            && self
                .architecture
                .as_ref()
                .map_or(true, |a| *a == cell.architecture)
            && self.elements.map_or(true, |e| e == cell.elements)
            && self.seed.map_or(true, |s| s == cell.base_seed)
    }
}

/// The synthetic-population identity of a campaign cell, when the cell
/// runs a [`SyntheticWorkload`](dmpb_population::SyntheticWorkload)
/// instead of a named paper workload.
///
/// Everything that determines *which* synthetic workload runs is here:
/// the generative spec, the member's rank within the population, and the
/// member's own content hash (over its full `describe_json()`, i.e. the
/// sampled topology, kernel mix and data shape).  All three feed the
/// cell [fingerprint](CampaignCell::fingerprint), so a synthetic cell
/// can never collide with a named workload's address — or with a member
/// of a differently-parameterized population.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationCell {
    /// The generative spec the member was sampled from.
    pub spec: PopulationSpec,
    /// The member's rank within the population (`0..size`).
    pub rank: u32,
    /// FNV hash of the member's `describe_json()` — its full sampled
    /// identity.
    pub member_hash: u64,
    /// The member's concrete topology-family slug (e.g. `"fork-join"`).
    pub family: String,
    /// The member's display label (e.g. `"synthetic-fork-join-0007"`).
    pub label: String,
}

/// How a scenario's population expands after duration-budget
/// truncation — telemetry attached to the campaign report so truncation
/// is visible, not silent.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationPlan {
    /// The spec as written in the scenario.
    pub spec: PopulationSpec,
    /// Axis combinations (clusters × architectures × elements × seeds)
    /// each member is swept across.
    pub combos: usize,
    /// The population size before truncation.
    pub full_size: u32,
    /// Members kept per axis combination (a rank prefix).
    pub planned: u32,
    /// The per-combination wall budget applied, if any (the scenario's
    /// campaign-wide budget divided by `combos`).
    pub budget_secs: Option<f64>,
    /// Summed modeled cost of the kept members, in seconds.
    pub modeled_cost_secs: f64,
}

impl PopulationPlan {
    /// Whether the budget dropped any member.
    pub fn truncated(&self) -> bool {
        self.planned < self.full_size
    }
}

/// One point of the campaign matrix: a (workload, cluster, architecture,
/// scale, seed) combination, plus the tuning-cluster context it executes
/// under.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Position in the expanded (post-filter) matrix.
    pub index: usize,
    /// The workload of this cell.
    pub kind: WorkloadKind,
    /// Cluster slug (resolves via [`ClusterConfig::by_name`]).
    pub cluster_name: String,
    /// Architecture override slug, or `"default"` for the cluster's own
    /// processor.
    pub architecture: String,
    /// Sample-execution size (the data-scale axis).
    pub elements: usize,
    /// The base seed this cell's seed was derived from.
    pub base_seed: u64,
    /// The derived per-cell sample-execution seed.
    pub seed: u64,
    /// Tuning-cluster slug, if the scenario pins one; `None` tunes on the
    /// cell's own (architecture-overridden) cluster.
    pub tuning_cluster_name: Option<String>,
    /// Synthetic-population identity, if this cell runs a population
    /// member rather than the named workload itself ([`Self::kind`] is
    /// then the member's *carrier* — the nearest named workload by motif
    /// composition).
    pub population: Option<PopulationCell>,
}

impl CampaignCell {
    /// The cell's measurement cluster, with the architecture override
    /// applied.
    ///
    /// # Panics
    ///
    /// Panics if the cell names an unknown cluster or architecture; cells
    /// produced by [`Scenario::expand`] from a parsed scenario are always
    /// valid.
    pub(crate) fn cluster(&self) -> ClusterConfig {
        let mut cluster = ClusterConfig::by_name(&self.cluster_name)
            .unwrap_or_else(|| panic!("unknown cluster `{}`", self.cluster_name));
        if self.architecture != DEFAULT_ARCHITECTURE {
            cluster.node.arch = ArchProfile::by_name(&self.architecture)
                .unwrap_or_else(|| panic!("unknown architecture `{}`", self.architecture));
        }
        cluster
    }

    /// The cluster the cell's proxy is tuned on: the pinned tuning
    /// cluster if the scenario names one, otherwise `Self::cluster`.
    pub fn tuning_cluster(&self) -> ClusterConfig {
        match &self.tuning_cluster_name {
            Some(name) => ClusterConfig::by_name(name)
                .unwrap_or_else(|| panic!("unknown tuning cluster `{name}`")),
            None => self.cluster(),
        }
    }

    /// The content address of this cell: an FNV fingerprint over
    /// everything that determines its result — the code-model version,
    /// the workload and its stack, the full measurement- and
    /// tuning-cluster configurations, the sample size, the derived seed,
    /// and (for population members) the full synthetic identity:
    /// population-spec hash, member rank and member content hash.  Named
    /// cells carry a literal `population:-` segment, so a synthetic cell
    /// whose carrier matches a named workload still addresses a disjoint
    /// result.  Campaign identity (scenario name, cell index, filters)
    /// is deliberately *not* part of the address, so different scenarios
    /// share results for identical cells.
    pub fn fingerprint(&self, version: u32) -> u64 {
        let population = match &self.population {
            Some(p) => format!(
                "{:016x}/{}/{:016x}",
                p.spec.spec_hash(),
                p.rank,
                p.member_hash
            ),
            None => "-".to_string(),
        };
        hash_bytes(
            format!(
                "campaign-cell|v{}|{}|{}|cluster:{:016x}|tuning:{:016x}|elements:{}|seed:{:016x}|population:{}",
                version,
                self.kind.short_name(),
                self.kind.framework(),
                fingerprint_cluster(&self.cluster()),
                fingerprint_cluster(&self.tuning_cluster()),
                self.elements,
                self.seed,
                population,
            )
            .as_bytes(),
        )
    }
}

impl Scenario {
    /// Expands the scenario into its deterministic campaign matrix.
    ///
    /// See the `matrix` module docs for the loop order and
    /// determinism contract.  Cells dropped by the include/exclude
    /// filters do not appear (and do not consume indices).
    pub fn expand(&self) -> Vec<CampaignCell> {
        let population = self.budgeted_population();
        let mut cells = Vec::new();
        for cluster in &self.clusters {
            for architecture in &self.architectures {
                for &elements in &self.elements {
                    for &base_seed in &self.seeds {
                        for &kind in &self.workloads {
                            let position = WorkloadKind::ALL
                                .iter()
                                .position(|&k| k == kind)
                                .expect("every WorkloadKind appears in ALL")
                                as u64;
                            let cell = CampaignCell {
                                index: cells.len(),
                                kind,
                                cluster_name: cluster.clone(),
                                architecture: architecture.clone(),
                                elements,
                                base_seed,
                                seed: derive_seed(base_seed, position),
                                tuning_cluster_name: self.tuning_cluster.clone(),
                                population: None,
                            };
                            if self.admits(&cell) {
                                cells.push(cell);
                            }
                        }
                        if let (Some(budgeted), Some(spec)) = (&population, self.population) {
                            for member in &budgeted.members {
                                // Seed streams `0..ALL.len()` belong to the
                                // named workloads; population members get
                                // the streams after them, keyed by rank.
                                let stream =
                                    WorkloadKind::ALL.len() as u64 + u64::from(member.rank());
                                let cell = CampaignCell {
                                    index: cells.len(),
                                    kind: member.kind(),
                                    cluster_name: cluster.clone(),
                                    architecture: architecture.clone(),
                                    elements,
                                    base_seed,
                                    seed: derive_seed(base_seed, stream),
                                    tuning_cluster_name: self.tuning_cluster.clone(),
                                    population: Some(PopulationCell {
                                        spec,
                                        rank: member.rank(),
                                        member_hash: member.member_hash(),
                                        family: member.family().name().to_string(),
                                        label: member.label().to_string(),
                                    }),
                                };
                                if self.admits(&cell) {
                                    cells.push(cell);
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }

    /// The scenario's population after per-combination budget scaling:
    /// the campaign-wide `duration-budget-secs` is split evenly across
    /// the axis combinations each member is swept over, then the
    /// population is truncated to the rank prefix whose summed *modeled*
    /// cost fits.  `None` when the scenario has no `[population]`.
    fn budgeted_population(&self) -> Option<BudgetedPopulation> {
        let spec = self.population?;
        let combos = self.axis_combinations();
        let mut effective = spec;
        effective.duration_budget_secs = spec.duration_budget_secs.map(|b| b / combos as f64);
        let generator = PopulationGenerator::new(effective)
            .expect("scenario population spec is validated at parse time");
        Some(generator.generate_budgeted())
    }

    /// How the scenario's population expands — spec, axis combinations,
    /// per-combination budget and the truncation it produced.  `None`
    /// when the scenario has no `[population]`.
    pub fn population_plan(&self) -> Option<PopulationPlan> {
        let spec = self.population?;
        let budgeted = self.budgeted_population()?;
        Some(PopulationPlan {
            spec,
            combos: self.axis_combinations(),
            full_size: budgeted.full_size,
            planned: budgeted.members.len() as u32,
            budget_secs: budgeted.budget_secs,
            modeled_cost_secs: budgeted.modeled_cost_secs,
        })
    }

    /// Axis combinations each workload (named or synthetic) is swept
    /// over: clusters × architectures × elements × seeds.
    fn axis_combinations(&self) -> usize {
        (self.clusters.len() * self.architectures.len() * self.elements.len() * self.seeds.len())
            .max(1)
    }

    /// Whether the include/exclude filters keep `cell`.
    pub(crate) fn admits(&self, cell: &CampaignCell) -> bool {
        if self.exclude.iter().any(|f| f.matches(cell)) {
            return false;
        }
        self.include.is_empty() || self.include.iter().any(|f| f.matches(cell))
    }

    /// Number of cells before filtering (the raw cartesian product,
    /// including budget-truncated population members).
    pub fn matrix_size(&self) -> usize {
        let per_combo =
            self.workloads.len() + self.budgeted_population().map_or(0, |b| b.members.len());
        per_combo * self.axis_combinations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_core::runner::{DEFAULT_BASE_SEED, SAMPLE_ELEMENTS};

    #[test]
    fn default_scenario_expands_to_one_suite_in_all_order() {
        let cells = Scenario::with_defaults("d").expand();
        assert_eq!(cells.len(), 8);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.kind, WorkloadKind::ALL[i]);
            assert_eq!(cell.elements, SAMPLE_ELEMENTS);
            assert_eq!(cell.base_seed, DEFAULT_BASE_SEED);
            assert_eq!(cell.seed, derive_seed(DEFAULT_BASE_SEED, i as u64));
            assert_eq!(cell.cluster(), ClusterConfig::five_node_westmere());
            assert_eq!(cell.tuning_cluster(), cell.cluster());
        }
    }

    #[test]
    fn expansion_order_is_clusters_archs_elements_seeds_workloads() {
        let mut s = Scenario::with_defaults("order");
        s.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::KMeans];
        s.clusters = vec![
            "five-node-westmere".to_string(),
            "three-node-haswell".to_string(),
        ];
        s.seeds = vec![1, 2];
        let cells = s.expand();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].cluster_name, "five-node-westmere");
        assert_eq!(cells[0].base_seed, 1);
        assert_eq!(cells[0].kind, WorkloadKind::TeraSort);
        assert_eq!(cells[1].kind, WorkloadKind::KMeans);
        assert_eq!(cells[2].base_seed, 2);
        assert_eq!(cells[4].cluster_name, "three-node-haswell");
    }

    #[test]
    fn architecture_override_swaps_the_processor_only() {
        let mut s = Scenario::with_defaults("arch");
        s.clusters = vec!["three-node-westmere-64gb".to_string()];
        s.architectures = vec!["haswell".to_string()];
        let cell = &s.expand()[0];
        let cluster = cell.cluster();
        let legacy = ClusterConfig::three_node_haswell();
        assert_eq!(cluster.node.arch, legacy.node.arch);
        assert_eq!(cluster.node.memory_gb, legacy.node.memory_gb);
        assert_eq!(cluster.total_nodes, legacy.total_nodes);
    }

    #[test]
    fn filters_drop_and_keep_cells() {
        let mut s = Scenario::with_defaults("filters");
        s.exclude.push(CellFilter {
            workload: Some(WorkloadKind::TeraSort),
            ..CellFilter::default()
        });
        let cells = s.expand();
        assert_eq!(cells.len(), 7);
        assert!(cells.iter().all(|c| c.kind != WorkloadKind::TeraSort));
        // Indices stay dense after filtering.
        assert_eq!(
            cells.iter().map(|c| c.index).collect::<Vec<_>>(),
            (0..7).collect::<Vec<_>>()
        );

        s.include.push(CellFilter {
            workload: Some(WorkloadKind::KMeans),
            ..CellFilter::default()
        });
        let cells = s.expand();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].kind, WorkloadKind::KMeans);
    }

    #[test]
    fn fingerprints_are_stable_and_axis_sensitive() {
        let s = Scenario::with_defaults("fp");
        let a = s.expand();
        let b = s.expand();
        for (ca, cb) in a.iter().zip(&b) {
            assert_eq!(ca, cb);
            assert_eq!(ca.fingerprint(1), cb.fingerprint(1));
            assert_ne!(
                ca.fingerprint(1),
                ca.fingerprint(2),
                "version must rotate the address"
            );
        }
        // Any axis change moves the address.
        let mut other = a[0].clone();
        other.elements += 1;
        assert_ne!(other.fingerprint(1), a[0].fingerprint(1));
        let mut other = a[0].clone();
        other.seed ^= 1;
        assert_ne!(other.fingerprint(1), a[0].fingerprint(1));
        let mut other = a[0].clone();
        other.architecture = "haswell".to_string();
        assert_ne!(other.fingerprint(1), a[0].fingerprint(1));
    }

    #[test]
    fn pinned_tuning_cluster_is_used_for_tuning_only() {
        let mut s = Scenario::with_defaults("tuning");
        s.clusters = vec!["three-node-haswell".to_string()];
        s.tuning_cluster = Some("five-node-westmere".to_string());
        let cell = &s.expand()[0];
        assert_eq!(cell.cluster(), ClusterConfig::three_node_haswell());
        assert_eq!(cell.tuning_cluster(), ClusterConfig::five_node_westmere());
    }

    #[test]
    fn matrix_size_counts_the_unfiltered_product() {
        let mut s = Scenario::with_defaults("size");
        s.seeds = vec![1, 2, 3];
        assert_eq!(s.matrix_size(), 24);
    }

    fn population_scenario(size: u32) -> Scenario {
        let mut s = Scenario::with_defaults("pop");
        s.population = Some(PopulationSpec {
            size,
            base_seed: 0xFEED,
            ..PopulationSpec::default()
        });
        s
    }

    #[test]
    fn population_cells_expand_after_named_cells_in_rank_order() {
        let s = population_scenario(4);
        let cells = s.expand();
        assert_eq!(cells.len(), 12);
        assert_eq!(s.matrix_size(), 12);
        for (i, cell) in cells.iter().take(8).enumerate() {
            assert_eq!(cell.kind, WorkloadKind::ALL[i]);
            assert!(cell.population.is_none());
        }
        for (rank, cell) in cells.iter().skip(8).enumerate() {
            let pop = cell.population.as_ref().expect("population cell");
            assert_eq!(pop.rank, rank as u32);
            assert_eq!(cell.index, 8 + rank);
            // Population seed streams come after the named workloads'.
            assert_eq!(
                cell.seed,
                derive_seed(cell.base_seed, WorkloadKind::ALL.len() as u64 + rank as u64)
            );
            assert!(pop.label.starts_with("synthetic-"));
        }
        // Expansion is deterministic.
        assert_eq!(cells, s.expand());
    }

    #[test]
    fn population_fingerprints_are_disjoint_from_named_and_each_other() {
        let s = population_scenario(4);
        let cells = s.expand();
        let mut prints: Vec<u64> = cells.iter().map(|c| c.fingerprint(3)).collect();
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(
            prints.len(),
            cells.len(),
            "every cell addresses a distinct result"
        );

        // A synthetic cell matching a named cell on every legacy axis
        // (kind, cluster, elements, seed) still has a distinct address.
        let synthetic = &cells[8];
        let mut named = synthetic.clone();
        named.population = None;
        assert_ne!(named.fingerprint(3), synthetic.fingerprint(3));

        // Changing any synthetic identity component moves the address.
        let mut other = synthetic.clone();
        other.population.as_mut().unwrap().member_hash ^= 1;
        assert_ne!(other.fingerprint(3), synthetic.fingerprint(3));
        let mut other = synthetic.clone();
        other.population.as_mut().unwrap().rank += 1;
        assert_ne!(other.fingerprint(3), synthetic.fingerprint(3));
        let mut other = synthetic.clone();
        other.population.as_mut().unwrap().spec.ai_fraction = 0.9;
        assert_ne!(other.fingerprint(3), synthetic.fingerprint(3));
    }

    #[test]
    fn population_budget_truncates_to_a_rank_prefix_per_combo() {
        let mut unbudgeted = population_scenario(8);
        unbudgeted.workloads.clear();
        let full = unbudgeted.expand();
        assert_eq!(full.len(), 8);

        let mut budgeted = unbudgeted.clone();
        let spec = budgeted.population.as_mut().unwrap();
        // Enough for a few members but not all eight.
        spec.duration_budget_secs = Some(3.0);
        let kept = budgeted.expand();
        assert!(!kept.is_empty() && kept.len() < full.len());
        // Truncation keeps a rank prefix: same members, same addresses
        // (the budget itself is deliberately not part of the address).
        for (k, f) in kept.iter().zip(&full) {
            assert_eq!(k.fingerprint(3), f.fingerprint(3));
            assert_eq!(
                k.population.as_ref().unwrap().label,
                f.population.as_ref().unwrap().label
            );
        }

        let plan = budgeted.population_plan().expect("plan");
        assert!(plan.truncated());
        assert_eq!(plan.planned as usize, kept.len());
        assert_eq!(plan.full_size, 8);
        assert_eq!(plan.combos, 1);

        // The campaign-wide budget is split across axis combinations:
        // doubling the seed axis halves the per-combo budget.
        let mut split = budgeted.clone();
        split.seeds = vec![1, 2];
        let split_plan = split.population_plan().expect("plan");
        assert_eq!(split_plan.combos, 2);
        assert_eq!(split_plan.budget_secs, Some(1.5));
    }
}
