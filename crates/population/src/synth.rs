//! Member synthesis: from a [`PopulationSpec`] + rank to a runnable
//! [`SyntheticWorkload`].
//!
//! Every draw a member makes comes from one `StdRng` seeded with
//! `derive_seed(base_seed, rank)`, in a **fixed order** (pool choice,
//! kernel count, kernel identities, class weights, family resolution,
//! topology, data shape, framework parameters).  That order is part of
//! the crate's determinism contract: one seed byte-reproduces every
//! member, and member `rank` is independent of the population size.

use dmpb_core::fnv::hash_bytes;
use dmpb_datagen::descriptor::{DataClass, DataDescriptor, Distribution};
use dmpb_datagen::rng::{derive_seed, seeded_rng};
use dmpb_metrics::json::ObjectWriter;
use dmpb_motifs::{DagPlan, MotifClass, MotifConfig, MotifKind};
use dmpb_perfmodel::profile::OpProfile;
use dmpb_workloads::framework::mapreduce::{per_node_job_profile, JobShape};
use dmpb_workloads::framework::tensorflow::{
    per_node_training_profile, LayerSpec, NetworkSpec, TrainingConfig,
};
use dmpb_workloads::{workload_by_kind, ClusterConfig, Workload, WorkloadKind};
use rand::rngs::StdRng;
use rand::Rng;

use crate::spec::{PopulationSpec, TopologyFamily};

/// A synthesized workload: a sampled motif DAG with a sampled data
/// shape and framework parameters, implementing the same [`Workload`]
/// contract as the eight named workloads.
///
/// The member reports a **carrier** [`WorkloadKind`] — the named
/// workload whose motif-class composition is nearest to the sampled one
/// (restricted to the matching big-data/AI side) — so the generic
/// pipeline stages that branch on `kind()` (parameter initialisation,
/// framework weighting) behave sensibly.  The member's *identity* is
/// never the carrier: it is the full synthesized description, hashed by
/// [`SyntheticWorkload::member_hash`] and carried by campaign cells.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    rank: u32,
    seed: u64,
    family: TopologyFamily,
    carrier: WorkloadKind,
    ai: bool,
    motifs: Vec<MotifKind>,
    plan: DagPlan,
    composition: Vec<(MotifClass, f64)>,
    input: DataDescriptor,
    job: Option<JobShape>,
    training: Option<TrainingConfig>,
    layers: Vec<LayerSpec>,
    label: String,
}

impl SyntheticWorkload {
    /// The member's rank within its population.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The concrete topology family the member's DAG was built from
    /// (`mixed` specs resolve to one of the four concrete families).
    pub fn family(&self) -> TopologyFamily {
        self.family
    }

    /// Stable display label, e.g. `"synthetic-fork-join-0007"`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Coarse *modeled* cost of running this member's campaign cell, in
    /// seconds.  A pure function of the synthesized description — never
    /// wall-clock — so duration-budget truncation is identical across
    /// machines, worker counts and store warmth.
    pub(crate) fn modeled_cost_secs(&self) -> f64 {
        let kernels = self.motifs.len() as f64;
        let gib = self.input.total_bytes as f64 / (1u64 << 30) as f64;
        let mut cost = 0.5 + 0.12 * kernels + 0.04 * gib;
        if let Some(training) = self.training {
            cost += training.total_steps as f64 * f64::from(training.batch_size) / 2.0e6;
        }
        cost
    }

    /// One-line JSON description of the full synthesized spec: identity,
    /// topology shape, kernel mix and every sampled parameter.  This is
    /// both the `--describe-population` output and the preimage of
    /// [`SyntheticWorkload::member_hash`].
    pub fn describe_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_str("record", "member");
        w.field_int("rank", i64::from(self.rank));
        w.field_u64_hex("seed", self.seed);
        w.field_str("label", &self.label);
        w.field_str("family", self.family.name());
        w.field_str("carrier", self.carrier.short_name());
        w.field_str("framework", self.carrier.framework().name());
        w.field_bool("ai", self.ai);
        w.field_int("kernels", self.motifs.len() as i64);
        let mix: Vec<&str> = self.motifs.iter().map(|m| m.name()).collect();
        w.field_str("motifs", &mix.join("+"));
        w.field_str("shape", &self.plan.shape_summary());
        w.field_str("data_class", self.input.class.name());
        w.field_int("total_bytes", self.input.total_bytes as i64);
        w.field_int("element_bytes", self.input.element_bytes as i64);
        w.field_f64("sparsity", self.input.sparsity);
        w.field_str("value_distribution", self.input.distribution.name());
        if let Some(job) = &self.job {
            w.field_f64("shuffle_ratio", job.shuffle_ratio);
            w.field_f64("output_ratio", job.output_ratio);
            w.field_int("output_replication", i64::from(job.output_replication));
            w.field_int("heap_bytes", job.heap_bytes as i64);
            w.field_f64("pipeline_factor", job.pipeline_factor);
        }
        if let Some(training) = &self.training {
            w.field_int("total_steps", training.total_steps as i64);
            w.field_int("batch_size", i64::from(training.batch_size));
        }
        w.field_f64("modeled_cost_secs", self.modeled_cost_secs());
        w.finish()
    }

    /// Hash of the full synthesized description — the member's identity
    /// in campaign-cell fingerprints and tuning-cache keys.
    pub fn member_hash(&self) -> u64 {
        hash_bytes(self.describe_json().as_bytes())
    }

    /// The per-motif weight the decomposition will assign this motif:
    /// its class's composition ratio split evenly over the class's
    /// sampled motifs (the same rule `dmpb_core::decompose` applies).
    fn motif_weight(&self, motif: MotifKind) -> f64 {
        let class = motif.class();
        let ratio = self
            .composition
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .unwrap_or(0.0);
        let class_count = self.motifs.iter().filter(|m| m.class() == class).count();
        ratio / class_count.max(1) as f64
    }
}

impl Workload for SyntheticWorkload {
    fn kind(&self) -> WorkloadKind {
        self.carrier
    }

    fn pattern(&self) -> &'static str {
        match self.family {
            TopologyFamily::Chain => "synthetic chain",
            TopologyFamily::ForkJoin => "synthetic fork-join",
            TopologyFamily::Diamond => "synthetic diamond",
            TopologyFamily::Layered => "synthetic layered",
            TopologyFamily::Mixed => "synthetic mixed",
        }
    }

    fn input_descriptor(&self) -> DataDescriptor {
        self.input
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        self.composition.clone()
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        self.motifs.clone()
    }

    fn dag_plan(&self) -> DagPlan {
        self.plan.clone()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        if let Some(training) = self.training {
            let network = NetworkSpec {
                name: "Synthetic",
                layers: self.layers.clone(),
                input_image_bytes: self.input.element_bytes,
            };
            return per_node_training_profile(&network, training, cluster);
        }
        let job = self.job.expect("big-data members carry a job shape");
        let per_node = (self.input.total_bytes / u64::from(cluster.slave_nodes()))
            .max(self.input.element_bytes);
        let config = MotifConfig::big_data_default().with_num_tasks(cluster.tasks_per_node);
        let data = self.input.scaled_to(per_node);
        let profiles: Vec<OpProfile> = self
            .motifs
            .iter()
            .map(|&motif| {
                let share = ((per_node as f64 * self.motif_weight(motif)) as u64)
                    .max(self.input.element_bytes);
                motif.cost_profile(&data.scaled_to(share), &config)
            })
            .collect();
        per_node_job_profile(&job, cluster, profiles, &self.label)
    }
}

/// Synthesizes the members of one [`PopulationSpec`].
#[derive(Debug, Clone)]
pub struct PopulationGenerator {
    spec: PopulationSpec,
}

/// A generated population after duration-budget truncation.
#[derive(Debug)]
pub struct BudgetedPopulation {
    /// The members kept, a rank prefix of the full population.
    pub members: Vec<SyntheticWorkload>,
    /// The population size before truncation.
    pub full_size: u32,
    /// The budget applied, if any.
    pub budget_secs: Option<f64>,
    /// Summed modeled cost of the kept members.
    pub modeled_cost_secs: f64,
}

impl PopulationGenerator {
    /// Creates a generator, validating the spec.
    pub fn new(spec: PopulationSpec) -> Result<Self, String> {
        spec.validate()?;
        Ok(Self { spec })
    }

    /// The spec members are sampled from.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    /// Synthesizes member `rank`.  Pure: depends only on the spec's
    /// sampling parameters and the rank.
    pub fn member(&self, rank: u32) -> SyntheticWorkload {
        synthesize(&self.spec, rank)
    }

    /// Synthesizes the full population, ignoring any duration budget.
    pub fn generate(&self) -> Vec<SyntheticWorkload> {
        (0..self.spec.size).map(|rank| self.member(rank)).collect()
    }

    /// Synthesizes the population and applies the spec's duration
    /// budget: members are kept in rank order while their summed
    /// modeled cost fits the
    /// budget.  At least one member is always kept, so a budgeted
    /// campaign never silently degenerates to zero cells.
    pub fn generate_budgeted(&self) -> BudgetedPopulation {
        let all = self.generate();
        let full_size = self.spec.size;
        let budget = self.spec.duration_budget_secs;
        let mut members = Vec::with_capacity(all.len());
        let mut spent = 0.0;
        for member in all {
            let cost = member.modeled_cost_secs();
            if let Some(budget) = budget {
                if !members.is_empty() && spent + cost > budget {
                    break;
                }
            }
            spent += cost;
            members.push(member);
        }
        BudgetedPopulation {
            members,
            full_size,
            budget_secs: budget,
            modeled_cost_secs: spent,
        }
    }
}

/// Synthesizes one member.  The draw order below is frozen — see the
/// module docs.
fn synthesize(spec: &PopulationSpec, rank: u32) -> SyntheticWorkload {
    let seed = derive_seed(spec.base_seed, u64::from(rank));
    let mut rng = seeded_rng(seed);

    // 1. Pool choice and kernel mix.
    let ai = rng.gen_bool(spec.ai_fraction);
    let pool: Vec<MotifKind> = MotifKind::ALL
        .iter()
        .copied()
        .filter(|k| k.is_ai() == ai)
        .collect();
    let lo = spec.kernels_min.clamp(1, pool.len() as u32);
    let hi = spec.kernels_max.clamp(lo, pool.len() as u32);
    let kernels = rng.gen_range(lo..=hi) as usize;
    let mut remaining = pool;
    let mut motifs = Vec::with_capacity(kernels);
    for _ in 0..kernels {
        let i = rng.gen_range(0..remaining.len());
        motifs.push(remaining.swap_remove(i));
    }

    // 2. Class-ratio composition from per-motif weights.
    let mut composition: Vec<(MotifClass, f64)> = Vec::new();
    for &motif in &motifs {
        let weight = 0.5 + rng.gen::<f64>();
        match composition.iter_mut().find(|(c, _)| *c == motif.class()) {
            Some((_, w)) => *w += weight,
            None => composition.push((motif.class(), weight)),
        }
    }
    let total: f64 = composition.iter().map(|(_, w)| w).sum();
    for (_, w) in &mut composition {
        *w /= total;
    }

    // 3. Topology.
    let family = match spec.family {
        TopologyFamily::Mixed => TopologyFamily::CONCRETE[rng.gen_range(0..4)],
        concrete => concrete,
    };
    let plan = build_plan(family, &motifs, &mut rng);

    // 4. Data shape.
    let total_bytes = spec.size_distribution.sample_bytes(
        &mut rng,
        spec.size_min_bytes,
        spec.size_max_bytes,
        spec.zipf_exponent,
    );
    let sparsity = if spec.sparsity_max > spec.sparsity_min {
        rng.gen_range(spec.sparsity_min..spec.sparsity_max)
    } else {
        spec.sparsity_min
    };

    // 5. Framework parameters and the final descriptor.
    let (input, job, training, layers) = if ai {
        let side = [16u32, 32, 64][rng.gen_range(0..3)];
        let element_bytes = u64::from(side) * u64::from(side) * 3;
        let training = TrainingConfig {
            total_steps: rng.gen_range(200u64..=2_000),
            batch_size: [32u32, 64, 128][rng.gen_range(0..3)],
        };
        let layers: Vec<LayerSpec> = motifs
            .iter()
            .enumerate()
            .map(|(i, &motif)| {
                let channels = if i == 0 { 3 } else { rng.gen_range(8u32..=64) };
                let filter = if matches!(
                    motif,
                    MotifKind::Convolution | MotifKind::MaxPooling | MotifKind::AveragePooling
                ) {
                    [2u32, 3, 5][rng.gen_range(0..3)]
                } else {
                    1
                };
                LayerSpec::new(motif, side, side, channels, filter)
            })
            .collect();
        let input = DataDescriptor::new(
            DataClass::Image,
            total_bytes,
            element_bytes,
            sparsity,
            Distribution::Uniform,
        );
        (input, None, Some(training), layers)
    } else {
        let class = [
            DataClass::Text,
            DataClass::Vector,
            DataClass::Graph,
            DataClass::Matrix,
        ][rng.gen_range(0..4)];
        let element_bytes = [64u64, 100, 128, 256, 512, 1024][rng.gen_range(0..6)];
        let distribution = match rng.gen_range(0..3u32) {
            0 => Distribution::Uniform,
            1 => Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
            _ => Distribution::PowerLaw {
                exponent: spec.zipf_exponent,
            },
        };
        let job = JobShape {
            input_bytes: total_bytes,
            shuffle_ratio: rng.gen_range(0.05..1.0),
            output_ratio: rng.gen_range(0.01..1.0),
            output_replication: rng.gen_range(1u32..=3),
            heap_bytes: rng.gen_range(2u64..=8) << 30,
            pipeline_factor: rng.gen_range(0.2..1.0),
        };
        let input = DataDescriptor::new(class, total_bytes, element_bytes, sparsity, distribution);
        (input, Some(job), None, Vec::new())
    };

    let carrier = nearest_carrier(&composition, ai);
    let label = format!("synthetic-{}-{rank:04}", family.name());

    SyntheticWorkload {
        rank,
        seed,
        family,
        carrier,
        ai,
        motifs,
        plan,
        composition,
        input,
        job,
        training,
        layers,
        label,
    }
}

/// The named workload whose motif-class composition is nearest (squared
/// Euclidean distance over the eight classes) to the sampled one, among
/// the workloads on the same big-data/AI side.  Ties break toward suite
/// order, so the choice is deterministic.
fn nearest_carrier(composition: &[(MotifClass, f64)], ai: bool) -> WorkloadKind {
    let ratio_of = |ratios: &[(MotifClass, f64)], class: MotifClass| -> f64 {
        ratios
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, r)| *r)
            .sum()
    };
    let mut best: Option<(f64, WorkloadKind)> = None;
    for kind in WorkloadKind::ALL {
        if kind.is_ai() != ai {
            continue;
        }
        let named = workload_by_kind(kind).motif_composition();
        let distance: f64 = MotifClass::ALL
            .iter()
            .map(|&class| {
                let d = ratio_of(composition, class) - ratio_of(&named, class);
                d * d
            })
            .sum();
        if best.map_or(true, |(d, _)| distance < d) {
            best = Some((distance, kind));
        }
    }
    best.expect("both pools have named workloads").1
}

/// Builds the member's DAG for a concrete family.  Families that need
/// more motifs than sampled degrade to a chain (documented on
/// [`TopologyFamily`]); every built plan places exactly `motifs`, so
/// the decomposition always adopts it.
fn build_plan(family: TopologyFamily, motifs: &[MotifKind], rng: &mut StdRng) -> DagPlan {
    match family {
        TopologyFamily::Chain | TopologyFamily::Mixed => DagPlan::chain(motifs),
        TopologyFamily::ForkJoin => fork_join_plan(motifs, rng),
        TopologyFamily::Diamond => diamond_plan(motifs),
        TopologyFamily::Layered => layered_plan(motifs, rng),
    }
}

/// 2–4 parallel branches from the input, joining at one output node;
/// motifs are dealt round-robin so every branch is non-empty.
fn fork_join_plan(motifs: &[MotifKind], rng: &mut StdRng) -> DagPlan {
    if motifs.len() < 2 {
        return DagPlan::chain(motifs);
    }
    let branches = rng.gen_range(2..=motifs.len().min(4));
    let mut b = DagPlan::builder();
    let input = b.node("input");
    let join = b.node("join");
    for branch in 0..branches {
        let lane: Vec<MotifKind> = motifs
            .iter()
            .copied()
            .skip(branch)
            .step_by(branches)
            .collect();
        let mut previous = input;
        for (stage, &motif) in lane.iter().enumerate() {
            if stage + 1 == lane.len() {
                b.edge(previous, join, motif);
            } else {
                let node = b.node(format!("b{branch}-s{stage}"));
                b.edge(previous, node, motif);
                previous = node;
            }
        }
    }
    b.build()
}

/// Fork into two branches, join mid-graph, then a tail chain of the
/// remaining motifs.  Needs ≥ 4 motifs; degrades to a chain below that.
fn diamond_plan(motifs: &[MotifKind]) -> DagPlan {
    if motifs.len() < 4 {
        return DagPlan::chain(motifs);
    }
    let mut b = DagPlan::builder();
    let input = b.node("input");
    let left = b.node("left");
    let right = b.node("right");
    let mut previous = b.node("merged");
    b.edge(input, left, motifs[0]);
    b.edge(input, right, motifs[1]);
    b.edge(left, previous, motifs[2]);
    b.edge(right, previous, motifs[3]);
    for (i, &motif) in motifs[4..].iter().enumerate() {
        let node = b.node(format!("tail-{i}"));
        b.edge(previous, node, motif);
        previous = node;
    }
    b.build()
}

/// Random acyclic layered graph: 2–4 layers of parallel motif edges
/// between layer-boundary nodes.  Each layer keeps at least one motif,
/// and motifs past the first layer occasionally source from one
/// boundary earlier (a forward layer-skipping edge, still acyclic).
fn layered_plan(motifs: &[MotifKind], rng: &mut StdRng) -> DagPlan {
    if motifs.len() < 2 {
        return DagPlan::chain(motifs);
    }
    let layers = rng.gen_range(2..=motifs.len().min(4));
    let assignment: Vec<usize> = (0..motifs.len())
        .map(|i| {
            if i < layers {
                i
            } else {
                rng.gen_range(0..layers)
            }
        })
        .collect();
    let mut b = DagPlan::builder();
    let bounds: Vec<usize> = (0..=layers).map(|i| b.node(format!("layer-{i}"))).collect();
    for layer in 0..layers {
        for (i, &motif) in motifs.iter().enumerate() {
            if assignment[i] != layer {
                continue;
            }
            let from = if layer >= 1 && rng.gen_bool(0.25) {
                bounds[layer - 1]
            } else {
                bounds[layer]
            };
            b.edge(from, bounds[layer + 1], motif);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SizeDistribution;
    use dmpb_core::decompose::decompose;

    fn spec() -> PopulationSpec {
        PopulationSpec {
            size: 24,
            ..PopulationSpec::default()
        }
    }

    fn generator(spec: PopulationSpec) -> PopulationGenerator {
        PopulationGenerator::new(spec).expect("valid spec")
    }

    #[test]
    fn one_seed_byte_reproduces_the_population() {
        let a: Vec<String> = generator(spec())
            .generate()
            .iter()
            .map(|m| m.describe_json())
            .collect();
        let b: Vec<String> = generator(spec())
            .generate()
            .iter()
            .map(|m| m.describe_json())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn members_are_distinct_and_ranks_are_size_independent() {
        let small = generator(spec()).generate();
        let grown = generator(PopulationSpec { size: 48, ..spec() }).generate();
        let mut hashes: Vec<u64> = grown.iter().map(|m| m.member_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 48, "members must be pairwise distinct");
        for (a, b) in small.iter().zip(&grown) {
            assert_eq!(a.describe_json(), b.describe_json(), "rank {}", a.rank());
        }
    }

    #[test]
    fn plans_cover_exactly_the_sampled_motifs_and_decompose_adopts_them() {
        for member in generator(spec()).generate() {
            assert!(
                member.dag_plan().covers_exactly(&member.involved_motifs()),
                "{}",
                member.label()
            );
            let d = decompose(&member);
            assert_eq!(d.plan, member.dag_plan(), "{}", member.label());
            assert!((d.total_weight() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn compositions_are_normalised_and_class_pure() {
        for member in generator(spec()).generate() {
            let total: f64 = member.motif_composition().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}", member.label());
            for motif in &member.motifs {
                assert_eq!(motif.is_ai(), member.ai, "{}", member.label());
            }
            assert_eq!(member.kind().is_ai(), member.ai, "carrier side");
        }
    }

    #[test]
    fn ai_fraction_extremes_pin_the_pool() {
        let all_bd = generator(PopulationSpec {
            ai_fraction: 0.0,
            ..spec()
        })
        .generate();
        assert!(all_bd.iter().all(|m| !m.ai));
        let all_ai = generator(PopulationSpec {
            ai_fraction: 1.0,
            kernels_max: 14,
            ..spec()
        })
        .generate();
        assert!(all_ai.iter().all(|m| m.ai));
    }

    #[test]
    fn branching_families_genuinely_branch() {
        for family in [
            TopologyFamily::ForkJoin,
            TopologyFamily::Diamond,
            TopologyFamily::Layered,
        ] {
            let members = generator(PopulationSpec {
                family,
                kernels_min: 4,
                kernels_max: 8,
                size: 12,
                ..spec()
            })
            .generate();
            let branching = members
                .iter()
                .filter(|m| m.dag_plan().is_branching())
                .count();
            assert!(
                branching >= members.len() - 2,
                "{family}: only {branching} of {} branch",
                members.len()
            );
        }
    }

    #[test]
    fn chain_family_stays_linear() {
        for member in generator(PopulationSpec {
            family: TopologyFamily::Chain,
            ..spec()
        })
        .generate()
        {
            assert!(!member.dag_plan().is_branching(), "{}", member.label());
        }
    }

    #[test]
    fn members_measure_to_finite_metrics() {
        let cluster = ClusterConfig::five_node_westmere();
        let members = generator(PopulationSpec {
            size: 4,
            ai_fraction: 0.5,
            size_max_bytes: 10 << 30,
            ..spec()
        })
        .generate();
        assert!(members.iter().any(|m| m.ai) || members.iter().any(|m| !m.ai));
        for member in members {
            let m = member.measure(&cluster);
            assert!(m.is_finite(), "{}", member.label());
            assert!(m.runtime_secs > 0.0, "{}", member.label());
        }
    }

    #[test]
    fn budget_truncation_keeps_a_rank_prefix() {
        let unbudgeted = generator(spec()).generate();
        let total: f64 = unbudgeted.iter().map(|m| m.modeled_cost_secs()).sum();
        let budgeted = generator(PopulationSpec {
            duration_budget_secs: Some(total / 3.0),
            ..spec()
        })
        .generate_budgeted();
        assert!(budgeted.members.len() < budgeted.full_size as usize);
        assert!(!budgeted.members.is_empty());
        assert!(budgeted.modeled_cost_secs <= total / 3.0 + 1e-9);
        for (kept, full) in budgeted.members.iter().zip(&unbudgeted) {
            assert_eq!(kept.describe_json(), full.describe_json());
        }
    }

    #[test]
    fn tiny_budget_still_keeps_one_member() {
        let budgeted = generator(PopulationSpec {
            duration_budget_secs: Some(1e-6),
            ..spec()
        })
        .generate_budgeted();
        assert_eq!(budgeted.members.len(), 1);
        assert!(budgeted.members.len() < budgeted.full_size as usize);
    }

    #[test]
    fn no_budget_keeps_the_full_population() {
        let budgeted = generator(spec()).generate_budgeted();
        assert_eq!(budgeted.full_size, spec().size);
        assert_eq!(budgeted.members.len(), spec().size as usize);
    }

    #[test]
    fn kernel_counts_respect_the_spec_and_the_pool() {
        for member in generator(PopulationSpec {
            kernels_min: 5,
            kernels_max: 16,
            ai_fraction: 0.5,
            ..spec()
        })
        .generate()
        {
            let k = member.motifs.len() as u32;
            let pool = if member.ai { 14 } else { 19 };
            assert!(k >= 5 && k <= 16.min(pool), "{}: {k}", member.label());
            let mut distinct = member.motifs.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len() as u32, k, "kernels must be distinct");
        }
    }

    #[test]
    fn data_volumes_respect_the_sampling_range() {
        let spec = PopulationSpec {
            size_distribution: SizeDistribution::Zipf,
            size_min_bytes: 1 << 28,
            size_max_bytes: 1 << 34,
            ..spec()
        };
        for member in generator(spec).generate() {
            let bytes = member.input_descriptor().total_bytes;
            assert!(
                (spec.size_min_bytes..=spec.size_max_bytes).contains(&bytes),
                "{}: {bytes}",
                member.label()
            );
        }
    }

    #[test]
    fn fitted_population_synthesizes_cleanly() {
        let fitted = PopulationSpec {
            size: 8,
            ..PopulationSpec::fit_to_paper()
        };
        let members = generator(fitted).generate();
        assert_eq!(members.len(), 8);
        for member in &members {
            assert!(member.dag_plan().covers_exactly(&member.involved_motifs()));
        }
    }
}
