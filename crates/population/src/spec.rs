//! Population parameter families: what a population is sampled *from*.
//!
//! A [`PopulationSpec`] is a compact, `Copy` description of a whole
//! population: topology family, member count, base seed, and the
//! parameter ranges every member's kernel mix and data shape are drawn
//! from.  The spec travels through the scenario DSL (`[population]`
//! section), the campaign matrix (each synthetic cell carries it) and
//! the result store, so it is deliberately plain data with a stable
//! canonical rendering ([`PopulationSpec::spec_hash`]).

use dmpb_core::fnv::hash_bytes;
use dmpb_workloads::all_workloads;
use rand::rngs::StdRng;
use rand::Rng;

/// Default base seed for populations (distinct from the campaign
/// runner's `DEFAULT_BASE_SEED` so population and data-plane streams
/// never accidentally coincide).
pub const DEFAULT_POPULATION_SEED: u64 = 0x00DA_7A00_90D1_F00D;

/// Parameterized topology family a member's motif DAG is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyFamily {
    /// A straight pipeline, one stage per motif.
    Chain,
    /// Fan out of 2–4 parallel branches from the input, joining at the
    /// output (TensorFlow-tower / Spark-wide-dependency shape).
    ForkJoin,
    /// Two branches that fork at the input and join mid-graph, followed
    /// by a tail chain (falls back to a chain below 4 motifs).
    Diamond,
    /// Random acyclic layered graph: 2–4 layers of parallel motif edges
    /// between layer-boundary nodes, with occasional layer-skipping
    /// edges.
    Layered,
    /// Draw one of the four concrete families per member.
    Mixed,
}

impl TopologyFamily {
    /// All families in a stable order (`Mixed` last).
    pub(crate) const ALL: [TopologyFamily; 5] = [
        TopologyFamily::Chain,
        TopologyFamily::ForkJoin,
        TopologyFamily::Diamond,
        TopologyFamily::Layered,
        TopologyFamily::Mixed,
    ];

    /// The four concrete (non-`Mixed`) families `Mixed` draws from.
    pub const CONCRETE: [TopologyFamily; 4] = [
        TopologyFamily::Chain,
        TopologyFamily::ForkJoin,
        TopologyFamily::Diamond,
        TopologyFamily::Layered,
    ];

    /// Kebab-case name, as the scenario DSL and `/metrics` labels spell
    /// it.
    pub fn name(&self) -> &'static str {
        match self {
            TopologyFamily::Chain => "chain",
            TopologyFamily::ForkJoin => "fork-join",
            TopologyFamily::Diamond => "diamond",
            TopologyFamily::Layered => "layered",
            TopologyFamily::Mixed => "mixed",
        }
    }
}

impl std::fmt::Display for TopologyFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TopologyFamily {
    type Err = String;

    /// Parses a family name, case-insensitively and ignoring `-` / `_`
    /// (`"fork-join"`, `"ForkJoin"`, `"fork_join"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | ' '))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        for family in TopologyFamily::ALL {
            let canonical: String = family.name().chars().filter(|c| *c != '-').collect();
            if normalized == canonical {
                return Ok(family);
            }
        }
        Err(format!(
            "unknown topology family `{s}` (expected one of: {})",
            TopologyFamily::ALL.map(|f| f.name()).join(", ")
        ))
    }
}

/// Distribution family the members' total data volumes are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeDistribution {
    /// Uniform over `[min, max]` bytes.
    Uniform,
    /// Uniform in log-space over `[min, max]` — equal probability per
    /// decade, the natural prior for data-set sizes.
    LogUniform,
    /// Bounded zipf / power-law over `[min, max]` with the spec's
    /// exponent (larger exponent = more mass near `min`).
    Zipf,
}

impl SizeDistribution {
    /// All distributions in a stable order.
    pub(crate) const ALL: [SizeDistribution; 3] = [
        SizeDistribution::Uniform,
        SizeDistribution::LogUniform,
        SizeDistribution::Zipf,
    ];

    /// Kebab-case name used by the scenario DSL.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            SizeDistribution::Uniform => "uniform",
            SizeDistribution::LogUniform => "log-uniform",
            SizeDistribution::Zipf => "zipf",
        }
    }

    /// Draws one volume in `[min, max]` bytes.  `exponent` only matters
    /// for [`SizeDistribution::Zipf`] (an exponent of exactly 1 falls
    /// back to log-uniform, its analytic limit).
    pub(crate) fn sample_bytes(&self, rng: &mut StdRng, min: u64, max: u64, exponent: f64) -> u64 {
        if min >= max {
            return min;
        }
        let (lo, hi) = (min as f64, max as f64);
        let unit: f64 = rng.gen();
        let drawn = match self {
            SizeDistribution::Uniform => lo + (hi - lo) * unit,
            SizeDistribution::LogUniform => (lo.ln() + (hi.ln() - lo.ln()) * unit).exp(),
            SizeDistribution::Zipf => {
                let s = exponent;
                if (s - 1.0).abs() < 1e-9 {
                    (lo.ln() + (hi.ln() - lo.ln()) * unit).exp()
                } else {
                    // Inverse CDF of a power law truncated to [lo, hi].
                    let a = lo.powf(1.0 - s);
                    let b = hi.powf(1.0 - s);
                    (a + (b - a) * unit).powf(1.0 / (1.0 - s))
                }
            }
        };
        (drawn as u64).clamp(min, max)
    }
}

impl std::fmt::Display for SizeDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SizeDistribution {
    type Err = String;

    /// Parses a distribution name, case-insensitively and ignoring
    /// `-` / `_` (`"log-uniform"`, `"LogUniform"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| !matches!(c, '-' | '_' | ' '))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        for dist in SizeDistribution::ALL {
            let canonical: String = dist.name().chars().filter(|c| *c != '-').collect();
            if normalized == canonical {
                return Ok(dist);
            }
        }
        Err(format!(
            "unknown size distribution `{s}` (expected one of: {})",
            SizeDistribution::ALL.map(|d| d.name()).join(", ")
        ))
    }
}

/// Everything a population is sampled from: one `Copy` value that fully
/// determines every member (together with the member's rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationSpec {
    /// Topology family members' DAGs are built from.
    pub family: TopologyFamily,
    /// Number of members to synthesize (before any duration budget).
    pub size: u32,
    /// Base seed; member `rank` is drawn from
    /// `derive_seed(base_seed, rank)`.
    pub base_seed: u64,
    /// Probability that a member draws from the AI motif pool (and an
    /// AI carrier workload) rather than the big-data pool.
    pub ai_fraction: f64,
    /// Minimum distinct motif kernels per member.
    pub kernels_min: u32,
    /// Maximum distinct motif kernels per member (clamped to the pool
    /// size: 19 big-data / 14 AI kinds).
    pub kernels_max: u32,
    /// Distribution family for the members' total data volumes.
    pub size_distribution: SizeDistribution,
    /// Smallest member data volume in bytes.
    pub size_min_bytes: u64,
    /// Largest member data volume in bytes.
    pub size_max_bytes: u64,
    /// Exponent for [`SizeDistribution::Zipf`].
    pub zipf_exponent: f64,
    /// Smallest member sparsity (fraction of zero elements).
    pub sparsity_min: f64,
    /// Largest member sparsity.
    pub sparsity_max: f64,
    /// Optional per-campaign wall budget in (modeled) seconds.  When
    /// set, the population is truncated deterministically by rank so
    /// the members' summed modeled cost fits the budget — see
    /// [`crate::PopulationGenerator::generate_budgeted`].
    pub duration_budget_secs: Option<f64>,
}

impl Default for PopulationSpec {
    /// A small mixed-family, mostly-big-data population: 16 members,
    /// 3–8 kernels each, log-uniform 1–100 GB volumes.
    fn default() -> Self {
        Self {
            family: TopologyFamily::Mixed,
            size: 16,
            base_seed: DEFAULT_POPULATION_SEED,
            ai_fraction: 0.25,
            kernels_min: 3,
            kernels_max: 8,
            size_distribution: SizeDistribution::LogUniform,
            size_min_bytes: 1 << 30,
            size_max_bytes: 100 << 30,
            zipf_exponent: 1.5,
            sparsity_min: 0.0,
            sparsity_max: 0.5,
            duration_budget_secs: None,
        }
    }
}

impl PopulationSpec {
    /// Estimates the family parameters from the eight known workloads'
    /// configurations, so synthetic members stay in-distribution with
    /// the paper suite: data volumes span the observed input range
    /// (log-uniformly), sparsity spans the observed sparsities, the AI
    /// fraction and kernel-count range are the registry's own.
    pub fn fit_to_paper() -> Self {
        let workloads = all_workloads();
        let mut size_min = u64::MAX;
        let mut size_max = 0u64;
        let mut sparsity_min = f64::MAX;
        let mut sparsity_max = 0f64;
        let mut kernels_min = u32::MAX;
        let mut kernels_max = 0u32;
        let mut ai = 0usize;
        for w in &workloads {
            let input = w.input_descriptor();
            size_min = size_min.min(input.total_bytes);
            size_max = size_max.max(input.total_bytes);
            sparsity_min = sparsity_min.min(input.sparsity);
            sparsity_max = sparsity_max.max(input.sparsity);
            let kernels = w.involved_motifs().len() as u32;
            kernels_min = kernels_min.min(kernels);
            kernels_max = kernels_max.max(kernels);
            if w.kind().is_ai() {
                ai += 1;
            }
        }
        Self {
            ai_fraction: ai as f64 / workloads.len() as f64,
            kernels_min,
            kernels_max,
            size_distribution: SizeDistribution::LogUniform,
            size_min_bytes: size_min,
            size_max_bytes: size_max,
            sparsity_min,
            sparsity_max,
            ..Self::default()
        }
    }

    /// Validates the spec's ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.size == 0 {
            return Err("population size must be at least 1".into());
        }
        if self.kernels_min == 0 {
            return Err("kernels-min must be at least 1".into());
        }
        if self.kernels_min > self.kernels_max {
            return Err(format!(
                "kernels-min {} exceeds kernels-max {}",
                self.kernels_min, self.kernels_max
            ));
        }
        if !(0.0..=1.0).contains(&self.ai_fraction) {
            return Err(format!("ai-fraction {} outside [0, 1]", self.ai_fraction));
        }
        if self.size_min_bytes == 0 {
            return Err("size-min must be positive".into());
        }
        if self.size_min_bytes > self.size_max_bytes {
            return Err(format!(
                "size-min {} exceeds size-max {}",
                self.size_min_bytes, self.size_max_bytes
            ));
        }
        if !(0.0..=1.0).contains(&self.sparsity_min)
            || !(0.0..=1.0).contains(&self.sparsity_max)
            || self.sparsity_min > self.sparsity_max
        {
            return Err(format!(
                "sparsity range [{}, {}] invalid",
                self.sparsity_min, self.sparsity_max
            ));
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent <= 0.0 {
            return Err(format!(
                "zipf-exponent {} must be positive",
                self.zipf_exponent
            ));
        }
        if let Some(budget) = self.duration_budget_secs {
            if !budget.is_finite() || budget <= 0.0 {
                return Err(format!("duration-budget-secs {budget} must be positive"));
            }
        }
        Ok(())
    }

    /// Hash of every *sampling-relevant* parameter — the fields that
    /// determine what member `rank` looks like.  `size` and the
    /// duration budget are deliberately excluded: they select *which*
    /// ranks run, not what a rank *is*, so stored results stay valid
    /// when a population is grown or re-budgeted.
    pub fn spec_hash(&self) -> u64 {
        let canonical = format!(
            "population-spec|family:{}|seed:{:016x}|ai:{:.9}|kernels:{}-{}|dist:{}|bytes:{}-{}|zipf:{:.9}|sparsity:{:.9}-{:.9}",
            self.family,
            self.base_seed,
            self.ai_fraction,
            self.kernels_min,
            self.kernels_max,
            self.size_distribution,
            self.size_min_bytes,
            self.size_max_bytes,
            self.zipf_exponent,
            self.sparsity_min,
            self.sparsity_max,
        );
        hash_bytes(canonical.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::rng::seeded_rng;

    #[test]
    fn family_names_round_trip() {
        for family in TopologyFamily::ALL {
            assert_eq!(family.name().parse::<TopologyFamily>(), Ok(family));
            assert_eq!(family.to_string().parse::<TopologyFamily>(), Ok(family));
        }
        assert_eq!("ForkJoin".parse(), Ok(TopologyFamily::ForkJoin));
        assert_eq!("fork_join".parse(), Ok(TopologyFamily::ForkJoin));
        assert!("ring".parse::<TopologyFamily>().is_err());
    }

    #[test]
    fn distribution_names_round_trip() {
        for dist in SizeDistribution::ALL {
            assert_eq!(dist.name().parse::<SizeDistribution>(), Ok(dist));
        }
        assert_eq!("LogUniform".parse(), Ok(SizeDistribution::LogUniform));
        assert!("pareto".parse::<SizeDistribution>().is_err());
    }

    #[test]
    fn samples_stay_in_range_for_every_distribution() {
        let (min, max) = (1u64 << 20, 1u64 << 36);
        for dist in SizeDistribution::ALL {
            let mut rng = seeded_rng(7);
            for _ in 0..200 {
                let v = dist.sample_bytes(&mut rng, min, max, 1.5);
                assert!((min..=max).contains(&v), "{dist}: {v}");
            }
        }
    }

    #[test]
    fn zipf_skews_toward_the_minimum_and_uniform_does_not() {
        let (min, max) = (1u64 << 20, 1u64 << 36);
        let median = |dist: SizeDistribution| {
            let mut rng = seeded_rng(11);
            let mut xs: Vec<u64> = (0..401)
                .map(|_| dist.sample_bytes(&mut rng, min, max, 2.0))
                .collect();
            xs.sort_unstable();
            xs[xs.len() / 2]
        };
        assert!(median(SizeDistribution::Zipf) < median(SizeDistribution::LogUniform));
        assert!(median(SizeDistribution::LogUniform) < median(SizeDistribution::Uniform));
    }

    #[test]
    fn degenerate_range_returns_the_single_point() {
        let mut rng = seeded_rng(3);
        let v = SizeDistribution::Uniform.sample_bytes(&mut rng, 42, 42, 1.5);
        assert_eq!(v, 42);
    }

    #[test]
    fn default_spec_validates() {
        PopulationSpec::default().validate().expect("default valid");
    }

    #[test]
    fn fitted_spec_spans_the_paper_suite() {
        let spec = PopulationSpec::fit_to_paper();
        spec.validate().expect("fitted spec valid");
        assert!((spec.ai_fraction - 0.25).abs() < 1e-9, "2 of 8 are AI");
        assert!(spec.size_min_bytes < spec.size_max_bytes);
        assert!(spec.kernels_min >= 1 && spec.kernels_min <= spec.kernels_max);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let base = PopulationSpec::default();
        assert!(PopulationSpec { size: 0, ..base }.validate().is_err());
        assert!(PopulationSpec {
            kernels_min: 9,
            kernels_max: 3,
            ..base
        }
        .validate()
        .is_err());
        assert!(PopulationSpec {
            ai_fraction: 1.5,
            ..base
        }
        .validate()
        .is_err());
        assert!(PopulationSpec {
            size_min_bytes: 0,
            ..base
        }
        .validate()
        .is_err());
        assert!(PopulationSpec {
            sparsity_min: 0.9,
            sparsity_max: 0.1,
            ..base
        }
        .validate()
        .is_err());
        assert!(PopulationSpec {
            zipf_exponent: -1.0,
            ..base
        }
        .validate()
        .is_err());
        assert!(PopulationSpec {
            duration_budget_secs: Some(0.0),
            ..base
        }
        .validate()
        .is_err());
    }

    #[test]
    fn spec_hash_ignores_size_and_budget_but_not_sampling_params() {
        let base = PopulationSpec::default();
        let grown = PopulationSpec { size: 500, ..base };
        let budgeted = PopulationSpec {
            duration_budget_secs: Some(60.0),
            ..base
        };
        assert_eq!(base.spec_hash(), grown.spec_hash());
        assert_eq!(base.spec_hash(), budgeted.spec_hash());
        let reseeded = PopulationSpec {
            base_seed: 1,
            ..base
        };
        let refit = PopulationSpec {
            ai_fraction: 0.5,
            ..base
        };
        assert_ne!(base.spec_hash(), reseeded.spec_hash());
        assert_ne!(base.spec_hash(), refit.spec_hash());
    }
}
