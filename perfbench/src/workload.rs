//! The three benchmark workloads, as the campaigns one pass runs.
//!
//! The workload seed drives the sample-execution data of every cell (the
//! scenario seed axis).  The population members are fixed by their own
//! base seed, so every seed runs the same tunes: the paper's proxies are
//! tuned once and then driven by changing input data.

use dmpb_core::runner::DEFAULT_BASE_SEED;
use dmpb_datagen::rng::derive_seed;
use dmpb_population::{PopulationSpec, TopologyFamily, DEFAULT_POPULATION_SEED};
use dmpb_scenario::Scenario;

/// The seed the pinned digests were recorded at: the suite runner's
/// default base seed, so `gen-serial`'s named campaign is exactly the
/// `paper_tables` campaign.
pub const DEFAULT_SEED: u64 = DEFAULT_BASE_SEED;

/// Population members `gen-serial` sweeps one at a time.
pub const GEN_POPULATION: u32 = 8;

/// Population members `campaign-cold` sweeps: enough tunes that the
/// median cell sits among closely spaced tune latencies.
const COLD_POPULATION: u32 = 16;

/// Seeds in one `data-sweep` round; the first [`SWEEP_SETUP_SEEDS`] are
/// run during set-up.  Five and two put the median cell among the
/// executed 2^16 cells instead of on the store-hit boundary.
const SWEEP_SEEDS: u64 = 5;
const SWEEP_SETUP_SEEDS: usize = 2;

/// The two data scales of the changing-input study.
pub const SWEEP_ELEMENTS: [usize; 2] = [1 << 16, 1 << 22];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold proxy at a time: the paper's core act.
    GenSerial,
    /// The cross-architecture campaign plus a population, every core busy.
    CampaignCold,
    /// Seeds × data scales over already-tuned proxies, half store-served.
    DataSweep,
}

/// The campaigns of one pass, run on one fresh runner and store.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Campaigns run before the timed phase (counted in `setup_s`).
    pub setup: Vec<Scenario>,
    /// Campaigns of the timed phase.
    pub timed: Vec<Scenario>,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::GenSerial,
        Workload::CampaignCold,
        Workload::DataSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GenSerial => "gen-serial",
            Workload::CampaignCold => "campaign-cold",
            Workload::DataSweep => "data-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }

    /// Concurrent cells: one for `gen-serial`, every core otherwise.
    pub fn width(self, nproc: usize) -> usize {
        match self {
            Workload::GenSerial => 1,
            Workload::CampaignCold | Workload::DataSweep => nproc.max(1),
        }
    }

    /// Passes every run makes at least, whatever `--seconds` says; the
    /// tail percentile is fixed from the cells they hold, so a run that
    /// fits one more pass still reports the same percentile.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::GenSerial => 3,
            Workload::CampaignCold => 2,
            Workload::DataSweep => 3,
        }
    }

    /// Whether the timed phase needs a warm-up cell in set-up (workloads
    /// whose set-up campaign already warms the process do not).
    pub fn warms_up(self) -> bool {
        self.plan(DEFAULT_SEED, 1).setup.is_empty()
    }

    /// The campaigns of one pass at `seed`, `width` cells at a time.
    pub fn plan(self, seed: u64, width: usize) -> Plan {
        let plan = match self {
            Workload::GenSerial => {
                let mut named = scenario("gen-serial-named", seed);
                named.elements = vec![2000];
                let mut population = scenario("gen-serial-population", seed);
                population.workloads.clear();
                population.elements = vec![500];
                population.population = Some(population_spec(GEN_POPULATION));
                Plan {
                    setup: Vec::new(),
                    timed: vec![named, population],
                }
            }
            Workload::CampaignCold => {
                let mut named = scenario("campaign-cold-cross-architecture", seed);
                named.clusters = vec!["three-node-westmere-64gb".to_string()];
                named.architectures = vec!["westmere".to_string(), "haswell".to_string()];
                named.tuning_cluster = Some("five-node-westmere".to_string());
                // Members are measured on one architecture only, so tunes
                // outnumber reused tunes and the median cell is a tune.
                let mut population = scenario("campaign-cold-population", seed);
                population.workloads.clear();
                population.clusters = named.clusters.clone();
                population.tuning_cluster = named.tuning_cluster.clone();
                population.population = Some(population_spec(COLD_POPULATION));
                Plan {
                    setup: Vec::new(),
                    timed: vec![named, population],
                }
            }
            Workload::DataSweep => {
                let mut sweep = scenario("data-sweep", seed);
                sweep.elements = SWEEP_ELEMENTS.to_vec();
                sweep.seeds = (0..SWEEP_SEEDS).map(|i| derive_seed(seed, i)).collect();
                let mut setup = sweep.clone();
                setup.name = "data-sweep-setup".to_string();
                setup.seeds.truncate(SWEEP_SETUP_SEEDS);
                Plan {
                    setup: vec![setup],
                    timed: vec![sweep],
                }
            }
        };
        let with_width = |mut s: Scenario| {
            s.workers = Some(width);
            s
        };
        Plan {
            setup: plan.setup.into_iter().map(with_width).collect(),
            timed: plan.timed.into_iter().map(with_width).collect(),
        }
    }
}

fn scenario(name: &str, seed: u64) -> Scenario {
    let mut s = Scenario::with_defaults(name);
    s.seeds = vec![seed];
    s
}

/// The first `size` members of the `mixed`-family population the
/// generation workloads sweep.
pub fn population_spec(size: u32) -> PopulationSpec {
    PopulationSpec {
        family: TopologyFamily::Mixed,
        size,
        base_seed: DEFAULT_POPULATION_SEED,
        ..PopulationSpec::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_have_the_designed_shape() {
        let gen = Workload::GenSerial.plan(DEFAULT_SEED, 1);
        let cells: Vec<usize> = gen.timed.iter().map(|s| s.expand().len()).collect();
        assert_eq!(cells, vec![8, GEN_POPULATION as usize]);
        assert!(gen.timed.iter().all(|s| s.workers == Some(1)));

        let cold = Workload::CampaignCold.plan(DEFAULT_SEED, 2);
        let cells: Vec<usize> = cold.timed.iter().map(|s| s.expand().len()).collect();
        assert_eq!(cells, vec![16, COLD_POPULATION as usize]);

        let sweep = Workload::DataSweep.plan(DEFAULT_SEED, 2);
        assert_eq!(sweep.setup[0].expand().len(), 2 * 2 * 8);
        assert_eq!(sweep.timed[0].expand().len(), 5 * 2 * 8);
        assert!(Workload::GenSerial.warms_up() && !Workload::DataSweep.warms_up());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("hit").is_err());
    }
}
