//! Determinism gates for synthetic workload populations (PR 10): one
//! seed byte-reproduces the population and its campaign digest across
//! worker counts and store warmth; duration-budget
//! truncation always keeps a rank prefix of the untruncated population.

use dmpb_population::{PopulationGenerator, PopulationSpec};
use dmpb_scenario::{CampaignRunner, ResultStore, Scenario};
use dmpb_workloads::WorkloadKind;
use proptest::prelude::*;

fn population_scenario(size: u32, seed: u64) -> Scenario {
    let mut s = Scenario::with_defaults("population-determinism");
    s.workloads = Vec::new();
    s.population = Some(PopulationSpec {
        size,
        base_seed: seed,
        ..PopulationSpec::default()
    });
    s
}

/// The satellite gate: the same seeded population campaign digests
/// byte-identically under 1 vs 8 workers and cold vs warm store.
#[test]
fn campaign_digests_survive_workers_and_warmth() {
    let scenario = population_scenario(2, 0xBEEF);

    let runner = CampaignRunner::new().with_workers(1);
    let cold = runner.run(&scenario);
    assert_eq!(cold.cells().count(), 2);
    assert_eq!(cold.cache_hits(), 0);
    assert!(cold.cells().all(|c| c.population.is_some()));
    let plan = cold.population.as_ref().expect("population plan");
    assert_eq!(plan.planned, 2);
    assert!(!plan.truncated());

    let warm = runner.run(&scenario);
    assert_eq!(warm.cache_hits(), 2);
    assert_eq!(cold.to_lines(), warm.to_lines());
    assert_eq!(cold.digest(), warm.digest());

    let parallel = CampaignRunner::new().with_workers(8).run(&scenario);
    assert_eq!(parallel.to_lines(), cold.to_lines());
    assert_eq!(parallel.digest(), cold.digest());
}

/// A mixed (named + synthetic) campaign persisted to a sharded store is
/// served byte-identically by a fresh process-equivalent reopen — the
/// synthetic records round-trip through the store's JSONL and the
/// lookup path keeps named and synthetic cells disjoint.
#[test]
fn mixed_campaign_round_trips_through_a_sharded_store() {
    let dir = std::env::temp_dir().join(format!("dmpb-population-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut scenario = population_scenario(2, 0xF00D);
    scenario.workloads = vec![WorkloadKind::TeraSort];

    let cold = {
        let store = ResultStore::open_sharded(&dir, 4).unwrap();
        CampaignRunner::with_store(store).run(&scenario)
    };
    assert_eq!(cold.cells().count(), 3);
    assert_eq!(cold.cache_hits(), 0);

    let warm = {
        let store = ResultStore::open_sharded(&dir, 4).unwrap();
        CampaignRunner::with_store(store).run(&scenario)
    };
    assert_eq!(warm.cache_hits(), 3, "every cell is served from disk");
    assert_eq!(warm.to_lines(), cold.to_lines());
    assert_eq!(warm.digest(), cold.digest());

    // The named cell and the synthetic cells stayed distinct records.
    let named: Vec<_> = warm.cells().filter(|c| c.population.is_none()).collect();
    let synthetic: Vec<_> = warm.cells().filter(|c| c.population.is_some()).collect();
    assert_eq!((named.len(), synthetic.len()), (1, 2));
    assert!(synthetic.iter().all(|c| c
        .population
        .as_ref()
        .unwrap()
        .label
        .starts_with("synthetic-")));

    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One seed byte-reproduces the whole population: two independent
    /// generators over the same spec emit identical members.
    #[test]
    fn one_seed_byte_reproduces_the_population(seed in 0u64..u64::MAX) {
        let spec = PopulationSpec {
            size: 12,
            base_seed: seed,
            ..PopulationSpec::default()
        };
        let a = PopulationGenerator::new(spec).unwrap().generate();
        let b = PopulationGenerator::new(spec).unwrap().generate();
        prop_assert_eq!(a.len(), 12);
        for (ma, mb) in a.iter().zip(&b) {
            prop_assert_eq!(ma.describe_json(), mb.describe_json());
            prop_assert_eq!(ma.member_hash(), mb.member_hash());
        }
    }

    /// Duration-budget truncation yields a rank prefix of the
    /// untruncated population — never a reordering or resampling.
    #[test]
    fn budget_truncation_is_a_rank_prefix(
        seed in 0u64..u64::MAX,
        budget in 1u64..200,
    ) {
        let spec = PopulationSpec {
            size: 10,
            base_seed: seed,
            ..PopulationSpec::default()
        };
        let full = PopulationGenerator::new(spec).unwrap().generate();
        let mut bounded = spec;
        bounded.duration_budget_secs = Some(budget as f64 / 10.0);
        let kept = PopulationGenerator::new(bounded).unwrap().generate_budgeted();
        prop_assert!(!kept.members.is_empty(), "a budget always keeps rank 0");
        prop_assert!(kept.members.len() <= full.len());
        for (k, f) in kept.members.iter().zip(&full) {
            prop_assert_eq!(k.describe_json(), f.describe_json());
        }
    }
}
