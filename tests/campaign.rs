//! Campaign-engine gates: scenario expansion determinism, result-store
//! byte-identity across cold/warm runs and worker counts, and the
//! digest pins of the bundled paper-tables and cross-architecture
//! scenarios.

use data_motif_proxy::core::runner::{DEFAULT_BASE_SEED, SAMPLE_ELEMENTS};
use data_motif_proxy::scenario::{
    builtin, CampaignRunner, ResultStore, Scenario, CODE_MODEL_VERSION,
};
use data_motif_proxy::workloads::{ClusterConfig, WorkloadKind};
use proptest::prelude::*;

/// `CampaignReport::digest` of `builtin::paper_tables()`: the eight
/// proxies of Table VI on the five-node Westmere cluster.  Recorded when
/// the campaign still matched the eight-proxy suite sweep byte for
/// byte; it moves only with a `CODE_MODEL_VERSION` bump.
const PAPER_TABLES_DIGEST: u64 = 0x1da1_690a_015f_d045;

/// `CampaignReport::digest` of `builtin::cross_architecture()`: the
/// Fig. 10 cells, tuned on the five-node cluster and measured on
/// Westmere and Haswell.  Moves only with a `CODE_MODEL_VERSION` bump.
const CROSS_ARCHITECTURE_DIGEST: u64 = 0x32a0_a3e7_89b4_7ba3;

/// The acceptance gate: running the committed
/// `examples/scenarios/paper_tables.toml` through the campaign engine
/// yields the pinned digest whether its cells run one at a time or
/// eight at a time, and a warm re-run is served ≥ 90 % from the result
/// store.
#[test]
fn paper_tables_scenario_reproduces_the_legacy_table6_sweep() {
    let file = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/paper_tables.toml"
    ))
    .expect("the committed scenario file exists");
    let scenario = Scenario::parse(&file).expect("the committed scenario file parses");
    assert_eq!(
        scenario,
        builtin::paper_tables(),
        "the committed file and the embedded builtin must be one source"
    );

    let serial = CampaignRunner::new().with_workers(1).run(&scenario);
    let campaign_runner = CampaignRunner::new().with_workers(8);
    let campaign = campaign_runner.run(&scenario);
    assert_eq!(campaign.outcomes.len(), 8);
    assert_eq!(
        serial.digest(),
        PAPER_TABLES_DIGEST,
        "paper-tables digest moved at width 1:\n{}",
        serial.to_lines()
    );
    assert_eq!(
        campaign.digest(),
        PAPER_TABLES_DIGEST,
        "paper-tables digest moved at width 8:\n{}",
        campaign.to_lines()
    );

    // Warm re-run: ≥ 90 % (here: all) of the cells come from the store,
    // with an unchanged campaign digest.
    let warm = campaign_runner.run(&scenario);
    assert!(
        warm.hit_ratio() >= 0.9,
        "warm hit ratio {:.2} below the 90% gate",
        warm.hit_ratio()
    );
    assert_eq!(warm.digest(), campaign.digest());
    assert_eq!(warm.to_lines(), campaign.to_lines());
}

/// The cross-architecture scenario (proxies tuned on one cluster,
/// measured on another on two processors) reproduces its pinned digest.
#[test]
fn cross_architecture_scenario_matches_its_pinned_digest() {
    let report = CampaignRunner::new().run(&builtin::cross_architecture());
    assert_eq!(report.outcomes.len(), 16);
    assert_eq!(
        report.digest(),
        CROSS_ARCHITECTURE_DIGEST,
        "cross-architecture digest moved:\n{}",
        report.to_lines()
    );
}

/// Cold runs at 1 and 8 workers and a disk-served warm run must produce
/// byte-identical reports: the store roundtrips through JSON lines
/// without changing a single bit of any cell.
#[test]
fn store_served_cells_are_byte_identical_across_1_and_8_workers() {
    let mut scenario = Scenario::with_defaults("store-identity");
    scenario.workloads = vec![
        WorkloadKind::TeraSort,
        WorkloadKind::AlexNet,
        WorkloadKind::SparkPageRank,
    ];
    scenario.seeds = vec![DEFAULT_BASE_SEED, 4242];

    let dir = std::env::temp_dir().join(format!("dmpb-campaign-test-{}", std::process::id()));
    let path = dir.join("results.jsonl");
    std::fs::remove_file(&path).ok();

    let cold_serial = CampaignRunner::with_store(ResultStore::open(&path).unwrap())
        .with_workers(1)
        .run(&scenario);
    assert_eq!(cold_serial.cache_hits(), 0);

    let cold_parallel = CampaignRunner::new().with_workers(8).run(&scenario);
    assert_eq!(cold_parallel.cache_hits(), 0);
    assert_eq!(cold_serial.to_lines(), cold_parallel.to_lines());
    assert_eq!(cold_serial.digest(), cold_parallel.digest());

    // Warm run from the persisted bytes, wide worker pool.
    let warm_runner = CampaignRunner::with_store(ResultStore::open(&path).unwrap());
    let warm = warm_runner.with_workers(8).run(&scenario);
    assert_eq!(warm.cache_hits(), warm.outcomes.len());
    assert_eq!(warm.to_lines(), cold_serial.to_lines());
    assert_eq!(warm.digest(), cold_serial.digest());

    std::fs::remove_dir_all(&dir).ok();
}

fn scenario_from_draw(
    workload_mask: usize,
    cluster_count: usize,
    seeds: Vec<u64>,
    elements: Vec<u64>,
    exclude_first: bool,
) -> Scenario {
    let mut s = Scenario::with_defaults("prop");
    s.workloads = WorkloadKind::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| workload_mask & (1 << i) != 0)
        .map(|(_, k)| *k)
        .collect();
    if s.workloads.is_empty() {
        s.workloads = vec![WorkloadKind::TeraSort];
    }
    s.clusters = ClusterConfig::NAMES[..cluster_count]
        .iter()
        .map(|n| n.to_string())
        .collect();
    s.seeds = seeds;
    s.elements = elements.into_iter().map(|e| e as usize).collect();
    if exclude_first {
        s.exclude.push(data_motif_proxy::scenario::CellFilter {
            workload: Some(s.workloads[0]),
            ..Default::default()
        });
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expanding the same scenario twice yields identical cell orderings
    /// and fingerprints, and every fingerprint is unique within the
    /// matrix.
    #[test]
    fn expansion_is_deterministic(
        workload_mask in 1usize..256,
        cluster_count in 1usize..4,
        seed_a in 0u64..1_000_000,
        seed_b in 0u64..1_000_000,
        elements in prop::collection::vec(1u64..5_000, 1..3),
        exclude_first in 0u32..2,
    ) {
        let scenario = scenario_from_draw(
            workload_mask,
            cluster_count,
            vec![seed_a, seed_b],
            elements,
            exclude_first == 1,
        );
        let first = scenario.expand();
        let second = scenario.expand();
        prop_assert_eq!(&first, &second);
        let fingerprints: Vec<u64> =
            first.iter().map(|c| c.fingerprint(CODE_MODEL_VERSION)).collect();
        let again: Vec<u64> =
            second.iter().map(|c| c.fingerprint(CODE_MODEL_VERSION)).collect();
        prop_assert_eq!(&fingerprints, &again);

        // Distinct axis points get distinct content addresses (seed_a ==
        // seed_b collapses the seed axis by dedup at parse time, but the
        // programmatic path keeps both — those cells are then identical,
        // which the store deduplicates by design).
        for (i, cell) in first.iter().enumerate() {
            for (j, other) in first.iter().enumerate().skip(i + 1) {
                if cell.kind == other.kind
                    && cell.cluster_name == other.cluster_name
                    && cell.elements == other.elements
                    && cell.base_seed == other.base_seed
                {
                    continue;
                }
                prop_assert_ne!(
                    fingerprints[i], fingerprints[j],
                    "cells {} and {} collide", i, j
                );
            }
        }
        // Order is the declared nesting: indices are dense and ascending.
        for (i, cell) in first.iter().enumerate() {
            prop_assert_eq!(cell.index, i);
        }
    }

    /// Parsing a rendered scenario file reproduces the scenario: the DSL
    /// and the programmatic constructors agree.
    #[test]
    fn dsl_round_trips_programmatic_scenarios(
        workload_mask in 1usize..256,
        cluster_count in 1usize..4,
        seed in 0u64..u64::MAX,
        elements in 1u64..100_000,
    ) {
        let scenario = scenario_from_draw(
            workload_mask,
            cluster_count,
            vec![seed],
            vec![elements],
            false,
        );
        let mut toml = String::from("[scenario]\nname = \"prop\"\n[axes]\n");
        toml.push_str(&format!(
            "workloads = [{}]\n",
            scenario
                .workloads
                .iter()
                .map(|w| format!("\"{w}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        toml.push_str(&format!(
            "clusters = [{}]\n",
            scenario
                .clusters
                .iter()
                .map(|c| format!("\"{c}\""))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        toml.push_str(&format!("seeds = [{seed}]\nelements = [{elements}]\n"));
        let parsed = Scenario::parse(&toml).expect("rendered scenario parses");
        prop_assert_eq!(parsed.expand(), scenario.expand());
    }
}

/// `SAMPLE_ELEMENTS` is the scenario default — if the suite constant
/// moves, the bundled scenarios must move with it or stop claiming
/// equivalence.
#[test]
fn bundled_scenarios_track_the_suite_defaults() {
    assert_eq!(
        builtin::paper_tables().elements,
        vec![SAMPLE_ELEMENTS],
        "paper_tables.toml drifted from SAMPLE_ELEMENTS"
    );
    assert_eq!(builtin::paper_tables().seeds, vec![DEFAULT_BASE_SEED]);
    assert_eq!(builtin::cross_architecture().seeds, vec![DEFAULT_BASE_SEED]);
}
