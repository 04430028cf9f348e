//! Golden accuracy test: pins the Table VI-style behaviour of the
//! eight-proxy suite (the paper's five workloads plus the three Spark
//! stack twins) on the Westmere cluster model.
//!
//! The paper's Table VI shows each proxy reproducing its workload's
//! runtime behaviour at a ~100x speedup.  A proxy's absolute runtime is
//! *deliberately* orders of magnitude smaller than the original's, so the
//! meaningful "runtime deviation" is over the architecture-normalised
//! execution rate — IPC, the metric that determines runtime once the data
//! size is scaled out.  This suite pins:
//!
//! * IPC deviation ≤ 15 % between each proxy and its real workload;
//! * runtime speedup ≥ 100x for every proxy (Table VI shows 136x–743x);
//! * suite-level average metric accuracy, as a regression floor;
//! * determinism: derived per-proxy seeds are stable and distinct, the
//!   paper-tables campaign keeps its pinned digest, and that campaign,
//!   which tunes its eight cells concurrently, reproduces every tune of
//!   the serial suite.
//!
//! CI runs this file in release mode as the **accuracy gate**: a model or
//! tuner change that pushes any of the eight workloads past the deviation
//! or speedup floors fails the build.
//!
//! Tuning all eight proxies is the expensive step, so the file tunes two
//! independent suites once (the serial [`ProxySuite::generate`] and the
//! paper-tables campaign at its default width) and asserts everything
//! against those.

use std::sync::OnceLock;

use data_motif_proxy::core::runner::DEFAULT_BASE_SEED;
use data_motif_proxy::core::ProxySuite;
use data_motif_proxy::datagen::rng::derive_seed;
use data_motif_proxy::metrics::MetricId;
use data_motif_proxy::scenario::{builtin, CampaignReport, CampaignRunner};
use data_motif_proxy::workloads::{ClusterConfig, Framework, WorkloadKind};

/// The paper-tables campaign digest, as pinned in `tests/campaign.rs`.
const PAPER_TABLES_DIGEST: u64 = 0x1da1_690a_015f_d045;

/// The eight proxies tuned one after another.
fn suite() -> &'static ProxySuite {
    static SUITE: OnceLock<ProxySuite> = OnceLock::new();
    SUITE.get_or_init(|| ProxySuite::generate(ClusterConfig::five_node_westmere()))
}

/// The same eight workloads tuned and executed as the cells of the
/// paper-tables campaign, several at a time.
fn campaign() -> &'static CampaignReport {
    static CAMPAIGN: OnceLock<CampaignReport> = OnceLock::new();
    CAMPAIGN.get_or_init(|| CampaignRunner::new().run(&builtin::paper_tables()))
}

#[test]
fn proxies_match_real_runtime_behaviour_on_westmere() {
    let suite = suite();
    assert_eq!(
        suite.reports().len(),
        8,
        "the suite must cover all eight workloads"
    );

    for report in suite.reports() {
        let real_ipc = report.real_metrics.get(MetricId::Ipc);
        let proxy_ipc = report.proxy_metrics.get(MetricId::Ipc);
        let deviation = (proxy_ipc - real_ipc).abs() / real_ipc;
        assert!(
            deviation <= 0.15,
            "{}: IPC deviation {:.1}% exceeds 15% (real {real_ipc:.3}, proxy {proxy_ipc:.3})",
            report.kind,
            deviation * 100.0
        );

        assert!(
            report.speedup >= 100.0,
            "{}: speedup {:.0}x is below the Table VI ~100x floor",
            report.kind,
            report.speedup
        );

        // Regression floor for the per-workload metric-vector accuracy
        // (Equation 3 averaged over the tunable metrics).  The paper
        // reaches >90 %; the reproduction currently reaches 61–88 % —
        // these floors pin today's behaviour so it can only improve.
        assert!(
            report.accuracy.average() >= 0.60,
            "{}: average accuracy {:.1}% fell below the pinned floor",
            report.kind,
            report.accuracy.average() * 100.0
        );
    }

    assert!(
        suite.average_accuracy() >= 0.70,
        "suite average accuracy {:.1}% fell below the pinned floor",
        suite.average_accuracy() * 100.0
    );
    assert!(suite.min_speedup() >= 100.0);
}

#[test]
fn spark_twins_share_the_motif_dag_but_not_the_stack_behaviour() {
    let suite = suite();
    for kind in WorkloadKind::ALL {
        let Some(twin) = kind.stack_twin() else {
            continue;
        };
        if kind.framework() != Framework::Hadoop {
            continue; // visit each pair once, from the Hadoop side
        }
        let hadoop = suite.report(kind);
        let spark = suite.report(twin);
        // Same decomposition: identical motif components and class ratios.
        assert_eq!(
            hadoop.decomposition.components, spark.decomposition.components,
            "{kind}/{twin}"
        );
        assert_eq!(
            hadoop.decomposition.class_ratios,
            spark.decomposition.class_ratios
        );
        // Different stack: the real targets the two proxies were tuned
        // against must differ.
        assert_ne!(
            hadoop.real_metrics, spark.real_metrics,
            "{kind}/{twin} stacks produced identical real metrics"
        );
    }
}

#[test]
fn derived_seeds_are_deterministic_and_distinct_across_all_eight() {
    let cells: Vec<_> = campaign().cells().collect();
    assert_eq!(cells.len(), 8);
    let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
    let derived: Vec<u64> = (0..8).map(|i| derive_seed(DEFAULT_BASE_SEED, i)).collect();
    assert_eq!(seeds, derived, "derived seeds must be deterministic");

    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 8, "every workload gets its own derived seed");

    // The three Spark workloads occupy positions 5..8 of the suite order
    // and their sample executions run real kernels like everyone else's.
    for cell in &cells[5..] {
        assert_eq!(cell.framework, Framework::Spark, "{}", cell.workload);
        assert!(cell.kernels_run > 0, "{}", cell.workload);
    }
}

#[test]
fn eight_entry_suite_digest_is_stable_across_runs_and_worker_counts() {
    assert_eq!(
        campaign().digest(),
        PAPER_TABLES_DIGEST,
        "the eight-entry campaign digest moved"
    );
    let cells: Vec<_> = campaign().cells().collect();
    let kinds: Vec<WorkloadKind> = cells.iter().map(|c| c.workload).collect();
    assert_eq!(kinds, WorkloadKind::ALL.to_vec());
    // The campaign tunes its cells concurrently on its worker pool; the
    // suite tunes them one after another.  Every tune must agree bit for
    // bit: tuning does not depend on scheduling.
    for (cell, report) in cells.iter().zip(suite().reports()) {
        assert_eq!(cell.workload, report.kind);
        assert_eq!(
            cell.accuracy_avg.to_bits(),
            report.accuracy.average().to_bits(),
            "{}",
            cell.workload
        );
        assert_eq!(
            cell.speedup.to_bits(),
            report.speedup.to_bits(),
            "{}",
            cell.workload
        );
        assert_eq!(cell.iterations, report.iterations, "{}", cell.workload);
        assert_eq!(cell.qualified, report.qualified, "{}", cell.workload);
    }
}
