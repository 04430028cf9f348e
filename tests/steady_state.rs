//! The no-spawn gate: a width-1 campaign runs its cells inline and
//! builds no worker pool, and once a wider campaign has built its pool,
//! later campaigns on the same runner must not spawn a single thread —
//! the whole point of the persistent work-stealing pool is that workers
//! are created once and reused across every cell of every campaign.
//!
//! This lives in its own integration-test binary with one `#[test]` so
//! the process-wide [`WorkerPool::total_threads_spawned`] counter cannot
//! be perturbed by unrelated tests creating pools concurrently.

use data_motif_proxy::core::runner::DEFAULT_BASE_SEED;
use data_motif_proxy::motifs::workers::WorkerPool;
use data_motif_proxy::scenario::{CampaignRunner, Scenario};
use data_motif_proxy::workloads::WorkloadKind;

#[test]
fn steady_state_suite_runs_spawn_no_threads() {
    // The process-global pool (chunked motif kernels share it) is built
    // up front, so only campaign pools are counted below.
    let _ = WorkerPool::global();
    let before = WorkerPool::total_threads_spawned();

    // `[executor] workers = 1` on a default-width runner: cells run on
    // the calling thread.
    let mut serial = Scenario::with_defaults("steady-state-serial");
    serial.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::AlexNet];
    serial.workers = Some(1);
    let report = CampaignRunner::new().run(&serial);
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(
        WorkerPool::total_threads_spawned(),
        before,
        "a width-1 campaign built a worker pool"
    );

    // The first width-4 campaign builds the runner's pool and fills its
    // tuning cache.
    let runner = CampaignRunner::new().with_workers(4);
    let mut scenario = Scenario::with_defaults("steady-state");
    scenario.workloads = vec![
        WorkloadKind::TeraSort,
        WorkloadKind::KMeans,
        WorkloadKind::AlexNet,
        WorkloadKind::SparkPageRank,
    ];
    let first = runner.run(&scenario);
    let spawned_after_first = WorkerPool::total_threads_spawned();
    assert_eq!(
        spawned_after_first - before,
        3,
        "width - 1 workers: the calling thread participates"
    );

    // Fresh seeds each round: every cell misses the store and executes,
    // but reuses its workload's tune.
    for round in 1..=3 {
        scenario.seeds = vec![DEFAULT_BASE_SEED + round];
        let again = runner.run(&scenario);
        assert_eq!(again.cache_hits(), 0, "a fresh seed must miss the store");
        for (cell, first_cell) in again.cells().zip(first.cells()) {
            assert_ne!(cell.seed, first_cell.seed, "{}", cell.workload);
            assert_eq!(
                cell.accuracy_avg.to_bits(),
                first_cell.accuracy_avg.to_bits(),
                "{}: the seed axis must not change the tune",
                cell.workload
            );
        }
    }

    assert_eq!(
        WorkerPool::total_threads_spawned(),
        spawned_after_first,
        "steady-state campaign execution spawned a thread"
    );
}
