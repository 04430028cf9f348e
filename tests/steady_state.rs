//! The thread-lifetime gate: a campaign runs its cells on at most its
//! width of threads — the caller plus `width - 1` scoped ones — and every
//! thread it spawned has exited by the time it returns, so a runner (or
//! a daemon) holds no thread between campaigns.
//!
//! This lives in its own integration-test binary with one `#[test]` so
//! the process's thread count (`Threads:` in `/proc/self/status`) cannot
//! be perturbed by unrelated tests running concurrently.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use data_motif_proxy::core::runner::DEFAULT_BASE_SEED;
use data_motif_proxy::scenario::{CampaignRunner, CellObserver, Scenario};
use data_motif_proxy::workloads::WorkloadKind;

/// The process's current thread count, as the kernel reports it.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a `Threads:` line in /proc/self/status")
}

/// Asserts that the thread count is back at `baseline`.  Polls for up to
/// about a second: the kernel may drop an exited thread from the count
/// just after `join` has returned.
fn assert_back_to(baseline: usize, campaign: &str) {
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut now = threads();
    while now != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        now = threads();
    }
    assert_eq!(now, baseline, "{campaign}: a thread outlived its campaign");
}

/// A cell observer recording which threads ran cells, and the set it
/// fills.
fn thread_recorder() -> (CellObserver, Arc<Mutex<HashSet<ThreadId>>>) {
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let sink = Arc::clone(&seen);
    let observer: CellObserver = Arc::new(move |_, _| {
        sink.lock().unwrap().insert(std::thread::current().id());
    });
    (observer, seen)
}

/// Empties `seen`, returning what it held.
fn drain(seen: &Mutex<HashSet<ThreadId>>) -> HashSet<ThreadId> {
    std::mem::take(&mut *seen.lock().unwrap())
}

#[test]
fn no_thread_outlives_its_campaign() {
    let baseline = threads();

    // `[executor] workers = 1` on a default-width runner: cells run on
    // the calling thread.
    let (observer, seen) = thread_recorder();
    let mut serial = Scenario::with_defaults("steady-state-serial");
    serial.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::AlexNet];
    serial.workers = Some(1);
    let report = CampaignRunner::new()
        .with_cell_observer(observer)
        .run(&serial);
    assert_eq!(report.outcomes.len(), 2);
    assert_eq!(
        drain(&seen),
        HashSet::from([std::thread::current().id()]),
        "a width-1 campaign ran a cell off the calling thread"
    );
    assert_back_to(baseline, "width-1 campaign");

    // The first width-4 campaign fills the runner's tuning cache.
    let (observer, seen) = thread_recorder();
    let runner = CampaignRunner::new()
        .with_workers(4)
        .with_cell_observer(observer);
    let mut scenario = Scenario::with_defaults("steady-state");
    scenario.workloads = vec![
        WorkloadKind::TeraSort,
        WorkloadKind::KMeans,
        WorkloadKind::AlexNet,
        WorkloadKind::SparkPageRank,
    ];
    let first = runner.run(&scenario);
    let width = drain(&seen).len();
    assert!(
        (1..=4).contains(&width),
        "the first campaign ran on {width} threads"
    );
    assert_back_to(baseline, "first width-4 campaign");

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
        let width = drain(&seen).len();
        assert!(
            (1..=4).contains(&width),
            "round {round} ran on {width} threads"
        );
        assert_back_to(baseline, &format!("round {round}"));
    }
}
