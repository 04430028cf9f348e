//! Profiling determinism: turning the kernel profiler on must never
//! change what a campaign produces — reports and digests are
//! byte-identical with profiling on or off, serial or parallel — and
//! the profiler's counters must account for exactly the elements the
//! campaign's cells executed.
//!
//! Both tests flip the process-global [`KernelProfiler`], so they
//! serialize on a file-local mutex (this integration-test binary is its
//! own process; nothing outside it shares the profiler instance).

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use dmpb_core::executor::DagExecutor;
use dmpb_core::ProxyGenerator;
use dmpb_motifs::KernelProfiler;
use dmpb_scenario::runner::CampaignRunner;
use dmpb_scenario::Scenario;
use dmpb_workloads::WorkloadKind;

/// Serializes the tests' use of the process-global profiler.
fn profiler_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn profiling_on_or_off_yields_byte_identical_campaign_reports() {
    let _guard = profiler_lock();
    let profiler = KernelProfiler::global();
    let was_enabled = profiler.set_enabled(false);

    // All eight workloads — the full suite matrix, so every registered
    // kernel kind is on the line.
    let scenario = Scenario::with_defaults("profiling-determinism");
    assert_eq!(scenario.workloads.len(), WorkloadKind::ALL.len());

    // Fresh runners throughout: every campaign is cold (nothing served
    // from a store), so all four really execute kernels.
    let plain_serial = CampaignRunner::new().with_workers(1).run(&scenario);
    let plain_parallel = CampaignRunner::new().with_workers(8).run(&scenario);
    assert!(
        !profiler.enabled(),
        "plain campaigns must not enable profiling"
    );

    let profiled_serial = CampaignRunner::new()
        .with_workers(1)
        .with_kernel_profiling(true)
        .run(&scenario);
    assert!(
        profiler.enabled(),
        "a profiling campaign enables the global profiler"
    );
    let profiled_parallel = CampaignRunner::new()
        .with_workers(8)
        .with_kernel_profiling(true)
        .run(&scenario);
    profiler.set_enabled(was_enabled);

    // Byte-identical across profiling state and worker count alike.
    let baseline = plain_serial.to_lines();
    assert!(!baseline.is_empty());
    assert_eq!(baseline, plain_parallel.to_lines());
    assert_eq!(baseline, profiled_serial.to_lines());
    assert_eq!(baseline, profiled_parallel.to_lines());
    assert_eq!(plain_serial.digest(), profiled_parallel.digest());
}

#[test]
fn profiler_counters_account_for_every_executed_element() {
    let _guard = profiler_lock();
    let profiler = KernelProfiler::global();
    let was_enabled = profiler.set_enabled(false);

    // Two workloads keep the independent re-derivation below cheap.
    let scenario = {
        let mut s = Scenario::with_defaults("profiling-totals");
        s.workloads = vec![WorkloadKind::TeraSort, WorkloadKind::PageRank];
        s
    };

    // Expected totals, derived independently of the profiler: rebuild
    // each cell's proxy and re-execute its DAG (profiling off), summing
    // what the execution itself reports.  The profiler records once per
    // executed edge, so each edge is counted exactly once.
    let mut expected_elements = 0u64;
    let mut expected_invocations = 0u64;
    for cell in scenario.expand() {
        let report = ProxyGenerator::new(cell.tuning_cluster()).generate_kind(cell.kind);
        let execution = report
            .proxy
            .execute_dag(&DagExecutor::new(), cell.elements, cell.seed);
        expected_elements += execution.total_elements() as u64;
        expected_invocations += execution.kernels_run() as u64;
    }
    assert!(expected_elements > 0);
    assert!(
        !profiler.enabled(),
        "expected-total derivation must not record into the profiler"
    );

    // One cold profiled campaign; the counter deltas around it must
    // equal the independent sums exactly — per-kind counters roll up to
    // per-cell element counts with nothing lost and nothing double
    // counted.
    let before = profiler.snapshot();
    let report = CampaignRunner::new()
        .with_workers(1)
        .with_kernel_profiling(true)
        .run(&scenario);
    profiler.set_enabled(was_enabled);
    let after = profiler.snapshot();

    assert_eq!(report.cache_hits(), 0, "campaign must really execute");
    assert_eq!(
        after.total_elements() - before.total_elements(),
        expected_elements
    );
    assert_eq!(
        after.total_invocations() - before.total_invocations(),
        expected_invocations
    );
}
