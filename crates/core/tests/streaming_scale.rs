//! Peak-RSS pin for large cells: granules bound the executor's memory.
//!
//! Lives in its own integration-test binary so no sibling test inflates
//! the process's `VmHWM` high-water mark before the measurement: the
//! assertion reads `/proc/self/status`, which reports the peak over the
//! *whole* process lifetime.
//!
//! The cell size scales with the build profile — debug kernels are an
//! order of magnitude slower, so tier-1 (`cargo test`) runs 10^6
//! elements while the release CI `accuracy-gate` job runs 10^7 — but the
//! assertion is the same: every edge runs one granule at a time, so peak
//! RSS is set by one granule's scratch, not by the cell's element count,
//! and a bounded ceiling holds at any scale.

#![cfg(target_os = "linux")]

use dmpb_core::{DagExecutor, ProxyGenerator};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

/// The process's peak resident set size in kilobytes, from
/// `/proc/self/status` (`VmHWM` is maintained by the kernel and never
/// decreases).
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix("VmHWM:")?;
            rest.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
        .expect("VmHWM line in /proc/self/status")
}

#[test]
fn large_cell_peak_rss_is_bounded_by_the_granule_scratch() {
    const ELEMENTS: usize = if cfg!(debug_assertions) {
        1_000_000
    } else {
        10_000_000
    };
    // Generous versus a granule's scratch, tiny versus the data: a
    // materialised 10^7-record text dataset alone would be ~1 GB per
    // DAG edge.
    const CEILING_MB: u64 = 384;

    let report = ProxyGenerator::new(ClusterConfig::five_node_westmere())
        .generate_kind(WorkloadKind::TeraSort);
    let executor = DagExecutor::new();
    let execution = report.proxy.execute_dag(&executor, ELEMENTS, 42);
    assert!(execution.kernels_run() > 0);
    assert_ne!(execution.checksum, 0, "execution must have done work");

    let hwm_kb = vm_hwm_kb();
    println!("peak RSS {hwm_kb} kB for a {ELEMENTS}-element cell");
    assert!(
        hwm_kb < CEILING_MB * 1024,
        "peak RSS {hwm_kb} kB exceeds the {CEILING_MB} MB granule ceiling \
         for a {ELEMENTS}-element cell"
    );
}
