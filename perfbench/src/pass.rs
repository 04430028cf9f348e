//! Untraced passes: each on a fresh `CampaignRunner` over a fresh
//! sharded store, with per-cell latency from the runner's cell observer.

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use dmpb_core::fnv::hash_bytes;
use dmpb_scenario::{CampaignRunner, CellResult, ResultStore, DEFAULT_STORE_SHARDS};

use crate::gate::PassOutcome;
use crate::workload::{Plan, Workload};

/// What one untraced pass measured.
#[derive(Debug)]
pub struct Pass {
    /// The gate's view of the pass.
    pub outcome: PassOutcome,
    /// Host seconds of the set-up campaigns (store open included).
    pub setup_secs: f64,
    /// Host seconds of the timed campaigns (store open included when
    /// the plan has no set-up campaigns).
    pub timed_secs: f64,
    /// Host seconds of the whole pass.
    pub wall_secs: f64,
    /// Host milliseconds of each timed cell, from the cell observer.
    pub latencies_ms: Vec<f64>,
    /// Each timed campaign's cell lines.
    pub lines: Vec<String>,
    /// Every timed cell's result.
    pub cells: Vec<CellResult>,
    /// The process's peak resident set at the end of the pass, in KiB.
    pub peak_rss_kb: f64,
}

/// Runs one pass of `plan`, `width` cells at a time, in a fresh store
/// under `dir`.
pub fn run_pass(plan: &Plan, width: usize, dir: &Path) -> Result<Pass, String> {
    let cells_planned: usize = plan.timed.iter().map(|s| s.expand().len()).sum();
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&latencies);

    let start = Instant::now();
    let store = ResultStore::open_sharded(dir, DEFAULT_STORE_SHARDS)?;
    let runner = CampaignRunner::with_store(store)
        .with_workers(width)
        .with_cell_observer(Arc::new(move |_, latency| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(latency.as_secs_f64() * 1e3);
        }));
    let mut failures = Vec::new();
    for scenario in &plan.setup {
        if let Err(e) = runner.try_run(scenario) {
            failures.push(e.to_string());
        }
    }
    let setup_secs = if plan.setup.is_empty() {
        0.0
    } else {
        start.elapsed().as_secs_f64()
    };
    latencies
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();

    let timed_start = if plan.setup.is_empty() {
        start
    } else {
        Instant::now()
    };
    let mut reports = Vec::new();
    for scenario in &plan.timed {
        match runner.try_run(scenario) {
            Ok(report) => reports.push(report),
            Err(e) => failures.push(e.to_string()),
        }
    }
    let timed_secs = timed_start.elapsed().as_secs_f64();
    let wall_secs = start.elapsed().as_secs_f64();

    let lines: Vec<String> = reports.iter().map(|r| r.to_lines()).collect();
    let outcome = if failures.is_empty() {
        PassOutcome::Done {
            cells: cells_planned,
            digest: hash_bytes(lines.concat().as_bytes()),
        }
    } else {
        PassOutcome::Failed {
            cells: cells_planned,
            reason: failures.join("; "),
        }
    };
    let latencies_ms =
        std::mem::take(&mut *latencies.lock().unwrap_or_else(PoisonError::into_inner));
    Ok(Pass {
        outcome,
        setup_secs,
        timed_secs,
        wall_secs,
        latencies_ms,
        lines,
        cells: reports.iter().flat_map(|r| r.cells().cloned()).collect(),
        peak_rss_kb: peak_rss_kb()?,
    })
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One set-up repetition for a workload without set-up campaigns:
/// planning and expansion, a fresh sharded store, and one cold warm-up
/// cell (the plan's first), so process-wide lazy initialisation is done
/// before timing.  Returns its host seconds.
pub fn setup_rep(workload: Workload, seed: u64, width: usize, dir: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let plan = workload.plan(seed, width);
    for scenario in &plan.timed {
        std::hint::black_box(scenario.expand());
    }
    let store = ResultStore::open_sharded(dir, DEFAULT_STORE_SHARDS)?;
    let runner = CampaignRunner::with_store(store).with_workers(width);
    let mut warm_up = plan.timed[0].clone();
    warm_up.workloads.truncate(1);
    warm_up.architectures.truncate(1);
    runner.try_run(&warm_up).map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64())
}
