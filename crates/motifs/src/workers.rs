//! Host parallelism, and the retired worker-pool type.
//!
//! Cells are the harness's only unit of concurrency, and a campaign runs
//! its cells under one [`std::thread::scope`]: its threads live exactly
//! as long as the campaign, and every proxy DAG runs serially inside its
//! cell.  No pool outlives a campaign, so none is kept here.

/// The number of hardware threads the host exposes (at least 1;
/// [`std::thread::available_parallelism`] with a conservative fallback).
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Retired: campaigns run their cells under [`std::thread::scope`].  Kept
/// as a zero-sized type that spawns nothing, for callers of the retired
/// `DagExecutor::with_worker_pool`.
#[doc(hidden)]
#[derive(Debug)]
pub struct WorkerPool;

impl WorkerPool {
    /// Retired: ignores `_workers` and spawns no thread.
    pub fn new(_workers: usize) -> Self {
        Self
    }
}
