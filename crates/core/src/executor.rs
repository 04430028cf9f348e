//! Serial execution of a proxy DAG's real motif kernels.
//!
//! [`DagExecutor`] runs a [`ProxyDag`]'s edges one after another on the
//! calling thread, in topological-index order — every edge into a node
//! sorts before every edge out of it, so that order is a valid
//! execution order.  The executor never spawns or borrows a thread:
//! campaign cells are the harness's unit of concurrency, and concurrent
//! cells share one executor (it holds no state, and its kernel objects
//! are stateless).
//!
//! # One edge body: a loop over granules
//!
//! Every edge runs as [`MotifKernel::execute`]: one loop over the
//! edge's 4096-element granules.  Each granule body allocates its
//! scratch and frees it before the next granule, so peak RSS is bounded
//! by one granule's scratch whatever the edge's element count — how
//! 10^7-element cells run in a few megabytes.
//!
//! # Profiling
//!
//! Execution is instrumented for the global [`KernelProfiler`]: when
//! sampling is enabled (one relaxed load per execution when it is not),
//! every edge records its kind, element count and wall time.
//!
//! # Determinism
//!
//! The executor's output is byte-identical across repeated runs and
//! concurrent cells sharing it:
//!
//! * every edge's kernel seed is **derived** from the execution seed and
//!   the edge's *topological index* via [`derive_seed`];
//! * every granule body fills its scratch from index arithmetic alone,
//!   so no earlier execution can leak state into a checksum;
//! * per-edge checksums are folded in topological-index order.

use std::sync::Arc;
use std::time::Instant;

use dmpb_datagen::rng::derive_seed;
use dmpb_motifs::{KernelProfiler, MotifKernel, MotifKind, MotifRegistry, WorkerPool};

use crate::dag::ProxyDag;

/// Result of one edge's kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRun {
    /// The motif that ran.
    pub motif: MotifKind,
    /// Elements the kernel processed.
    pub elements: usize,
    /// Seed the kernel was driven by.
    pub seed: u64,
    /// The kernel's output checksum.
    pub checksum: u64,
}

/// The structured result of executing one proxy DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagExecution {
    /// Per-edge results in topological-index order.
    pub edge_runs: Vec<EdgeRun>,
    /// Folded checksum over all edge checksums (topological order).
    pub checksum: u64,
}

impl DagExecution {
    /// Number of motif kernels executed.
    pub fn kernels_run(&self) -> usize {
        self.edge_runs.len()
    }

    /// Total elements processed across all edges.
    pub fn total_elements(&self) -> usize {
        self.edge_runs.iter().map(|r| r.elements).sum()
    }
}

/// Deterministic serial executor for proxy DAGs (see the
/// [module documentation](self)).
#[derive(Debug, Default)]
pub struct DagExecutor;

impl DagExecutor {
    /// A new executor.
    pub fn new() -> Self {
        Self
    }

    /// Retired: DAG execution is always serial.  Accepts only `1` and
    /// changes nothing.
    #[deprecated(note = "DAG execution is serial; run cells concurrently instead")]
    #[doc(hidden)]
    pub fn with_max_parallel(self, workers: usize) -> Self {
        assert_eq!(workers, 1, "DAG execution is serial");
        self
    }

    /// Retired: the executor runs on the calling thread and ignores
    /// `pool`.
    #[deprecated(note = "DAG execution is serial; run cells concurrently instead")]
    #[doc(hidden)]
    pub fn with_worker_pool(self, _pool: Arc<WorkerPool>) -> Self {
        self
    }

    /// Retired: every edge is one loop over its granules, which already
    /// bounds peak RSS.  Ignores `chunk_elements`.
    #[deprecated(note = "granules bound peak RSS; there is no chunk size to set")]
    #[doc(hidden)]
    pub fn with_chunk_elements(self, _chunk_elements: Option<usize>) -> Self {
        self
    }

    /// Executes every motif edge of `dag` on generated sample data.
    ///
    /// `elements` bounds the per-kernel input size (scaled by each edge's
    /// weight, with a floor of 16 that never exceeds the requested
    /// `elements`, so tiny cells do not over-report); `seed` drives the
    /// per-edge derived kernel seeds.  Deterministic in `(dag, elements,
    /// seed)` — see the [module documentation](self).
    pub fn execute(&self, dag: &ProxyDag, elements: usize, seed: u64) -> DagExecution {
        let registry = MotifRegistry::global();
        // One relaxed load decides the whole execution: when profiling is
        // off the hot path carries no timestamping at all.
        let profiling = KernelProfiler::global().enabled();

        // The floor keeps every kernel's sample meaningful, but is capped
        // at the requested cell size so a tiny-element cell's
        // `total_elements` never exceeds `edges x requested`.
        let edge_runs: Vec<EdgeRun> = dag
            .topological_edges()
            .iter()
            .enumerate()
            .map(|(index, edge)| {
                let n = ((elements as f64 * edge.weight).ceil() as usize)
                    .max(16)
                    .min(elements.max(1));
                let edge_seed = derive_seed(seed, index as u64);
                EdgeRun {
                    motif: edge.motif,
                    elements: n,
                    seed: edge_seed,
                    checksum: self.execute_edge(
                        registry.kernel(edge.motif),
                        n,
                        edge_seed,
                        profiling,
                    ),
                }
            })
            .collect();

        let checksum = edge_runs.iter().enumerate().fold(0u64, |acc, (i, run)| {
            acc ^ run.checksum.rotate_left(i as u32)
        });
        DagExecution {
            edge_runs,
            checksum,
        }
    }

    /// Runs one edge's `n`-element kernel and returns its checksum,
    /// recording one profiler sample for the edge when `profiling`.
    fn execute_edge(
        &self,
        kernel: &'static dyn MotifKernel,
        n: usize,
        seed: u64,
        profiling: bool,
    ) -> u64 {
        if !profiling {
            return kernel.execute(n, seed);
        }
        let t = Instant::now();
        let checksum = kernel.execute(n, seed);
        KernelProfiler::global().record(kernel.kind(), n, t.elapsed());
        checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::{DataClass, DataDescriptor, Distribution};
    use std::sync::Mutex;

    fn descriptor() -> DataDescriptor {
        DataDescriptor::new(DataClass::Text, 1 << 20, 100, 0.0, Distribution::Uniform)
    }

    fn diamond() -> ProxyDag {
        let mut dag = ProxyDag::new();
        let input = dag.add_node("input", descriptor());
        let left = dag.add_node("left", descriptor());
        let right = dag.add_node("right", descriptor());
        let out = dag.add_node("out", descriptor());
        dag.add_edge(input, left, MotifKind::QuickSort, 0.4);
        dag.add_edge(input, right, MotifKind::RandomSampling, 0.1);
        dag.add_edge(left, out, MotifKind::MergeSort, 0.3);
        dag.add_edge(right, out, MotifKind::CountStatistics, 0.2);
        dag
    }

    #[test]
    fn execution_covers_every_edge_and_reports_the_schedule() {
        let dag = diamond();
        let run = DagExecutor::new().execute(&dag, 512, 7);
        assert_eq!(run.kernels_run(), 4);
        // The serial schedule is the topological edge order.
        let motifs: Vec<MotifKind> = run.edge_runs.iter().map(|r| r.motif).collect();
        let scheduled: Vec<MotifKind> = dag.topological_edges().iter().map(|e| e.motif).collect();
        assert_eq!(motifs, scheduled);
        assert!(run.edge_runs.iter().all(|r| r.elements >= 16));
        assert_eq!(
            run.total_elements(),
            run.edge_runs.iter().map(|r| r.elements).sum::<usize>()
        );
    }

    /// The satellite clamp fix: the 16-element kernel floor must never
    /// lift a tiny cell's per-edge element count above what was
    /// requested, so `total_elements` stays bounded by
    /// `edges x requested`.
    #[test]
    fn tiny_cells_do_not_over_report_elements() {
        for requested in [1usize, 2, 4, 15] {
            let run = DagExecutor::new().execute(&diamond(), requested, 7);
            for r in &run.edge_runs {
                assert!(
                    r.elements <= requested,
                    "edge reports {} elements for a {requested}-element cell",
                    r.elements
                );
                assert!(r.elements >= 1, "edges still run at least one element");
            }
            assert!(run.total_elements() <= requested * run.kernels_run());
        }
        // Normal cells keep the 16-element floor on low-weight edges.
        let run = DagExecutor::new().execute(&diamond(), 512, 7);
        assert!(run.edge_runs.iter().all(|r| r.elements >= 16));
    }

    /// Concurrent cells share one executor: executions running at once
    /// on pool workers must match a lone serial run, on any pool width
    /// and every repeat.
    #[test]
    fn checksum_is_identical_across_worker_counts_and_repeats() {
        let dag = diamond();
        let serial = DagExecutor::new().execute(&dag, 2_000, 42);
        for workers in [0, 3] {
            let executor = DagExecutor::new();
            let runs = Mutex::new(Vec::new());
            WorkerPool::new(workers).scope(|s| {
                for _ in 0..8 {
                    let (executor, dag, runs) = (&executor, &dag, &runs);
                    s.spawn(move || {
                        let run = executor.execute(dag, 2_000, 42);
                        runs.lock().unwrap().push(run);
                    });
                }
            });
            for run in runs.into_inner().unwrap() {
                assert_eq!(run, serial, "{workers} workers changed the execution");
            }
        }
    }

    #[test]
    fn profiling_does_not_change_the_execution() {
        // Uses the process-global profiler: other tests in this binary
        // may observe profiling as enabled for a moment, which is safe —
        // profiled runs only add timestamping, which the equality gates
        // here and above prove invisible.
        let dag = diamond();
        let executor = DagExecutor::new();
        let baseline = executor.execute(&dag, 2_000, 42);
        let profiler = KernelProfiler::global();
        let was_enabled = profiler.set_enabled(true);
        let profiled = executor.execute(&dag, 2_000, 42);
        profiler.set_enabled(was_enabled);
        assert_eq!(baseline, profiled, "profiling must be a pure observer");
    }

    #[test]
    fn edge_seeds_are_derived_from_the_topological_index() {
        let run = DagExecutor::new().execute(&diamond(), 256, 5);
        let seeds: Vec<u64> = run.edge_runs.iter().map(|r| r.seed).collect();
        let expected: Vec<u64> = (0..4).map(|i| derive_seed(5, i)).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn different_seeds_change_the_checksum() {
        let dag = diamond();
        let executor = DagExecutor::new();
        assert_ne!(
            executor.execute(&dag, 512, 1).checksum,
            executor.execute(&dag, 512, 2).checksum
        );
    }
}
