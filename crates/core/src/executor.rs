//! Barrier-free, work-stealing execution of a proxy DAG's real motif
//! kernels.
//!
//! [`DagExecutor`] runs a [`ProxyDag`] with **dependency-counting
//! edge-level readiness** ([`crate::dag::EdgeReadiness`]): every edge
//! carries a countdown of the predecessors that must finish before it may
//! run, and the worker that completes an edge's last predecessor releases
//! it immediately — onto the persistent work-stealing [`WorkerPool`],
//! not onto a freshly spawned thread.  No stage stalls on its slowest
//! branch (a TeraSort shuffle edge never waits for an unrelated sampler
//! branch), and steady-state execution performs **zero thread spawns**
//! (workers are created once per pool and reused across every proxy of a
//! suite).  Serial execution (`with_max_parallel(1)`) runs the edges in
//! topological-index order on the calling thread and is the differential
//! oracle the parallel schedule is tested against.
//!
//! # One edge body: a chunk stream
//!
//! Every edge executes as a generate→execute→reduce **stream** of
//! granule-aligned chunks of `chunk_elements` elements (the whole edge
//! when [`DagExecutor::with_chunk_elements`] is unset), with at most
//! `max_parallel` chunks in flight.  An unchunked edge is the one-chunk
//! stream, which is exactly [`MotifKernel::execute`]; a set chunk size
//! bounds peak RSS by the chunk budget instead of the edge's total
//! element count — how 10^8-element cells run in constant memory.  The
//! chunk reduce is an exactly associative monoid ([`ChunkState`]), so
//! digests are equal at every chunk size and worker count by
//! construction.
//!
//! # Profiling
//!
//! The chunk loop is instrumented for the global [`KernelProfiler`]:
//! when sampling is enabled (one relaxed load per execution when it is
//! not), every chunk records its kind, element count and wall time — one
//! record per edge when unchunked.  Kernel objects are resolved once per
//! execution into a flat vector instead of per-edge registry lookups.
//!
//! # Determinism
//!
//! The executor's output is byte-identical across worker counts, chunk
//! sizes and scheduling orders:
//!
//! * every edge's kernel seed is **derived** from the execution seed and
//!   the edge's *topological index* via [`derive_seed`] — never from the
//!   worker that happens to run it;
//! * kernel scratch buffers come from a shared, zero-filling, sharded
//!   [`BufferPool`], so recycled storage cannot leak state into checksums;
//! * per-edge checksums are folded in topological-index order after the
//!   whole DAG completes.
//!
//! This is what makes intra-proxy parallelism a pure performance axis: `with_max_parallel(1)` and `with_max_parallel(8)`
//! produce the same digest.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dmpb_datagen::chunks::align_chunk_elements;
use dmpb_datagen::rng::derive_seed;
use dmpb_motifs::workers::{default_parallel_ceiling, Scope, WorkerPool};
use dmpb_motifs::{BufferPool, ChunkState, KernelProfiler, MotifKernel, MotifKind, MotifRegistry};

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
    /// Number of stages the depth schedule had (reported for analysis;
    /// the executor does not synchronise on them).
    pub stages: usize,
    /// Widest stage (edges that were eligible to run concurrently).
    pub max_stage_width: usize,
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

/// Deterministic executor for proxy DAGs (see the
/// [module documentation](self)).
#[derive(Debug)]
pub struct DagExecutor {
    max_parallel: usize,
    chunk_elements: Option<usize>,
    pool: BufferPool,
    workers: OnceLock<Arc<WorkerPool>>,
}

impl Default for DagExecutor {
    /// A serial executor (one branch at a time) — the right default when
    /// an outer layer (e.g. the campaign runner) already parallelises
    /// across proxies.
    fn default() -> Self {
        Self::new()
    }
}

impl DagExecutor {
    /// A serial executor with a fresh buffer pool.  Serial executors
    /// create no worker threads at all.
    pub fn new() -> Self {
        Self {
            max_parallel: 1,
            chunk_elements: None,
            pool: BufferPool::new(),
            workers: OnceLock::new(),
        }
    }

    /// Bounds the number of DAG branches executed concurrently (clamped to
    /// `1..=`[`default_parallel_ceiling`]).  `1` executes the DAG serially
    /// on the calling thread.  The buffer pool is re-sharded to one shard
    /// per worker plus one for external threads; a worker pool installed
    /// via [`Self::with_worker_pool`] is preserved.
    pub fn with_max_parallel(mut self, workers: usize) -> Self {
        self.max_parallel = workers.clamp(1, default_parallel_ceiling());
        let shards = match self.workers.get() {
            Some(pool) => pool.workers() + 1,
            None => self.max_parallel + 1,
        };
        self.pool = BufferPool::with_shards(shards);
        self
    }

    /// Sets (`Some`) or clears (`None`, the default) the streaming chunk
    /// size.
    ///
    /// Every edge runs generate→execute→reduce per chunk of at most
    /// `chunk_elements` elements (rounded up to a whole number of
    /// granules via [`align_chunk_elements`]); unset, an edge is one
    /// chunk of all its elements.  Chunks are pulled off a shared cursor
    /// by at most [`Self::max_parallel`] in-flight tasks on the worker
    /// pool, so peak RSS is bounded by `in-flight tasks x chunk scratch`
    /// regardless of the edge's total element count.  The chunk size
    /// never changes a digest (the chunk reduce is an exactly associative
    /// monoid; see [`ChunkState`]), making `chunk_elements` a pure
    /// performance/RSS knob.
    pub fn with_chunk_elements(mut self, chunk_elements: Option<usize>) -> Self {
        self.chunk_elements = chunk_elements.map(align_chunk_elements);
        self
    }

    /// The configured streaming chunk size, if streaming is enabled
    /// (normalised to a granule multiple).
    pub fn chunk_elements(&self) -> Option<usize> {
        self.chunk_elements
    }

    /// Installs a shared persistent worker pool instead of the lazily
    /// created private one, so an executor and the caller driving it
    /// reuse one set of workers.  The buffer pool is re-sharded to match
    /// the installed pool's worker count (the shared pool may be wider
    /// than this executor's own `max_parallel`, e.g. when the caller also
    /// fans out across proxies on it).
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = BufferPool::with_shards(pool.workers() + 1);
        let slot = OnceLock::new();
        let _ = slot.set(pool);
        self.workers = slot;
        self
    }

    /// The configured concurrency bound.
    pub fn max_parallel(&self) -> usize {
        self.max_parallel
    }

    /// The shared intermediate-buffer pool kernels lease scratch storage
    /// from.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The persistent worker pool, created on first parallel use (sized
    /// `max_parallel - 1` because the executing thread participates)
    /// unless one was installed via [`Self::with_worker_pool`].
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        self.workers
            .get_or_init(|| Arc::new(WorkerPool::new(self.max_parallel.saturating_sub(1))))
    }

    /// Executes every motif edge of `dag` on generated sample data.
    ///
    /// `elements` bounds the per-kernel input size (scaled by each edge's
    /// weight, with a floor of 16 that never exceeds the requested
    /// `elements`, so tiny cells do not over-report); `seed` drives the
    /// per-edge derived kernel seeds.  Deterministic in `(dag, elements,
    /// seed)` — see the [module documentation](self).
    pub fn execute(&self, dag: &ProxyDag, elements: usize, seed: u64) -> DagExecution {
        // One schedule derivation: the stage indices and the edge vector
        // come from the same `DagSchedule`, so they cannot drift apart.
        let schedule = dag.schedule();
        let registry = MotifRegistry::global();

        // Pre-compute every edge's work item; indices are topological.
        // The floor keeps every kernel's sample meaningful, but is capped
        // at the requested cell size so a tiny-element cell's
        // `total_elements` never exceeds `edges x requested`.
        let work: Vec<(MotifKind, usize, u64)> = schedule
            .edges
            .iter()
            .enumerate()
            .map(|(index, edge)| {
                let n = ((elements as f64 * edge.weight).ceil() as usize)
                    .max(16)
                    .min(elements.max(1));
                (edge.motif, n, derive_seed(seed, index as u64))
            })
            .collect();

        // Specialised dispatch: resolve every edge's kernel object once,
        // outside the hot loop, instead of indexing the registry per run.
        let kernels: Vec<&'static dyn MotifKernel> = work
            .iter()
            .map(|&(motif, _, _)| registry.kernel(motif))
            .collect();

        // One relaxed load decides the whole execution: when profiling is
        // off the hot path carries no timestamping at all.
        let profiling = KernelProfiler::global().enabled();

        let mut checksums: Vec<OnceLock<u64>> = Vec::new();
        checksums.resize_with(work.len(), OnceLock::new);
        let run_edge = |index: usize| {
            let (_, n, edge_seed) = work[index];
            let checksum = self.execute_edge(kernels[index], n, edge_seed, profiling);
            checksums[index].set(checksum).expect("edge executed twice");
        };

        if self.max_parallel.min(work.len()) <= 1 {
            // Topological index order is a valid serial execution order:
            // every edge into a node sorts before every edge out of it.
            (0..work.len()).for_each(run_edge);
        } else {
            let readiness = schedule.readiness();
            let pending: Vec<AtomicUsize> = readiness
                .pending
                .iter()
                .map(|&count| AtomicUsize::new(count))
                .collect();
            let tasks = EdgeTasks {
                run_edge: &run_edge,
                pending: &pending,
                successors: &readiness.successors,
            };
            self.worker_pool().scope(|scope| {
                for &index in &readiness.initial {
                    let tasks = &tasks;
                    scope.spawn(move |s| tasks.run(index, s));
                }
            });
        }

        let edge_runs: Vec<EdgeRun> = work
            .iter()
            .zip(&checksums)
            .map(|(&(motif, elements, seed), checksum)| EdgeRun {
                motif,
                elements,
                seed,
                checksum: *checksum.get().expect("every edge ran"),
            })
            .collect();

        // Fold in topological-index order, independent of execution order.
        let checksum = edge_runs.iter().enumerate().fold(0u64, |acc, (i, run)| {
            acc ^ run.checksum.rotate_left(i as u32)
        });

        DagExecution {
            stages: schedule.stages.len(),
            max_stage_width: schedule.stages.iter().map(Vec::len).max().unwrap_or(0),
            edge_runs,
            checksum,
        }
    }

    /// Runs one edge's `n`-element kernel as a generate→execute→reduce
    /// stream of chunks of `chunk_elements` elements (one chunk of `n`
    /// when unset).
    ///
    /// At most [`Self::max_parallel`] chunk tasks are in flight at once:
    /// each pulls the next chunk index off a shared cursor, executes it
    /// chunk-locally (one chunk of generated input + scratch live per
    /// task) and folds the resulting [`ChunkState`] into a task-local
    /// accumulator, so peak RSS is bounded by the chunk budget — never by
    /// `n`.  Task-local states merge into the edge digest through the
    /// associative reduce, which makes the result independent of chunk
    /// size, task count and completion order.  When profiling, each chunk
    /// records its own sample (one `Instant` pair per chunk).
    fn execute_edge(
        &self,
        kernel: &'static dyn MotifKernel,
        n: usize,
        seed: u64,
        profiling: bool,
    ) -> u64 {
        let motif = kernel.kind();
        let chunk = self.chunk_elements.unwrap_or(n).max(1);
        let run_chunk = |index: usize| {
            let start = index * chunk;
            let end = (start + chunk).min(n);
            if profiling {
                let t = Instant::now();
                let state = kernel.execute_chunk(start, end, n, seed, &self.pool);
                KernelProfiler::global().record(motif, end - start, t.elapsed());
                state
            } else {
                kernel.execute_chunk(start, end, n, seed, &self.pool)
            }
        };

        let num_chunks = n.div_ceil(chunk);
        let fan_out = self.max_parallel.min(num_chunks);
        if fan_out <= 1 {
            let mut state = ChunkState::IDENTITY;
            for index in 0..num_chunks {
                state.merge(&run_chunk(index));
            }
            return state.finalize(motif);
        }

        let cursor = AtomicUsize::new(0);
        let merged = Mutex::new(ChunkState::IDENTITY);
        self.worker_pool().scope(|scope| {
            for _ in 0..fan_out {
                let (cursor, merged, run_chunk) = (&cursor, &merged, &run_chunk);
                scope.spawn(move |_| {
                    let mut local = ChunkState::IDENTITY;
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= num_chunks {
                            break;
                        }
                        local.merge(&run_chunk(index));
                    }
                    merged
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .merge(&local);
                });
            }
        });
        let state = merged
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.finalize(motif)
    }
}

/// The dependency-counting work item: runs one edge, then decrements every
/// successor's countdown and spawns the ones that hit zero — from the
/// worker that released them, so a freed branch continues on a warm
/// thread without any barrier.
struct EdgeTasks<'a, F: Fn(usize) + Sync> {
    run_edge: &'a F,
    pending: &'a [AtomicUsize],
    successors: &'a [Vec<usize>],
}

impl<F: Fn(usize) + Sync> EdgeTasks<'_, F> {
    fn run<'scope>(&'scope self, index: usize, scope: &Scope<'scope>) {
        (self.run_edge)(index);
        for &next in &self.successors[index] {
            if self.pending[next].fetch_sub(1, Ordering::AcqRel) == 1 {
                scope.spawn(move |s| self.run(next, s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::{DataClass, DataDescriptor, Distribution};
    use dmpb_motifs::workers::hardware_parallelism;

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
        let run = DagExecutor::new().execute(&diamond(), 512, 7);
        assert_eq!(run.kernels_run(), 4);
        assert_eq!(run.stages, 2);
        assert_eq!(run.max_stage_width, 2);
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

    #[test]
    fn streamed_execution_is_digest_identical_to_monolithic() {
        let dag = diamond();
        let monolithic = DagExecutor::new().execute(&dag, 10_000, 42);
        for chunk in [1, 4096, 3 * 4096, 1 << 20] {
            for workers in [1, 8] {
                let streamed = DagExecutor::new()
                    .with_max_parallel(workers)
                    .with_chunk_elements(Some(chunk))
                    .execute(&dag, 10_000, 42);
                assert_eq!(
                    streamed, monolithic,
                    "streaming must be invisible (chunk={chunk}, workers={workers})"
                );
            }
        }
    }

    #[test]
    fn chunk_elements_is_normalised_to_granule_multiples() {
        let executor = DagExecutor::new().with_chunk_elements(Some(1));
        assert_eq!(executor.chunk_elements(), Some(4096));
        let executor = DagExecutor::new().with_chunk_elements(Some(5000));
        assert_eq!(executor.chunk_elements(), Some(8192));
        assert_eq!(DagExecutor::new().chunk_elements(), None);
        assert_eq!(
            DagExecutor::new()
                .with_chunk_elements(Some(4096))
                .with_chunk_elements(None)
                .chunk_elements(),
            None
        );
    }

    #[test]
    fn checksum_is_identical_across_worker_counts_and_repeats() {
        let dag = diamond();
        let serial = DagExecutor::new();
        let parallel = DagExecutor::new().with_max_parallel(8);
        let a = serial.execute(&dag, 2_000, 42);
        let b = parallel.execute(&dag, 2_000, 42);
        let c = parallel.execute(&dag, 2_000, 42);
        assert_eq!(a, b, "parallelism must not change the execution");
        assert_eq!(b, c, "repeated runs must be identical");
    }

    #[test]
    fn profiling_does_not_change_the_execution() {
        // Uses the process-global profiler: other tests in this binary
        // may observe profiling as enabled for a moment, which is safe —
        // profiled runs only add timestamping, which the equality gates
        // here and above prove invisible.
        let dag = diamond();
        let executor = DagExecutor::new().with_max_parallel(8);
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

    #[test]
    fn pool_is_reused_across_executions() {
        let executor = DagExecutor::new();
        let dag = diamond();
        executor.execute(&dag, 512, 1);
        let before = executor.pool().stats();
        executor.execute(&dag, 512, 1);
        let after = executor.pool().stats();
        assert!(
            after.reused > before.reused,
            "second execution must recycle the first one's buffers"
        );
    }

    #[test]
    fn repeated_parallel_executions_spawn_no_new_threads() {
        let executor = DagExecutor::new().with_max_parallel(4);
        let dag = diamond();
        executor.execute(&dag, 512, 1);
        let pool = Arc::clone(executor.worker_pool());
        assert_eq!(pool.workers(), 3, "caller participates: n - 1 workers");
        for _ in 0..5 {
            executor.execute(&dag, 512, 1);
        }
        assert!(Arc::ptr_eq(&pool, executor.worker_pool()));
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn a_shared_worker_pool_is_adopted_regardless_of_builder_order() {
        let shared = Arc::new(WorkerPool::new(2));
        let executor = DagExecutor::new()
            .with_worker_pool(Arc::clone(&shared))
            .with_max_parallel(8);
        // Later builder calls must not drop the installed pool, and the
        // buffer pool stays sharded for the installed pool's workers.
        assert!(Arc::ptr_eq(&shared, executor.worker_pool()));
        assert_eq!(executor.pool().shards(), shared.workers() + 1);
    }

    #[test]
    fn max_parallel_is_clamped_to_the_derived_ceiling() {
        assert_eq!(DagExecutor::new().with_max_parallel(0).max_parallel(), 1);
        assert_eq!(
            DagExecutor::new()
                .with_max_parallel(usize::MAX)
                .max_parallel(),
            default_parallel_ceiling()
        );
        assert!(default_parallel_ceiling() >= hardware_parallelism());
        assert!(
            default_parallel_ceiling() >= 8,
            "the 8-worker determinism gates must stay meaningful"
        );
    }
}
