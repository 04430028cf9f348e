//! Parallel execution of the eight-proxy suite with memoized tuning.
//!
//! [`crate::suite::ProxySuite::generate`] tunes the proxies one after
//! another; at the paper's scale that serialises eight independent
//! decision-tree tuning loops.  [`SuiteRunner`] removes both costs:
//!
//! * **Parallelism** — the eight workloads are tuned and executed
//!   concurrently as tasks on one persistent work-stealing
//!   [`WorkerPool`] (bounded by [`SuiteRunner::with_max_parallel`]), and
//!   each proxy's DAG is executed barrier-free by a shared
//!   [`DagExecutor`] running on the *same* pool, with branch concurrency
//!   bounded by [`SuiteRunner::with_intra_parallel`].  Workers are
//!   created once per runner and reused across every proxy and every
//!   run — steady-state suite execution spawns zero threads.  Every
//!   stage of the pipeline is deterministic: each proxy's sample
//!   execution is driven by a seed derived from the runner's base seed
//!   and the workload's position via [`dmpb_datagen::rng::derive_seed`],
//!   and the executor derives per-edge seeds from topological indices —
//!   so the produced [`SuiteReport`] is byte-for-byte identical run to
//!   run regardless of worker counts and task scheduling.
//! * **Memoization** — decision-tree tuning results are cached in a
//!   [`TuningCache`] keyed by (workload, software stack, cluster
//!   configuration, tuner configuration).  Repeated runs against the same
//!   cluster skip the impact analysis, tree training and
//!   adjusting/feedback loop entirely and reuse the qualified proxy; a
//!   changed cluster or tuner configuration changes the key and forces a
//!   fresh tune, and a Hadoop workload can never be served a tune of its
//!   Spark stack twin (or vice versa) even though the two share one motif
//!   DAG.
//!
//! ```
//! use dmpb_core::runner::SuiteRunner;
//! use dmpb_workloads::ClusterConfig;
//!
//! let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
//! let first = runner.run_all();
//! let second = runner.run_all(); // tuning served from cache
//! assert_eq!(first.digest(), second.digest());
//! assert!(runner.cache_stats().hits >= 8);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::fnv::hash_bytes;
use dmpb_datagen::rng::derive_seed;
use dmpb_metrics::table::{fmt_percent, fmt_speedup, TextTable};
use dmpb_motifs::workers::WorkerPool;
use dmpb_workloads::{ClusterConfig, Framework, Workload, WorkloadKind};

use crate::executor::DagExecutor;
use crate::generator::{GenerationReport, ProxyGenerator};
use crate::proxy::ExecutionSummary;

/// Number of elements each proxy's real sample execution processes per
/// kernel (scaled by motif weight; see
/// [`crate::proxy::ProxyBenchmark::execute_sample`]).
pub const SAMPLE_ELEMENTS: usize = 2_000;

/// The default base seed a [`SuiteRunner`] derives its per-proxy sample
/// seeds from.  Exported so the scenario campaign engine can declare
/// sweeps that reproduce the default suite byte for byte.
pub const DEFAULT_BASE_SEED: u64 = 0x00D4_17A4_0F1F;

/// Cache key for one tuning run: the workload and its software stack plus
/// fingerprints of the cluster and tuner configurations that shaped the
/// tune.
///
/// The stack is part of the key even though [`WorkloadKind`] already
/// implies it: Hadoop TeraSort and Spark TeraSort share one motif DAG and
/// one input descriptor, so any future keying shortcut over those shared
/// parts must still never let the two variants share a cache entry — the
/// stack overhead is exactly what their tunes differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningKey {
    /// The workload the proxy was tuned for.
    pub kind: WorkloadKind,
    /// The software stack the workload runs on.
    pub framework: Framework,
    /// Fingerprint of the cluster configuration the tune targeted.
    pub cluster_fingerprint: u64,
    /// Fingerprint of the tuner + feature-selection configuration.
    pub tuner_fingerprint: u64,
    /// Synthetic-member discriminator: `0` for the eight named workloads;
    /// a synthesized population member's identity hash otherwise.  A
    /// synthetic member borrows a named *carrier* kind for parameter
    /// initialisation, so without this field its tune would collide with
    /// (and shadow) the carrier's own cache entry.
    pub synthetic: u64,
}

impl TuningKey {
    /// Builds the key for tuning the named workload `kind` with
    /// `generator`.
    pub fn new(kind: WorkloadKind, generator: &ProxyGenerator) -> Self {
        Self {
            kind,
            framework: kind.framework(),
            cluster_fingerprint: fingerprint_cluster(&generator.cluster),
            tuner_fingerprint: generator.tuner.fingerprint()
                ^ hash_bytes(format!("{:?}", generator.features).as_bytes()),
            synthetic: 0,
        }
    }

    /// Builds the key for tuning a synthesized workload whose full
    /// description hashes to `discriminator` (which must be non-zero —
    /// zero is the named workloads' reserved value).
    pub fn for_synthetic(
        kind: WorkloadKind,
        generator: &ProxyGenerator,
        discriminator: u64,
    ) -> Self {
        assert!(
            discriminator != 0,
            "synthetic discriminator 0 is reserved for named workloads"
        );
        Self {
            synthetic: discriminator,
            ..Self::new(kind, generator)
        }
    }
}

/// Fingerprints a cluster configuration for cache keying.  Every field of
/// [`ClusterConfig`] (including the nested node and architecture profiles)
/// participates via its `Debug` rendering, so any change to the cluster —
/// node count, memory, cache geometry, frequency — produces a different
/// fingerprint.
pub fn fingerprint_cluster(cluster: &ClusterConfig) -> u64 {
    hash_bytes(format!("{cluster:?}").as_bytes())
}

/// Counters describing a [`TuningCache`]'s effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh tune.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A memo table of tuning results keyed by [`TuningKey`].
///
/// The cache is thread-safe: the workloads of a suite run probe it
/// concurrently.  Hit/miss counters are cumulative over the cache's
/// lifetime.
#[derive(Debug, Default)]
pub struct TuningCache {
    entries: Mutex<HashMap<TuningKey, GenerationReport>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TuningCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a tuning result, counting a hit or miss.
    ///
    /// The cache's locks recover from poisoning instead of cascading it:
    /// entries are only ever inserted whole, so whatever a panicking
    /// worker left behind is a complete, valid report.
    pub fn lookup(&self, key: &TuningKey) -> Option<GenerationReport> {
        let found = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        match found {
            Some(report) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(report)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a tuning result.
    pub fn insert(&self, key: TuningKey, report: GenerationReport) {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, report);
    }

    /// Snapshot of the hit/miss counters and entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }
}

/// One workload's slice of a suite run.
#[derive(Debug, Clone)]
pub struct ProxyRun {
    /// The workload this proxy stands in for.
    pub kind: WorkloadKind,
    /// Seed that drove this proxy's sample execution, derived
    /// deterministically from the runner's base seed.
    pub seed: u64,
    /// The (possibly cache-served) generation report.
    pub report: GenerationReport,
    /// Result of really executing the proxy's motif kernels on generated
    /// sample data.
    pub execution: ExecutionSummary,
}

/// The structured result of one parallel suite run, consumed by the bench
/// binaries.
///
/// A `SuiteReport` contains only deterministic payload — generation
/// reports, derived seeds and kernel checksums — and none of the runner's
/// cache telemetry, so two runs with the same base seed are byte-for-byte
/// identical whether or not the second was served from the tuning cache
/// (compare with [`SuiteReport::digest`]).  Cache telemetry lives on the
/// runner ([`SuiteRunner::cache_stats`]).
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Reporting name of the cluster the suite was generated against.
    pub cluster_name: &'static str,
    /// The seed the per-proxy seeds were derived from.
    pub base_seed: u64,
    /// Per-workload results in [`WorkloadKind::ALL`] order.
    pub runs: Vec<ProxyRun>,
}

impl SuiteReport {
    /// The run for one workload.
    ///
    /// # Panics
    ///
    /// Panics if the report does not contain `kind` (a full suite run
    /// always contains every workload).
    pub fn run(&self, kind: WorkloadKind) -> &ProxyRun {
        self.runs
            .iter()
            .find(|r| r.kind == kind)
            .expect("suite report contains every workload kind")
    }

    /// The generation reports in [`WorkloadKind::ALL`] order.
    pub fn reports(&self) -> impl Iterator<Item = &GenerationReport> {
        self.runs.iter().map(|r| &r.report)
    }

    /// Average accuracy across all proxies of the suite.
    pub fn average_accuracy(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.report.accuracy.average())
            .sum::<f64>()
            / self.runs.len().max(1) as f64
    }

    /// Minimum runtime speedup across all proxies of the suite.
    pub fn min_speedup(&self) -> f64 {
        self.runs
            .iter()
            .map(|r| r.report.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// A stable digest over the full report contents.  Two runs with the
    /// same base seed on the same cluster produce the same digest; any
    /// change to a metric, parameter, seed or checksum changes it.
    pub fn digest(&self) -> u64 {
        hash_bytes(format!("{self:?}").as_bytes())
    }

    /// Renders the suite as a summary table (one row per workload).
    pub fn summary_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("Proxy suite on {}", self.cluster_name),
            &[
                "workload",
                "accuracy",
                "speedup",
                "iterations",
                "qualified",
                "sample checksum",
            ],
        );
        for run in &self.runs {
            t.add_row(&[
                run.kind.to_string(),
                fmt_percent(run.report.accuracy.average()),
                fmt_speedup(run.report.speedup),
                run.report.iterations.to_string(),
                if run.report.qualified { "yes" } else { "no" }.to_string(),
                format!("{:016x}", run.execution.checksum),
            ]);
        }
        t
    }
}

/// Parallel, cache-backed driver for the eight-proxy suite.
///
/// See the [module documentation](self) for the design; the short version:
/// [`SuiteRunner::run_all`] tunes and executes all eight proxies
/// concurrently, deterministic in its output, and memoizes tuning results
/// in a [`TuningCache`] so repeated runs against the same cluster skip
/// re-tuning.
#[derive(Debug)]
pub struct SuiteRunner {
    generator: ProxyGenerator,
    base_seed: u64,
    max_parallel: usize,
    intra_parallel: usize,
    chunk_elements: Option<usize>,
    workers: OnceLock<Arc<WorkerPool>>,
    executor: OnceLock<DagExecutor>,
    cache: TuningCache,
}

impl SuiteRunner {
    /// A runner with the paper's generator defaults on `cluster`, the
    /// default base seed, and one worker per workload.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self::with_generator(ProxyGenerator::new(cluster))
    }

    /// A runner around an explicit generator configuration.
    pub fn with_generator(generator: ProxyGenerator) -> Self {
        Self {
            generator,
            base_seed: DEFAULT_BASE_SEED,
            max_parallel: WorkloadKind::ALL.len(),
            intra_parallel: 1,
            chunk_elements: None,
            workers: OnceLock::new(),
            executor: OnceLock::new(),
            cache: TuningCache::new(),
        }
    }

    /// Sets the base seed the per-proxy sample-execution seeds are derived
    /// from.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Bounds the number of concurrently tuned workloads (clamped to
    /// `1..=8`).
    pub fn with_max_parallel(mut self, workers: usize) -> Self {
        self.max_parallel = workers.clamp(1, WorkloadKind::ALL.len());
        self.workers = OnceLock::new();
        self.executor = OnceLock::new();
        self
    }

    /// Bounds the number of DAG branches executed concurrently *within*
    /// one proxy (the [`DagExecutor`]'s worker budget).  Intra-proxy
    /// parallelism is a pure performance axis: per-edge seeds are derived
    /// from topological indices, so the report digest is identical for any
    /// setting.
    pub fn with_intra_parallel(mut self, workers: usize) -> Self {
        self.intra_parallel = workers.max(1);
        self.workers = OnceLock::new();
        self.executor = OnceLock::new();
        self
    }

    /// Streams every sample execution in granule-aligned chunks of at
    /// most `chunk_elements` elements (see
    /// [`DagExecutor::with_chunk_elements`]).  `None` restores the
    /// monolithic path.  Streaming is a pure memory/performance axis:
    /// report digests are identical for any setting.
    pub fn with_chunk_elements(mut self, chunk_elements: Option<usize>) -> Self {
        self.chunk_elements = chunk_elements;
        self.executor = OnceLock::new();
        self
    }

    /// Shares an existing worker pool instead of lazily creating one, so
    /// several runners (e.g. the per-cluster runners of a scenario
    /// campaign) can execute on one set of persistent workers.  Call this
    /// *after* [`Self::with_max_parallel`] / [`Self::with_intra_parallel`]
    /// — those builders reset the pool so it can be re-sized.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.workers = OnceLock::new();
        let _ = self.workers.set(pool);
        self.executor = OnceLock::new();
        self
    }

    /// The persistent work-stealing worker pool shared by the whole
    /// suite: the per-workload fan-out and every proxy's intra-DAG
    /// branches all run on these workers.  Created once, on first use,
    /// sized `max(inter, intra) - 1` (the calling thread participates);
    /// repeated runs reuse it, so steady-state execution spawns no
    /// threads.
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        self.workers.get_or_init(|| {
            Arc::new(WorkerPool::new(
                self.max_parallel.max(self.intra_parallel).saturating_sub(1),
            ))
        })
    }

    /// The work-stealing DAG executor shared by every proxy of the suite:
    /// one intermediate-buffer pool across all sample executions, running
    /// on the runner's shared [`Self::worker_pool`].
    pub fn executor(&self) -> &DagExecutor {
        self.executor.get_or_init(|| {
            DagExecutor::new()
                .with_max_parallel(self.intra_parallel)
                .with_chunk_elements(self.chunk_elements)
                .with_worker_pool(Arc::clone(self.worker_pool()))
        })
    }

    /// The generator driving decomposition and tuning.
    pub fn generator(&self) -> &ProxyGenerator {
        &self.generator
    }

    /// Snapshot of the tuning cache's counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Tunes (or fetches from cache) and executes one workload's proxy.
    /// The per-proxy seed is derived from the base seed and the workload's
    /// position in [`WorkloadKind::ALL`].
    pub fn run_kind(&self, kind: WorkloadKind) -> ProxyRun {
        let index = WorkloadKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind is one of the suite workloads");
        self.run_indexed(index, kind)
    }

    /// Tunes `kind`'s proxy, served from the cache when possible.
    fn tuned_report(&self, kind: WorkloadKind) -> GenerationReport {
        let key = TuningKey::new(kind, &self.generator);
        match self.cache.lookup(&key) {
            Some(report) => report,
            None => {
                let report = self.generator.generate_kind(kind);
                self.cache.insert(key, report.clone());
                report
            }
        }
    }

    fn run_indexed(&self, index: usize, kind: WorkloadKind) -> ProxyRun {
        self.run_cell(
            kind,
            SAMPLE_ELEMENTS,
            derive_seed(self.base_seed, index as u64),
        )
    }

    /// Tunes (or fetches from cache) `kind`'s proxy and executes its DAG on
    /// an explicit sample size and seed — the cell-level hook the scenario
    /// campaign engine batches over.  [`Self::run_kind`] /
    /// [`Self::run_all`] are this with the runner's derived seed and
    /// [`SAMPLE_ELEMENTS`]: `run_cell(kind, SAMPLE_ELEMENTS,
    /// derive_seed(base_seed, index))` reproduces a suite run's slice byte
    /// for byte.
    pub fn run_cell(&self, kind: WorkloadKind, elements: usize, seed: u64) -> ProxyRun {
        let report = self.tuned_report(kind);
        let execution =
            ExecutionSummary::from(&report.proxy.execute_dag(self.executor(), elements, seed));
        ProxyRun {
            kind,
            seed,
            report,
            execution,
        }
    }

    /// [`Self::run_cell`] for a *synthesized* workload (e.g. a population
    /// member from `dmpb-population`): tunes the workload through the
    /// generic pipeline, memoized under a [`TuningKey::for_synthetic`]
    /// key so the member can never share (or shadow) a named workload's
    /// cache entry, then executes its proxy DAG on `elements` / `seed`.
    /// `discriminator` must be the member's identity hash — non-zero, and
    /// stable across runs so repeated campaigns hit the cache.
    pub fn run_synthetic_cell(
        &self,
        workload: &dyn Workload,
        discriminator: u64,
        elements: usize,
        seed: u64,
    ) -> ProxyRun {
        let key = TuningKey::for_synthetic(workload.kind(), &self.generator, discriminator);
        let report = match self.cache.lookup(&key) {
            Some(report) => report,
            None => {
                let report = self.generator.generate(workload);
                self.cache.insert(key, report.clone());
                report
            }
        };
        let execution =
            ExecutionSummary::from(&report.proxy.execute_dag(self.executor(), elements, seed));
        ProxyRun {
            kind: workload.kind(),
            seed,
            report,
            execution,
        }
    }

    /// [`Self::run_synthetic_cell`], with panics converted into an error
    /// (the synthetic counterpart of [`Self::try_run_cell`]).
    pub fn try_run_synthetic_cell(
        &self,
        workload: &dyn Workload,
        discriminator: u64,
        elements: usize,
        seed: u64,
    ) -> Result<ProxyRun, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_synthetic_cell(workload, discriminator, elements, seed)
        }))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!(
                "synthetic cell {:016x} (carrier {}, elements {elements}, seed {seed:016x}) \
                 panicked: {message}",
                discriminator,
                workload.kind()
            )
        })
    }

    /// [`Self::run_cell`], with panics converted into an error instead of
    /// unwinding into the caller.  Long-running hosts (the campaign
    /// daemon) use this so one exploding cell fails its own campaign
    /// without taking down every other worker; the tuning cache and
    /// worker pool recover from a mid-cell panic by construction (the
    /// cache inserts whole entries, the pool routes task panics here).
    pub fn try_run_cell(
        &self,
        kind: WorkloadKind,
        elements: usize,
        seed: u64,
    ) -> Result<ProxyRun, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_cell(kind, elements, seed)
        }))
        .map_err(|payload| {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!("cell {kind} (elements {elements}, seed {seed:016x}) panicked: {message}")
        })
    }

    /// Maps every workload through `work` on the persistent shared worker
    /// pool, returning results in [`WorkloadKind::ALL`] order.  No threads
    /// are spawned here: at most `max_parallel` cursor-draining tasks are
    /// submitted (so the inter-workload concurrency bound holds even when
    /// the pool is sized for a wider `intra_parallel`), and the calling
    /// thread helps execute tasks while it waits.
    fn map_kinds<T: Send + Sync>(&self, work: impl Fn(usize, WorkloadKind) -> T + Sync) -> Vec<T> {
        let kinds = WorkloadKind::ALL;
        let slots: Vec<OnceLock<T>> = kinds.iter().map(|_| OnceLock::new()).collect();
        let workers = self.max_parallel.clamp(1, kinds.len());

        if workers <= 1 {
            for (index, &kind) in kinds.iter().enumerate() {
                assert!(
                    slots[index].set(work(index, kind)).is_ok(),
                    "suite slot filled twice"
                );
            }
        } else {
            let cursor = AtomicUsize::new(0);
            self.worker_pool().scope(|scope| {
                for _ in 0..workers {
                    let work = &work;
                    let slots = &slots;
                    let cursor = &cursor;
                    scope.spawn(move |_| loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= kinds.len() {
                            break;
                        }
                        assert!(
                            slots[index].set(work(index, kinds[index])).is_ok(),
                            "suite slot filled twice"
                        );
                    });
                }
            });
        }

        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every workload produced a result"))
            .collect()
    }

    /// Tunes all eight proxies in parallel without executing their sample
    /// kernels — the cheaper path when only the [`GenerationReport`]s are
    /// needed (e.g. [`crate::suite::ProxySuite::generate_parallel`]).
    pub fn tune_all(&self) -> Vec<GenerationReport> {
        self.map_kinds(|_, kind| self.tuned_report(kind))
    }

    /// Runs the whole suite: all eight workloads tuned and executed in
    /// parallel.  The returned report lists workloads in
    /// [`WorkloadKind::ALL`] order and is identical run to run for a given
    /// base seed, independent of worker count and thread scheduling.
    pub fn run_all(&self) -> SuiteReport {
        SuiteReport {
            cluster_name: self.generator.cluster.name,
            base_seed: self.base_seed,
            runs: self.map_kinds(|index, kind| self.run_indexed(index, kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_covers_every_workload_in_order() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let report = runner.run_all();
        let kinds: Vec<WorkloadKind> = report.runs.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, WorkloadKind::ALL.to_vec());
        for run in &report.runs {
            assert!(run.report.accuracy.average() > 0.5, "{}", run.kind);
            assert!(run.report.speedup > 10.0, "{}", run.kind);
            assert!(run.execution.kernels_run > 0);
        }
    }

    #[test]
    fn repeated_runs_are_byte_identical_and_cache_served() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let first = runner.run_all();
        let after_first = runner.cache_stats();
        assert_eq!(after_first.hits, 0);
        assert_eq!(after_first.misses, 8);
        assert_eq!(after_first.entries, 8);

        let second = runner.run_all();
        let after_second = runner.cache_stats();
        assert_eq!(
            after_second.hits, 8,
            "second run must hit the cache for every workload"
        );
        assert_eq!(after_second.misses, 8);

        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        assert_eq!(first.digest(), second.digest());
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let parallel = SuiteRunner::new(ClusterConfig::five_node_westmere()).run_all();
        let serial = SuiteRunner::new(ClusterConfig::five_node_westmere())
            .with_max_parallel(1)
            .run_all();
        assert_eq!(parallel.digest(), serial.digest());
    }

    #[test]
    fn intra_proxy_parallelism_does_not_change_the_report() {
        let serial = SuiteRunner::new(ClusterConfig::five_node_westmere()).run_all();
        let branchy = SuiteRunner::new(ClusterConfig::five_node_westmere())
            .with_intra_parallel(8)
            .run_all();
        assert_eq!(
            serial.digest(),
            branchy.digest(),
            "intra-proxy branch parallelism must be a pure performance axis"
        );
    }

    #[test]
    fn streaming_does_not_change_the_execution_checksum() {
        let mono =
            SuiteRunner::new(ClusterConfig::five_node_westmere()).run_kind(WorkloadKind::TeraSort);
        let streamed = SuiteRunner::new(ClusterConfig::five_node_westmere())
            .with_chunk_elements(Some(4096))
            .run_kind(WorkloadKind::TeraSort);
        assert_eq!(
            mono.execution.checksum, streamed.execution.checksum,
            "chunked streaming must be a pure memory/performance axis"
        );
        assert_eq!(mono.seed, streamed.seed);
    }

    #[test]
    fn base_seed_changes_sample_execution_but_not_tuning() {
        let a = SuiteRunner::new(ClusterConfig::five_node_westmere()).run_all();
        let b = SuiteRunner::new(ClusterConfig::five_node_westmere())
            .with_base_seed(99)
            .run_all();
        assert_ne!(a.digest(), b.digest());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_ne!(ra.seed, rb.seed);
            assert_eq!(
                ra.report.proxy.parameters(),
                rb.report.proxy.parameters(),
                "tuning is independent of the sample seed"
            );
        }
    }

    #[test]
    fn cache_hit_returns_identical_parameters_to_a_fresh_tune() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let fresh = runner.run_kind(WorkloadKind::TeraSort);
        let cached = runner.run_kind(WorkloadKind::TeraSort);
        assert_eq!(runner.cache_stats().hits, 1);
        assert_eq!(
            fresh.report.proxy.parameters(),
            cached.report.proxy.parameters()
        );
        assert_eq!(fresh.report.proxy_metrics, cached.report.proxy_metrics);
    }

    #[test]
    fn different_cluster_config_misses_the_cache() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let _ = runner.run_kind(WorkloadKind::TeraSort);
        let key_a = TuningKey::new(WorkloadKind::TeraSort, runner.generator());

        let other = ProxyGenerator::new(ClusterConfig::three_node_haswell());
        let key_b = TuningKey::new(WorkloadKind::TeraSort, &other);
        assert_ne!(key_a, key_b);
        assert!(runner.cache.lookup(&key_b).is_none());
    }

    #[test]
    fn different_tuner_config_changes_the_key() {
        let cluster = ClusterConfig::five_node_westmere();
        let default = ProxyGenerator::new(cluster);
        let mut fewer_iterations = ProxyGenerator::new(cluster);
        fewer_iterations.tuner.max_iterations -= 1;
        let mut looser_threshold = ProxyGenerator::new(cluster);
        looser_threshold.tuner.deviation_threshold += 0.05;
        let key = TuningKey::new(WorkloadKind::KMeans, &default);
        for changed in [&fewer_iterations, &looser_threshold] {
            assert_ne!(key, TuningKey::new(WorkloadKind::KMeans, changed));
        }
    }

    #[test]
    fn hadoop_and_spark_twins_never_share_a_cache_entry() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let hadoop_key = TuningKey::new(WorkloadKind::TeraSort, runner.generator());
        let spark_key = TuningKey::new(WorkloadKind::SparkTeraSort, runner.generator());
        // Same motif DAG, same input, same cluster, same tuner — but the
        // stack differs, so the keys must too.
        assert_ne!(hadoop_key, spark_key);
        assert_eq!(
            hadoop_key.cluster_fingerprint,
            spark_key.cluster_fingerprint
        );
        assert_eq!(hadoop_key.tuner_fingerprint, spark_key.tuner_fingerprint);
        assert_eq!(hadoop_key.framework, Framework::Hadoop);
        assert_eq!(spark_key.framework, Framework::Spark);

        // Tuning the Hadoop variant must not satisfy a Spark lookup, and
        // once both are tuned they occupy two distinct entries.
        let _ = runner.run_kind(WorkloadKind::TeraSort);
        assert!(runner.cache.lookup(&spark_key).is_none());
        let _ = runner.run_kind(WorkloadKind::SparkTeraSort);
        assert_eq!(runner.cache_stats().entries, 2);
        let hadoop_run = runner.run_kind(WorkloadKind::TeraSort);
        let spark_run = runner.run_kind(WorkloadKind::SparkTeraSort);
        assert_ne!(
            hadoop_run.report.real_metrics, spark_run.report.real_metrics,
            "the two stacks must be tuned against different targets"
        );
    }

    #[test]
    fn every_stack_twin_pair_gets_distinct_keys() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        for kind in WorkloadKind::ALL {
            if let Some(twin) = kind.stack_twin() {
                assert_ne!(
                    TuningKey::new(kind, &generator),
                    TuningKey::new(twin, &generator),
                    "{kind} and {twin} share a tuning key"
                );
            }
        }
    }

    #[test]
    fn run_cell_reproduces_a_suite_slice_byte_for_byte() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let suite = runner.run_all();
        for (index, kind) in WorkloadKind::ALL.iter().enumerate() {
            let seed = derive_seed(DEFAULT_BASE_SEED, index as u64);
            let cell = runner.run_cell(*kind, SAMPLE_ELEMENTS, seed);
            let slice = suite.run(*kind);
            assert_eq!(cell.seed, slice.seed);
            assert_eq!(cell.execution, slice.execution);
            assert_eq!(format!("{:?}", cell.report), format!("{:?}", slice.report));
        }
    }

    /// A minimal synthesized workload: borrows TeraSort as its carrier
    /// kind (the population crate does the same with its nearest-named
    /// carrier) but decomposes into a different motif set.
    #[derive(Debug)]
    struct MiniSynthetic;

    impl Workload for MiniSynthetic {
        fn kind(&self) -> WorkloadKind {
            WorkloadKind::TeraSort
        }
        fn pattern(&self) -> &'static str {
            "synthetic test"
        }
        fn input_descriptor(&self) -> dmpb_datagen::DataDescriptor {
            dmpb_datagen::DataDescriptor::new(
                dmpb_datagen::DataClass::Text,
                1 << 30,
                100,
                0.0,
                dmpb_datagen::Distribution::Uniform,
            )
        }
        fn motif_composition(&self) -> Vec<(dmpb_motifs::MotifClass, f64)> {
            vec![
                (dmpb_motifs::MotifClass::Sort, 0.6),
                (dmpb_motifs::MotifClass::Sampling, 0.4),
            ]
        }
        fn involved_motifs(&self) -> Vec<dmpb_motifs::MotifKind> {
            vec![
                dmpb_motifs::MotifKind::QuickSort,
                dmpb_motifs::MotifKind::RandomSampling,
            ]
        }
        fn per_node_profile(&self, cluster: &ClusterConfig) -> dmpb_perfmodel::profile::OpProfile {
            dmpb_workloads::hadoop::TeraSort::scaled(1 << 30).per_node_profile(cluster)
        }
    }

    #[test]
    fn synthetic_cells_never_share_a_cache_entry_with_their_carrier() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let named_run = runner.run_kind(WorkloadKind::TeraSort);
        let named_key = TuningKey::new(WorkloadKind::TeraSort, runner.generator());
        let synthetic_key =
            TuningKey::for_synthetic(WorkloadKind::TeraSort, runner.generator(), 0xABCD);
        assert_ne!(named_key, synthetic_key);
        assert!(
            runner.cache.lookup(&synthetic_key).is_none(),
            "the carrier's tune must not satisfy a synthetic lookup"
        );

        let synthetic_run = runner.run_synthetic_cell(&MiniSynthetic, 0xABCD, 500, 7);
        assert_eq!(synthetic_run.kind, WorkloadKind::TeraSort, "carrier kind");
        assert_eq!(
            runner.cache_stats().entries,
            2,
            "named and synthetic tunes occupy distinct entries"
        );
        // The synthetic tune must not have overwritten the named entry.
        let named_again = runner.run_kind(WorkloadKind::TeraSort);
        assert_eq!(
            named_run.report.proxy.parameters(),
            named_again.report.proxy.parameters()
        );
        // And a repeated synthetic run is served from its own entry.
        let hits_before = runner.cache_stats().hits;
        let again = runner.run_synthetic_cell(&MiniSynthetic, 0xABCD, 500, 7);
        assert!(runner.cache_stats().hits > hits_before);
        assert_eq!(again.execution, synthetic_run.execution);
    }

    #[test]
    fn distinct_synthetic_members_get_distinct_entries() {
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere());
        let a = runner
            .try_run_synthetic_cell(&MiniSynthetic, 1, 500, 7)
            .expect("member 1 runs");
        let b = runner
            .try_run_synthetic_cell(&MiniSynthetic, 2, 500, 7)
            .expect("member 2 runs");
        assert_eq!(runner.cache_stats().entries, 2);
        assert_eq!(
            a.execution.checksum, b.execution.checksum,
            "same workload body"
        );
    }

    #[test]
    #[should_panic(expected = "reserved for named workloads")]
    fn zero_synthetic_discriminator_is_rejected() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let _ = TuningKey::for_synthetic(WorkloadKind::TeraSort, &generator, 0);
    }

    #[test]
    fn shared_worker_pool_is_adopted_not_recreated() {
        let pool = Arc::new(WorkerPool::new(2));
        let runner = SuiteRunner::new(ClusterConfig::five_node_westmere())
            .with_max_parallel(4)
            .with_worker_pool(Arc::clone(&pool));
        assert!(Arc::ptr_eq(runner.worker_pool(), &pool));
        let report = runner.run_all();
        assert_eq!(report.runs.len(), WorkloadKind::ALL.len());
    }

    #[test]
    fn summary_table_lists_all_eight_rows() {
        let report = SuiteRunner::new(ClusterConfig::five_node_westmere()).run_all();
        let rendered = report.summary_table().render();
        for kind in WorkloadKind::ALL {
            assert!(
                rendered.contains(&kind.to_string()),
                "{kind} missing:\n{rendered}"
            );
        }
    }
}
