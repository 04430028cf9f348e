//! Memoized tuning and the per-cell run record.
//!
//! Tuning a proxy (impact analysis, tree training and the
//! adjusting/feedback loop) is the expensive step of a campaign cell,
//! and its result depends only on the workload and the configurations
//! that shaped it — never on the cell's sample size or seed.  A
//! [`TuningCache`] memoizes tunes under a [`TuningKey`] of (workload,
//! software stack, cluster configuration, tuner configuration): a
//! changed cluster or tuner configuration changes the key and forces a
//! fresh tune, and a Hadoop workload can never be served a tune of its
//! Spark stack twin (or vice versa) even though the two share one motif
//! DAG.  [`ProxyRun::execute`] then runs the tuned proxy's DAG on a
//! cell's sample size and seed.  The scenario campaign engine drives
//! both, one cell at a time.
//!
//! ```
//! use dmpb_core::runner::{ProxyRun, TuningCache, TuningKey, SAMPLE_ELEMENTS};
//! use dmpb_core::{DagExecutor, ProxyGenerator};
//! use dmpb_workloads::{ClusterConfig, WorkloadKind};
//!
//! let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
//! let cache = TuningCache::new();
//! let key = TuningKey::new(WorkloadKind::TeraSort, &generator);
//! let tune = || generator.generate_kind(WorkloadKind::TeraSort);
//! let first = cache.get_or_tune(key, tune);
//! let second = cache.get_or_tune(key, tune); // served from the cache
//! assert_eq!(first.proxy.parameters(), second.proxy.parameters());
//! assert_eq!((cache.stats().misses, cache.stats().hits), (1, 1));
//!
//! let run = ProxyRun::execute(second, &DagExecutor::new(), SAMPLE_ELEMENTS, 7);
//! assert!(run.execution.kernels_run > 0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::fnv::hash_bytes;
use dmpb_workloads::{ClusterConfig, Framework, WorkloadKind};

use crate::executor::DagExecutor;
use crate::generator::{GenerationReport, ProxyGenerator};
use crate::proxy::ExecutionSummary;

/// Number of elements each proxy's real sample execution processes per
/// kernel (scaled by motif weight; see
/// [`crate::proxy::ProxyBenchmark::execute_sample`]) — the default
/// `elements` axis of a scenario.
pub const SAMPLE_ELEMENTS: usize = 2_000;

/// The default base seed of a scenario's seed axis: the `i`-th workload
/// of [`WorkloadKind::ALL`] runs its sample with
/// `derive_seed(DEFAULT_BASE_SEED, i)`.
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
/// The cache is thread-safe: the cells of a campaign probe it
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

    /// The tune stored under `key`, or — on a miss — `tune()`'s result,
    /// stored under `key` before it is returned.  Two threads missing
    /// on one key both tune (the tune is deterministic, so either entry
    /// is the same).
    pub fn get_or_tune(
        &self,
        key: TuningKey,
        tune: impl FnOnce() -> GenerationReport,
    ) -> GenerationReport {
        self.lookup(&key).unwrap_or_else(|| {
            let report = tune();
            self.insert(key, report.clone());
            report
        })
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

/// One cell's run: a tuned proxy and the result of executing its DAG.
#[derive(Debug, Clone)]
pub struct ProxyRun {
    /// The workload this proxy stands in for (a synthesized workload's
    /// carrier kind).
    pub kind: WorkloadKind,
    /// Seed that drove this proxy's sample execution.
    pub seed: u64,
    /// The (possibly cache-served) generation report.
    pub report: GenerationReport,
    /// Result of really executing the proxy's motif kernels on generated
    /// sample data.
    pub execution: ExecutionSummary,
}

impl ProxyRun {
    /// Executes `report`'s proxy DAG through `executor` on `elements`
    /// sample elements per kernel, driven by `seed`.
    pub fn execute(
        report: GenerationReport,
        executor: &DagExecutor,
        elements: usize,
        seed: u64,
    ) -> Self {
        let execution = ExecutionSummary::from(&report.proxy.execute_dag(executor, elements, seed));
        Self {
            kind: report.kind,
            seed,
            report,
            execution,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::rng::derive_seed;
    use dmpb_workloads::Workload;
    use std::sync::OnceLock;

    /// TeraSort tuned once on the five-node Westmere cluster, shared by
    /// the tests that only need *a* tuned report.
    fn terasort() -> &'static GenerationReport {
        static REPORT: OnceLock<GenerationReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            ProxyGenerator::new(ClusterConfig::five_node_westmere())
                .generate_kind(WorkloadKind::TeraSort)
        })
    }

    #[test]
    fn repeated_runs_are_byte_identical_and_cache_served() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let cache = TuningCache::new();
        let key = TuningKey::new(WorkloadKind::TeraSort, &generator);
        let executor = DagExecutor::new();
        let run = || {
            let report = cache.get_or_tune(key, || terasort().clone());
            ProxyRun::execute(report, &executor, SAMPLE_ELEMENTS, 7)
        };
        let first = run();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        let second = run();
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                entries: 1
            },
            "the second run must hit the cache"
        );
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn base_seed_changes_sample_execution_but_not_tuning() {
        let executor = DagExecutor::new();
        let run = |base_seed| {
            ProxyRun::execute(
                terasort().clone(),
                &executor,
                SAMPLE_ELEMENTS,
                derive_seed(base_seed, 0),
            )
        };
        let (a, b) = (run(DEFAULT_BASE_SEED), run(99));
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.execution.checksum, b.execution.checksum);
        assert_eq!(a.execution.kernels_run, b.execution.kernels_run);
        assert_eq!(a.kind, WorkloadKind::TeraSort);
    }

    #[test]
    fn streaming_does_not_change_the_execution_checksum() {
        let run = |executor: &DagExecutor| {
            ProxyRun::execute(terasort().clone(), executor, SAMPLE_ELEMENTS, 7).execution
        };
        assert_eq!(
            run(&DagExecutor::new()),
            run(&DagExecutor::new().with_chunk_elements(Some(4096))),
            "chunked streaming must be a pure memory/performance axis"
        );
    }

    #[test]
    fn cache_hit_returns_identical_parameters_to_a_fresh_tune() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let cache = TuningCache::new();
        let key = TuningKey::new(WorkloadKind::TeraSort, &generator);
        let tune = || generator.generate_kind(WorkloadKind::TeraSort);
        let fresh = cache.get_or_tune(key, tune);
        let cached = cache.get_or_tune(key, tune);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(fresh.proxy.parameters(), cached.proxy.parameters());
        assert_eq!(fresh.proxy_metrics, cached.proxy_metrics);
    }

    #[test]
    fn different_cluster_config_misses_the_cache() {
        let cache = TuningCache::new();
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let key_a = TuningKey::new(WorkloadKind::TeraSort, &generator);
        let _ = cache.get_or_tune(key_a, || terasort().clone());

        let other = ProxyGenerator::new(ClusterConfig::three_node_haswell());
        let key_b = TuningKey::new(WorkloadKind::TeraSort, &other);
        assert_ne!(key_a, key_b);
        assert!(cache.lookup(&key_b).is_none());
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
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let cache = TuningCache::new();
        let hadoop_key = TuningKey::new(WorkloadKind::TeraSort, &generator);
        let spark_key = TuningKey::new(WorkloadKind::SparkTeraSort, &generator);
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
        let hadoop = cache.get_or_tune(hadoop_key, || terasort().clone());
        assert!(cache.lookup(&spark_key).is_none());
        let spark = cache.get_or_tune(spark_key, || {
            generator.generate_kind(WorkloadKind::SparkTeraSort)
        });
        assert_eq!(cache.stats().entries, 2);
        assert_ne!(
            hadoop.real_metrics, spark.real_metrics,
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

    /// The synthetic member tuned once, shared like [`terasort`].
    fn mini_synthetic() -> &'static GenerationReport {
        static REPORT: OnceLock<GenerationReport> = OnceLock::new();
        REPORT.get_or_init(|| {
            ProxyGenerator::new(ClusterConfig::five_node_westmere()).generate(&MiniSynthetic)
        })
    }

    #[test]
    fn synthetic_cells_never_share_a_cache_entry_with_their_carrier() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let cache = TuningCache::new();
        let executor = DagExecutor::new();
        let named_key = TuningKey::new(WorkloadKind::TeraSort, &generator);
        let synthetic_key = TuningKey::for_synthetic(WorkloadKind::TeraSort, &generator, 0xABCD);
        assert_ne!(named_key, synthetic_key);
        let named = cache.get_or_tune(named_key, || terasort().clone());
        assert!(
            cache.lookup(&synthetic_key).is_none(),
            "the carrier's tune must not satisfy a synthetic lookup"
        );

        let synthetic_run = || {
            let report = cache.get_or_tune(synthetic_key, || mini_synthetic().clone());
            ProxyRun::execute(report, &executor, 500, 7)
        };
        let first = synthetic_run();
        assert_eq!(first.kind, WorkloadKind::TeraSort, "carrier kind");
        assert_eq!(
            cache.stats().entries,
            2,
            "named and synthetic tunes occupy distinct entries"
        );
        // The synthetic tune must not have overwritten the named entry.
        let named_again = cache.get_or_tune(named_key, || unreachable!("named entry is cached"));
        assert_eq!(named.proxy.parameters(), named_again.proxy.parameters());
        // And a repeated synthetic run is served from its own entry.
        let hits_before = cache.stats().hits;
        let again = synthetic_run();
        assert!(cache.stats().hits > hits_before);
        assert_eq!(again.execution, first.execution);
    }

    #[test]
    fn distinct_synthetic_members_get_distinct_entries() {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        let cache = TuningCache::new();
        let executor = DagExecutor::new();
        let run = |member| {
            let key = TuningKey::for_synthetic(WorkloadKind::TeraSort, &generator, member);
            let report = cache.get_or_tune(key, || mini_synthetic().clone());
            ProxyRun::execute(report, &executor, 500, 7)
        };
        let (a, b) = (run(1), run(2));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().misses, 2);
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
}
