//! Property-based tests over core data structures and invariants, plus the
//! DAG-executor determinism gate: executing any of the eight workload DAGs
//! must produce identical digests and checksums streamed and monolithic,
//! across repeated runs, and while concurrent cells share one executor.

use data_motif_proxy::core::dag::ProxyDag;
use data_motif_proxy::core::decompose::decompose;
use data_motif_proxy::core::executor::DagExecutor;
use data_motif_proxy::core::features::initial_parameters;
use data_motif_proxy::core::parameters::{Direction, ParameterId, ProxyParameters};
use data_motif_proxy::core::ProxyBenchmark;
use data_motif_proxy::datagen::text::TextGenerator;
use data_motif_proxy::datagen::{DataClass, DataDescriptor, Distribution};
use data_motif_proxy::metrics::accuracy;
use data_motif_proxy::motifs::bigdata::{set_ops, sort, transform};
use data_motif_proxy::motifs::{MotifKind, WorkerPool};
use data_motif_proxy::perfmodel::cache::{Cache, CacheConfig};
use data_motif_proxy::workloads::framework::spark::AppShape;
use data_motif_proxy::workloads::spark::{SparkKMeans, SparkPageRank, SparkTeraSort};
use data_motif_proxy::workloads::workload::Workload;
use data_motif_proxy::workloads::{all_workloads, workload_by_kind, ClusterConfig, WorkloadKind};
use proptest::prelude::*;

/// The eight proxies with their initial (untuned) parameters — the cheap
/// way to exercise every workload DAG without running the auto-tuner.
fn initial_proxies() -> Vec<ProxyBenchmark> {
    let cluster = ClusterConfig::five_node_westmere();
    all_workloads()
        .iter()
        .map(|w| {
            ProxyBenchmark::from_decomposition(
                &decompose(w.as_ref()),
                initial_parameters(w.as_ref(), &cluster),
            )
        })
        .collect()
}

/// The DAG executor's digest and the `ExecutionSummary` checksum must be
/// identical across repeated runs, for all 8 workloads.
#[test]
fn dag_execution_is_identical_across_repeats_for_all_workloads() {
    let executor = DagExecutor::new();
    for proxy in initial_proxies() {
        let a = proxy.execute_dag(&executor, 1_000, 17);
        let b = proxy.execute_dag(&executor, 1_000, 17);
        assert_eq!(a, b, "{}: repeated runs differ", proxy.name());
        assert_eq!(
            proxy.execute_sample(1_000, 17).checksum,
            a.checksum,
            "{}: summary checksum disagrees with the executor",
            proxy.name()
        );
    }
}

/// Builds an arbitrary acyclic DAG from proptest-drawn raw picks: nodes
/// `0..n`, every edge pointing from a lower to a higher node id (acyclic
/// by construction, forks/joins/multi-edges all possible).
fn random_dag(nodes: usize, picks: &[usize]) -> ProxyDag {
    let descriptor = DataDescriptor::new(DataClass::Text, 1 << 20, 100, 0.0, Distribution::Uniform);
    let mut dag = ProxyDag::new();
    for i in 0..nodes {
        dag.add_node(format!("n{i}"), descriptor);
    }
    for &pick in picks {
        let a = pick % nodes;
        let b = (pick / nodes) % nodes;
        if a == b {
            continue;
        }
        let motif = MotifKind::ALL[(pick / (nodes * nodes)) % MotifKind::ALL.len()];
        let weight = 0.05 + (pick % 13) as f64 * 0.07;
        dag.add_edge(a.min(b), a.max(b), motif, weight);
    }
    if dag.num_edges() == 0 {
        dag.add_edge(0, 1, MotifKind::MinMax, 1.0);
    }
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For random acyclic topologies — not just the eight curated
    /// workload DAGs — a repeat run on a shared executor (after the first
    /// run) and a run on a fresh executor must be byte-identical.
    #[test]
    fn random_acyclic_dags_execute_identically_on_repeat_and_fresh_executors(
        nodes in 2usize..10,
        picks in prop::collection::vec(0usize..100_000, 1..24),
        elements in 64usize..800,
        seed in 0u64..100_000,
    ) {
        let dag = random_dag(nodes, &picks);
        let shared = DagExecutor::new();
        let first = shared.execute(&dag, elements, seed);
        let repeat = shared.execute(&dag, elements, seed);
        let fresh = DagExecutor::new().execute(&dag, elements, seed);
        prop_assert_eq!(&first, &repeat,
            "a repeat run changed the execution:\n{}", dag.describe());
        prop_assert_eq!(&first, &fresh,
            "a fresh executor changed the execution:\n{}", dag.describe());
    }
}

/// The executor covers every component edge of every workload DAG, and a
/// branching plan yields a branching DAG.
#[test]
fn dag_execution_covers_every_component_and_exposes_branch_width() {
    let executor = DagExecutor::new();
    let mut saw_branching = false;
    for proxy in initial_proxies() {
        let run = proxy.execute_dag(&executor, 500, 3);
        assert_eq!(
            run.kernels_run(),
            proxy.components().len(),
            "{}",
            proxy.name()
        );
        if proxy.plan().is_branching() {
            assert!(
                proxy.dag().is_branching(),
                "{}: branching plan but a linear DAG",
                proxy.name()
            );
            saw_branching = true;
        }
    }
    assert!(saw_branching, "no workload exposed a branching DAG");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Digest invariance holds for arbitrary seeds and element budgets,
    /// not just the pinned ones, while `workers` concurrent cells share
    /// one executor on a worker pool.
    #[test]
    fn dag_executor_digest_is_seedwise_parallelism_invariant(
        seed in 0u64..1_000,
        elements in 64usize..1_500,
        workers in 2usize..8,
    ) {
        // Spark TeraSort: a genuine fork + join DAG, selected by kind so a
        // reordering of the suite cannot silently swap the subject.
        let cluster = ClusterConfig::five_node_westmere();
        let workload = workload_by_kind(WorkloadKind::SparkTeraSort);
        let proxy = ProxyBenchmark::from_decomposition(
            &decompose(workload.as_ref()),
            initial_parameters(workload.as_ref(), &cluster),
        );
        prop_assert!(proxy.plan().is_branching());
        let shared = DagExecutor::new();
        let runs: Vec<_> = (0..workers as u64).map(|_| std::sync::OnceLock::new()).collect();
        WorkerPool::new(workers - 1).scope(|s| {
            for (cell, slot) in runs.iter().enumerate() {
                let (proxy, shared) = (&proxy, &shared);
                s.spawn(move || {
                    let _ = slot.set(proxy.execute_dag(shared, elements, seed + cell as u64));
                });
            }
        });
        for (cell, slot) in runs.into_iter().enumerate() {
            let serial = proxy.execute_dag(&DagExecutor::new(), elements, seed + cell as u64);
            prop_assert_eq!(slot.into_inner(), Some(serial));
        }
    }
}

/// An arbitrary-but-valid Spark application shape for property tests.
fn app_shape(iterations: u32, cached_fraction: f64, wide_shuffle_ratio: f64) -> AppShape {
    AppShape {
        input_bytes: 10 << 30,
        iterations,
        cached_fraction,
        wide_shuffle_ratio,
        output_ratio: 0.1,
        output_replication: 2,
        heap_bytes: 8 << 30,
        pipeline_factor: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn quick_sort_matches_std_sort(seed in 0u64..1000, len in 0usize..2000) {
        let keys = TextGenerator::new(seed).generate(len).keys();
        let mut ours = keys.clone();
        sort::quick_sort(&mut ours);
        let mut expected = keys;
        expected.sort_unstable();
        prop_assert_eq!(ours, expected);
    }

    #[test]
    fn merge_sort_is_sorted_and_a_permutation(seed in 0u64..1000, len in 0usize..2000) {
        let keys = TextGenerator::new(seed).generate(len).keys();
        let sorted = sort::merge_sort(&keys);
        prop_assert!(sort::is_sorted(&sorted));
        prop_assert_eq!(sorted.len(), keys.len());
    }

    #[test]
    fn set_algebra_identities(a in prop::collection::vec(0u64..500, 0..200),
                              b in prop::collection::vec(0u64..500, 0..200)) {
        let a = set_ops::normalize(&a);
        let b = set_ops::normalize(&b);
        let union = set_ops::union(&a, &b);
        let inter = set_ops::intersection(&a, &b);
        let diff = set_ops::difference(&a, &b);
        prop_assert!(set_ops::is_canonical(&union));
        prop_assert_eq!(union.len(), a.len() + b.len() - inter.len());
        prop_assert_eq!(set_ops::union(&diff, &inter), a);
    }

    #[test]
    fn fft_round_trips(values in prop::collection::vec(-100.0f64..100.0, 1..6)) {
        // Pad to a power of two length.
        let mut signal = values;
        let n = signal.len().next_power_of_two().max(2);
        signal.resize(n, 0.0);
        let recovered = transform::ifft_real(&transform::fft_real(&signal));
        for (a, b) in signal.iter().zip(&recovered) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn cache_never_holds_more_lines_than_capacity(addresses in prop::collection::vec(0u64..(1 << 20), 1..2000)) {
        let config = CacheConfig::new(8 * 1024, 64, 4);
        let capacity_lines = (config.size_bytes / config.line_bytes) as usize;
        let mut cache = Cache::new(config);
        for a in addresses {
            cache.access(a);
        }
        prop_assert!(cache.resident_lines() <= capacity_lines);
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses());
    }

    #[test]
    fn accuracy_is_bounded_and_symmetric_in_error_sign(real in 0.001f64..1e6, error in -0.99f64..0.99) {
        let high = accuracy(real, real * (1.0 + error));
        let low = accuracy(real, real * (1.0 - error));
        prop_assert!((0.0..=1.0).contains(&high));
        prop_assert!((high - low).abs() < 1e-9);
    }

    #[test]
    fn caching_never_increases_spark_disk_reads(iterations in 1u32..10,
                                                cached in 0.0f64..1.0,
                                                shuffle in 0.0f64..1.0) {
        let cluster = ClusterConfig::five_node_westmere();
        let colder = app_shape(iterations, (cached - 0.25).max(0.0), shuffle);
        let warmer = app_shape(iterations, cached, shuffle);
        let (cold_read, _) = colder.disk_traffic_per_node(&cluster);
        let (warm_read, _) = warmer.disk_traffic_per_node(&cluster);
        prop_assert!(warm_read <= cold_read, "warm {warm_read} cold {cold_read}");
        // A fully cached RDD costs the one-time input scan plus shuffle
        // fetches, never per-iteration input re-reads.
        let fully_cached = app_shape(iterations, 1.0, shuffle);
        let (read, _) = fully_cached.disk_traffic_per_node(&cluster);
        let input = fully_cached.input_bytes_per_node(&cluster) as f64;
        let shuffle_fetch = fully_cached.shuffle_bytes_per_node(&cluster) as f64
            * f64::from(iterations) * 0.5;
        prop_assert!((read as f64) <= input + shuffle_fetch + 1.0);
    }

    #[test]
    fn spark_serde_grows_with_wide_shuffles(iterations in 1u32..10, shuffle in 0.0f64..0.99) {
        let cluster = ClusterConfig::five_node_westmere();
        let narrow = app_shape(iterations, 1.0, shuffle);
        let wider = app_shape(iterations, 1.0, shuffle + 0.01);
        prop_assert!(
            wider.serde_bytes_per_node(&cluster) >= narrow.serde_bytes_per_node(&cluster)
        );
    }

    #[test]
    fn spark_workload_profiles_are_finite_and_scale_sanely(
        gb in 1u64..32,
        iterations in 1u32..8,
        log_vertices in 16u32..24,
    ) {
        let cluster = ClusterConfig::five_node_westmere();
        let workloads: [Box<dyn Workload>; 3] = [
            Box::new(SparkTeraSort::scaled(gb << 30)),
            Box::new(SparkKMeans::scaled(gb << 30, 0.9, iterations)),
            Box::new(SparkPageRank::scaled(1 << log_vertices, iterations)),
        ];
        for w in &workloads {
            let p = w.per_node_profile(&cluster);
            prop_assert!(p.total_instructions() > 0, "{}", w.name());
            prop_assert!(p.disk_read_bytes > 0, "{}", w.name());
            let m = w.measure(&cluster);
            prop_assert!(m.is_finite(), "{}", w.name());
            prop_assert!(m.runtime_secs > 0.0, "{}", w.name());
        }
    }

    #[test]
    fn parameter_adjustments_stay_within_bounds(steps in prop::collection::vec(0usize..12, 0..40)) {
        let mut params = ProxyParameters::big_data(256 << 20, 8);
        for s in steps {
            let id = ParameterId::ALL[s % ParameterId::ALL.len()];
            let dir = if s % 2 == 0 { Direction::Up } else { Direction::Down };
            params = params.adjusted(id, dir);
            prop_assert!(params.num_tasks >= 1);
            prop_assert!(params.data_size_bytes >= 4 << 20);
            prop_assert!((0.9..=1.1).contains(&params.weight_skew));
            prop_assert!((0.0..=0.85).contains(&params.framework_weight));
        }
    }
}
