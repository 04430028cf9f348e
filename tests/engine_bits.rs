//! Engine bit-pin: one FNV digest over the exact bits of the
//! performance model's output.
//!
//! Every metric of [`ExecutionEngine::run`] on the eight workloads'
//! initial proxies (`decompose` + `initial_parameters` on the five-node
//! Westmere cluster), measured on both the Westmere and the Haswell
//! node, is folded through `f64::to_bits` into one digest.  Any change to
//! the engine — a cache-simulator rewrite, a reordered sum, a different
//! sampling stream — must leave every bit in place or change this pin on
//! purpose, together with `CODE_MODEL_VERSION`.
//!
//! A second digest pins the tune path on top of the engine: every
//! workload tuned with the default [`AutoTuner`] on the five-node
//! Westmere and the three-node Haswell cluster, folding the tuned
//! metrics, every [`ProxyParameters`](data_motif_proxy::core::ProxyParameters)
//! field, the convergence history and the iteration count.  A change to
//! how a tune runs its probes (impact analysis, feedback loop, simulation
//! memo) must leave every bit in place.

use data_motif_proxy::core::autotune::AutoTuner;
use data_motif_proxy::core::decompose::decompose;
use data_motif_proxy::core::features::{initial_parameters, FeatureSelection};
use data_motif_proxy::core::ProxyBenchmark;
use data_motif_proxy::metrics::MetricId;
use data_motif_proxy::perfmodel::{ArchProfile, ExecutionEngine};
use data_motif_proxy::workloads::{workload_by_kind, ClusterConfig, WorkloadKind};

/// The digest of the engine's output on the inputs above.
const ENGINE_BITS_PIN: u64 = 0x4c8d_344f_92b9_5f85;

/// FNV-1a over a word sequence, one mixing step per word.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x1000_0000_01b3)
    })
}

#[test]
fn engine_output_bits_are_pinned() {
    let cluster = ClusterConfig::five_node_westmere();
    let arches = [
        ArchProfile::westmere_e5645(),
        ArchProfile::haswell_e5_2620_v3(),
    ];
    let mut words = Vec::new();
    for kind in WorkloadKind::ALL {
        let workload = workload_by_kind(kind);
        let proxy = ProxyBenchmark::from_decomposition(
            &decompose(workload.as_ref()),
            initial_parameters(workload.as_ref(), &cluster),
        );
        let profile = proxy.profile();
        for arch in arches {
            let metrics = ExecutionEngine::new(arch).run(&profile, proxy.parameters().num_tasks);
            words.extend(MetricId::ALL.iter().map(|&id| metrics.get(id).to_bits()));
        }
    }
    assert_eq!(words.len(), 8 * 2 * MetricId::ALL.len());
    let digest = fnv(words);
    assert_eq!(
        digest, ENGINE_BITS_PIN,
        "engine output bits changed: digest {digest:#018x}"
    );
}

/// The digest of every tune's outcome on the inputs below.
const TUNE_BITS_PIN: u64 = 0xd53b_6159_9e29_0786;

#[test]
fn tune_output_bits_are_pinned() {
    let clusters = [
        ClusterConfig::five_node_westmere(),
        ClusterConfig::three_node_haswell(),
    ];
    let metrics = FeatureSelection::paper_default().metrics;
    let tuner = AutoTuner::default();
    let mut words = Vec::new();
    for cluster in &clusters {
        for kind in WorkloadKind::ALL {
            let workload = workload_by_kind(kind);
            let target = workload.measure(cluster);
            let initial = ProxyBenchmark::from_decomposition(
                &decompose(workload.as_ref()),
                initial_parameters(workload.as_ref(), cluster),
            );
            let outcome = tuner.tune(initial, &target, &cluster.node.arch, &metrics);
            words.extend(
                MetricId::ALL
                    .iter()
                    .map(|&id| outcome.metrics.get(id).to_bits()),
            );
            let p = outcome.proxy.parameters();
            words.extend([
                p.data_size_bytes,
                p.chunk_size_bytes,
                u64::from(p.num_tasks),
                p.weight_skew.to_bits(),
                u64::from(p.batch_size),
                u64::from(p.geometry.0),
                u64::from(p.geometry.1),
                u64::from(p.geometry.2),
                p.framework_weight.to_bits(),
                u64::from(p.spill_to_disk),
            ]);
            words.extend(outcome.history.iter().map(|a| a.to_bits()));
            words.push(outcome.iterations as u64);
        }
    }
    let digest = fnv(words);
    assert_eq!(
        digest, TUNE_BITS_PIN,
        "tune output bits changed: digest {digest:#018x}"
    );
}
