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

use data_motif_proxy::core::decompose::decompose;
use data_motif_proxy::core::features::initial_parameters;
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
