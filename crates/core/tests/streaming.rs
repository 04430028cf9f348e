//! Streaming-equivalence pins for the chunked data plane (PR 8).
//!
//! The whole streaming design rests on one invariant: executing a proxy
//! DAG in granule-aligned chunks — any chunk size — is *invisible* in the
//! results.  Checksums, per-edge element counts and
//! therefore every report digest must be byte-identical to monolithic
//! execution.  These tests pin that invariant end to end, over the real
//! tuned proxies of all eight workloads (not synthetic DAGs), both on a
//! deterministic grid and under a property-based sweep of random chunk
//! sizes.

use dmpb_core::dag::ProxyDag;
use dmpb_core::{DagExecutor, ProxyGenerator};
use dmpb_workloads::{ClusterConfig, WorkloadKind};

/// One tuned proxy DAG per suite workload, generated once per process.
fn tuned_dags() -> &'static [(WorkloadKind, ProxyDag)] {
    use std::sync::OnceLock;
    static DAGS: OnceLock<Vec<(WorkloadKind, ProxyDag)>> = OnceLock::new();
    DAGS.get_or_init(|| {
        let generator = ProxyGenerator::new(ClusterConfig::five_node_westmere());
        WorkloadKind::ALL
            .iter()
            .map(|&kind| (kind, generator.generate_kind(kind).proxy.dag()))
            .collect()
    })
}

const ELEMENTS: usize = 10_000;
const SEED: u64 = 0x00D4_17A4_0F1F;

/// The deterministic grid: every workload, chunk sizes from one granule
/// up to chunk > n (a single chunk).
#[test]
fn chunked_execution_is_digest_identical_for_all_eight_workloads() {
    for (kind, dag) in tuned_dags() {
        let monolithic = DagExecutor::new().execute(dag, ELEMENTS, SEED);
        for chunk in [4096, 2 * 4096, 3 * 4096 + 17, ELEMENTS + 1] {
            let streamed = DagExecutor::new()
                .with_chunk_elements(Some(chunk))
                .execute(dag, ELEMENTS, SEED);
            assert_eq!(
                streamed.checksum, monolithic.checksum,
                "{kind}: checksum drifted (chunk={chunk})"
            );
            assert_eq!(
                streamed.total_elements(),
                monolithic.total_elements(),
                "{kind}: element accounting drifted (chunk={chunk})"
            );
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// Property pin: a random workload at a random cell size, streamed
    /// with a random (pre-alignment) chunk size, is checksum-identical to
    /// its monolithic execution.
    #[test]
    fn random_chunk_sizes_never_change_the_checksum(
        workload in 0usize..WorkloadKind::ALL.len(),
        elements in 100usize..30_000,
        chunk in 1usize..40_000,
        seed in 0u64..100_000,
    ) {
        let (kind, dag) = &tuned_dags()[workload];
        let monolithic = DagExecutor::new().execute(dag, elements, seed);
        let streamed = DagExecutor::new()
            .with_chunk_elements(Some(chunk))
            .execute(dag, elements, seed);
        proptest::prop_assert_eq!(
            streamed.checksum,
            monolithic.checksum,
            "{}: chunk={} elements={}",
            kind, chunk, elements
        );
        proptest::prop_assert_eq!(streamed.total_elements(), monolithic.total_elements());
    }
}
