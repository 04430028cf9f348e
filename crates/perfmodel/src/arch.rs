//! Processor and cluster descriptions (Table IV and Section IV of the paper).
//!
//! Two architectures matter for the evaluation:
//!
//! * **Intel Xeon E5645 (Westmere)** — the main five-node cluster of
//!   Section III (Table IV): 6 cores @ 2.40 GHz, 32 KB L1I + 32 KB L1D per
//!   core, 256 KB L2 per core, 12 MB shared L3.
//! * **Intel Xeon E5-2620 v3 (Haswell)** — the newer-generation processor
//!   of the Section IV-C cross-architecture case study: 6 cores @ 2.40 GHz,
//!   same L1/L2 sizes, 15 MB L3, wider issue, better branch prediction and
//!   higher memory bandwidth.
//!
//! [`NodeConfig`] and `ClusterConfig`-style scaling live with the workload
//! models; here we only describe a node's processor and its memory / disk
//! capabilities as needed by the performance model.

use crate::cache::CacheConfig;

/// Branch-predictor sizing and behaviour knobs for one architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchPredictorConfig {
    /// log2 of the number of two-bit counters in the gshare table.
    pub gshare_bits: u32,
    /// Number of history bits folded into the index.
    pub history_bits: u32,
    /// Misprediction penalty in cycles.
    pub misprediction_penalty_cycles: f64,
}

/// Description of one processor microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchProfile {
    /// Marketing / reporting name, e.g. `"Xeon E5645 (Westmere)"`.
    pub name: &'static str,
    /// Core clock frequency in Hz.
    pub frequency_hz: f64,
    /// Physical cores per processor.
    pub cores_per_socket: u32,
    /// Sockets per node.
    pub sockets: u32,
    /// Peak sustainable issue rate in instructions per cycle.
    pub issue_width: f64,
    /// Base CPI achieved on cache-resident, well-predicted code.
    pub base_cpi: f64,
    /// L1 instruction cache geometry (per core).
    pub l1i: CacheConfig,
    /// L1 data cache geometry (per core).
    pub l1d: CacheConfig,
    /// L2 cache geometry (per core).
    pub l2: CacheConfig,
    /// Last-level cache geometry (shared).
    pub l3: CacheConfig,
    /// L2 hit latency in cycles (penalty applied to L1 misses that hit L2).
    pub l2_latency_cycles: f64,
    /// L3 hit latency in cycles.
    pub l3_latency_cycles: f64,
    /// Main-memory latency in cycles.
    pub memory_latency_cycles: f64,
    /// Fraction of a miss's latency hidden by memory-level parallelism /
    /// out-of-order execution, in `[0, 1)`.
    pub mlp_overlap: f64,
    /// Branch predictor configuration.
    pub branch: BranchPredictorConfig,
    /// Peak memory bandwidth per node in MB/s.
    pub peak_memory_bw_mbps: f64,
    /// Peak disk bandwidth per node in MB/s (cluster nodes use spinning
    /// disks in the paper's testbed).
    pub peak_disk_bw_mbps: f64,
}

impl ArchProfile {
    /// Intel Xeon E5645 (Westmere-EP), the Table IV configuration.
    pub fn westmere_e5645() -> Self {
        Self {
            name: "Xeon E5645 (Westmere)",
            frequency_hz: 2.40e9,
            cores_per_socket: 6,
            sockets: 2,
            issue_width: 4.0,
            base_cpi: 0.55,
            l1i: CacheConfig::new(32 * 1024, 64, 4),
            l1d: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(256 * 1024, 64, 8),
            l3: CacheConfig::new(12 * 1024 * 1024, 64, 16),
            l2_latency_cycles: 10.0,
            l3_latency_cycles: 38.0,
            memory_latency_cycles: 180.0,
            mlp_overlap: 0.78,
            branch: BranchPredictorConfig {
                gshare_bits: 13,
                history_bits: 10,
                misprediction_penalty_cycles: 17.0,
            },
            peak_memory_bw_mbps: 25_000.0,
            peak_disk_bw_mbps: 140.0,
        }
    }

    /// Intel Xeon E5-2620 v3 (Haswell-EP), the Section IV-C configuration.
    pub fn haswell_e5_2620_v3() -> Self {
        Self {
            name: "Xeon E5-2620 v3 (Haswell)",
            frequency_hz: 2.40e9,
            cores_per_socket: 6,
            sockets: 2,
            issue_width: 4.0,
            base_cpi: 0.42,
            l1i: CacheConfig::new(32 * 1024, 64, 8),
            l1d: CacheConfig::new(32 * 1024, 64, 8),
            l2: CacheConfig::new(256 * 1024, 64, 8),
            l3: CacheConfig::new(16 * 1024 * 1024, 64, 16),
            l2_latency_cycles: 11.0,
            l3_latency_cycles: 34.0,
            memory_latency_cycles: 160.0,
            mlp_overlap: 0.86,
            branch: BranchPredictorConfig {
                gshare_bits: 14,
                history_bits: 12,
                misprediction_penalty_cycles: 15.0,
            },
            peak_memory_bw_mbps: 42_000.0,
            peak_disk_bw_mbps: 160.0,
        }
    }

    /// Slugs of the modelled microarchitectures, in generation order.
    /// These are the values a scenario file's `architectures` axis may
    /// name; each resolves through [`ArchProfile::by_name`].
    pub const NAMES: [&'static str; 2] = ["westmere", "haswell"];

    /// Looks up a modelled microarchitecture by name.  Accepts the slugs
    /// of [`ArchProfile::NAMES`] and the reporting names
    /// (e.g. `"Xeon E5645 (Westmere)"`), case-insensitively.
    pub fn by_name(name: &str) -> Option<Self> {
        type Builder = fn() -> ArchProfile;
        const REGISTRY: [(&str, Builder); 2] = [
            ("westmere", ArchProfile::westmere_e5645),
            ("haswell", ArchProfile::haswell_e5_2620_v3),
        ];
        let wanted = name.trim().to_ascii_lowercase();
        REGISTRY
            .iter()
            .find(|(slug, build)| *slug == wanted || build().name.to_ascii_lowercase() == wanted)
            .map(|(_, build)| build())
    }

    /// Total physical cores in one node.
    pub(crate) fn cores_per_node(&self) -> u32 {
        self.cores_per_socket * self.sockets
    }
}

/// One node of an evaluation cluster (processor + memory + disk).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeConfig {
    /// Processor micro-architecture.
    pub arch: ArchProfile,
    /// Installed memory in GB.
    pub memory_gb: u32,
    /// Ethernet bandwidth between nodes in MB/s (1 GbE in the paper).
    pub network_bw_mbps: f64,
}

impl NodeConfig {
    /// The Table IV node: dual Xeon E5645, 32 GB DDR3, 1 GbE.
    pub fn westmere_node() -> Self {
        Self {
            arch: ArchProfile::westmere_e5645(),
            memory_gb: 32,
            network_bw_mbps: 117.0,
        }
    }

    /// The Section IV-B node: dual Xeon E5645, 64 GB, 1 GbE.
    pub fn westmere_node_64gb() -> Self {
        Self {
            memory_gb: 64,
            ..Self::westmere_node()
        }
    }

    /// The Section IV-C node: dual Xeon E5-2620 v3, 64 GB, 1 GbE.
    pub fn haswell_node() -> Self {
        Self {
            arch: ArchProfile::haswell_e5_2620_v3(),
            memory_gb: 64,
            network_bw_mbps: 117.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn westmere_matches_table_iv() {
        let a = ArchProfile::westmere_e5645();
        assert_eq!(a.cores_per_socket, 6);
        assert_eq!(a.l1d.size_bytes, 32 * 1024);
        assert_eq!(a.l2.size_bytes, 256 * 1024);
        assert_eq!(a.l3.size_bytes, 12 * 1024 * 1024);
        assert_eq!(a.frequency_hz, 2.40e9);
        assert_eq!(a.cores_per_node(), 12);
    }

    #[test]
    fn haswell_is_a_newer_generation() {
        let w = ArchProfile::westmere_e5645();
        let h = ArchProfile::haswell_e5_2620_v3();
        assert!(h.base_cpi < w.base_cpi, "Haswell should retire faster");
        assert!(h.mlp_overlap > w.mlp_overlap);
        assert!(h.peak_memory_bw_mbps > w.peak_memory_bw_mbps);
        assert!(h.l3.size_bytes > w.l3.size_bytes);
    }

    #[test]
    fn architectures_resolve_by_slug_and_reporting_name() {
        for slug in ArchProfile::NAMES {
            let arch = ArchProfile::by_name(slug).expect(slug);
            assert_eq!(ArchProfile::by_name(arch.name).expect(arch.name), arch);
        }
        assert_eq!(
            ArchProfile::by_name("Westmere"),
            Some(ArchProfile::westmere_e5645())
        );
        assert_eq!(
            ArchProfile::by_name("haswell"),
            Some(ArchProfile::haswell_e5_2620_v3())
        );
        assert_eq!(ArchProfile::by_name("skylake"), None);
    }

    #[test]
    fn node_configs_match_paper_clusters() {
        assert_eq!(NodeConfig::westmere_node().memory_gb, 32);
        assert_eq!(NodeConfig::westmere_node_64gb().memory_gb, 64);
        assert_eq!(
            NodeConfig::haswell_node().arch.name,
            "Xeon E5-2620 v3 (Haswell)"
        );
    }
}
