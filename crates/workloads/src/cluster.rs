//! Cluster configurations used in the paper's evaluation.
//!
//! * Section III: five nodes (one master + four slaves), dual Xeon E5645,
//!   32 GB memory, 1 GbE.
//! * Section IV-B: three nodes (one master + two slaves), same processor,
//!   64 GB memory.
//! * Section IV-C: three nodes with Xeon E5-2620 v3 (Haswell), 64 GB.

use dmpb_perfmodel::arch::NodeConfig;

/// A Hadoop / TensorFlow evaluation cluster: one master plus
/// `total_nodes - 1` slave (worker) nodes of identical configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Reporting name of the cluster.
    pub name: &'static str,
    /// Total node count including the master / parameter server.
    pub total_nodes: u32,
    /// Per-node hardware configuration.
    pub node: NodeConfig,
    /// Worker tasks (map slots / TensorFlow intra-op threads) per node.
    pub tasks_per_node: u32,
}

impl ClusterConfig {
    /// The Section III cluster: 5 × dual Xeon E5645, 32 GB, 1 GbE.
    pub fn five_node_westmere() -> Self {
        Self {
            name: "5-node Xeon E5645 (32 GB)",
            total_nodes: 5,
            node: NodeConfig::westmere_node(),
            tasks_per_node: 12,
        }
    }

    /// The Section IV-B cluster: 3 × dual Xeon E5645, 64 GB.
    pub fn three_node_westmere_64gb() -> Self {
        Self {
            name: "3-node Xeon E5645 (64 GB)",
            total_nodes: 3,
            node: NodeConfig::westmere_node_64gb(),
            tasks_per_node: 12,
        }
    }

    /// The Section IV-C cluster: 3 × dual Xeon E5-2620 v3, 64 GB.
    pub fn three_node_haswell() -> Self {
        Self {
            name: "3-node Xeon E5-2620 v3 (64 GB)",
            total_nodes: 3,
            node: NodeConfig::haswell_node(),
            tasks_per_node: 12,
        }
    }

    /// Slugs of the named evaluation clusters, in paper order.  These are
    /// the values scenario files may put on their `clusters` axis; each
    /// resolves through [`ClusterConfig::by_name`].
    pub const NAMES: [&'static str; 3] = [
        "five-node-westmere",
        "three-node-westmere-64gb",
        "three-node-haswell",
    ];

    /// Looks up one of the paper's evaluation clusters by name.  Accepts
    /// the slugs of [`ClusterConfig::NAMES`] and the reporting names
    /// (e.g. `"5-node Xeon E5645 (32 GB)"`), case-insensitively.
    pub fn by_name(name: &str) -> Option<Self> {
        type Builder = fn() -> ClusterConfig;
        const REGISTRY: [(&str, Builder); 3] = [
            ("five-node-westmere", ClusterConfig::five_node_westmere),
            (
                "three-node-westmere-64gb",
                ClusterConfig::three_node_westmere_64gb,
            ),
            ("three-node-haswell", ClusterConfig::three_node_haswell),
        ];
        let wanted = name.trim().to_ascii_lowercase();
        REGISTRY
            .iter()
            .find(|(slug, build)| *slug == wanted || build().name.to_ascii_lowercase() == wanted)
            .map(|(_, build)| build())
    }

    /// Number of slave / worker nodes (the master does not process data).
    pub fn slave_nodes(&self) -> u32 {
        self.total_nodes.saturating_sub(1).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_node_cluster_has_four_slaves() {
        let c = ClusterConfig::five_node_westmere();
        assert_eq!(c.slave_nodes(), 4);
        assert_eq!(c.node.memory_gb, 32);
    }

    #[test]
    fn reconfigured_cluster_matches_section_iv() {
        let c = ClusterConfig::three_node_westmere_64gb();
        assert_eq!(c.slave_nodes(), 2);
        assert_eq!(c.node.memory_gb, 64);
        assert_eq!(c.node.arch.name, "Xeon E5645 (Westmere)");
    }

    #[test]
    fn haswell_cluster_uses_the_newer_processor() {
        let c = ClusterConfig::three_node_haswell();
        assert_eq!(c.node.arch.name, "Xeon E5-2620 v3 (Haswell)");
        assert_eq!(c.slave_nodes(), 2);
    }

    #[test]
    fn clusters_resolve_by_slug_and_reporting_name() {
        for slug in ClusterConfig::NAMES {
            let c = ClusterConfig::by_name(slug).expect(slug);
            assert_eq!(ClusterConfig::by_name(c.name).expect(c.name), c);
            assert_eq!(
                ClusterConfig::by_name(&slug.to_ascii_uppercase()).expect(slug),
                c
            );
        }
        assert_eq!(
            ClusterConfig::by_name("five-node-westmere"),
            Some(ClusterConfig::five_node_westmere())
        );
        assert_eq!(ClusterConfig::by_name("nine-node-zen4"), None);
    }

    #[test]
    fn degenerate_single_node_cluster_still_has_one_worker() {
        let mut c = ClusterConfig::five_node_westmere();
        c.total_nodes = 1;
        assert_eq!(c.slave_nodes(), 1);
    }
}
