//! The built-in scenario definitions the paper-table bench binaries run
//! on.
//!
//! Each is an ordinary scenario file — the committed copies live under
//! `examples/scenarios/` and are embedded here verbatim, so the files
//! users run with the `campaign` binary and the definitions the
//! `table6`/`fig4`/`fig10`/`table3` binaries execute are one and the
//! same source.

use crate::dsl::Scenario;

/// Source of the paper-tables scenario (Table VI + Fig. 4: the eight
/// proxies on the five-node Westmere cluster with the suite defaults).
pub(crate) const PAPER_TABLES_TOML: &str =
    include_str!("../../../examples/scenarios/paper_tables.toml");

/// Source of the cross-architecture scenario (Fig. 10: Westmere vs
/// Haswell, proxies tuned on the five-node cluster).
pub(crate) const CROSS_ARCHITECTURE_TOML: &str =
    include_str!("../../../examples/scenarios/cross_architecture.toml");

/// Source of the decomposition scenario (Table III: one cell per
/// workload).
pub const DECOMPOSITION_TOML: &str = include_str!("../../../examples/scenarios/decomposition.toml");

/// The parsed paper-tables scenario.
pub fn paper_tables() -> Scenario {
    Scenario::parse(PAPER_TABLES_TOML).expect("bundled paper-tables scenario parses")
}

/// The parsed cross-architecture scenario.
pub fn cross_architecture() -> Scenario {
    Scenario::parse(CROSS_ARCHITECTURE_TOML).expect("bundled cross-architecture scenario parses")
}

/// The parsed decomposition scenario.
pub fn decomposition() -> Scenario {
    Scenario::parse(DECOMPOSITION_TOML).expect("bundled decomposition scenario parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_core::runner::{DEFAULT_BASE_SEED, SAMPLE_ELEMENTS};
    use dmpb_workloads::WorkloadKind;

    #[test]
    fn paper_tables_matches_the_suite_defaults() {
        let s = paper_tables();
        assert_eq!(s.name, "paper-tables");
        assert_eq!(s.workloads, WorkloadKind::ALL.to_vec());
        assert_eq!(s.clusters, vec!["five-node-westmere".to_string()]);
        assert_eq!(s.elements, vec![SAMPLE_ELEMENTS]);
        assert_eq!(s.seeds, vec![DEFAULT_BASE_SEED]);
        assert_eq!(s.tuning_cluster, None);
        assert_eq!(s.expand().len(), 8);
    }

    #[test]
    fn cross_architecture_pins_the_tuning_cluster() {
        let s = cross_architecture();
        assert_eq!(s.architectures, vec!["westmere", "haswell"]);
        assert_eq!(s.clusters, vec!["three-node-westmere-64gb".to_string()]);
        assert_eq!(s.tuning_cluster.as_deref(), Some("five-node-westmere"));
        assert_eq!(s.expand().len(), 16);
    }

    #[test]
    fn decomposition_enumerates_the_eight_workloads() {
        let cells = decomposition().expand();
        assert_eq!(
            cells.iter().map(|c| c.kind).collect::<Vec<_>>(),
            WorkloadKind::ALL.to_vec()
        );
    }
}
