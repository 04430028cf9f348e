//! Benchmark decomposing: from a workload's hotspot profile to motif
//! components with initial weights.
//!
//! The paper obtains hotspot functions through runtime tracing, system
//! profiling and hardware profiling, correlates them to code fragments and
//! selects the corresponding data-motif implementations, with initial
//! weights proportional to the hotspots' execution ratios (the TeraSort
//! example: 70 % sort, 10 % sampling, 20 % graph).  The workload models in
//! `dmpb-workloads` expose exactly that information (Table III), so the
//! decomposition step turns it into concrete [`MotifComponent`]s.

use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifKind};
use dmpb_workloads::workload::{Workload, WorkloadKind};

/// One selected motif implementation with its share of the proxy's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifComponent {
    /// The selected motif implementation.
    pub motif: MotifKind,
    /// The motif class it was selected for.
    pub class: MotifClass,
    /// Initial weight (execution ratio share), normalised across all
    /// components of the decomposition.
    pub weight: f64,
}

/// The result of decomposing one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Which workload was decomposed.
    pub kind: WorkloadKind,
    /// Selected components with initial weights.
    pub components: Vec<MotifComponent>,
    /// Descriptor of the original workload's input data (the proxy keeps
    /// the same data type, distribution and sparsity).
    pub input: DataDescriptor,
    /// The class-level execution ratios the weights were derived from.
    pub class_ratios: Vec<(MotifClass, f64)>,
    /// The fork/join topology the workload declares for its motifs
    /// ([`Workload::dag_plan`]), validated to place exactly the selected
    /// components; falls back to a straight chain otherwise.
    pub plan: DagPlan,
}

impl Decomposition {
    /// Sum of component weights (should be ~1).
    pub fn total_weight(&self) -> f64 {
        self.components.iter().map(|c| c.weight).sum()
    }
}

/// Decomposes a workload into motif components with initial weights set by
/// execution ratios.
pub fn decompose(workload: &dyn Workload) -> Decomposition {
    let class_ratios = workload.motif_composition();
    let involved = workload.involved_motifs();

    let mut components = Vec::new();
    for &(class, ratio) in &class_ratios {
        let kinds: Vec<MotifKind> = involved
            .iter()
            .copied()
            .filter(|k| k.class() == class)
            .collect();
        if kinds.is_empty() {
            continue;
        }
        let share = ratio / kinds.len() as f64;
        for motif in kinds {
            components.push(MotifComponent {
                motif,
                class,
                weight: share,
            });
        }
    }

    // Merge duplicate motif selections (e.g. one class listed twice in the
    // composition) so every motif appears once with its summed weight —
    // both the DAG plan and the proxy's weight lookup key by motif.
    let mut merged: Vec<MotifComponent> = Vec::new();
    for c in components {
        match merged.iter_mut().find(|m| m.motif == c.motif) {
            Some(m) => m.weight += c.weight,
            None => merged.push(c),
        }
    }
    let mut components = merged;

    // Normalise in case some composition classes had no selected motif.
    let total: f64 = components.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in &mut components {
            c.weight /= total;
        }
    }

    // Adopt the workload's declared fork/join topology when it places
    // exactly the selected components; otherwise fall back to a chain so a
    // plan drifting out of sync with the decomposition degrades gracefully
    // instead of dropping or double-counting motifs.
    let motifs: Vec<MotifKind> = components.iter().map(|c| c.motif).collect();
    let declared = workload.dag_plan();
    let plan = if declared.covers_exactly(&motifs) {
        declared
    } else {
        DagPlan::chain(&motifs)
    };

    Decomposition {
        kind: workload.kind(),
        components,
        input: workload.input_descriptor(),
        class_ratios,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::{DataClass, Distribution};
    use dmpb_perfmodel::profile::OpProfile;
    use dmpb_workloads::{all_workloads, ClusterConfig};

    /// A degenerate workload whose composition lists one class twice, so
    /// its only motif would be selected twice without the merge step.
    #[derive(Debug)]
    struct DoubledSort;

    impl Workload for DoubledSort {
        fn kind(&self) -> WorkloadKind {
            WorkloadKind::TeraSort
        }
        fn pattern(&self) -> &'static str {
            "test double"
        }
        fn input_descriptor(&self) -> DataDescriptor {
            DataDescriptor::new(DataClass::Text, 1 << 20, 100, 0.0, Distribution::Uniform)
        }
        fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
            vec![(MotifClass::Sort, 0.5), (MotifClass::Sort, 0.5)]
        }
        fn involved_motifs(&self) -> Vec<MotifKind> {
            vec![MotifKind::QuickSort]
        }
        fn per_node_profile(&self, _cluster: &ClusterConfig) -> OpProfile {
            OpProfile::new("test-double")
        }
    }

    #[test]
    fn duplicate_motif_selections_are_merged_not_duplicated() {
        let d = decompose(&DoubledSort);
        assert_eq!(d.components.len(), 1, "duplicates must merge");
        assert!((d.total_weight() - 1.0).abs() < 1e-9);
        // The chain fallback (and any declared plan) keys by motif, so the
        // merged decomposition must still produce a valid plan.
        assert!(d.plan.covers_exactly(&[MotifKind::QuickSort]));
    }

    #[test]
    fn every_workload_decomposes_into_normalised_components() {
        for w in all_workloads() {
            let d = decompose(w.as_ref());
            assert!(!d.components.is_empty(), "{}", w.name());
            assert!((d.total_weight() - 1.0).abs() < 1e-9, "{}", w.name());
            assert!(!d.class_ratios.is_empty(), "{}", w.name());
        }
    }

    #[test]
    fn terasort_decomposition_matches_the_paper_example() {
        let workloads = all_workloads();
        let terasort = workloads
            .iter()
            .find(|w| w.kind() == WorkloadKind::TeraSort)
            .unwrap();
        let d = decompose(terasort.as_ref());
        let dominant = d
            .class_ratios
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, _)| *c);
        assert_eq!(dominant, Some(MotifClass::Sort));
        // Sort components together carry 70 % of the weight.
        let sort_weight: f64 = d
            .components
            .iter()
            .filter(|c| c.class == MotifClass::Sort)
            .map(|c| c.weight)
            .sum();
        assert!(
            (sort_weight - 0.7).abs() < 1e-6,
            "sort weight {sort_weight}"
        );
    }

    #[test]
    fn ai_workloads_select_ai_motifs() {
        for w in all_workloads() {
            let d = decompose(w.as_ref());
            if w.kind().is_ai() {
                assert!(d.components.iter().all(|c| c.motif.is_ai()), "{}", w.name());
            } else {
                assert!(
                    d.components.iter().all(|c| !c.motif.is_ai()),
                    "{}",
                    w.name()
                );
            }
        }
    }
}
