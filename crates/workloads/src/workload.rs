//! The [`Workload`] trait and the registry of the eight modelled workloads
//! (the paper's five plus the three Spark variants).

use dmpb_datagen::DataDescriptor;
use dmpb_metrics::MetricVector;
use dmpb_motifs::{DagPlan, MotifClass, MotifKind};
use dmpb_perfmodel::profile::OpProfile;
use dmpb_perfmodel::ExecutionEngine;

use crate::cluster::ClusterConfig;
use crate::hadoop::{KMeans, PageRank, TeraSort};
use crate::spark::{SparkKMeans, SparkPageRank, SparkTeraSort};
use crate::tensorflow::{AlexNet, InceptionV3};

/// The software stack a workload runs on.
///
/// The companion data-motif characterisation paper profiles every big-data
/// motif on both Hadoop and Spark and shows the software stack dominates
/// microarchitectural behaviour — so the stack is a first-class axis of the
/// workload registry, not an implementation detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Framework {
    /// Hadoop MapReduce on the JVM (HDFS spill/merge on every hop).
    Hadoop,
    /// Spark on the JVM (RDD lineage, in-memory caching, wide-only shuffle).
    Spark,
    /// TensorFlow's dataflow runtime with a parameter-server step loop.
    TensorFlow,
}

impl Framework {
    /// Reporting name of the stack.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Hadoop => "Hadoop",
            Framework::Spark => "Spark",
            Framework::TensorFlow => "TensorFlow",
        }
    }
}

impl std::fmt::Display for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Framework {
    type Err = String;

    /// Parses a stack name, case-insensitively (`"Hadoop"`, `"spark"`,
    /// `"TensorFlow"`).  Round-trips with [`Framework::name`] /
    /// `Display`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "hadoop" => Ok(Framework::Hadoop),
            "spark" => Ok(Framework::Spark),
            "tensorflow" => Ok(Framework::TensorFlow),
            _ => Err(format!(
                "unknown framework `{s}` (expected Hadoop, Spark or TensorFlow)"
            )),
        }
    }
}

/// Identity of one of the eight modelled workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Hadoop TeraSort.
    TeraSort,
    /// Hadoop K-means.
    KMeans,
    /// Hadoop PageRank.
    PageRank,
    /// TensorFlow AlexNet.
    AlexNet,
    /// TensorFlow Inception-V3.
    InceptionV3,
    /// Spark TeraSort.
    SparkTeraSort,
    /// Spark K-means.
    SparkKMeans,
    /// Spark PageRank.
    SparkPageRank,
}

impl WorkloadKind {
    /// The eight workloads in suite order: the paper's five (in the order
    /// its tables list them) followed by the three Spark variants.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::TeraSort,
        WorkloadKind::KMeans,
        WorkloadKind::PageRank,
        WorkloadKind::AlexNet,
        WorkloadKind::InceptionV3,
        WorkloadKind::SparkTeraSort,
        WorkloadKind::SparkKMeans,
        WorkloadKind::SparkPageRank,
    ];

    /// The five workloads of the paper's own evaluation (Tables VI/VII,
    /// Figs. 4/9/10 report numbers for exactly these).
    pub const PAPER_FIVE: [WorkloadKind; 5] = [
        WorkloadKind::TeraSort,
        WorkloadKind::KMeans,
        WorkloadKind::PageRank,
        WorkloadKind::AlexNet,
        WorkloadKind::InceptionV3,
    ];

    /// Name of the original workload (with its software stack).
    pub(crate) fn real_name(&self) -> &'static str {
        match self {
            WorkloadKind::TeraSort => "Hadoop TeraSort",
            WorkloadKind::KMeans => "Hadoop K-means",
            WorkloadKind::PageRank => "Hadoop PageRank",
            WorkloadKind::AlexNet => "TensorFlow AlexNet",
            WorkloadKind::InceptionV3 => "TensorFlow Inception-V3",
            WorkloadKind::SparkTeraSort => "Spark TeraSort",
            WorkloadKind::SparkKMeans => "Spark K-means",
            WorkloadKind::SparkPageRank => "Spark PageRank",
        }
    }

    /// Name of the corresponding proxy benchmark.
    pub fn proxy_name(&self) -> &'static str {
        match self {
            WorkloadKind::TeraSort => "Proxy TeraSort",
            WorkloadKind::KMeans => "Proxy K-means",
            WorkloadKind::PageRank => "Proxy PageRank",
            WorkloadKind::AlexNet => "Proxy AlexNet",
            WorkloadKind::InceptionV3 => "Proxy Inception-V3",
            WorkloadKind::SparkTeraSort => "Proxy Spark TeraSort",
            WorkloadKind::SparkKMeans => "Proxy Spark K-means",
            WorkloadKind::SparkPageRank => "Proxy Spark PageRank",
        }
    }

    /// Short label used in table rows.
    pub fn short_name(&self) -> &'static str {
        match self {
            WorkloadKind::TeraSort => "TeraSort",
            WorkloadKind::KMeans => "K-means",
            WorkloadKind::PageRank => "PageRank",
            WorkloadKind::AlexNet => "AlexNet",
            WorkloadKind::InceptionV3 => "Inception-V3",
            WorkloadKind::SparkTeraSort => "Spark-TeraSort",
            WorkloadKind::SparkKMeans => "Spark-K-means",
            WorkloadKind::SparkPageRank => "Spark-PageRank",
        }
    }

    /// The software stack the original workload runs on.
    pub fn framework(&self) -> Framework {
        match self {
            WorkloadKind::TeraSort | WorkloadKind::KMeans | WorkloadKind::PageRank => {
                Framework::Hadoop
            }
            WorkloadKind::AlexNet | WorkloadKind::InceptionV3 => Framework::TensorFlow,
            WorkloadKind::SparkTeraSort
            | WorkloadKind::SparkKMeans
            | WorkloadKind::SparkPageRank => Framework::Spark,
        }
    }

    /// Returns true for the TensorFlow (AI) workloads.
    pub fn is_ai(&self) -> bool {
        self.framework() == Framework::TensorFlow
    }

    /// The same motif DAG on the other big-data stack: Hadoop TeraSort ↔
    /// Spark TeraSort and so on.  `None` for the AI workloads, which have
    /// no Hadoop/Spark twin.
    pub fn stack_twin(&self) -> Option<WorkloadKind> {
        match self {
            WorkloadKind::TeraSort => Some(WorkloadKind::SparkTeraSort),
            WorkloadKind::KMeans => Some(WorkloadKind::SparkKMeans),
            WorkloadKind::PageRank => Some(WorkloadKind::SparkPageRank),
            WorkloadKind::SparkTeraSort => Some(WorkloadKind::TeraSort),
            WorkloadKind::SparkKMeans => Some(WorkloadKind::KMeans),
            WorkloadKind::SparkPageRank => Some(WorkloadKind::PageRank),
            WorkloadKind::AlexNet | WorkloadKind::InceptionV3 => None,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

impl std::str::FromStr for WorkloadKind {
    type Err = String;

    /// Parses a workload name as scenario files spell them.  Matching is
    /// case-insensitive and ignores spaces, hyphens and underscores, so
    /// the short names (`"TeraSort"`, `"Spark-K-means"`), the full names
    /// (`"Hadoop TeraSort"`, `"TensorFlow Inception-V3"`) and looser
    /// spellings (`"spark_pagerank"`) all resolve.  Round-trips with
    /// [`WorkloadKind::short_name`] / `Display` and
    /// `WorkloadKind::real_name`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized: String = s
            .chars()
            .filter(|c| !matches!(c, ' ' | '-' | '_'))
            .map(|c| c.to_ascii_lowercase())
            .collect();
        for kind in WorkloadKind::ALL {
            let matches = |name: &str| {
                name.chars()
                    .filter(|c| !matches!(c, ' ' | '-' | '_'))
                    .map(|c| c.to_ascii_lowercase())
                    .eq(normalized.chars())
            };
            if matches(kind.short_name()) || matches(kind.real_name()) {
                return Ok(kind);
            }
        }
        Err(format!(
            "unknown workload `{s}` (expected one of: {})",
            WorkloadKind::ALL.map(|k| k.short_name()).join(", ")
        ))
    }
}

/// A model of one original big-data or AI workload.
///
/// Implementations compose motif cost models with software-stack overhead
/// into a per-node [`OpProfile`]; [`Workload::measure`] runs that profile
/// through the shared performance-model instrument for a given cluster.
pub trait Workload: std::fmt::Debug + Send + Sync {
    /// Which of the eight modelled workloads this is.
    fn kind(&self) -> WorkloadKind;

    /// The workload pattern as characterised in Table III
    /// (e.g. "I/O intensive").
    fn pattern(&self) -> &'static str;

    /// Descriptor of the workload's input data set.
    fn input_descriptor(&self) -> DataDescriptor;

    /// The motif-class decomposition with execution-ratio weights
    /// (Table III / the paper's hotspot analysis), used as the initial
    /// proxy weights.
    fn motif_composition(&self) -> Vec<(MotifClass, f64)>;

    /// The concrete motif implementations involved (the right-most column
    /// of Table III).
    fn involved_motifs(&self) -> Vec<MotifKind>;

    /// The fork/join DAG topology the proxy's motif edges should follow,
    /// mirroring the framework's dataflow structure (TensorFlow parallel
    /// towers, Spark wide dependencies, MapReduce map/shuffle/reduce
    /// phases).  Must place exactly the motifs of
    /// [`Workload::involved_motifs`], each on one edge; the default is a
    /// straight chain in that order.
    fn dag_plan(&self) -> DagPlan {
        DagPlan::chain(&self.involved_motifs())
    }

    /// The per-node operation profile of running this workload on
    /// `cluster`.
    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile;

    /// Worker tasks per node used by this workload.
    fn tasks_per_node(&self, cluster: &ClusterConfig) -> u32 {
        cluster.tasks_per_node
    }

    /// Full name of the original workload.
    fn name(&self) -> &'static str {
        self.kind().real_name()
    }

    /// Measures the workload on `cluster` with the shared instrument,
    /// returning the per-slave-node metric vector (the paper averages its
    /// measurements across slave nodes; the model's nodes are identical so
    /// one node is representative).
    fn measure(&self, cluster: &ClusterConfig) -> MetricVector {
        let engine = ExecutionEngine::new(cluster.node.arch);
        engine.run(
            &self.per_node_profile(cluster),
            self.tasks_per_node(cluster),
        )
    }
}

/// The eight workloads with their Section III-style configurations.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    WorkloadKind::ALL
        .iter()
        .map(|&kind| workload_by_kind(kind))
        .collect()
}

/// Looks up a workload's Section III-style configuration by kind.
pub fn workload_by_kind(kind: WorkloadKind) -> Box<dyn Workload> {
    match kind {
        WorkloadKind::TeraSort => Box::new(TeraSort::paper_configuration()),
        WorkloadKind::KMeans => Box::new(KMeans::paper_configuration()),
        WorkloadKind::PageRank => Box::new(PageRank::paper_configuration()),
        WorkloadKind::AlexNet => Box::new(AlexNet::paper_configuration()),
        WorkloadKind::InceptionV3 => Box::new(InceptionV3::paper_configuration()),
        WorkloadKind::SparkTeraSort => Box::new(SparkTeraSort::reference_configuration()),
        WorkloadKind::SparkKMeans => Box::new(SparkKMeans::reference_configuration()),
        WorkloadKind::SparkPageRank => Box::new(SparkPageRank::reference_configuration()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_eight_workloads() {
        let workloads = all_workloads();
        assert_eq!(workloads.len(), 8);
        let kinds: Vec<WorkloadKind> = workloads.iter().map(|w| w.kind()).collect();
        assert_eq!(kinds, WorkloadKind::ALL.to_vec());
    }

    #[test]
    fn compositions_are_normalised_and_non_empty() {
        for w in all_workloads() {
            let comp = w.motif_composition();
            assert!(!comp.is_empty(), "{} has no composition", w.name());
            let total: f64 = comp.iter().map(|(_, weight)| weight).sum();
            assert!(
                (total - 1.0).abs() < 1e-6,
                "{} weights sum to {total}",
                w.name()
            );
            assert!(!w.involved_motifs().is_empty());
        }
    }

    #[test]
    fn ai_workloads_use_ai_motifs_and_big_data_ones_do_not() {
        for w in all_workloads() {
            let any_ai = w.involved_motifs().iter().any(|m| m.is_ai());
            assert_eq!(any_ai, w.kind().is_ai(), "{}", w.name());
        }
    }

    #[test]
    fn workload_names_are_consistent() {
        assert_eq!(WorkloadKind::TeraSort.real_name(), "Hadoop TeraSort");
        assert_eq!(WorkloadKind::TeraSort.proxy_name(), "Proxy TeraSort");
        assert_eq!(WorkloadKind::SparkTeraSort.real_name(), "Spark TeraSort");
        assert_eq!(
            WorkloadKind::SparkKMeans.proxy_name(),
            "Proxy Spark K-means"
        );
        assert_eq!(WorkloadKind::InceptionV3.to_string(), "Inception-V3");
        assert!(WorkloadKind::AlexNet.is_ai());
        assert!(!WorkloadKind::PageRank.is_ai());
        assert!(!WorkloadKind::SparkPageRank.is_ai());
    }

    #[test]
    fn frameworks_partition_the_registry() {
        assert_eq!(WorkloadKind::TeraSort.framework(), Framework::Hadoop);
        assert_eq!(WorkloadKind::SparkTeraSort.framework(), Framework::Spark);
        assert_eq!(WorkloadKind::AlexNet.framework(), Framework::TensorFlow);
        let spark_count = WorkloadKind::ALL
            .iter()
            .filter(|k| k.framework() == Framework::Spark)
            .count();
        assert_eq!(spark_count, 3);
        assert_eq!(Framework::Spark.to_string(), "Spark");
    }

    #[test]
    fn stack_twins_are_symmetric_and_share_motifs() {
        for kind in WorkloadKind::ALL {
            match kind.stack_twin() {
                None => assert!(kind.is_ai()),
                Some(twin) => {
                    assert_eq!(twin.stack_twin(), Some(kind));
                    assert_ne!(twin.framework(), kind.framework());
                    let ours = workload_by_kind(kind).involved_motifs();
                    let theirs = workload_by_kind(twin).involved_motifs();
                    assert_eq!(ours, theirs, "{kind} vs {twin} motif DAGs differ");
                }
            }
        }
    }

    #[test]
    fn workload_kind_from_str_round_trips_every_rendering() {
        for kind in WorkloadKind::ALL {
            assert_eq!(kind.to_string().parse::<WorkloadKind>(), Ok(kind));
            assert_eq!(kind.short_name().parse::<WorkloadKind>(), Ok(kind));
            assert_eq!(kind.real_name().parse::<WorkloadKind>(), Ok(kind));
            assert_eq!(
                kind.to_string()
                    .to_ascii_lowercase()
                    .parse::<WorkloadKind>(),
                Ok(kind)
            );
        }
        assert_eq!("spark_pagerank".parse(), Ok(WorkloadKind::SparkPageRank));
        assert_eq!("inception v3".parse(), Ok(WorkloadKind::InceptionV3));
        assert!("NotABenchmark".parse::<WorkloadKind>().is_err());
        assert!("".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn framework_from_str_round_trips() {
        for fw in [Framework::Hadoop, Framework::Spark, Framework::TensorFlow] {
            assert_eq!(fw.to_string().parse::<Framework>(), Ok(fw));
            assert_eq!(fw.name().to_ascii_lowercase().parse::<Framework>(), Ok(fw));
        }
        assert!("Flink".parse::<Framework>().is_err());
    }

    #[test]
    fn paper_five_is_a_prefix_of_all() {
        assert_eq!(&WorkloadKind::ALL[..5], &WorkloadKind::PAPER_FIVE[..]);
    }

    #[test]
    fn every_dag_plan_places_exactly_the_involved_motifs() {
        for w in all_workloads() {
            let plan = w.dag_plan();
            assert!(
                plan.covers_exactly(&w.involved_motifs()),
                "{}: plan motifs {:?} vs involved {:?}",
                w.name(),
                plan.motifs(),
                w.involved_motifs()
            );
        }
    }

    #[test]
    fn workload_dags_genuinely_fork_and_join() {
        // The acceptance bar is ≥ 5 of 8 branching; all eight currently
        // declare fork/join structure, and the TensorFlow + Spark five are
        // pinned individually (parallel towers / wide dependencies).
        let branching = all_workloads()
            .iter()
            .filter(|w| w.dag_plan().is_branching())
            .count();
        assert!(branching >= 5, "only {branching} of 8 workload DAGs branch");
        for kind in [
            WorkloadKind::AlexNet,
            WorkloadKind::InceptionV3,
            WorkloadKind::SparkTeraSort,
            WorkloadKind::SparkKMeans,
            WorkloadKind::SparkPageRank,
        ] {
            let plan = workload_by_kind(kind).dag_plan();
            assert!(plan.is_branching(), "{kind} DAG must fork or join");
        }
        // Joins specifically (≥ 2 incoming) exist in the suite too.
        assert!(all_workloads()
            .iter()
            .any(|w| w.dag_plan().max_in_degree() >= 2));
    }

    #[test]
    fn lookup_by_kind_round_trips() {
        for kind in WorkloadKind::ALL {
            assert_eq!(workload_by_kind(kind).kind(), kind);
        }
    }

    #[test]
    fn every_workload_measures_to_finite_metrics() {
        let cluster = ClusterConfig::five_node_westmere();
        for w in all_workloads() {
            let m = w.measure(&cluster);
            assert!(m.is_finite(), "{} produced non-finite metrics", w.name());
            assert!(
                m.runtime_secs > 1.0,
                "{} runtime {}",
                w.name(),
                m.runtime_secs
            );
        }
    }
}
