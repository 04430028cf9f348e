//! The eight data-motif classes and the concrete implementations of Fig. 2.

use dmpb_datagen::DataDescriptor;
use dmpb_perfmodel::OpProfile;

use crate::config::MotifConfig;

/// The eight data-motif classes identified by the data-motif paper and used
/// throughout this reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MotifClass {
    /// Vector-vector, vector-matrix and matrix-matrix computation.
    Matrix,
    /// Selecting a subset of the original data.
    Sampling,
    /// Domain conversion (FFT, DCT, convolution).
    Transform,
    /// Computation over nodes and edges.
    Graph,
    /// Bit-manipulation computation (hashing, encryption).
    Logic,
    /// Operations on collections of distinct data / relational algebra.
    Set,
    /// Ordering data.
    Sort,
    /// Counting, averaging, probability computation.
    Statistics,
}

impl MotifClass {
    /// All eight classes in a stable order.
    pub const ALL: [MotifClass; 8] = [
        MotifClass::Matrix,
        MotifClass::Sampling,
        MotifClass::Transform,
        MotifClass::Graph,
        MotifClass::Logic,
        MotifClass::Set,
        MotifClass::Sort,
        MotifClass::Statistics,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MotifClass::Matrix => "Matrix",
            MotifClass::Sampling => "Sampling",
            MotifClass::Transform => "Transform",
            MotifClass::Graph => "Graph",
            MotifClass::Logic => "Logic",
            MotifClass::Set => "Set",
            MotifClass::Sort => "Sort",
            MotifClass::Statistics => "Statistics",
        }
    }
}

impl std::fmt::Display for MotifClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete data-motif implementation (one box of Fig. 2).
///
/// The `Kind` is what proxy-benchmark DAG edges carry: it knows its class,
/// whether it belongs to the big-data or the AI implementation family, and
/// how to produce an [`OpProfile`] for a given input descriptor and
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MotifKind {
    // --- Big-data motif implementations ---------------------------------
    /// Euclidean / cosine distance computation between vectors.
    DistanceCalculation,
    /// Dense matrix multiplication.
    MatrixMultiply,
    /// Random (uniform) sampling of records.
    RandomSampling,
    /// Interval (systematic) sampling of records.
    IntervalSampling,
    /// Set union.
    SetUnion,
    /// Set intersection.
    SetIntersection,
    /// Set difference.
    SetDifference,
    /// Graph construction (edge list to adjacency structure).
    GraphConstruct,
    /// Graph traversal (breadth-first search).
    GraphTraversal,
    /// Quick sort over record keys.
    QuickSort,
    /// Merge sort over record keys.
    MergeSort,
    /// Count / average statistics.
    CountStatistics,
    /// Probability (frequency) statistics.
    ProbabilityStatistics,
    /// Minimum / maximum computation.
    MinMax,
    /// MD5 hashing.
    Md5Hash,
    /// Stream (XOR-keystream) encryption.
    Encryption,
    /// Fast Fourier transform.
    Fft,
    /// Inverse fast Fourier transform.
    Ifft,
    /// Discrete cosine transform.
    Dct,
    // --- AI data motif implementations ----------------------------------
    /// Fully connected (dense) layer.
    FullyConnected,
    /// Element-wise multiplication.
    ElementWiseMultiply,
    /// Sigmoid activation.
    Sigmoid,
    /// Tanh activation.
    Tanh,
    /// Softmax.
    Softmax,
    /// Max pooling.
    MaxPooling,
    /// Average pooling.
    AveragePooling,
    /// 2-D convolution.
    Convolution,
    /// Dropout.
    Dropout,
    /// Batch normalisation.
    BatchNormalization,
    /// Cosine normalisation.
    CosineNormalization,
    /// Reduce-sum.
    ReduceSum,
    /// Reduce-max.
    ReduceMax,
    /// ReLU activation.
    Relu,
}

impl MotifKind {
    /// Every implementation, big data first, in a stable order.
    pub const ALL: [MotifKind; 33] = [
        MotifKind::DistanceCalculation,
        MotifKind::MatrixMultiply,
        MotifKind::RandomSampling,
        MotifKind::IntervalSampling,
        MotifKind::SetUnion,
        MotifKind::SetIntersection,
        MotifKind::SetDifference,
        MotifKind::GraphConstruct,
        MotifKind::GraphTraversal,
        MotifKind::QuickSort,
        MotifKind::MergeSort,
        MotifKind::CountStatistics,
        MotifKind::ProbabilityStatistics,
        MotifKind::MinMax,
        MotifKind::Md5Hash,
        MotifKind::Encryption,
        MotifKind::Fft,
        MotifKind::Ifft,
        MotifKind::Dct,
        MotifKind::FullyConnected,
        MotifKind::ElementWiseMultiply,
        MotifKind::Sigmoid,
        MotifKind::Tanh,
        MotifKind::Softmax,
        MotifKind::MaxPooling,
        MotifKind::AveragePooling,
        MotifKind::Convolution,
        MotifKind::Dropout,
        MotifKind::BatchNormalization,
        MotifKind::CosineNormalization,
        MotifKind::ReduceSum,
        MotifKind::ReduceMax,
        MotifKind::Relu,
    ];

    /// The motif class this implementation belongs to (Fig. 2 grouping).
    pub fn class(&self) -> MotifClass {
        use MotifKind::*;
        match self {
            DistanceCalculation | MatrixMultiply | FullyConnected | ElementWiseMultiply
            | Sigmoid | Tanh | Softmax => MotifClass::Matrix,
            RandomSampling | IntervalSampling | MaxPooling | AveragePooling => MotifClass::Sampling,
            Fft | Ifft | Dct | Convolution => MotifClass::Transform,
            GraphConstruct | GraphTraversal => MotifClass::Graph,
            Md5Hash | Encryption | Relu => MotifClass::Logic,
            SetUnion | SetIntersection | SetDifference => MotifClass::Set,
            QuickSort | MergeSort | ReduceMax => MotifClass::Sort,
            CountStatistics
            | ProbabilityStatistics
            | MinMax
            | Dropout
            | BatchNormalization
            | CosineNormalization
            | ReduceSum => MotifClass::Statistics,
        }
    }

    /// Returns true if this is an AI data-motif implementation (right-hand
    /// column of Fig. 2), false for the big-data family.
    pub fn is_ai(&self) -> bool {
        use MotifKind::*;
        matches!(
            self,
            FullyConnected
                | ElementWiseMultiply
                | Sigmoid
                | Tanh
                | Softmax
                | MaxPooling
                | AveragePooling
                | Convolution
                | Dropout
                | BatchNormalization
                | CosineNormalization
                | ReduceSum
                | ReduceMax
                | Relu
        )
    }

    /// Human-readable name used in reports and DAG dumps.
    pub fn name(&self) -> &'static str {
        use MotifKind::*;
        match self {
            DistanceCalculation => "distance-calculation",
            MatrixMultiply => "matrix-multiply",
            RandomSampling => "random-sampling",
            IntervalSampling => "interval-sampling",
            SetUnion => "set-union",
            SetIntersection => "set-intersection",
            SetDifference => "set-difference",
            GraphConstruct => "graph-construct",
            GraphTraversal => "graph-traversal",
            QuickSort => "quick-sort",
            MergeSort => "merge-sort",
            CountStatistics => "count-statistics",
            ProbabilityStatistics => "probability-statistics",
            MinMax => "min-max",
            Md5Hash => "md5-hash",
            Encryption => "encryption",
            Fft => "fft",
            Ifft => "ifft",
            Dct => "dct",
            FullyConnected => "fully-connected",
            ElementWiseMultiply => "element-wise-multiply",
            Sigmoid => "sigmoid",
            Tanh => "tanh",
            Softmax => "softmax",
            MaxPooling => "max-pooling",
            AveragePooling => "average-pooling",
            Convolution => "convolution",
            Dropout => "dropout",
            BatchNormalization => "batch-normalization",
            CosineNormalization => "cosine-normalization",
            ReduceSum => "reduce-sum",
            ReduceMax => "reduce-max",
            Relu => "relu",
        }
    }

    /// Produces the operation profile of running this motif implementation
    /// over `data` with configuration `config`.
    ///
    /// Dispatches through the [`crate::kernel::MotifRegistry`], whose
    /// kernels delegate to the analytic models in `crate::cost`.
    pub fn cost_profile(&self, data: &DataDescriptor, config: &MotifConfig) -> OpProfile {
        crate::kernel::MotifRegistry::global()
            .kernel(*self)
            .cost_profile(data, config)
    }
}

impl std::fmt::Display for MotifKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_at_least_one_big_data_and_the_catalogue_is_complete() {
        for class in MotifClass::ALL {
            let count = MotifKind::ALL.iter().filter(|k| k.class() == class).count();
            assert!(count >= 1, "class {class} has no implementation");
        }
        assert_eq!(MotifKind::ALL.len(), 33);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = MotifKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MotifKind::ALL.len());
    }

    #[test]
    fn fig2_grouping_examples() {
        assert_eq!(MotifKind::QuickSort.class(), MotifClass::Sort);
        assert_eq!(MotifKind::Convolution.class(), MotifClass::Transform);
        assert_eq!(MotifKind::MaxPooling.class(), MotifClass::Sampling);
        assert_eq!(MotifKind::Relu.class(), MotifClass::Logic);
        assert_eq!(MotifKind::ReduceMax.class(), MotifClass::Sort);
        assert_eq!(
            MotifKind::BatchNormalization.class(),
            MotifClass::Statistics
        );
        assert_eq!(MotifKind::FullyConnected.class(), MotifClass::Matrix);
        assert_eq!(MotifKind::SetIntersection.class(), MotifClass::Set);
        assert_eq!(MotifKind::GraphTraversal.class(), MotifClass::Graph);
    }

    #[test]
    fn ai_and_big_data_families_partition_the_catalogue() {
        let ai = MotifKind::ALL.iter().filter(|k| k.is_ai()).count();
        let bd = MotifKind::ALL.iter().filter(|k| !k.is_ai()).count();
        assert_eq!(ai, 14);
        assert_eq!(bd, 19);
    }

    #[test]
    fn class_display_matches_name() {
        assert_eq!(MotifClass::Sort.to_string(), "Sort");
        assert_eq!(MotifKind::Fft.to_string(), "fft");
    }
}
