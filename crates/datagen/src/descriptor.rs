//! Compact descriptions of generated data sets.
//!
//! The motif cost models and the workload models need to know *what kind*
//! of data a kernel operates on (class, volume, element size, sparsity,
//! distribution) without carrying the data itself around — the original
//! workloads process 100 GB inputs that are modelled, not materialised.
//! [`DataDescriptor`] is that summary.  Generators in this crate produce
//! descriptors alongside the concrete data so the two never diverge.

/// Broad class of a data set, mirroring the "data types" axis of the paper
/// (text, graph, matrix/vector, image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Unstructured byte records (gensort-style text).
    Text,
    /// Numeric feature vectors (K-means input).
    Vector,
    /// Graph data in adjacency form (PageRank input).
    Graph,
    /// Dense or sparse matrices.
    Matrix,
    /// Image tensors (AlexNet / Inception-V3 input).
    Image,
}

impl DataClass {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            DataClass::Text => "text",
            DataClass::Vector => "vector",
            DataClass::Graph => "graph",
            DataClass::Matrix => "matrix",
            DataClass::Image => "image",
        }
    }
}

impl std::fmt::Display for DataClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistical distribution of element values or of structural properties
/// (e.g. graph degree distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniformly random values.
    Uniform,
    /// Gaussian values with the given mean and standard deviation.
    Gaussian {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation of the distribution.
        std_dev: f64,
    },
    /// Power-law / zipf distribution with the given exponent.
    PowerLaw {
        /// Zipf exponent (larger = more skewed).
        exponent: f64,
    },
}

impl Distribution {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Gaussian { .. } => "gaussian",
            Distribution::PowerLaw { .. } => "power-law",
        }
    }
}

/// Summary of a (possibly only modelled) data set.
///
/// `total_bytes` is the logical volume the original workload would process
/// (e.g. 100 GB for Hadoop TeraSort); `element_bytes` is the size of one
/// logical element (one record, one vector, one edge, one image);
/// `sparsity` is the fraction of zero-valued elements (0.0 for dense data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataDescriptor {
    /// Broad class of the data.
    pub class: DataClass,
    /// Total logical volume in bytes.
    pub total_bytes: u64,
    /// Size of one logical element in bytes.
    pub element_bytes: u64,
    /// Fraction of zero-valued elements in `[0, 1]`.
    pub sparsity: f64,
    /// Value / structure distribution.
    pub distribution: Distribution,
}

impl DataDescriptor {
    /// Creates a descriptor, validating its fields.
    ///
    /// # Panics
    ///
    /// Panics if `element_bytes` is zero or `sparsity` is outside `[0, 1]`.
    pub fn new(
        class: DataClass,
        total_bytes: u64,
        element_bytes: u64,
        sparsity: f64,
        distribution: Distribution,
    ) -> Self {
        assert!(element_bytes > 0, "element_bytes must be positive");
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be within [0, 1], got {sparsity}"
        );
        Self {
            class,
            total_bytes,
            element_bytes,
            sparsity,
            distribution,
        }
    }

    /// Number of logical elements (rounded down, at least one when any
    /// bytes are present).
    pub fn element_count(&self) -> u64 {
        if self.total_bytes == 0 {
            0
        } else {
            (self.total_bytes / self.element_bytes).max(1)
        }
    }

    /// Returns a copy scaled to a new total volume, keeping every other
    /// property.  This is how the proxy generator scales a 100 GB input
    /// down to the proxy's data size (the `dataSize` parameter of Table I).
    pub fn scaled_to(&self, total_bytes: u64) -> Self {
        Self {
            total_bytes,
            ..*self
        }
    }

    /// Returns a copy with a different sparsity (used by the Fig. 7/8
    /// sparse-vs-dense experiments).
    pub fn with_sparsity(&self, sparsity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be within [0, 1], got {sparsity}"
        );
        Self { sparsity, ..*self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor() -> DataDescriptor {
        DataDescriptor::new(
            DataClass::Vector,
            1_000_000,
            400,
            0.9,
            Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
        )
    }

    #[test]
    fn element_count_divides_volume() {
        assert_eq!(descriptor().element_count(), 2_500);
    }

    #[test]
    fn scaled_to_changes_only_volume() {
        let d = descriptor().scaled_to(10_000);
        assert_eq!(d.total_bytes, 10_000);
        assert_eq!(d.element_bytes, 400);
        assert_eq!(d.sparsity, 0.9);
    }

    #[test]
    fn with_sparsity_changes_only_sparsity() {
        let d = descriptor().with_sparsity(0.0);
        assert_eq!(d.sparsity, 0.0);
        assert_eq!(d.total_bytes, 1_000_000);
    }

    #[test]
    fn zero_volume_has_no_elements() {
        let d = descriptor().scaled_to(0);
        assert_eq!(d.element_count(), 0);
    }

    #[test]
    #[should_panic(expected = "element_bytes")]
    fn rejects_zero_element_size() {
        let _ = DataDescriptor::new(DataClass::Text, 100, 0, 0.0, Distribution::Uniform);
    }

    #[test]
    fn class_names_are_unique() {
        let all = [
            DataClass::Text,
            DataClass::Vector,
            DataClass::Graph,
            DataClass::Matrix,
            DataClass::Image,
        ];
        let mut names: Vec<&str> = all.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
