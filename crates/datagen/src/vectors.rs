//! Dense and sparse numeric vector generation (K-means input).
//!
//! The paper's K-means evaluation uses 100 GB of sparse vectors with 90 %
//! sparsity generated by BDGS, and its Fig. 7 / Fig. 8 case study compares
//! the same workload driven by dense (0 % sparse) vectors.  This module
//! provides both, behind a single [`VectorDatasetSpec`] so that the
//! experiments can flip only the sparsity knob.

use crate::descriptor::{DataClass, DataDescriptor, Distribution};
use crate::distributions::{Gaussian, SparsityMask};
use crate::rng::{derive_seed, seeded_rng};

/// A dense feature vector.
pub type DenseVector = Vec<f64>;

/// A sparse vector stored as parallel `(index, value)` arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a sparse vector from index/value pairs.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths, if an index is out of
    /// range, or if indices are not strictly increasing.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dim,
                "index {last} out of range for dim {dim}"
            );
        }
        Self {
            dim,
            indices,
            values,
        }
    }

    /// Dimensionality of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored indices, strictly increasing.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Stored values, parallel to [`indices`](Self::indices).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> DenseVector {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

/// Specification of a vector data set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VectorDatasetSpec {
    /// Number of vectors.
    pub count: usize,
    /// Dimensionality of each vector.
    pub dim: usize,
    /// Fraction of zero-valued elements in `[0, 1]`.
    pub sparsity: f64,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl VectorDatasetSpec {
    /// The paper's K-means configuration scaled to an arbitrary vector
    /// count: 90 % sparse gaussian features.
    pub fn sparse(count: usize, dim: usize, seed: u64) -> Self {
        Self {
            count,
            dim,
            sparsity: 0.9,
            seed,
        }
    }

    /// Fully dense variant used by the Fig. 7 / Fig. 8 case study.
    pub fn dense(count: usize, dim: usize, seed: u64) -> Self {
        Self {
            count,
            dim,
            sparsity: 0.0,
            seed,
        }
    }

    /// Descriptor for this data set (8-byte elements per dimension).
    pub fn descriptor(&self) -> DataDescriptor {
        DataDescriptor::new(
            DataClass::Vector,
            (self.count * self.dim * std::mem::size_of::<f64>()) as u64,
            (self.dim * std::mem::size_of::<f64>()) as u64,
            self.sparsity,
            Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
        )
    }
}

/// A generated set of vectors, stored sparsely.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorDataset {
    spec: VectorDatasetSpec,
    vectors: Vec<SparseVector>,
}

impl VectorDataset {
    /// Generates the data set described by `spec`.
    pub fn generate(spec: VectorDatasetSpec) -> Self {
        let vectors = Self::generate_range(spec, 0, spec.count);
        Self { spec, vectors }
    }

    /// Generates vectors `[start, end)` of the logical data set described
    /// by `spec`.
    ///
    /// Every vector's RNG stream is derived from its global index alone,
    /// so any chunking of `[0, count)` concatenates to exactly the vectors
    /// of [`generate`](Self::generate).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn generate_range(spec: VectorDatasetSpec, start: usize, end: usize) -> Vec<SparseVector> {
        assert!(start <= end, "invalid vector range {start}..{end}");
        let gaussian = Gaussian::new(0.0, 1.0);
        let mask = SparsityMask::new(spec.sparsity);
        (start..end)
            .map(|i| {
                let mut rng = seeded_rng(derive_seed(spec.seed, i as u64));
                let mut indices = Vec::new();
                let mut values = Vec::new();
                for d in 0..spec.dim {
                    if mask.keep(&mut rng) {
                        indices.push(d as u32);
                        values.push(gaussian.sample(&mut rng));
                    }
                }
                SparseVector::new(spec.dim, indices, values)
            })
            .collect()
    }

    /// The specification this data set was generated from.
    pub fn spec(&self) -> &VectorDatasetSpec {
        &self.spec
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Returns true if the data set is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Borrow all vectors.
    pub fn vectors(&self) -> &[SparseVector] {
        &self.vectors
    }

    /// Measured fraction of zero-valued elements across the data set.
    pub fn measured_sparsity(&self) -> f64 {
        let total: usize = self.vectors.len() * self.spec.dim;
        if total == 0 {
            return 0.0;
        }
        let nnz: usize = self.vectors.iter().map(SparseVector::nnz).sum();
        1.0 - nnz as f64 / total as f64
    }

    /// Expands every vector to dense form (used by the dense K-means path).
    pub fn to_dense(&self) -> Vec<DenseVector> {
        self.vectors.iter().map(SparseVector::to_dense).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_generation_matches_sparsity() {
        let ds = VectorDataset::generate(VectorDatasetSpec::sparse(200, 100, 11));
        assert_eq!(ds.len(), 200);
        assert!((ds.measured_sparsity() - 0.9).abs() < 0.02);
    }

    #[test]
    fn dense_generation_has_zero_sparsity() {
        let ds = VectorDataset::generate(VectorDatasetSpec::dense(50, 64, 12));
        assert_eq!(ds.measured_sparsity(), 0.0);
        for v in ds.vectors() {
            assert_eq!(v.nnz(), 64);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = VectorDataset::generate(VectorDatasetSpec::sparse(20, 32, 7));
        let b = VectorDataset::generate(VectorDatasetSpec::sparse(20, 32, 7));
        assert_eq!(a, b);
    }

    #[test]
    fn chunked_generation_concatenates_to_monolithic() {
        let spec = VectorDatasetSpec::sparse(100, 24, 19);
        let whole = VectorDataset::generate(spec);
        for chunk in [1, 7, 32, 100] {
            let mut vectors = Vec::new();
            let mut start = 0;
            while start < spec.count {
                let end = (start + chunk).min(spec.count);
                vectors.extend(VectorDataset::generate_range(spec, start, end));
                start = end;
            }
            assert_eq!(vectors, whole.vectors(), "chunk={chunk}");
        }
    }

    #[test]
    fn sparse_to_dense_round_trip() {
        let v = SparseVector::new(5, vec![1, 3], vec![2.0, -4.0]);
        assert_eq!(v.to_dense(), vec![0.0, 2.0, 0.0, -4.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn sparse_vector_rejects_unsorted_indices() {
        let _ = SparseVector::new(5, vec![3, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_vector_rejects_out_of_range_index() {
        let _ = SparseVector::new(2, vec![5], vec![1.0]);
    }

    #[test]
    fn descriptor_tracks_spec() {
        let spec = VectorDatasetSpec::sparse(1000, 50, 1);
        let d = spec.descriptor();
        assert_eq!(d.class, DataClass::Vector);
        assert_eq!(d.sparsity, 0.9);
        assert_eq!(d.element_count(), 1000);
    }
}
