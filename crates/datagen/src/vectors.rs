//! Dense and sparse numeric vector generation (K-means input).
//!
//! The paper's K-means evaluation uses 100 GB of sparse vectors with 90 %
//! sparsity generated by BDGS, and its Fig. 7 / Fig. 8 case study compares
//! the same workload driven by dense (0 % sparse) vectors.  This module
//! provides both, behind a single [`VectorDatasetSpec`] so that the
//! experiments can flip only the sparsity knob.

use crate::distributions::{Gaussian, SparsityMask};
use crate::rng::{derive_seed, seeded_rng};

/// A sparse vector stored as `(index, value)` entries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Builds a sparse vector from index/value pairs.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths, if an index is out of
    /// range, or if indices are not strictly increasing.
    pub(crate) fn new(dim: usize, indices: Vec<u32>, values: Vec<f64>) -> Self {
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
            entries: indices.into_iter().zip(values).collect(),
        }
    }

    /// Number of stored (non-zero) entries.
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
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
    pub(crate) fn generate_range(
        spec: VectorDatasetSpec,
        start: usize,
        end: usize,
    ) -> Vec<SparseVector> {
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

    /// Measured fraction of zero-valued elements across the data set.
    pub fn measured_sparsity(&self) -> f64 {
        let total: usize = self.vectors.len() * self.spec.dim;
        if total == 0 {
            return 0.0;
        }
        let nnz: usize = self.vectors.iter().map(SparseVector::nnz).sum();
        1.0 - nnz as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_generation_matches_sparsity() {
        let ds = VectorDataset::generate(VectorDatasetSpec::sparse(200, 100, 11));
        assert_eq!(ds.vectors.len(), 200);
        assert!((ds.measured_sparsity() - 0.9).abs() < 0.02);
    }

    #[test]
    fn dense_generation_has_zero_sparsity() {
        let ds = VectorDataset::generate(VectorDatasetSpec::dense(50, 64, 12));
        assert_eq!(ds.measured_sparsity(), 0.0);
        for v in &ds.vectors {
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
            assert_eq!(vectors, whole.vectors, "chunk={chunk}");
        }
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
}
