//! Dense and sparse matrix generation (matrix-motif and PageRank input).
//!
//! PageRank is modelled in the paper as matrix construction plus sparse
//! matrix–vector multiplication; the matrix motif also covers dense
//! matrix–matrix multiplication and distance computations.  This module
//! provides row-major dense matrices and CSR sparse matrices plus seeded
//! generators for both.

use rand::Rng;

use crate::distributions::SparsityMask;
use crate::rng::{derive_seed, seeded_rng};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Naive matrix multiplication `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not match.
    pub fn multiply(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "inner dimensions do not match");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// A sparse matrix in compressed sparse row form.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from per-row `(col, value)` entries.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range or the entry list does not
    /// have exactly `rows` rows.
    pub(crate) fn from_rows(rows: usize, cols: usize, entries: &[Vec<(u32, f64)>]) -> Self {
        assert_eq!(
            entries.len(),
            rows,
            "entry list must have one entry per row"
        );
        let mut offsets = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        offsets.push(0);
        for row in entries {
            let mut sorted = row.clone();
            sorted.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &sorted {
                assert!((c as usize) < cols, "column {c} out of range");
                indices.push(c);
                values.push(v);
            }
            offsets.push(indices.len());
        }
        Self {
            rows,
            cols,
            offsets,
            indices,
            values,
        }
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Measured sparsity (fraction of zero entries).
    pub fn sparsity(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / total as f64
        }
    }

    /// The `(col, value)` entries of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub(crate) fn row_entries(&self, r: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.offsets[r];
        let hi = self.offsets[r + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–dense vector product.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the column count.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length does not match columns");
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_entries(r) {
                acc += v * x[c as usize];
            }
            *out = acc;
        }
        y
    }
}

/// Specification for a generated matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixSpec {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Fraction of zero entries.
    pub sparsity: f64,
    /// Seed for deterministic generation.
    pub seed: u64,
}

impl MatrixSpec {
    /// A dense matrix spec.
    pub fn dense(rows: usize, cols: usize, seed: u64) -> Self {
        Self {
            rows,
            cols,
            sparsity: 0.0,
            seed,
        }
    }

    /// A sparse matrix spec.
    pub fn sparse(rows: usize, cols: usize, sparsity: f64, seed: u64) -> Self {
        Self {
            rows,
            cols,
            sparsity,
            seed,
        }
    }

    /// Generates a dense matrix (zero entries where the sparsity mask
    /// strikes).
    pub fn generate_dense(&self) -> DenseMatrix {
        self.generate_dense_rows(0, self.rows)
    }

    /// Generates rows `[start, end)` of the logical matrix as an
    /// `(end - start) x cols` dense matrix (row `r` of the output is row
    /// `start + r` of the logical matrix).
    ///
    /// Every row's RNG stream is derived from its global index alone, so
    /// any chunking of `[0, rows)` stacks to exactly the matrix of
    /// [`generate_dense`](Self::generate_dense).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub(crate) fn generate_dense_rows(&self, start: usize, end: usize) -> DenseMatrix {
        assert!(start <= end, "invalid row range {start}..{end}");
        let mask = SparsityMask::new(self.sparsity);
        let mut data = Vec::with_capacity((end - start) * self.cols);
        for r in start..end {
            let mut rng = seeded_rng(derive_seed(self.seed, r as u64));
            for _ in 0..self.cols {
                if mask.keep(&mut rng) {
                    data.push(rng.gen_range(-1.0..1.0));
                } else {
                    data.push(0.0);
                }
            }
        }
        DenseMatrix::from_vec(end - start, self.cols, data)
    }

    /// Generates a CSR sparse matrix.
    pub fn generate_sparse(&self) -> CsrMatrix {
        let mask = SparsityMask::new(self.sparsity);
        let mut rows = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut rng = seeded_rng(derive_seed(self.seed, r as u64));
            let mut row = Vec::new();
            for c in 0..self.cols {
                if mask.keep(&mut rng) {
                    row.push((c as u32, rng.gen_range(-1.0..1.0)));
                } else {
                    // keep RNG stream aligned with generate_dense
                    let _ = ();
                }
            }
            rows.push(row);
        }
        CsrMatrix::from_rows(self.rows, self.cols, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_accessors_round_trip() {
        let mut m = DenseMatrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(&m.as_slice()[3..], &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn chunked_row_generation_stacks_to_monolithic() {
        let spec = MatrixSpec::sparse(30, 12, 0.5, 13);
        let whole = spec.generate_dense();
        for chunk in [1, 7, 30] {
            let mut data = Vec::new();
            let mut start = 0;
            while start < spec.rows {
                let end = (start + chunk).min(spec.rows);
                data.extend_from_slice(spec.generate_dense_rows(start, end).as_slice());
                start = end;
            }
            assert_eq!(data, whole.as_slice(), "chunk={chunk}");
        }
    }

    #[test]
    fn multiply_matches_hand_computation() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn multiply_rejects_mismatched_shapes() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.multiply(&b);
    }

    #[test]
    fn csr_spmv_matches_dense() {
        let spec = MatrixSpec::sparse(20, 20, 0.7, 5);
        let dense = spec.generate_dense();
        let sparse = spec.generate_sparse();
        let x: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let y_sparse = sparse.spmv(&x);
        for (r, (ys, row)) in y_sparse.iter().zip(dense.as_slice().chunks(20)).enumerate() {
            let yd: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            assert!((ys - yd).abs() < 1e-9, "row {r}: {ys} vs {yd}");
        }
    }

    #[test]
    fn sparse_generation_matches_sparsity() {
        let m = MatrixSpec::sparse(100, 100, 0.9, 9).generate_sparse();
        assert!(
            (m.sparsity() - 0.9).abs() < 0.02,
            "sparsity {}",
            m.sparsity()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = MatrixSpec::dense(10, 10, 4);
        assert_eq!(spec.generate_dense(), spec.generate_dense());
    }

    #[test]
    fn frobenius_norm_of_identityish() {
        let m = DenseMatrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }
}
