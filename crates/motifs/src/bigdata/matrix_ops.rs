//! Matrix motif: distance computation and matrix multiplication.
//!
//! These are the building blocks of the K-means and PageRank proxies
//! (Table III): vector euclidean / cosine distances, dense matrix multiply
//! and sparse matrix–vector multiply (delegated to `dmpb-datagen`'s CSR
//! matrix).

use dmpb_datagen::matrix::DenseMatrix;

/// Squared euclidean distance between two dense vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub(crate) fn euclidean_distance_squared(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two dense vectors.
pub(crate) fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    euclidean_distance_squared(a, b).sqrt()
}

/// Cosine distance (`1 - cosine similarity`) between two dense vectors.
/// Returns 1.0 when either vector is all-zero.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub(crate) fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot / (na * nb)
}

/// Dense matrix multiplication (wrapper over the datagen matrix type so the
/// motif catalogue exposes one entry point).
///
/// # Panics
///
/// Panics if the inner dimensions do not match.
pub(crate) fn matrix_multiply(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    a.multiply(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::matrix::MatrixSpec;

    #[test]
    fn euclidean_distance_matches_hand_computation() {
        assert_eq!(euclidean_distance_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
    }

    #[test]
    fn cosine_distance_of_parallel_vectors_is_zero() {
        let d = cosine_distance(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_of_orthogonal_vectors_is_one() {
        let d = cosine_distance(&[1.0, 0.0], &[0.0, 1.0]);
        assert!((d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_of_zero_vector_is_defined() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn matrix_multiply_delegates_correctly() {
        let a = MatrixSpec::dense(8, 8, 1).generate_dense();
        let identity = {
            let mut m = DenseMatrix::zeros(8, 8);
            for i in 0..8 {
                m.set(i, i, 1.0);
            }
            m
        };
        let product = matrix_multiply(&a, &identity);
        for r in 0..8 {
            for c in 0..8 {
                assert!((product.get(r, c) - a.get(r, c)).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn distance_rejects_mismatched_vectors() {
        let _ = euclidean_distance(&[1.0], &[1.0, 2.0]);
    }
}
