//! Big-data motif implementations (left column of Fig. 2).
//!
//! These are the light-weight, multi-threaded kernels the proxy benchmarks
//! are assembled from: sorting, sampling, set algebra, graph construction
//! and traversal, hashing and stream encryption, FFT/DCT transforms,
//! distance and matrix computation, and basic statistics.  Each module
//! exposes plain functions that really compute, plus tests; the analytic
//! cost models that map these kernels onto the performance model live in
//! `crate::cost`.

pub(crate) mod graph_ops;
pub(crate) mod logic;
pub(crate) mod matrix_ops;
pub(crate) mod sampling;
pub mod set_ops;
pub mod sort;
pub(crate) mod statistics;
pub mod transform;
