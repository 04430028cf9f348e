//! AI data-motif implementations (right column of Fig. 2).
//!
//! These kernels are the layer-level building blocks of the AlexNet and
//! Inception-V3 proxies: fully connected layers, element-wise operations
//! and activations, pooling, convolution, dropout, normalisation and
//! reductions.  They operate on the `NCHW`/`NHWC` image tensors from
//! `dmpb-datagen`, honouring the data-format, batch-size, filter-geometry
//! and padding considerations the paper calls out for its AI motif
//! implementations.

pub(crate) mod activation;
pub(crate) mod convolution;
pub(crate) mod fully_connected;
pub mod normalization;
pub(crate) mod pooling;
pub(crate) mod reduce;
pub(crate) mod regularization;
