//! Models of the two TensorFlow workloads: AlexNet and Inception-V3.

pub(crate) mod alexnet;
pub(crate) mod inception_v3;

pub use alexnet::AlexNet;
pub use inception_v3::InceptionV3;
