//! TensorFlow AlexNet on CIFAR-10.
//!
//! The paper trains the CIFAR-10-sized AlexNet variant (32×32×3 input) for
//! 10 000 steps with batch size 128 on four workers plus one parameter
//! server.  The layer list below follows the classic AlexNet structure
//! (five convolutions with interleaved pooling and normalisation, then
//! three fully connected layers with dropout), with spatial dimensions
//! adapted to the CIFAR-10 input as BigDataBench's implementation does.
//! Table III lists the involved motifs as Matrix, Sampling, Transform and
//! Statistics.

use dmpb_datagen::image::ImageGenerator;
use dmpb_datagen::image::TensorShape;
use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::tensorflow::{
    per_node_training_profile, LayerSpec, NetworkSpec, TrainingConfig,
};
use crate::workload::{Workload, WorkloadKind};

/// Number of CIFAR-10 training images (per epoch).
const CIFAR10_TRAIN_IMAGES: u64 = 50_000;
/// Bytes of one stored CIFAR-10 image (3 × 32 × 32 bytes + label).
const CIFAR10_IMAGE_BYTES: u64 = 3 * 32 * 32 + 1;

/// The TensorFlow AlexNet workload model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlexNet {
    /// Total training steps across the cluster.
    pub total_steps: u64,
    /// Batch size per step.
    pub batch_size: u32,
}

impl AlexNet {
    /// The Section III configuration: 10 000 steps, batch 128.
    pub(crate) fn paper_configuration() -> Self {
        Self {
            total_steps: 10_000,
            batch_size: 128,
        }
    }

    /// The Section IV-B configuration on the re-configured cluster:
    /// 3 000 steps, batch 128.
    pub fn reconfigured(total_steps: u64) -> Self {
        Self {
            total_steps,
            ..Self::paper_configuration()
        }
    }

    /// The CIFAR-10-sized AlexNet layer graph.
    pub(crate) fn network() -> NetworkSpec {
        use MotifKind::*;
        NetworkSpec {
            name: "AlexNet",
            layers: vec![
                // conv1 + relu + pool + norm
                LayerSpec::new(Convolution, 32, 32, 3, 5),
                LayerSpec::new(Relu, 32, 32, 64, 1),
                LayerSpec::new(MaxPooling, 32, 32, 64, 3),
                LayerSpec::new(BatchNormalization, 16, 16, 64, 1),
                // conv2 + relu + pool + norm
                LayerSpec::new(Convolution, 16, 16, 64, 5),
                LayerSpec::new(Relu, 16, 16, 64, 1),
                LayerSpec::new(MaxPooling, 16, 16, 64, 3),
                LayerSpec::new(BatchNormalization, 8, 8, 64, 1),
                // conv3-5 + relu
                LayerSpec::new(Convolution, 8, 8, 64, 3),
                LayerSpec::new(Relu, 8, 8, 128, 1),
                LayerSpec::new(Convolution, 8, 8, 128, 3),
                LayerSpec::new(Relu, 8, 8, 128, 1),
                LayerSpec::new(Convolution, 8, 8, 128, 3),
                LayerSpec::new(Relu, 8, 8, 128, 1),
                LayerSpec::new(MaxPooling, 8, 8, 128, 2),
                // Classifier: fc6, fc7, fc8 with dropout, softmax output.
                LayerSpec::new(FullyConnected, 4, 4, 128, 1),
                LayerSpec::new(Relu, 1, 384, 1, 1),
                LayerSpec::new(Dropout, 1, 384, 1, 1),
                LayerSpec::new(FullyConnected, 1, 384, 1, 1),
                LayerSpec::new(Relu, 1, 192, 1, 1),
                LayerSpec::new(Dropout, 1, 192, 1, 1),
                LayerSpec::new(FullyConnected, 1, 192, 1, 1),
                LayerSpec::new(Softmax, 1, 10, 1, 1),
            ],
            input_image_bytes: CIFAR10_IMAGE_BYTES,
        }
    }

    fn training(&self) -> TrainingConfig {
        TrainingConfig {
            total_steps: self.total_steps,
            batch_size: self.batch_size,
        }
    }
}

impl Workload for AlexNet {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::AlexNet
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive, memory intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        ImageGenerator::descriptor(TensorShape::cifar10(1), CIFAR10_TRAIN_IMAGES)
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        vec![
            (MotifClass::Transform, 0.50),
            (MotifClass::Matrix, 0.25),
            (MotifClass::Sampling, 0.10),
            (MotifClass::Statistics, 0.15),
        ]
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        // Table III lists Proxy AlexNet's implementations as fully connected,
        // max pooling, convolution and batch normalisation.
        vec![
            MotifKind::Convolution,
            MotifKind::FullyConnected,
            MotifKind::MaxPooling,
            MotifKind::BatchNormalization,
        ]
    }

    /// AlexNet's feature maps fork (mirroring the original two-GPU tower
    /// split): max pooling feeds the classifier while the local-response
    /// normalisation branch conditions the activations.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let batch = b.node("batch");
        let features = b.node("feature-maps");
        let pooled = b.node("pooled");
        let normalised = b.node("normalised");
        let logits = b.node("logits");
        b.edge(batch, features, MotifKind::Convolution);
        b.edge(features, pooled, MotifKind::MaxPooling);
        b.edge(features, normalised, MotifKind::BatchNormalization);
        b.edge(pooled, logits, MotifKind::FullyConnected);
        b.build()
    }

    fn per_node_profile(&self, cluster: &ClusterConfig) -> OpProfile {
        per_node_training_profile(&Self::network(), self.training(), cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_section_iii() {
        let a = AlexNet::paper_configuration();
        assert_eq!(a.total_steps, 10_000);
        assert_eq!(a.batch_size, 128);
    }

    #[test]
    fn network_has_five_convolutions_and_three_fc_layers() {
        let n = AlexNet::network();
        let convs = n
            .layers
            .iter()
            .filter(|l| l.motif == MotifKind::Convolution)
            .count();
        assert_eq!(convs, 5);
        let fc = n
            .layers
            .iter()
            .filter(|l| l.motif == MotifKind::FullyConnected)
            .count();
        assert_eq!(fc, 3);
    }

    #[test]
    fn profile_is_floating_point_heavy() {
        let cluster = ClusterConfig::five_node_westmere();
        let p = AlexNet::paper_configuration().per_node_profile(&cluster);
        assert!(
            p.instructions.mix().floating_point > 0.30,
            "fp {}",
            p.instructions.mix().floating_point
        );
    }

    #[test]
    fn disk_pressure_is_low() {
        let cluster = ClusterConfig::five_node_westmere();
        let m = AlexNet::paper_configuration().measure(&cluster);
        assert!(m.disk_io_bw_mbps < 5.0, "disk bw {}", m.disk_io_bw_mbps);
    }

    #[test]
    fn fewer_steps_run_faster() {
        let cluster = ClusterConfig::three_node_westmere_64gb();
        let long = AlexNet::paper_configuration().measure(&cluster);
        let short = AlexNet::reconfigured(3_000).measure(&cluster);
        assert!(short.runtime_secs < long.runtime_secs);
    }
}
