//! TensorFlow Inception-V3 on ILSVRC2012.
//!
//! The paper trains Inception-V3 (299×299×3 input) for 1 000 steps with
//! batch size 32 on four workers plus one parameter server.  The layer
//! graph below follows the published architecture: the convolutional stem,
//! three Inception-A modules, a grid-reduction module, four Inception-B
//! modules, a second reduction, two Inception-C modules, global average
//! pooling and the fully connected classifier.  Each module is expanded
//! into its constituent convolution / pooling layers with the published
//! channel counts (branch convolutions are modelled at the module's
//! operating resolution).

use dmpb_datagen::image::{ImageGenerator, TensorShape};
use dmpb_datagen::DataDescriptor;
use dmpb_motifs::{DagPlan, MotifClass, MotifKind};
use dmpb_perfmodel::profile::OpProfile;

use crate::cluster::ClusterConfig;
use crate::framework::tensorflow::{
    per_node_training_profile, LayerSpec, NetworkSpec, TrainingConfig,
};
use crate::workload::{Workload, WorkloadKind};

/// Number of ILSVRC2012 training images.
const ILSVRC_TRAIN_IMAGES: u64 = 1_281_167;
/// Average stored size of one ILSVRC2012 JPEG in bytes.
const ILSVRC_IMAGE_BYTES: u64 = 110 * 1024;

/// The TensorFlow Inception-V3 workload model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InceptionV3 {
    /// Total training steps across the cluster.
    pub total_steps: u64,
    /// Batch size per step.
    pub batch_size: u32,
}

impl InceptionV3 {
    /// The Section III configuration: 1 000 steps, batch 32.
    pub(crate) fn paper_configuration() -> Self {
        Self {
            total_steps: 1_000,
            batch_size: 32,
        }
    }

    /// The Section IV-B configuration: 200 steps, batch 32.
    pub fn reconfigured(total_steps: u64) -> Self {
        Self {
            total_steps,
            ..Self::paper_configuration()
        }
    }

    /// Appends the convolutions of one Inception-A-style module operating
    /// at `size`×`size` with `channels` input channels.
    fn inception_a(layers: &mut Vec<LayerSpec>, size: u32, channels: u32) {
        use MotifKind::*;
        // 1x1, 5x5 (via 1x1 + 5x5), 3x3 double, pool projection branches.
        layers.push(LayerSpec::new(Convolution, size, size, channels, 1));
        layers.push(LayerSpec::new(Convolution, size, size, channels, 1));
        layers.push(LayerSpec::new(Convolution, size, size, 48, 5));
        layers.push(LayerSpec::new(Convolution, size, size, channels, 1));
        layers.push(LayerSpec::new(Convolution, size, size, 64, 3));
        layers.push(LayerSpec::new(Convolution, size, size, 96, 3));
        layers.push(LayerSpec::new(AveragePooling, size, size, channels, 3));
        layers.push(LayerSpec::new(Convolution, size, size, channels, 1));
        layers.push(LayerSpec::new(BatchNormalization, size, size, 288, 1));
        layers.push(LayerSpec::new(Relu, size, size, 288, 1));
    }

    /// Appends one Inception-B-style (factorised 7x7) module at 17×17.
    fn inception_b(layers: &mut Vec<LayerSpec>, channels: u32) {
        use MotifKind::*;
        layers.push(LayerSpec::new(Convolution, 17, 17, channels, 1));
        layers.push(LayerSpec::new(Convolution, 17, 17, channels, 1));
        layers.push(LayerSpec::new(Convolution, 17, 17, 128, 7));
        layers.push(LayerSpec::new(Convolution, 17, 17, channels, 1));
        layers.push(LayerSpec::new(Convolution, 17, 17, 128, 7));
        layers.push(LayerSpec::new(Convolution, 17, 17, 128, 7));
        layers.push(LayerSpec::new(AveragePooling, 17, 17, channels, 3));
        layers.push(LayerSpec::new(Convolution, 17, 17, channels, 1));
        layers.push(LayerSpec::new(BatchNormalization, 17, 17, 768, 1));
        layers.push(LayerSpec::new(Relu, 17, 17, 768, 1));
    }

    /// Appends one Inception-C-style module at 8×8.
    fn inception_c(layers: &mut Vec<LayerSpec>, channels: u32) {
        use MotifKind::*;
        layers.push(LayerSpec::new(Convolution, 8, 8, channels, 1));
        layers.push(LayerSpec::new(Convolution, 8, 8, channels, 1));
        layers.push(LayerSpec::new(Convolution, 8, 8, 384, 3));
        layers.push(LayerSpec::new(Convolution, 8, 8, channels, 1));
        layers.push(LayerSpec::new(Convolution, 8, 8, 448, 3));
        layers.push(LayerSpec::new(Convolution, 8, 8, 384, 3));
        layers.push(LayerSpec::new(AveragePooling, 8, 8, channels, 3));
        layers.push(LayerSpec::new(Convolution, 8, 8, channels, 1));
        layers.push(LayerSpec::new(BatchNormalization, 8, 8, 2048, 1));
        layers.push(LayerSpec::new(Relu, 8, 8, 2048, 1));
    }

    /// The Inception-V3 layer graph.
    pub(crate) fn network() -> NetworkSpec {
        use MotifKind::*;
        // Stem: 299x299x3 -> 35x35x192.
        let mut layers = vec![
            LayerSpec::new(Convolution, 299, 299, 3, 3),
            LayerSpec::new(Convolution, 149, 149, 32, 3),
            LayerSpec::new(Convolution, 147, 147, 32, 3),
            LayerSpec::new(MaxPooling, 147, 147, 64, 3),
            LayerSpec::new(Convolution, 73, 73, 64, 1),
            LayerSpec::new(Convolution, 73, 73, 80, 3),
            LayerSpec::new(MaxPooling, 71, 71, 192, 3),
            LayerSpec::new(BatchNormalization, 35, 35, 192, 1),
        ];
        // 3 × Inception-A at 35x35.
        for _ in 0..3 {
            Self::inception_a(&mut layers, 35, 288);
        }
        // Grid reduction to 17x17.
        layers.push(LayerSpec::new(Convolution, 35, 35, 288, 3));
        layers.push(LayerSpec::new(MaxPooling, 35, 35, 288, 3));
        // 4 × Inception-B at 17x17.
        for _ in 0..4 {
            Self::inception_b(&mut layers, 768);
        }
        // Grid reduction to 8x8.
        layers.push(LayerSpec::new(Convolution, 17, 17, 768, 3));
        layers.push(LayerSpec::new(MaxPooling, 17, 17, 768, 3));
        // 2 × Inception-C at 8x8.
        for _ in 0..2 {
            Self::inception_c(&mut layers, 1280);
        }
        // Head: global average pooling, dropout, classifier.
        layers.push(LayerSpec::new(AveragePooling, 8, 8, 2048, 8));
        layers.push(LayerSpec::new(Dropout, 1, 2048, 1, 1));
        layers.push(LayerSpec::new(FullyConnected, 1, 2048, 1, 1));
        layers.push(LayerSpec::new(Softmax, 1, 1000, 1, 1));
        layers.push(LayerSpec::new(ReduceMax, 1, 1000, 1, 1));

        NetworkSpec {
            name: "Inception-V3",
            layers,
            input_image_bytes: ILSVRC_IMAGE_BYTES,
        }
    }

    fn training(&self) -> TrainingConfig {
        TrainingConfig {
            total_steps: self.total_steps,
            batch_size: self.batch_size,
        }
    }
}

impl Workload for InceptionV3 {
    fn kind(&self) -> WorkloadKind {
        WorkloadKind::InceptionV3
    }

    fn pattern(&self) -> &'static str {
        "CPU intensive"
    }

    fn input_descriptor(&self) -> DataDescriptor {
        ImageGenerator::descriptor(TensorShape::ilsvrc2012(1), ILSVRC_TRAIN_IMAGES)
    }

    fn motif_composition(&self) -> Vec<(MotifClass, f64)> {
        vec![
            (MotifClass::Transform, 0.55),
            (MotifClass::Matrix, 0.20),
            (MotifClass::Sampling, 0.10),
            (MotifClass::Statistics, 0.10),
            (MotifClass::Logic, 0.05),
        ]
    }

    fn involved_motifs(&self) -> Vec<MotifKind> {
        vec![
            MotifKind::Convolution,
            MotifKind::FullyConnected,
            MotifKind::Softmax,
            MotifKind::MaxPooling,
            MotifKind::AveragePooling,
            MotifKind::Dropout,
            MotifKind::Relu,
            MotifKind::BatchNormalization,
        ]
    }

    /// An Inception module is the canonical fork/join: the stem's feature
    /// maps fan out into parallel towers (max-pool tower, average-pool
    /// tower, and the ReLU path feeding the auxiliary classifier head)
    /// that join again at the filter concatenation before the classifier.
    fn dag_plan(&self) -> DagPlan {
        let mut b = DagPlan::builder();
        let batch = b.node("batch");
        let stem = b.node("stem");
        let max_tower = b.node("tower-max-pool");
        let avg_tower = b.node("tower-avg-pool");
        let aux = b.node("aux-head");
        let concat = b.node("filter-concat");
        let logits = b.node("logits");
        let probs = b.node("probabilities");
        b.edge(batch, stem, MotifKind::Convolution);
        b.edge(stem, max_tower, MotifKind::MaxPooling);
        b.edge(stem, avg_tower, MotifKind::AveragePooling);
        b.edge(stem, aux, MotifKind::Relu);
        b.edge(max_tower, concat, MotifKind::BatchNormalization);
        b.edge(avg_tower, concat, MotifKind::Dropout);
        b.edge(concat, logits, MotifKind::FullyConnected);
        b.edge(logits, probs, MotifKind::Softmax);
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
        let i = InceptionV3::paper_configuration();
        assert_eq!(i.total_steps, 1_000);
        assert_eq!(i.batch_size, 32);
    }

    #[test]
    fn network_is_much_deeper_than_alexnet() {
        let inception = InceptionV3::network();
        let alexnet = crate::tensorflow::AlexNet::network();
        assert!(inception.layers.len() > 3 * alexnet.layers.len());
        let convs = inception
            .layers
            .iter()
            .filter(|l| l.motif == MotifKind::Convolution)
            .count();
        assert!(convs > 40, "convs {convs}");
    }

    #[test]
    fn per_step_cost_exceeds_alexnet() {
        // Inception-V3 on 299x299 inputs does far more work per image than
        // the CIFAR-sized AlexNet, which is why the paper's Inception run
        // takes longer despite 10x fewer steps.
        let cluster = ClusterConfig::five_node_westmere();
        let inception = InceptionV3 {
            total_steps: 100,
            batch_size: 32,
        }
        .per_node_profile(&cluster)
        .total_instructions();
        let alexnet = crate::tensorflow::AlexNet {
            total_steps: 100,
            batch_size: 128,
        }
        .per_node_profile(&cluster)
        .total_instructions();
        assert!(
            inception > 3 * alexnet,
            "inception {inception} alexnet {alexnet}"
        );
    }

    #[test]
    fn profile_is_cpu_bound_with_negligible_disk() {
        let cluster = ClusterConfig::five_node_westmere();
        let m = InceptionV3::paper_configuration().measure(&cluster);
        assert!(m.disk_io_bw_mbps < 10.0, "disk {}", m.disk_io_bw_mbps);
        assert!(m.instruction_mix.floating_point > 0.3);
    }
}
