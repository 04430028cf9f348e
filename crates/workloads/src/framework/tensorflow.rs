//! TensorFlow execution model: a layer graph executed for a number of
//! training steps under a parameter-server deployment.
//!
//! The paper runs AlexNet and Inception-V3 with one parameter-server node
//! and four worker nodes; each worker executes its share of the training
//! steps.  The model expands each network layer into the corresponding AI
//! data-motif cost profile (convolution, pooling, fully connected,
//! normalisation, activation…), multiplies the forward cost to account for
//! the backward pass, and adds the dataflow-runtime overhead (kernel
//! dispatch, tensor bookkeeping) and the per-step parameter-server
//! exchange.

use dmpb_datagen::descriptor::{DataClass, DataDescriptor, Distribution};
use dmpb_perfmodel::access::AccessPattern;
use dmpb_perfmodel::profile::{BranchBehavior, InstructionCounts, MemorySegment, OpProfile};

use dmpb_motifs::{MotifConfig, MotifKind};

use crate::cluster::ClusterConfig;

/// One layer of a modelled network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    /// Which AI motif implements the layer.
    pub motif: MotifKind,
    /// Input feature-map height.
    pub height: u32,
    /// Input feature-map width.
    pub width: u32,
    /// Input channels.
    pub channels: u32,
    /// Filter size (convolution / pooling window); 1 otherwise.
    pub filter: u32,
}

impl LayerSpec {
    /// Convenience constructor.
    pub fn new(motif: MotifKind, height: u32, width: u32, channels: u32, filter: u32) -> Self {
        Self {
            motif,
            height,
            width,
            channels,
            filter,
        }
    }
}

/// A network: a name plus an ordered list of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Reporting name, e.g. `"AlexNet"`.
    pub name: &'static str,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
    /// Per-image input bytes on disk (decoded input is modelled by the
    /// layer geometry).
    pub input_image_bytes: u64,
}

/// Training-run configuration (steps, batch size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingConfig {
    /// Total training steps across the cluster.
    pub total_steps: u64,
    /// Batch size per step.
    pub batch_size: u32,
}

/// Ratio of backward-pass cost to forward-pass cost.
const BACKWARD_TO_FORWARD: f64 = 1.2;
/// Dataflow-runtime overhead instructions per layer invocation per batch.
const RUNTIME_DISPATCH_INSTRUCTIONS: f64 = 2.0e6;
/// Bytes of parameters exchanged with the parameter server per step,
/// expressed as a fraction of the per-step compute bytes (coarse model).
const PS_EXCHANGE_BYTES_PER_STEP: u64 = 100 << 20;

/// Builds the per-worker-node profile of training `network` for
/// `training.total_steps` steps on `cluster`.
pub fn per_node_training_profile(
    network: &NetworkSpec,
    training: TrainingConfig,
    cluster: &ClusterConfig,
) -> OpProfile {
    let workers = u64::from(cluster.slave_nodes());
    let steps_per_worker = (training.total_steps / workers).max(1);
    let batch = u64::from(training.batch_size);

    // --- Per-step forward + backward cost over all layers ----------------
    let mut per_step: Option<OpProfile> = None;
    for layer in &network.layers {
        let config = MotifConfig::ai_default()
            .with_batch_size(training.batch_size)
            .with_geometry(layer.height, layer.width, layer.channels);
        let config = MotifConfig {
            filter_size: layer.filter,
            ..config
        };
        // One "element" of the descriptor is one image in the batch.
        let per_image_bytes =
            u64::from(layer.height) * u64::from(layer.width) * u64::from(layer.channels) * 4;
        let data = DataDescriptor::new(
            DataClass::Image,
            per_image_bytes * batch,
            per_image_bytes.max(1),
            0.0,
            Distribution::Uniform,
        );
        let layer_profile = layer.motif.cost_profile(&data, &config);
        per_step = Some(match per_step {
            None => layer_profile,
            Some(acc) => acc.merge(&layer_profile),
        });
    }
    let forward = per_step.expect("network has at least one layer");
    // Backward pass: same motifs, heavier.
    let per_step = forward.scaled(1.0 + BACKWARD_TO_FORWARD);

    // --- Scale to the worker's share of the steps ------------------------
    let mut profile = per_step.scaled(steps_per_worker as f64);
    profile.name = format!("tensorflow-{}", network.name.to_lowercase());

    // --- Dataflow runtime overhead ---------------------------------------
    let dispatches = network.layers.len() as f64 * steps_per_worker as f64;
    let runtime_instr = dispatches * RUNTIME_DISPATCH_INSTRUCTIONS;
    let mut runtime = OpProfile::new("tf-runtime");
    runtime.instructions = InstructionCounts {
        integer: (runtime_instr * 0.45) as u64,
        floating_point: (runtime_instr * 0.02) as u64,
        load: (runtime_instr * 0.25) as u64,
        store: (runtime_instr * 0.10) as u64,
        branch: (runtime_instr * 0.18) as u64,
    };
    runtime.memory_segments = vec![
        MemorySegment::new(AccessPattern::PointerChase, 256 << 20, 0.5),
        MemorySegment::new(AccessPattern::Sequential, 64 << 20, 0.5),
    ];
    runtime.branch = BranchBehavior::new(0.6, 0.5);
    runtime.code_footprint_bytes = 12 * 1024 * 1024;
    runtime.parallel_fraction = 0.6;
    let mut profile = profile.merge(&runtime);
    profile.name = format!("tensorflow-{}", network.name.to_lowercase());

    // --- Input pipeline and parameter-server traffic ---------------------
    // Training data is read from local disk once per step per worker.
    profile.disk_read_bytes = steps_per_worker * batch * network.input_image_bytes;
    // Parameter exchange is network traffic; it does not touch the disk but
    // does serialise part of each step, captured in the parallel fraction.
    profile.disk_write_bytes = 0;
    let _ = PS_EXCHANGE_BYTES_PER_STEP;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_network() -> NetworkSpec {
        NetworkSpec {
            name: "Tiny",
            layers: vec![
                LayerSpec::new(MotifKind::Convolution, 32, 32, 3, 3),
                LayerSpec::new(MotifKind::Relu, 32, 32, 16, 1),
                LayerSpec::new(MotifKind::MaxPooling, 32, 32, 16, 2),
                LayerSpec::new(MotifKind::FullyConnected, 16, 16, 16, 1),
                LayerSpec::new(MotifKind::Softmax, 1, 10, 1, 1),
            ],
            input_image_bytes: 3 * 1024,
        }
    }

    fn training() -> TrainingConfig {
        TrainingConfig {
            total_steps: 1000,
            batch_size: 64,
        }
    }

    #[test]
    fn profile_scales_with_steps() {
        let cluster = ClusterConfig::five_node_westmere();
        let short = per_node_training_profile(
            &tiny_network(),
            TrainingConfig {
                total_steps: 100,
                batch_size: 64,
            },
            &cluster,
        );
        let long = per_node_training_profile(
            &tiny_network(),
            TrainingConfig {
                total_steps: 1000,
                batch_size: 64,
            },
            &cluster,
        );
        let ratio = long.total_instructions() as f64 / short.total_instructions() as f64;
        assert!((8.0..=12.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn profile_is_fp_heavy() {
        let p = per_node_training_profile(
            &tiny_network(),
            training(),
            &ClusterConfig::five_node_westmere(),
        );
        assert!(
            p.instructions.mix().floating_point > 0.25,
            "fp {}",
            p.instructions.mix().floating_point
        );
    }

    #[test]
    fn disk_traffic_is_modest() {
        let p = per_node_training_profile(
            &tiny_network(),
            training(),
            &ClusterConfig::five_node_westmere(),
        );
        // Input pipeline only: steps/worker * batch * image bytes.
        assert_eq!(p.disk_write_bytes, 0);
        assert_eq!(p.disk_read_bytes, 250 * 64 * 3 * 1024);
    }

    #[test]
    fn fewer_workers_means_more_steps_per_node() {
        let five = per_node_training_profile(
            &tiny_network(),
            training(),
            &ClusterConfig::five_node_westmere(),
        );
        let three = per_node_training_profile(
            &tiny_network(),
            training(),
            &ClusterConfig::three_node_westmere_64gb(),
        );
        assert!(three.total_instructions() > five.total_instructions());
    }
}
