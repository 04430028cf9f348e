//! Analytic cost models: from a motif kind, an input descriptor and a
//! configuration to an [`OpProfile`].
//!
//! The cost models are what let the reproduction measure motifs (and the
//! workloads composed from them) at the paper's data scale — 100 GB inputs,
//! billions of records — without materialising the data: each model counts
//! the dynamic instructions per logical element the kernel executes,
//! describes how the kernel walks memory, how predictable its branches are
//! and how much disk traffic it causes.  The constants are calibrated
//! qualitatively against the kernels in [`crate::bigdata`] / [`crate::ai`].

use dmpb_datagen::DataDescriptor;
use dmpb_perfmodel::access::AccessPattern;
use dmpb_perfmodel::profile::{BranchBehavior, InstructionCounts, MemorySegment, OpProfile};

use crate::class::MotifKind;
use crate::config::MotifConfig;

/// Per-element instruction recipe accumulated by the per-kind models.
#[derive(Debug, Clone, Copy, Default)]
struct Recipe {
    integer: f64,
    floating_point: f64,
    load: f64,
    store: f64,
    branch: f64,
}

impl Recipe {
    fn counts(&self, elements: f64) -> InstructionCounts {
        let c = |v: f64| (v * elements).round().max(0.0) as u64;
        InstructionCounts {
            integer: c(self.integer),
            floating_point: c(self.floating_point),
            load: c(self.load),
            store: c(self.store),
            branch: c(self.branch),
        }
    }
}

/// Code footprint of a light-weight big-data motif kernel plus its runtime
/// support (far smaller than a JVM-based stack).
const BIG_DATA_CODE_FOOTPRINT: u64 = 48 * 1024;
/// Code footprint of an AI motif kernel.
const AI_CODE_FOOTPRINT: u64 = 36 * 1024;
/// Output feature count assumed by the fully-connected cost model.
const FC_OUT_FEATURES: f64 = 512.0;
/// Minimum output channel count assumed by the convolution cost model.
const CONV_MIN_OUT_CHANNELS: f64 = 32.0;
/// Number of centroids assumed by the distance-computation cost model.
const DISTANCE_CENTROIDS: f64 = 16.0;
/// Elements processed per dynamic vector instruction in the AI kernels
/// (AVX f32 lanes, discounted for non-vectorisable tails).
const SIMD_FP_FACTOR: f64 = 6.0;
/// Loop-overhead reduction from unrolling in the vectorised AI kernels.
const SIMD_INT_FACTOR: f64 = 3.0;
/// Extra integer work per stored value when the input is sparse (index
/// decoding, iterator advancement) — sparse formats trade bandwidth for
/// instruction overhead.
const SPARSE_INDEX_INTEGER_OVERHEAD: f64 = 40.0;
/// Extra branch work per stored value when the input is sparse.
const SPARSE_INDEX_BRANCH_OVERHEAD: f64 = 12.0;

/// Produces the operation profile of running `kind` over `data` with
/// configuration `config`.
pub(crate) fn cost_profile(
    kind: MotifKind,
    data: &DataDescriptor,
    config: &MotifConfig,
) -> OpProfile {
    if kind.is_ai() {
        ai_cost_profile(kind, data, config)
    } else {
        big_data_cost_profile(kind, data, config)
    }
}

fn big_data_cost_profile(
    kind: MotifKind,
    data: &DataDescriptor,
    config: &MotifConfig,
) -> OpProfile {
    use MotifKind::*;

    let elements = data.element_count() as f64;
    let element_bytes = data.element_bytes as f64;
    let density = (1.0 - data.sparsity).max(0.0);
    let chunk_len = (config.chunk_bytes as f64 / element_bytes).max(2.0);
    let log_chunk = chunk_len.log2().max(1.0);
    // Streaming working set: what the tasks keep in flight at once.
    let stream_ws = (config.chunk_bytes * u64::from(config.num_tasks))
        .min(data.total_bytes.max(1))
        .max(1);
    let chunk_ws = config.chunk_bytes.max(4096);

    let mut profile = OpProfile::new(kind.name());
    profile.code_footprint_bytes = BIG_DATA_CODE_FOOTPRINT;
    profile.parallel_fraction = 0.95;

    let (recipe, segments, branch): (Recipe, Vec<MemorySegment>, BranchBehavior) = match kind {
        QuickSort => (
            Recipe {
                integer: 5.0 * log_chunk,
                floating_point: 0.0,
                load: 2.2 * log_chunk,
                store: 1.1 * log_chunk,
                branch: 1.4 * log_chunk,
            },
            vec![
                MemorySegment::new(AccessPattern::Random, chunk_ws, 0.65),
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.35),
            ],
            BranchBehavior::new(0.5, 0.62),
        ),
        MergeSort => (
            Recipe {
                integer: 4.5 * log_chunk,
                floating_point: 0.0,
                load: 2.4 * log_chunk,
                store: 1.3 * log_chunk,
                branch: 1.2 * log_chunk,
            },
            vec![
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.85),
                MemorySegment::new(AccessPattern::Random, chunk_ws, 0.15),
            ],
            BranchBehavior::new(0.5, 0.70),
        ),
        RandomSampling => (
            Recipe {
                integer: 3.0,
                floating_point: 0.5,
                load: 1.2,
                store: 0.15,
                branch: 1.1,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.12, 0.75),
        ),
        IntervalSampling => (
            Recipe {
                integer: 2.0,
                floating_point: 0.0,
                load: 1.0,
                store: 0.1,
                branch: 1.0,
            },
            vec![MemorySegment::new(
                AccessPattern::Strided {
                    stride_bytes: (element_bytes as u64 * 8).max(64),
                },
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.88, 0.95),
        ),
        SetUnion | SetIntersection | SetDifference => (
            Recipe {
                integer: 4.0,
                floating_point: 0.0,
                load: 2.2,
                store: 0.9,
                branch: 1.6,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.5, 0.70),
        ),
        GraphConstruct => (
            Recipe {
                integer: 6.0,
                floating_point: 0.0,
                load: 2.5,
                store: 2.0,
                branch: 1.0,
            },
            vec![
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.45),
                MemorySegment::new(AccessPattern::Random, data.total_bytes.max(1), 0.55),
            ],
            BranchBehavior::new(0.7, 0.6),
        ),
        GraphTraversal => (
            Recipe {
                integer: 4.5,
                floating_point: 0.0,
                load: 2.8,
                store: 0.8,
                branch: 1.8,
            },
            vec![
                MemorySegment::new(AccessPattern::PointerChase, data.total_bytes.max(1), 0.7),
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.3),
            ],
            BranchBehavior::new(0.55, 0.65),
        ),
        CountStatistics => (
            Recipe {
                integer: 2.5,
                floating_point: 1.0,
                load: 1.1,
                store: 0.2,
                branch: 1.0,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.9, 0.95),
        ),
        ProbabilityStatistics => (
            Recipe {
                integer: 4.0,
                floating_point: 1.0,
                load: 2.2,
                store: 1.0,
                branch: 1.3,
            },
            vec![
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.55),
                MemorySegment::new(AccessPattern::Random, 8 << 20, 0.45),
            ],
            BranchBehavior::new(0.6, 0.75),
        ),
        MinMax => (
            Recipe {
                integer: 1.5,
                floating_point: 1.2,
                load: 1.0,
                store: 0.05,
                branch: 1.1,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.08, 0.9),
        ),
        Md5Hash => (
            Recipe {
                integer: 9.5 * element_bytes / 8.0,
                floating_point: 0.0,
                load: 1.3 * element_bytes / 8.0,
                store: 0.3 * element_bytes / 8.0,
                branch: 0.4 * element_bytes / 8.0,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.92, 0.97),
        ),
        Encryption => (
            Recipe {
                integer: 5.0 * element_bytes / 8.0,
                floating_point: 0.0,
                load: 1.1 * element_bytes / 8.0,
                store: 1.0 * element_bytes / 8.0,
                branch: 0.3 * element_bytes / 8.0,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.93, 0.97),
        ),
        Fft | Ifft => (
            Recipe {
                integer: 2.5 * log_chunk,
                floating_point: 6.0 * log_chunk,
                load: 2.5 * log_chunk,
                store: 1.8 * log_chunk,
                branch: 0.8 * log_chunk,
            },
            vec![
                MemorySegment::new(AccessPattern::Strided { stride_bytes: 512 }, chunk_ws, 0.6),
                MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.4),
            ],
            BranchBehavior::new(0.85, 0.92),
        ),
        Dct => (
            Recipe {
                integer: 3.0,
                floating_point: 24.0,
                load: 4.0,
                store: 1.0,
                branch: 1.0,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                stream_ws,
                1.0,
            )],
            BranchBehavior::new(0.9, 0.95),
        ),
        DistanceCalculation => {
            // One element = one vector of `dim` features, of which only the
            // non-zero fraction costs multiply-accumulates.  Sparse formats
            // additionally pay index-decoding integer and branch work per
            // stored value, which is why dense inputs achieve much higher
            // memory bandwidth for the same algorithm (the paper's Fig. 7).
            // Stored values per vector: dense vectors store 8-byte values,
            // sparse vectors store (index, value) pairs for non-zeros only.
            let _ = density;
            let sparse_overhead = if data.sparsity > 0.0 { 1.0 } else { 0.0 };
            let value_bytes = if data.sparsity > 0.0 { 12.0 } else { 8.0 };
            let effective = (element_bytes / value_bytes).max(1.0);
            // Per vector and per centroid there is fixed overhead (vector
            // object setup, accumulator handling, square root) on top of
            // the per-stored-value multiply-accumulate work.
            // Dense inner loops auto-vectorise (several multiply-accumulates
            // per dynamic instruction); sparse loops with index indirection
            // do not — which is why dense inputs move far more bytes per
            // instruction and achieve the higher memory bandwidth of Fig. 7.
            let per_centroid_fixed = 6.0;
            let vector_width = if data.sparsity > 0.0 { 1.0 } else { 3.0 };
            (
                Recipe {
                    integer: DISTANCE_CENTROIDS * per_centroid_fixed
                        + (2.0 + sparse_overhead * SPARSE_INDEX_INTEGER_OVERHEAD) * effective,
                    floating_point: DISTANCE_CENTROIDS
                        * (per_centroid_fixed + 3.0 * effective / vector_width),
                    load: DISTANCE_CENTROIDS * (2.0 + 1.2 * effective / vector_width)
                        + sparse_overhead * effective,
                    store: 0.1 * effective + DISTANCE_CENTROIDS,
                    branch: DISTANCE_CENTROIDS * (2.0 + 0.3 * effective / vector_width)
                        + sparse_overhead * SPARSE_INDEX_BRANCH_OVERHEAD * effective,
                },
                vec![
                    MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.8),
                    MemorySegment::new(AccessPattern::Strided { stride_bytes: 64 }, 1 << 20, 0.2),
                ],
                BranchBehavior::new(0.88, if data.sparsity > 0.0 { 0.8 } else { 0.93 }),
            )
        }
        MatrixMultiply => {
            // Square matrices: per stored element the kernel performs O(n)
            // multiply-accumulates, n = sqrt(total elements).
            let n = elements.sqrt().max(2.0);
            (
                Recipe {
                    integer: 1.0 * n,
                    floating_point: 2.0 * n,
                    load: 1.6 * n,
                    store: 0.05 * n,
                    branch: 0.15 * n,
                },
                vec![
                    MemorySegment::new(AccessPattern::Sequential, stream_ws, 0.5),
                    MemorySegment::new(
                        AccessPattern::Strided {
                            stride_bytes: (element_bytes as u64 * 64).max(64),
                        },
                        chunk_ws,
                        0.5,
                    ),
                ],
                BranchBehavior::new(0.93, 0.97),
            )
        }
        _ => unreachable!("AI kinds handled separately"),
    };

    profile.instructions = recipe.counts(elements);
    profile.memory_segments = segments;
    profile.branch = branch;

    if config.spill_to_disk {
        profile.disk_read_bytes = data.total_bytes;
        profile.disk_write_bytes = (data.total_bytes as f64 * spill_write_fraction(kind)) as u64;
    } else {
        profile.disk_read_bytes = data.total_bytes / 20;
        profile.disk_write_bytes = 0;
    }
    profile
}

/// Fraction of the input volume a big-data motif writes back to disk as
/// intermediate or final output when spilling is enabled.
fn spill_write_fraction(kind: MotifKind) -> f64 {
    use MotifKind::*;
    match kind {
        QuickSort | MergeSort => 1.0,
        Encryption => 1.0,
        GraphConstruct => 0.8,
        SetUnion | SetIntersection | SetDifference => 0.6,
        Fft | Ifft | Dct => 0.8,
        MatrixMultiply => 0.3,
        RandomSampling => 0.1,
        IntervalSampling => 0.1,
        GraphTraversal => 0.05,
        DistanceCalculation => 0.05,
        Md5Hash => 0.05,
        CountStatistics | ProbabilityStatistics | MinMax => 0.02,
        _ => 0.1,
    }
}

fn ai_cost_profile(kind: MotifKind, data: &DataDescriptor, config: &MotifConfig) -> OpProfile {
    use MotifKind::*;

    // One logical element of AI input data is one image / feature map.
    let images = data.element_count() as f64;
    let spatial = config.spatial_elements().max(1) as f64;
    let batch = f64::from(config.batch_size.max(1));
    let kernel = f64::from(config.filter_size.max(1));
    let channels = f64::from(config.channels.max(1));

    // Activation working set: one batch of feature maps in f32.
    let activation_ws = ((batch * spatial * 4.0) as u64).max(4096);
    // Weight working set for the parameterised layers.
    let conv_out_channels = channels.max(CONV_MIN_OUT_CHANNELS);
    let conv_weight_ws = ((conv_out_channels * channels * kernel * kernel * 4.0) as u64).max(4096);
    let fc_weight_ws = ((spatial * FC_OUT_FEATURES * 4.0) as u64).max(4096);

    let mut profile = OpProfile::new(kind.name());
    profile.code_footprint_bytes = AI_CODE_FOOTPRINT;
    profile.parallel_fraction = 0.98;

    // Per-image work (multiplied by image count below).
    let (recipe, segments, branch): (Recipe, Vec<MemorySegment>, BranchBehavior) = match kind {
        Convolution => {
            let per_pixel = 2.0 * kernel * kernel * channels;
            let flops = per_pixel * spatial / channels * conv_out_channels;
            (
                Recipe {
                    integer: 0.18 * flops,
                    floating_point: flops,
                    load: 0.30 * flops,
                    store: 0.02 * flops + 1.0 * spatial,
                    branch: 0.10 * flops,
                },
                vec![
                    MemorySegment::new(AccessPattern::Sequential, activation_ws, 0.55),
                    // Blocked weight reuse keeps the live filter tile cache
                    // resident, as im2col/GEMM-style implementations do.
                    MemorySegment::new(
                        AccessPattern::Sequential,
                        conv_weight_ws.min(192 * 1024),
                        0.45,
                    ),
                ],
                BranchBehavior::new(0.92, 0.97),
            )
        }
        FullyConnected => (
            Recipe {
                integer: 0.3 * spatial * FC_OUT_FEATURES / 100.0,
                floating_point: 2.0 * spatial * FC_OUT_FEATURES / 100.0,
                load: 1.2 * spatial * FC_OUT_FEATURES / 100.0,
                store: FC_OUT_FEATURES / 100.0,
                branch: 0.1 * spatial * FC_OUT_FEATURES / 100.0,
            },
            vec![
                MemorySegment::new(AccessPattern::Sequential, fc_weight_ws.min(2 << 20), 0.75),
                MemorySegment::new(AccessPattern::Sequential, activation_ws, 0.25),
            ],
            BranchBehavior::new(0.93, 0.97),
        ),
        ElementWiseMultiply => (
            Recipe {
                integer: 0.3 * spatial,
                floating_point: 1.0 * spatial,
                load: 2.0 * spatial,
                store: 1.0 * spatial,
                branch: 0.15 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.95, 0.98),
        ),
        Sigmoid | Tanh => (
            Recipe {
                integer: 0.5 * spatial,
                floating_point: 6.0 * spatial,
                load: 1.0 * spatial,
                store: 1.0 * spatial,
                branch: 0.15 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.95, 0.98),
        ),
        Softmax => (
            Recipe {
                integer: 0.6 * spatial,
                floating_point: 5.0 * spatial,
                load: 2.0 * spatial,
                store: 1.0 * spatial,
                branch: 0.3 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.9, 0.95),
        ),
        Relu => (
            Recipe {
                integer: 0.8 * spatial,
                floating_point: 1.0 * spatial,
                load: 1.0 * spatial,
                store: 1.0 * spatial,
                branch: 1.0 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.5, 0.82),
        ),
        MaxPooling | AveragePooling => {
            let window = kernel.max(2.0);
            (
                Recipe {
                    integer: 0.8 * spatial,
                    floating_point: window * window * spatial / 4.0,
                    load: window * window * spatial / 4.0,
                    store: 0.3 * spatial,
                    branch: window * window * spatial / 16.0,
                },
                vec![
                    MemorySegment::new(AccessPattern::Sequential, activation_ws, 0.85),
                    MemorySegment::new(
                        AccessPattern::Strided { stride_bytes: 256 },
                        activation_ws,
                        0.15,
                    ),
                ],
                BranchBehavior::new(0.6, 0.9),
            )
        }
        Dropout => (
            Recipe {
                integer: 2.0 * spatial,
                floating_point: 0.8 * spatial,
                load: 1.0 * spatial,
                store: 1.0 * spatial,
                branch: 1.0 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.5, 0.70),
        ),
        BatchNormalization => (
            Recipe {
                integer: 0.6 * spatial,
                floating_point: 5.0 * spatial,
                load: 2.0 * spatial,
                store: 1.0 * spatial,
                branch: 0.2 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.93, 0.97),
        ),
        CosineNormalization => (
            Recipe {
                integer: 0.5 * spatial,
                floating_point: 4.0 * spatial,
                load: 2.0 * spatial,
                store: 1.0 * spatial,
                branch: 0.2 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.93, 0.97),
        ),
        ReduceSum => (
            Recipe {
                integer: 0.4 * spatial,
                floating_point: 1.0 * spatial,
                load: 1.0 * spatial,
                store: 0.02 * spatial,
                branch: 0.2 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.95, 0.98),
        ),
        ReduceMax => (
            Recipe {
                integer: 0.8 * spatial,
                floating_point: 1.0 * spatial,
                load: 1.0 * spatial,
                store: 0.02 * spatial,
                branch: 1.0 * spatial,
            },
            vec![MemorySegment::new(
                AccessPattern::Sequential,
                activation_ws,
                1.0,
            )],
            BranchBehavior::new(0.15, 0.7),
        ),
        _ => unreachable!("big-data kinds handled separately"),
    };

    // The AI kernels are vectorised (AVX / FMA): several element operations
    // retire per dynamic instruction, and unrolling removes most loop
    // overhead.  Scale the per-element recipe accordingly.
    let vectorized = Recipe {
        integer: recipe.integer / SIMD_INT_FACTOR,
        floating_point: recipe.floating_point / SIMD_FP_FACTOR,
        load: recipe.load / SIMD_FP_FACTOR,
        store: recipe.store / SIMD_FP_FACTOR,
        branch: recipe.branch / SIMD_INT_FACTOR,
    };
    profile.instructions = vectorized.counts(images);
    profile.memory_segments = segments;
    profile.branch = branch;
    // TensorFlow-style training reads its input once and keeps activations
    // in memory: disk pressure is tiny (the paper measures ~0.2–0.5 MB/s).
    profile.disk_read_bytes = data.total_bytes / 400;
    profile.disk_write_bytes = 0;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::descriptor::{DataClass, Distribution};

    fn text_data(gb: u64) -> DataDescriptor {
        DataDescriptor::new(DataClass::Text, gb << 30, 100, 0.0, Distribution::Uniform)
    }

    fn vector_data(gb: u64, sparsity: f64) -> DataDescriptor {
        DataDescriptor::new(
            DataClass::Vector,
            gb << 30,
            400,
            sparsity,
            Distribution::Gaussian {
                mean: 0.0,
                std_dev: 1.0,
            },
        )
    }

    fn image_data(images: u64) -> DataDescriptor {
        DataDescriptor::new(
            DataClass::Image,
            images * 12_288,
            12_288,
            0.0,
            Distribution::Uniform,
        )
    }

    #[test]
    fn every_kind_produces_a_valid_profile() {
        let bd_cfg = MotifConfig::big_data_default();
        let ai_cfg = MotifConfig::ai_default();
        for kind in MotifKind::ALL {
            let (data, cfg) = if kind.is_ai() {
                (image_data(10_000), &ai_cfg)
            } else {
                (text_data(1), &bd_cfg)
            };
            let p = cost_profile(kind, &data, cfg);
            assert!(p.total_instructions() > 0, "{kind} has no instructions");
            assert!(
                !p.memory_segments.is_empty(),
                "{kind} has no memory segments"
            );
            let mix = p.instructions.mix();
            assert!(
                (mix.total() - 1.0).abs() < 1e-9,
                "{kind} mix not normalised"
            );
        }
    }

    #[test]
    fn sort_is_branchier_than_matrix_multiply() {
        let cfg = MotifConfig::big_data_default();
        let sort = cost_profile(MotifKind::QuickSort, &text_data(1), &cfg);
        let mm = cost_profile(MotifKind::MatrixMultiply, &vector_data(1, 0.0), &cfg);
        assert!(sort.instructions.mix().branch > mm.instructions.mix().branch);
        assert!(sort.branch.regularity < mm.branch.regularity);
    }

    #[test]
    fn convolution_is_fp_dominated_and_sort_is_not() {
        let conv = cost_profile(
            MotifKind::Convolution,
            &image_data(10_000),
            &MotifConfig::ai_default(),
        );
        let sort = cost_profile(
            MotifKind::QuickSort,
            &text_data(1),
            &MotifConfig::big_data_default(),
        );
        assert!(conv.instructions.mix().floating_point > 0.3);
        assert!(sort.instructions.mix().floating_point < 0.05);
    }

    #[test]
    fn sparse_distance_computation_spends_more_instructions_per_byte() {
        // Same data volume: the sparse representation packs fewer values per
        // element but pays index-decoding overhead for each of them, so it
        // executes more instructions per byte of input and is less
        // floating-point dominated — the mechanism behind the paper's
        // Fig. 7 bandwidth observation.
        let cfg = MotifConfig::big_data_default();
        let sparse = cost_profile(MotifKind::DistanceCalculation, &vector_data(1, 0.9), &cfg);
        let dense = cost_profile(MotifKind::DistanceCalculation, &vector_data(1, 0.0), &cfg);
        assert!(
            sparse.instructions.mix().floating_point < dense.instructions.mix().floating_point,
            "sparse fp {} dense fp {}",
            sparse.instructions.mix().floating_point,
            dense.instructions.mix().floating_point
        );
        assert!(sparse.branch.regularity < dense.branch.regularity);
    }

    #[test]
    fn spilling_motifs_have_disk_traffic_and_ai_motifs_little() {
        let sort = cost_profile(
            MotifKind::QuickSort,
            &text_data(1),
            &MotifConfig::big_data_default(),
        );
        assert_eq!(sort.disk_read_bytes, 1 << 30);
        assert_eq!(sort.disk_write_bytes, 1 << 30);
        let images = image_data(10_000);
        let conv = cost_profile(MotifKind::Convolution, &images, &MotifConfig::ai_default());
        assert_eq!(conv.disk_write_bytes, 0);
        assert!(conv.disk_read_bytes < images.total_bytes / 10);
    }

    #[test]
    fn graph_traversal_uses_pointer_chasing() {
        let g = DataDescriptor::new(
            DataClass::Graph,
            1 << 30,
            8,
            0.0,
            Distribution::PowerLaw { exponent: 1.0 },
        );
        let p = cost_profile(
            MotifKind::GraphTraversal,
            &g,
            &MotifConfig::big_data_default(),
        );
        assert!(p
            .memory_segments
            .iter()
            .any(|s| matches!(s.pattern, AccessPattern::PointerChase)));
    }

    #[test]
    fn more_data_means_proportionally_more_instructions() {
        let cfg = MotifConfig::big_data_default();
        let one = cost_profile(MotifKind::MergeSort, &text_data(1), &cfg);
        let four = cost_profile(MotifKind::MergeSort, &text_data(4), &cfg);
        let ratio = four.total_instructions() as f64 / one.total_instructions() as f64;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn bigger_batch_increases_ai_working_set() {
        let data = image_data(10_000);
        let small = cost_profile(
            MotifKind::Relu,
            &data,
            &MotifConfig::ai_default().with_batch_size(16),
        );
        let large = cost_profile(
            MotifKind::Relu,
            &data,
            &MotifConfig::ai_default().with_batch_size(256),
        );
        assert!(
            large.memory_segments[0].working_set_bytes > small.memory_segments[0].working_set_bytes
        );
    }

    #[test]
    fn disabling_spill_removes_disk_writes() {
        let cfg = MotifConfig::big_data_default();
        let no_spill = MotifConfig {
            spill_to_disk: false,
            ..cfg
        };
        let with_spill = cost_profile(MotifKind::QuickSort, &text_data(1), &cfg);
        let without = cost_profile(MotifKind::QuickSort, &text_data(1), &no_spill);
        assert!(with_spill.disk_write_bytes > 0);
        assert_eq!(without.disk_write_bytes, 0);
        assert!(without.disk_read_bytes < with_spill.disk_read_bytes);
    }
}
