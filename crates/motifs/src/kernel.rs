//! The [`MotifKernel`] trait and the registry of one kernel per
//! [`MotifKind`].
//!
//! A kernel is the uniform, object-safe face of one motif implementation.
//! It bundles the two things a proxy benchmark needs from a motif:
//!
//! * [`MotifKernel::cost_profile`] — the analytic cost model (delegating to
//!   [`crate::cost`]), used to *measure* the motif at the paper's data
//!   scale without materialising data; and
//! * [`MotifKernel::execute_granule`] — the real sample kernel over one
//!   **granule** (a fixed [`CHUNK_GRANULE`]-element window of the motif's
//!   logical input), used to *run* the motif on generated data.  Each
//!   granule body allocates its own scratch vectors and frees them
//!   before the next granule runs.
//!
//! # Granule execution model
//!
//! Every kernel's logical input is addressed on the granule grid defined
//! by `dmpb_datagen::chunks`: granule `g` of an `n`-element input covers
//! global elements `[g * CHUNK_GRANULE, (g + 1) * CHUNK_GRANULE).min(n)`
//! and is generated from the derived seed `granule_seed(seed, g)`.
//! [`MotifKernel::execute_granule`] maps one granule to a `u64` outcome,
//! and [`MotifKernel::execute`] loops over the granules from 0, folding
//! each outcome into an exact integer reduce state (counts, xor, wrapping
//! sum, min, max — no floating-point accumulation) that it finalizes
//! into the execution digest.
//!
//! Granule bodies are deliberately granule-local — fixed-size buffers,
//! index-arithmetic fills, no cross-granule state — which keeps peak RSS
//! constant in the input size and leaves the hot inner loops in a shape
//! the compiler can auto-vectorize.
//!
//! The [`MotifRegistry`] maps every [`MotifKind`] to its kernel object.
//! Registration happens in one exhaustive `match` (`kernel_for`): adding
//! a `MotifKind` variant without a kernel is a *compile* error, and the
//! registry's own tests additionally assert the mapping round-trips for
//! every variant.  Downstream crates dispatch through the registry instead
//! of maintaining their own `match motif { … }` blocks.
//!
//! Execution is deterministic: a kernel's digest depends only on `(n,
//! seed)`, never on what ran before it or on thread scheduling.

use std::sync::OnceLock;

use dmpb_datagen::chunks::{granule_seed, CHUNK_GRANULE};
use dmpb_datagen::image::{ImageGenerator, TensorLayout, TensorShape};
use dmpb_datagen::matrix::MatrixSpec;
use dmpb_datagen::text::{TextGenerator, KEY_LEN};
use dmpb_datagen::DataDescriptor;
use dmpb_perfmodel::profile::OpProfile;

use crate::ai::convolution::{conv2d, FilterBank};
use crate::ai::pooling::{average_pool2d, max_pool2d};
use crate::ai::{activation, fully_connected, normalization, reduce, regularization};
use crate::bigdata::{
    graph_ops, logic, matrix_ops, sampling, set_ops, sort, statistics, transform,
};
use crate::class::MotifKind;
use crate::config::MotifConfig;
use crate::cost;

// --- FNV-1a checksum folding (shared by all kernels) ---------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_keys(keys: &[[u8; KEY_LEN]]) -> u64 {
    let mut h = FNV_OFFSET;
    for key in keys {
        for &b in key {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

fn hash_u64s<I: IntoIterator<Item = u64>>(values: I) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_f64s<I: IntoIterator<Item = f64>>(values: I) -> u64 {
    let mut h = FNV_OFFSET;
    for v in values {
        h ^= v.to_bits();
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// --- Granule execution context and the granule reduce --------------------

/// The execution context of one granule of a motif's logical input.
///
/// A granule is the fixed [`CHUNK_GRANULE`]-element window
/// `[start, end)` of an `total`-element input (only the input's last
/// granule may be partial).  Granule bodies address their data through
/// **global** element indices (`start + i`) and the granule-derived
/// [`seed`](GranuleCtx::seed), so a granule's outcome depends only on its
/// position in the input.
#[derive(Debug, Clone, Copy)]
pub struct GranuleCtx {
    /// Global index of the granule's first element.
    pub start: usize,
    /// Global index one past the granule's last element.
    pub end: usize,
    /// Total number of elements in the motif's logical input.
    pub total: usize,
    /// The input data set's seed (shared by every granule of the input).
    pub dataset_seed: u64,
    /// This granule's derived seed: `granule_seed(dataset_seed, index)`.
    pub seed: u64,
}

impl GranuleCtx {
    /// Number of elements in the granule.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }
}

/// The reduce state of one kernel execution.
///
/// A `ChunkState` summarises the granule outcomes with exact integer
/// folds: granule/element counts, a position-salted xor, a wrapping sum
/// and min/max of the outcomes.  No floating-point accumulation crosses
/// granules, and [`finalize`](ChunkState::finalize) hashes the folds into
/// the execution digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkState {
    /// Number of granules folded in.
    granules: u64,
    /// Number of input elements folded in.
    elements: u64,
    /// Xor of granule outcomes, each rotated by its granule index.
    xor: u64,
    /// Wrapping sum of granule outcomes.
    sum: u64,
    /// Minimum granule outcome (`u64::MAX` for the identity).
    min: u64,
    /// Maximum granule outcome (0 for the identity).
    max: u64,
}

impl ChunkState {
    /// The empty state, before any granule is folded in.
    pub(crate) const IDENTITY: ChunkState = ChunkState {
        granules: 0,
        elements: 0,
        xor: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    /// Folds one granule's outcome into the state.
    pub(crate) fn absorb(&mut self, granule_index: u64, elements: usize, outcome: u64) {
        self.granules += 1;
        self.elements += elements as u64;
        // Salt the xor with the granule's position so equal outcomes at
        // different positions do not cancel.
        self.xor ^= outcome.rotate_left((granule_index % 64) as u32);
        self.sum = self.sum.wrapping_add(outcome);
        self.min = self.min.min(outcome);
        self.max = self.max.max(outcome);
    }

    /// Folds the state into the motif's execution digest.
    pub(crate) fn finalize(&self, kind: MotifKind) -> u64 {
        hash_u64s([
            kind as u64,
            self.granules,
            self.elements,
            self.xor,
            self.sum,
            self.min,
            self.max,
        ])
    }
}

/// One data-motif implementation behind a uniform cost/execution interface.
///
/// Implementations are stateless singletons owned by the [`MotifRegistry`];
/// all per-invocation state lives in the arguments and the granule
/// body's own scratch, which is what makes concurrent cells sharing one
/// executor safe.
pub trait MotifKernel: Send + Sync + std::fmt::Debug {
    /// Which motif implementation this kernel realises.
    fn kind(&self) -> MotifKind;

    /// The analytic operation profile of running this motif over `data`
    /// with configuration `config` (the "measure without materialising"
    /// face; see `crate::cost`).
    fn cost_profile(&self, data: &DataDescriptor, config: &MotifConfig) -> OpProfile {
        cost::cost_profile(self.kind(), data, config)
    }

    /// Executes the sample kernel over one granule of generated input and
    /// returns the granule's outcome.  Deterministic in the context alone
    /// (global element range, total size and seeds) — never in execution
    /// history or scheduling.
    fn execute_granule(&self, g: &GranuleCtx) -> u64;

    /// Really executes the scaled-down sample kernel over `n` generated
    /// elements seeded with `seed`, one granule at a time from granule 0,
    /// and returns the execution digest.
    fn execute(&self, n: usize, seed: u64) -> u64 {
        let mut state = ChunkState::IDENTITY;
        for start in (0..n).step_by(CHUNK_GRANULE) {
            let index = (start / CHUNK_GRANULE) as u64;
            let g = GranuleCtx {
                start,
                end: (start + CHUNK_GRANULE).min(n),
                total: n,
                dataset_seed: seed,
                seed: granule_seed(seed, index),
            };
            let outcome = self.execute_granule(&g);
            state.absorb(index, g.len(), outcome);
        }
        state.finalize(self.kind())
    }
}

/// Declares a private unit struct implementing [`MotifKernel`] for one
/// [`MotifKind`], with the `execute_granule` body written inline.
macro_rules! kernel {
    ($struct:ident, $kind:ident, |$g:ident| $body:expr) => {
        #[derive(Debug)]
        struct $struct;

        impl MotifKernel for $struct {
            fn kind(&self) -> MotifKind {
                MotifKind::$kind
            }

            fn execute_granule(&self, $g: &GranuleCtx) -> u64 {
                $body
            }
        }
    };
}

// --- Big-data kernels ----------------------------------------------------

kernel!(QuickSortKernel, QuickSort, |g| {
    let mut keys = TextGenerator::new(g.dataset_seed)
        .generate_range(g.start, g.end)
        .keys();
    sort::quick_sort(&mut keys);
    hash_keys(&keys)
});

kernel!(MergeSortKernel, MergeSort, |g| {
    let keys = TextGenerator::new(g.dataset_seed)
        .generate_range(g.start, g.end)
        .keys();
    hash_keys(&sort::merge_sort(&keys))
});

kernel!(RandomSamplingKernel, RandomSampling, |g| {
    let start = g.start as u64;
    hash_u64s(
        sampling::random_sample_indices(g.len(), 0.1, g.seed)
            .into_iter()
            .map(|i| start + i as u64),
    )
});

kernel!(IntervalSamplingKernel, IntervalSampling, |g| {
    // First local index whose *global* index is a multiple of 10, so the
    // union over granules is exactly the global 1-in-10 progression.
    let offset = (10 - g.start % 10) % 10;
    let start = g.start as u64;
    hash_u64s(
        sampling::interval_sample_indices(g.len(), 10, offset)
            .into_iter()
            .map(|i| start + i as u64),
    )
});

fn set_inputs(g: &GranuleCtx) -> (Vec<u64>, Vec<u64>) {
    let total = (g.total as u64).max(1);
    let a: Vec<u64> = (g.start as u64..g.end as u64)
        .map(|i| i * 3 % total)
        .collect();
    let b: Vec<u64> = (g.start as u64..g.end as u64)
        .map(|i| i * 7 % total)
        .collect();
    (set_ops::normalize(&a), set_ops::normalize(&b))
}

kernel!(SetUnionKernel, SetUnion, |g| {
    let (a, b) = set_inputs(g);
    hash_u64s(set_ops::union(&a, &b))
});

kernel!(SetIntersectionKernel, SetIntersection, |g| {
    let (a, b) = set_inputs(g);
    hash_u64s(set_ops::intersection(&a, &b))
});

kernel!(SetDifferenceKernel, SetDifference, |g| {
    let (a, b) = set_inputs(g);
    hash_u64s(set_ops::difference(&a, &b))
});

fn granule_graph(g: &GranuleCtx) -> dmpb_datagen::graph::CsrGraph {
    let vertices = g.len().max(8);
    let salt = g.start;
    let edges: Vec<(u32, u32)> = (0..vertices * 4)
        .map(|i| {
            (
                (i % vertices) as u32,
                ((i * 31 + 7 + salt) % vertices) as u32,
            )
        })
        .collect();
    graph_ops::construct(vertices, &edges)
}

kernel!(GraphConstructKernel, GraphConstruct, |g| {
    let graph = granule_graph(g);
    hash_u64s([graph.num_edges() as u64, graph.max_out_degree() as u64])
});

kernel!(GraphTraversalKernel, GraphTraversal, |g| {
    graph_ops::traversal_reach(&granule_graph(g), 0) as u64
});

fn statistics_values(g: &GranuleCtx) -> Vec<f64> {
    (g.start..g.end).map(|i| (i as f64 * 0.37).sin()).collect()
}

kernel!(CountStatisticsKernel, CountStatistics, |g| {
    hash_f64s([statistics::count_average(&statistics_values(g)).1])
});

kernel!(MinMaxKernel, MinMax, |g| {
    let values = statistics_values(g);
    let (min, max) = statistics::min_max(&values).unwrap_or((0.0, 0.0));
    hash_f64s([min, max])
});

kernel!(ProbabilityStatisticsKernel, ProbabilityStatistics, |g| {
    let keys: Vec<u32> = (g.start..g.end).map(|i| (i % 17) as u32).collect();
    statistics::probabilities(&keys).len() as u64
});

kernel!(Md5HashKernel, Md5Hash, |g| {
    let data = TextGenerator::new(g.dataset_seed).generate_range(g.start, g.end);
    hash_bytes(&logic::md5(data.as_bytes()))
});

kernel!(EncryptionKernel, Encryption, |g| {
    let data = TextGenerator::new(g.dataset_seed).generate_range(g.start, g.end);
    hash_bytes(&logic::xor_encrypt(data.as_bytes(), g.seed | 1))
});

fn fft_signal(g: &GranuleCtx) -> Vec<f64> {
    let len = g.len().next_power_of_two().clamp(64, 4096);
    (g.start..g.start + len)
        .map(|i| (i as f64 * 0.11).cos())
        .collect()
}

kernel!(FftKernel, Fft, |g| {
    let spectrum = transform::fft_real(&fft_signal(g));
    hash_f64s(spectrum.into_iter().map(|(re, _)| re))
});

kernel!(IfftKernel, Ifft, |g| {
    let spectrum = transform::fft_real(&fft_signal(g));
    hash_f64s(transform::ifft_real(&spectrum))
});

kernel!(DctKernel, Dct, |g| {
    // dct2 is O(len^2); capping the transform keeps the kernel linear in
    // the granule count at a fixed per-granule cost.
    let samples: Vec<f64> = (g.start..g.start + g.len().min(256))
        .map(|i| (i as f64 * 0.21).sin())
        .collect();
    hash_f64s(transform::dct2(&samples))
});

kernel!(DistanceCalculationKernel, DistanceCalculation, |g| {
    let a: Vec<f64> = (g.start..g.end).map(|i| (i as f64 * 0.3).sin()).collect();
    let b: Vec<f64> = (g.start..g.end).map(|i| (i as f64 * 0.7).cos()).collect();
    hash_f64s([
        matrix_ops::euclidean_distance(&a, &b),
        matrix_ops::cosine_distance(&a, &b),
    ])
});

kernel!(MatrixMultiplyKernel, MatrixMultiply, |g| {
    let size = (g.len() as f64).sqrt().ceil().clamp(4.0, 64.0) as usize;
    let a = MatrixSpec::dense(size, size, g.seed).generate_dense();
    let b = MatrixSpec::dense(size, size, g.seed ^ 1).generate_dense();
    hash_f64s([matrix_ops::matrix_multiply(&a, &b).frobenius_norm()])
});

// --- AI kernels ----------------------------------------------------------

fn granule_tensor(g: &GranuleCtx) -> dmpb_datagen::image::ImageTensor {
    ImageGenerator::new(g.seed).generate(TensorShape::new(1, 3, 16, 16), TensorLayout::Nchw)
}

kernel!(ConvolutionKernel, Convolution, |g| {
    let filters = FilterBank::constant(4, 3, 3, 0.1);
    hash_f64s(
        conv2d(&granule_tensor(g), &filters, 1)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(MaxPoolingKernel, MaxPooling, |g| {
    hash_f64s(
        max_pool2d(&granule_tensor(g), 2, 2)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(AveragePoolingKernel, AveragePooling, |g| {
    hash_f64s(
        average_pool2d(&granule_tensor(g), 2, 2)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(FullyConnectedKernel, FullyConnected, |g| {
    let batch = (g.len() / 64).max(1);
    let input: Vec<f32> = (g.start..g.start + batch * 64)
        .map(|i| i as f32 * 0.01)
        .collect();
    let weights: Vec<f32> = (0..64 * 8).map(|i| (i % 7) as f32 * 0.1).collect();
    let out = fully_connected::fully_connected(&input, &weights, &[0.0; 8], batch, 64, 8);
    hash_f64s(out.into_iter().map(f64::from))
});

kernel!(ElementWiseMultiplyKernel, ElementWiseMultiply, |g| {
    let a: Vec<f32> = (g.start..g.end).map(|i| i as f32 * 0.5).collect();
    hash_f64s(
        fully_connected::element_wise_multiply(&a, &a)
            .into_iter()
            .map(f64::from),
    )
});

fn activation_input(g: &GranuleCtx) -> Vec<f32> {
    (g.start..g.end)
        .map(|i| (i as f32 - 512.0) * 0.01)
        .collect()
}

kernel!(SigmoidKernel, Sigmoid, |g| {
    let x = activation_input(g);
    hash_f64s(activation::sigmoid(&x).into_iter().map(f64::from))
});

kernel!(TanhKernel, Tanh, |g| {
    let x = activation_input(g);
    hash_f64s(activation::tanh(&x).into_iter().map(f64::from))
});

kernel!(ReluKernel, Relu, |g| {
    let x = activation_input(g);
    hash_f64s(activation::relu(&x).into_iter().map(f64::from))
});

kernel!(SoftmaxKernel, Softmax, |g| {
    let x = activation_input(g);
    hash_f64s(
        activation::softmax(&x, x.len().max(1))
            .into_iter()
            .map(f64::from),
    )
});

kernel!(DropoutKernel, Dropout, |g| {
    let x = vec![1.0f32; g.len()];
    hash_f64s(
        regularization::dropout(&x, 0.5, g.seed)
            .into_iter()
            .map(f64::from),
    )
});

fn normalization_input(g: &GranuleCtx) -> Vec<f32> {
    (g.start..g.end).map(|i| i as f32 * 0.3).collect()
}

kernel!(BatchNormalizationKernel, BatchNormalization, |g| {
    let x = normalization_input(g);
    hash_f64s(
        normalization::cosine_normalize(&x)
            .into_iter()
            .map(f64::from),
    )
});

kernel!(CosineNormalizationKernel, CosineNormalization, |g| {
    let x = normalization_input(g);
    hash_f64s(
        normalization::cosine_normalize(&x)
            .into_iter()
            .map(f64::from),
    )
});

fn reduce_input(g: &GranuleCtx) -> Vec<f32> {
    (g.start..g.end).map(|i| i as f32).collect()
}

kernel!(ReduceSumKernel, ReduceSum, |g| {
    hash_f64s([f64::from(reduce::reduce_sum(&reduce_input(g)))])
});

kernel!(ReduceMaxKernel, ReduceMax, |g| {
    hash_f64s([f64::from(
        reduce::reduce_max(&reduce_input(g)).unwrap_or(0.0),
    )])
});

/// Constructs the kernel object for one motif kind.
///
/// This match is the **single** kind→kernel dispatch point of the whole
/// workspace, and it is deliberately written without a wildcard arm:
/// adding a [`MotifKind`] variant without registering a kernel fails to
/// compile here, long before any runtime lookup could miss.
fn kernel_for(kind: MotifKind) -> &'static dyn MotifKernel {
    use MotifKind::*;
    match kind {
        DistanceCalculation => &DistanceCalculationKernel,
        MatrixMultiply => &MatrixMultiplyKernel,
        RandomSampling => &RandomSamplingKernel,
        IntervalSampling => &IntervalSamplingKernel,
        SetUnion => &SetUnionKernel,
        SetIntersection => &SetIntersectionKernel,
        SetDifference => &SetDifferenceKernel,
        GraphConstruct => &GraphConstructKernel,
        GraphTraversal => &GraphTraversalKernel,
        QuickSort => &QuickSortKernel,
        MergeSort => &MergeSortKernel,
        CountStatistics => &CountStatisticsKernel,
        ProbabilityStatistics => &ProbabilityStatisticsKernel,
        MinMax => &MinMaxKernel,
        Md5Hash => &Md5HashKernel,
        Encryption => &EncryptionKernel,
        Fft => &FftKernel,
        Ifft => &IfftKernel,
        Dct => &DctKernel,
        FullyConnected => &FullyConnectedKernel,
        ElementWiseMultiply => &ElementWiseMultiplyKernel,
        Sigmoid => &SigmoidKernel,
        Tanh => &TanhKernel,
        Softmax => &SoftmaxKernel,
        MaxPooling => &MaxPoolingKernel,
        AveragePooling => &AveragePoolingKernel,
        Convolution => &ConvolutionKernel,
        Dropout => &DropoutKernel,
        BatchNormalization => &BatchNormalizationKernel,
        CosineNormalization => &CosineNormalizationKernel,
        ReduceSum => &ReduceSumKernel,
        ReduceMax => &ReduceMaxKernel,
        Relu => &ReluKernel,
    }
}

/// The registry mapping every [`MotifKind`] to its [`MotifKernel`].
///
/// Lookup is an array index (`kind as usize` follows declaration order,
/// which [`MotifKind::ALL`] mirrors), so dispatch through the registry is
/// as cheap as the `match` blocks it replaces.
#[derive(Debug)]
pub struct MotifRegistry {
    kernels: Vec<&'static dyn MotifKernel>,
}

impl MotifRegistry {
    /// Builds a registry covering every motif kind.
    fn new() -> Self {
        let kernels: Vec<&'static dyn MotifKernel> =
            MotifKind::ALL.iter().map(|&k| kernel_for(k)).collect();
        for (i, kernel) in kernels.iter().enumerate() {
            debug_assert_eq!(
                kernel.kind() as usize,
                i,
                "MotifKind::ALL must follow declaration order"
            );
        }
        Self { kernels }
    }

    /// The process-wide shared registry.
    pub fn global() -> &'static MotifRegistry {
        static REGISTRY: OnceLock<MotifRegistry> = OnceLock::new();
        REGISTRY.get_or_init(MotifRegistry::new)
    }

    /// The kernel registered for `kind`.
    pub fn kernel(&self, kind: MotifKind) -> &'static dyn MotifKernel {
        self.kernels[kind as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmpb_datagen::descriptor::{DataClass, Distribution};

    /// The satellite exhaustiveness gate: every `MotifKind` variant must
    /// resolve to a kernel whose `kind()` round-trips.  (The `match` in
    /// [`kernel_for`] already makes a *missing* registration a compile
    /// error; this test additionally catches a mis-wired one.)
    #[test]
    fn registry_covers_every_motif_kind() {
        let registry = MotifRegistry::global();
        assert_eq!(registry.kernels.len(), MotifKind::ALL.len());
        for kind in MotifKind::ALL {
            assert_eq!(
                registry.kernel(kind).kind(),
                kind,
                "registry entry for {kind} resolves to the wrong kernel"
            );
        }
    }

    #[test]
    fn every_kernel_executes_deterministically() {
        let registry = MotifRegistry::global();
        for kind in MotifKind::ALL {
            let kernel = registry.kernel(kind);
            let a = kernel.execute(128, 3);
            let b = kernel.execute(128, 3);
            assert_eq!(a, b, "{} is not deterministic", kernel.kind());
        }
    }

    #[test]
    fn checksums_do_not_depend_on_execution_history() {
        let registry = MotifRegistry::global();
        for kind in MotifKind::ALL {
            let fresh = registry.kernel(kind).execute(200, 9);
            // Dirty the allocator with every other kernel first.
            for other in MotifKind::ALL {
                registry.kernel(other).execute(64, 1);
            }
            let dirtied = registry.kernel(kind).execute(200, 9);
            assert_eq!(fresh, dirtied, "{kind} checksum depends on what ran before");
        }
    }

    #[test]
    fn kernel_cost_profile_matches_the_analytic_model() {
        let data = DataDescriptor::new(DataClass::Text, 1 << 30, 100, 0.0, Distribution::Uniform);
        let config = MotifConfig::big_data_default();
        let via_kernel = MotifRegistry::global()
            .kernel(MotifKind::QuickSort)
            .cost_profile(&data, &config);
        let via_model = cost::cost_profile(MotifKind::QuickSort, &data, &config);
        assert_eq!(
            via_kernel.total_instructions(),
            via_model.total_instructions()
        );
    }
}
