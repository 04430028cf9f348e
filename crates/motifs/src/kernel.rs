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
//!   logical input), used to *run* the motif on generated data.  Scratch
//!   storage is leased from a shared, sharded [`BufferPool`] (a pool
//!   worker leases through its own shard with best-fit reuse; see
//!   [`crate::pool`]), so a DAG full of kernels recycles allocations
//!   instead of re-allocating per granule — without contending on a
//!   global free-list lock when concurrent cells share an executor.
//!
//! # Streaming execution model
//!
//! Every kernel's logical input is addressed on the granule grid defined
//! by `dmpb_datagen::chunks`: granule `g` of an `n`-element input covers
//! global elements `[g * CHUNK_GRANULE, (g + 1) * CHUNK_GRANULE).min(n)`
//! and is generated from the derived seed `granule_seed(seed, g)`.
//! [`MotifKernel::execute_granule`] maps one granule to a `u64` outcome;
//! [`MotifKernel::execute_chunk`] folds a granule-aligned chunk of
//! outcomes into a [`ChunkState`]; and [`ChunkState`] is an exactly
//! associative, commutative monoid (counts, xor, wrapping sum, min,
//! max over granule outcomes — no floating-point accumulation), so chunk
//! states merged in **any** grouping and order finalize to the same
//! digest.  Monolithic execution ([`MotifKernel::execute`]) is just the
//! single-chunk case, which is what makes chunked streaming execution
//! digest-identical to monolithic execution *by construction*, for every
//! chunk size and worker count.
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
//! seed)`, never on pool state, chunking or thread scheduling (leased
//! buffers are zero-filled; see [`crate::pool`]).

use std::sync::OnceLock;

use dmpb_datagen::chunks::{granule_seed, CHUNK_GRANULE};
use dmpb_datagen::image::{ImageGenerator, TensorLayout, TensorShape};
use dmpb_datagen::matrix::MatrixSpec;
use dmpb_datagen::text::{TextGenerator, KEY_LEN};
use dmpb_datagen::DataDescriptor;
use dmpb_perfmodel::profile::OpProfile;

use crate::ai::convolution::{conv2d, FilterBank, Padding};
use crate::ai::pooling::{average_pool2d, max_pool2d};
use crate::ai::{activation, fully_connected, normalization, reduce, regularization};
use crate::bigdata::{
    graph_ops, logic, matrix_ops, sampling, set_ops, sort, statistics, transform,
};
use crate::class::MotifKind;
use crate::config::MotifConfig;
use crate::cost;
use crate::pool::BufferPool;

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

// --- Granule execution context and the chunk-reduce monoid ---------------

/// The execution context of one granule of a motif's logical input.
///
/// A granule is the fixed [`CHUNK_GRANULE`]-element window
/// `[start, end)` of an `total`-element input (only the input's last
/// granule may be partial).  Granule bodies address their data through
/// **global** element indices (`start + i`) and the granule-derived
/// [`seed`](GranuleCtx::seed), which is what makes a granule's outcome
/// independent of how the input was chunked.
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
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the granule is empty (never, for granules the default
    /// [`MotifKernel::execute_chunk`] constructs).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The granule's index on the input's granule grid.
    pub fn index(&self) -> u64 {
        (self.start / CHUNK_GRANULE) as u64
    }
}

/// The associative reduce state of chunked motif execution.
///
/// A `ChunkState` summarises any set of granule outcomes with exactly
/// associative, commutative integer folds: granule/element counts, a
/// position-salted xor, a wrapping sum and min/max of the outcomes.  No
/// floating-point accumulation crosses granules (float addition is not
/// bit-associative), so [`merge`](ChunkState::merge)-ing chunk states in
/// any grouping and order — one chunk per granule, one chunk for the
/// whole input, or anything between, reduced on any number of workers —
/// [`finalize`](ChunkState::finalize)s to the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkState {
    /// Number of granules folded in.
    pub granules: u64,
    /// Number of input elements folded in.
    pub elements: u64,
    /// Xor of granule outcomes, each rotated by its granule index.
    pub xor: u64,
    /// Wrapping sum of granule outcomes.
    pub sum: u64,
    /// Minimum granule outcome (`u64::MAX` for the identity).
    pub min: u64,
    /// Maximum granule outcome (0 for the identity).
    pub max: u64,
}

impl ChunkState {
    /// The monoid identity: merging it into any state is a no-op.
    pub const IDENTITY: ChunkState = ChunkState {
        granules: 0,
        elements: 0,
        xor: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    /// Folds one granule's outcome into the state.
    pub fn absorb(&mut self, granule_index: u64, elements: usize, outcome: u64) {
        self.granules += 1;
        self.elements += elements as u64;
        // Salt the xor with the granule's position so equal outcomes at
        // different positions do not cancel.
        self.xor ^= outcome.rotate_left((granule_index % 64) as u32);
        self.sum = self.sum.wrapping_add(outcome);
        self.min = self.min.min(outcome);
        self.max = self.max.max(outcome);
    }

    /// Merges another chunk's state into this one (associative and
    /// commutative).
    pub fn merge(&mut self, other: &ChunkState) {
        self.granules += other.granules;
        self.elements += other.elements;
        self.xor ^= other.xor;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Folds the state into the motif's execution digest.
    pub fn finalize(&self, kind: MotifKind) -> u64 {
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
/// all per-invocation state lives in the arguments (and the leased pool
/// buffers), which is what makes concurrent execution of independent DAG
/// branches — and of independent chunks of one edge — safe.
pub trait MotifKernel: Send + Sync + std::fmt::Debug {
    /// Which motif implementation this kernel realises.
    fn kind(&self) -> MotifKind;

    /// The analytic operation profile of running this motif over `data`
    /// with configuration `config` (the "measure without materialising"
    /// face; see [`crate::cost`]).
    fn cost_profile(&self, data: &DataDescriptor, config: &MotifConfig) -> OpProfile {
        cost::cost_profile(self.kind(), data, config)
    }

    /// Executes the sample kernel over one granule of generated input and
    /// returns the granule's outcome.  Deterministic in the context alone
    /// (global element range, total size and seeds) — never in pool state
    /// or scheduling.
    fn execute_granule(&self, g: &GranuleCtx, pool: &BufferPool) -> u64;

    /// Executes the granule-aligned chunk `[start, end)` of an
    /// `total`-element input seeded with `seed`, folding every granule's
    /// outcome into a [`ChunkState`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is not granule-aligned, or if `end` is neither
    /// granule-aligned nor the end of the input.
    fn execute_chunk(
        &self,
        start: usize,
        end: usize,
        total: usize,
        seed: u64,
        pool: &BufferPool,
    ) -> ChunkState {
        assert!(
            start <= end && end <= total,
            "invalid chunk {start}..{end} of {total}"
        );
        assert!(
            start % CHUNK_GRANULE == 0,
            "chunk start {start} splits a granule"
        );
        assert!(
            end % CHUNK_GRANULE == 0 || end == total,
            "chunk end {end} splits a granule"
        );
        let mut state = ChunkState::IDENTITY;
        let mut cursor = start;
        while cursor < end {
            let index = (cursor / CHUNK_GRANULE) as u64;
            let g = GranuleCtx {
                start: cursor,
                end: (cursor + CHUNK_GRANULE).min(end),
                total,
                dataset_seed: seed,
                seed: granule_seed(seed, index),
            };
            let outcome = self.execute_granule(&g, pool);
            state.absorb(index, g.len(), outcome);
            cursor = g.end;
        }
        state
    }

    /// Really executes the scaled-down sample kernel over `n` generated
    /// elements, leasing scratch storage from `pool`, and returns the
    /// execution digest.  Defined as the single-chunk case of
    /// [`execute_chunk`](Self::execute_chunk), so it is digest-identical
    /// to any chunked execution of the same `(n, seed)` by construction.
    fn execute(&self, n: usize, seed: u64, pool: &BufferPool) -> u64 {
        self.execute_chunk(0, n, n, seed, pool)
            .finalize(self.kind())
    }
}

/// Declares a private unit struct implementing [`MotifKernel`] for one
/// [`MotifKind`], with the `execute_granule` body written inline.
macro_rules! kernel {
    ($struct:ident, $kind:ident, |$g:ident, $pool:ident| $body:expr) => {
        #[derive(Debug)]
        struct $struct;

        impl MotifKernel for $struct {
            fn kind(&self) -> MotifKind {
                MotifKind::$kind
            }

            #[allow(unused_variables)]
            fn execute_granule(&self, $g: &GranuleCtx, $pool: &BufferPool) -> u64 {
                $body
            }
        }
    };
}

// --- Big-data kernels ----------------------------------------------------

kernel!(QuickSortKernel, QuickSort, |g, pool| {
    let mut keys = TextGenerator::new(g.dataset_seed)
        .generate_range(g.start, g.end)
        .keys();
    sort::quick_sort(&mut keys);
    hash_keys(&keys)
});

kernel!(MergeSortKernel, MergeSort, |g, pool| {
    let keys = TextGenerator::new(g.dataset_seed)
        .generate_range(g.start, g.end)
        .keys();
    hash_keys(&sort::merge_sort(&keys))
});

kernel!(RandomSamplingKernel, RandomSampling, |g, pool| {
    let start = g.start as u64;
    hash_u64s(
        sampling::random_sample_indices(g.len(), 0.1, g.seed)
            .into_iter()
            .map(|i| start + i as u64),
    )
});

kernel!(IntervalSamplingKernel, IntervalSampling, |g, pool| {
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

kernel!(SetUnionKernel, SetUnion, |g, pool| {
    let (a, b) = set_inputs(g);
    hash_u64s(set_ops::union(&a, &b))
});

kernel!(SetIntersectionKernel, SetIntersection, |g, pool| {
    let (a, b) = set_inputs(g);
    hash_u64s(set_ops::intersection(&a, &b))
});

kernel!(SetDifferenceKernel, SetDifference, |g, pool| {
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

kernel!(GraphConstructKernel, GraphConstruct, |g, pool| {
    let graph = granule_graph(g);
    hash_u64s([graph.num_edges() as u64, graph.max_out_degree() as u64])
});

kernel!(GraphTraversalKernel, GraphTraversal, |g, pool| {
    graph_ops::traversal_reach(&granule_graph(g), 0) as u64
});

fn statistics_values<'p>(pool: &'p BufferPool, g: &GranuleCtx) -> crate::pool::Lease<'p, f64> {
    let mut values = pool.f64s(g.len());
    for (i, v) in values.iter_mut().enumerate() {
        *v = ((g.start + i) as f64 * 0.37).sin();
    }
    values
}

kernel!(CountStatisticsKernel, CountStatistics, |g, pool| {
    hash_f64s([statistics::count_average(&statistics_values(pool, g)).1])
});

kernel!(MinMaxKernel, MinMax, |g, pool| {
    let values = statistics_values(pool, g);
    let (min, max) = statistics::min_max(&values).unwrap_or((0.0, 0.0));
    hash_f64s([min, max])
});

kernel!(
    ProbabilityStatisticsKernel,
    ProbabilityStatistics,
    |g, pool| {
        let keys: Vec<u32> = (g.start..g.end).map(|i| (i % 17) as u32).collect();
        statistics::probabilities(&keys).len() as u64
    }
);

kernel!(Md5HashKernel, Md5Hash, |g, pool| {
    let data = TextGenerator::new(g.dataset_seed).generate_range(g.start, g.end);
    hash_bytes(&logic::md5(data.as_bytes()))
});

kernel!(EncryptionKernel, Encryption, |g, pool| {
    let data = TextGenerator::new(g.dataset_seed).generate_range(g.start, g.end);
    hash_bytes(&logic::xor_encrypt(data.as_bytes(), g.seed | 1))
});

fn fft_signal<'p>(pool: &'p BufferPool, g: &GranuleCtx) -> crate::pool::Lease<'p, f64> {
    let len = g.len().next_power_of_two().clamp(64, 4096);
    let mut signal = pool.f64s(len);
    for (i, v) in signal.iter_mut().enumerate() {
        *v = ((g.start + i) as f64 * 0.11).cos();
    }
    signal
}

kernel!(FftKernel, Fft, |g, pool| {
    let spectrum = transform::fft_real(&fft_signal(pool, g));
    hash_f64s(spectrum.into_iter().map(|(re, _)| re))
});

kernel!(IfftKernel, Ifft, |g, pool| {
    let spectrum = transform::fft_real(&fft_signal(pool, g));
    hash_f64s(transform::ifft_real(&spectrum))
});

kernel!(DctKernel, Dct, |g, pool| {
    // dct2 is O(len^2); capping the transform keeps the kernel linear in
    // the granule count at a fixed per-granule cost.
    let mut samples = pool.f64s(g.len().min(256));
    for (i, v) in samples.iter_mut().enumerate() {
        *v = ((g.start + i) as f64 * 0.21).sin();
    }
    hash_f64s(transform::dct2(&samples))
});

kernel!(DistanceCalculationKernel, DistanceCalculation, |g, pool| {
    let dim = g.len();
    let mut a = pool.f64s(dim);
    let mut b = pool.f64s(dim);
    for i in 0..dim {
        a[i] = ((g.start + i) as f64 * 0.3).sin();
        b[i] = ((g.start + i) as f64 * 0.7).cos();
    }
    hash_f64s([
        matrix_ops::euclidean_distance(&a, &b),
        matrix_ops::cosine_distance(&a, &b),
    ])
});

kernel!(MatrixMultiplyKernel, MatrixMultiply, |g, pool| {
    let size = (g.len() as f64).sqrt().ceil().clamp(4.0, 64.0) as usize;
    let a = MatrixSpec::dense(size, size, g.seed).generate_dense();
    let b = MatrixSpec::dense(size, size, g.seed ^ 1).generate_dense();
    hash_f64s([matrix_ops::matrix_multiply(&a, &b).frobenius_norm()])
});

// --- AI kernels ----------------------------------------------------------

fn granule_tensor(g: &GranuleCtx) -> dmpb_datagen::image::ImageTensor {
    ImageGenerator::new(g.seed).generate(TensorShape::new(1, 3, 16, 16), TensorLayout::Nchw)
}

kernel!(ConvolutionKernel, Convolution, |g, pool| {
    let filters = FilterBank::constant(4, 3, 3, 0.1);
    hash_f64s(
        conv2d(&granule_tensor(g), &filters, 1, Padding::Same)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(MaxPoolingKernel, MaxPooling, |g, pool| {
    hash_f64s(
        max_pool2d(&granule_tensor(g), 2, 2)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(AveragePoolingKernel, AveragePooling, |g, pool| {
    hash_f64s(
        average_pool2d(&granule_tensor(g), 2, 2)
            .as_slice()
            .iter()
            .map(|&v| f64::from(v)),
    )
});

kernel!(FullyConnectedKernel, FullyConnected, |g, pool| {
    let batch = (g.len() / 64).max(1);
    let mut input = pool.f32s(batch * 64);
    for (i, v) in input.iter_mut().enumerate() {
        *v = (g.start + i) as f32 * 0.01;
    }
    let mut weights = pool.f32s(64 * 8);
    for (i, v) in weights.iter_mut().enumerate() {
        *v = (i % 7) as f32 * 0.1;
    }
    let out = fully_connected::fully_connected(&input, &weights, &[0.0; 8], batch, 64, 8);
    hash_f64s(out.into_iter().map(f64::from))
});

kernel!(ElementWiseMultiplyKernel, ElementWiseMultiply, |g, pool| {
    let mut a = pool.f32s(g.len());
    for (i, v) in a.iter_mut().enumerate() {
        *v = (g.start + i) as f32 * 0.5;
    }
    hash_f64s(
        fully_connected::element_wise_multiply(&a, &a)
            .into_iter()
            .map(f64::from),
    )
});

fn activation_input<'p>(pool: &'p BufferPool, g: &GranuleCtx) -> crate::pool::Lease<'p, f32> {
    let mut x = pool.f32s(g.len());
    for (i, v) in x.iter_mut().enumerate() {
        *v = ((g.start + i) as f32 - 512.0) * 0.01;
    }
    x
}

kernel!(SigmoidKernel, Sigmoid, |g, pool| {
    let x = activation_input(pool, g);
    hash_f64s(activation::sigmoid(&x).into_iter().map(f64::from))
});

kernel!(TanhKernel, Tanh, |g, pool| {
    let x = activation_input(pool, g);
    hash_f64s(activation::tanh(&x).into_iter().map(f64::from))
});

kernel!(ReluKernel, Relu, |g, pool| {
    let x = activation_input(pool, g);
    hash_f64s(activation::relu(&x).into_iter().map(f64::from))
});

kernel!(SoftmaxKernel, Softmax, |g, pool| {
    let x = activation_input(pool, g);
    hash_f64s(
        activation::softmax(&x, x.len().max(1))
            .into_iter()
            .map(f64::from),
    )
});

kernel!(DropoutKernel, Dropout, |g, pool| {
    let mut x = pool.f32s(g.len());
    x.fill(1.0);
    hash_f64s(
        regularization::dropout(&x, 0.5, g.seed)
            .into_iter()
            .map(f64::from),
    )
});

fn normalization_input<'p>(pool: &'p BufferPool, g: &GranuleCtx) -> crate::pool::Lease<'p, f32> {
    let mut x = pool.f32s(g.len());
    for (i, v) in x.iter_mut().enumerate() {
        *v = (g.start + i) as f32 * 0.3;
    }
    x
}

kernel!(BatchNormalizationKernel, BatchNormalization, |g, pool| {
    let x = normalization_input(pool, g);
    hash_f64s(
        normalization::cosine_normalize(&x)
            .into_iter()
            .map(f64::from),
    )
});

kernel!(CosineNormalizationKernel, CosineNormalization, |g, pool| {
    let x = normalization_input(pool, g);
    hash_f64s(
        normalization::cosine_normalize(&x)
            .into_iter()
            .map(f64::from),
    )
});

fn reduce_input<'p>(pool: &'p BufferPool, g: &GranuleCtx) -> crate::pool::Lease<'p, f32> {
    let mut x = pool.f32s(g.len());
    for (i, v) in x.iter_mut().enumerate() {
        *v = (g.start + i) as f32;
    }
    x
}

kernel!(ReduceSumKernel, ReduceSum, |g, pool| {
    hash_f64s([f64::from(reduce::reduce_sum(&reduce_input(pool, g)))])
});

kernel!(ReduceMaxKernel, ReduceMax, |g, pool| {
    hash_f64s([f64::from(
        reduce::reduce_max(&reduce_input(pool, g)).unwrap_or(0.0),
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

    /// All registered kernels, in [`MotifKind::ALL`] order.
    pub fn kernels(&self) -> impl Iterator<Item = &'static dyn MotifKernel> + '_ {
        self.kernels.iter().copied()
    }

    /// Number of registered kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the registry is empty (it never is; `clippy` insists the
    /// method exists alongside [`MotifRegistry::len`]).
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
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
        assert_eq!(registry.len(), MotifKind::ALL.len());
        assert!(!registry.is_empty());
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
        let pool = BufferPool::new();
        for kernel in registry.kernels() {
            let a = kernel.execute(128, 3, &pool);
            let b = kernel.execute(128, 3, &pool);
            assert_eq!(a, b, "{} is not deterministic", kernel.kind());
        }
    }

    #[test]
    fn checksums_do_not_depend_on_pool_reuse() {
        let registry = MotifRegistry::global();
        for kind in MotifKind::ALL {
            let fresh = registry.kernel(kind).execute(200, 9, &BufferPool::new());
            let warm_pool = BufferPool::new();
            // Dirty the pool with other kernels first.
            for other in MotifKind::ALL {
                registry.kernel(other).execute(64, 1, &warm_pool);
            }
            let warm = registry.kernel(kind).execute(200, 9, &warm_pool);
            assert_eq!(fresh, warm, "{kind} checksum depends on pool state");
        }
    }

    /// The streaming identity: for every motif kind, executing the input
    /// as granule-aligned chunks of any size reduces to exactly the
    /// monolithic digest.
    #[test]
    fn chunked_execution_is_digest_identical_for_every_kind() {
        let registry = MotifRegistry::global();
        let pool = BufferPool::new();
        let total = 2 * CHUNK_GRANULE + 700;
        for kind in MotifKind::ALL {
            let kernel = registry.kernel(kind);
            let monolithic = kernel.execute(total, 5, &pool);
            for chunk in [CHUNK_GRANULE, 2 * CHUNK_GRANULE, 4 * CHUNK_GRANULE] {
                let mut state = ChunkState::IDENTITY;
                let mut start = 0;
                while start < total {
                    let end = (start + chunk).min(total);
                    state.merge(&kernel.execute_chunk(start, end, total, 5, &pool));
                    start = end;
                }
                assert_eq!(
                    state.finalize(kind),
                    monolithic,
                    "{kind} chunked digest diverges at chunk={chunk}"
                );
            }
        }
    }

    /// Chunk states merge associatively and commutatively: any merge
    /// order of the same chunks finalizes identically.
    #[test]
    fn chunk_state_merge_is_order_invariant() {
        let kernel = MotifRegistry::global().kernel(MotifKind::QuickSort);
        let pool = BufferPool::new();
        let total = 3 * CHUNK_GRANULE + 100;
        let chunks: Vec<ChunkState> = (0..4)
            .map(|i| {
                let start = i * CHUNK_GRANULE;
                let end = ((i + 1) * CHUNK_GRANULE).min(total);
                kernel.execute_chunk(start, end, total, 8, &pool)
            })
            .collect();
        let mut forward = ChunkState::IDENTITY;
        for c in &chunks {
            forward.merge(c);
        }
        let mut reverse = ChunkState::IDENTITY;
        for c in chunks.iter().rev() {
            reverse.merge(c);
        }
        // Pairwise tree reduction, as a parallel reducer would produce.
        let mut left = chunks[0];
        left.merge(&chunks[1]);
        let mut right = chunks[2];
        right.merge(&chunks[3]);
        let mut tree = ChunkState::IDENTITY;
        tree.merge(&left);
        tree.merge(&right);
        assert_eq!(forward, reverse);
        assert_eq!(forward, tree);
        assert_eq!(
            forward.finalize(MotifKind::QuickSort),
            tree.finalize(MotifKind::QuickSort)
        );
    }

    #[test]
    #[should_panic(expected = "splits a granule")]
    fn execute_chunk_rejects_unaligned_start() {
        let kernel = MotifRegistry::global().kernel(MotifKind::MinMax);
        let pool = BufferPool::new();
        let _ = kernel.execute_chunk(100, CHUNK_GRANULE, 2 * CHUNK_GRANULE, 1, &pool);
    }

    #[test]
    #[should_panic(expected = "splits a granule")]
    fn execute_chunk_rejects_unaligned_interior_end() {
        let kernel = MotifRegistry::global().kernel(MotifKind::MinMax);
        let pool = BufferPool::new();
        let _ = kernel.execute_chunk(0, 100, 2 * CHUNK_GRANULE, 1, &pool);
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

    #[test]
    fn kernels_share_one_pool_across_kinds() {
        let registry = MotifRegistry::global();
        let pool = BufferPool::new();
        registry
            .kernel(MotifKind::CountStatistics)
            .execute(512, 1, &pool);
        registry.kernel(MotifKind::MinMax).execute(512, 2, &pool);
        assert!(
            pool.stats().reused >= 1,
            "second statistics kernel must recycle the first one's buffer"
        );
    }
}
