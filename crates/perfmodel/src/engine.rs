//! The execution engine: turns an [`OpProfile`] into the metric vector of
//! Table V for a given architecture.
//!
//! The engine is the reproduction's stand-in for `perf` reading hardware
//! performance counters.  It is deterministic: the cache and branch
//! simulators consume bounded, seeded sample streams derived from the
//! profile's access and branch descriptors, and every analytic step is a
//! pure function of the profile and the architecture.
//!
//! A run has two halves: [`ExecutionEngine::run`] is
//! `derive(&simulate(profile), profile, threads)`.
//!
//! * `ExecutionEngine::simulate` drives the two simulators and returns a
//!   `SimOutcome`: the four cache hit ratios, the fraction of data
//!   accesses served by main memory, and the branch misprediction ratio.
//!   Each simulator reads only its own key, built from the profile: the
//!   cache hierarchy a `HierarchyInputs` (code footprint and, per sampled
//!   segment, its index, pattern, working set and sample count), the
//!   branch predictor a `BranchInputs` (the branch behaviour's bits, or
//!   nothing for a branch-free profile).  The thread count and the
//!   instruction mix never reach a simulator.
//! * `ExecutionEngine::derive` is the analytic rest: the pipeline model,
//!   the Amdahl runtime over `threads`, the bandwidth ceiling and disk I/O.
//!
//! The split is what lets [`crate::memo::SimMemo`] reuse a simulation for
//! every later profile with the same key.
//!
//! A hierarchy simulation skips work whose outcome is already known, and
//! keeps every output bit:
//!
//! * **The L1I runs apart.**  Its state depends on nothing but the fetch
//!   stream, and under one engine the fetch stream depends only on the
//!   code footprint (its seed is a constant).  A `FetchTrace` records what
//!   a lone L1I does with one footprint: the addresses that miss it in the
//!   warm-up pass and in the measured pass, and its measured statistics.
//!   The simulation replays the misses into L2 and L3 in the order one
//!   shared hierarchy would see them: warm-up fetch misses, warm-up data
//!   accesses, a statistics reset, measured fetch misses, measured data
//!   accesses.  `ExecutionEngine::simulate` builds its trace inline; the
//!   memo keeps one per footprint.
//! * **Data accesses go in line-granular runs.**  Each stream hands out an
//!   address plus the number of following accesses in its line (see
//!   [`crate::access`]); the first goes through the hierarchy, and the
//!   rest are L1D hits on the line it left at the front of its set.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use dmpb_metrics::MetricVector;

use crate::access::{AccessPattern, AddressStream};
use crate::arch::ArchProfile;
use crate::branch::GsharePredictor;
use crate::cache::{AccessOutcome, Cache, CacheStats};
use crate::hierarchy::{CacheHierarchy, ServedBy};
use crate::pipeline::{self, CacheBehavior};
use crate::profile::OpProfile;

/// Sampling sizes and seed of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of sampled data accesses fed to the cache hierarchy.
    pub sample_data_accesses: usize,
    /// Number of sampled instruction fetches fed to the L1I path.
    pub sample_instruction_fetches: usize,
    /// Number of sampled branches fed to the predictor.
    pub sample_branches: usize,
    /// Seed for all sampled streams.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            sample_data_accesses: 60_000,
            sample_instruction_fetches: 30_000,
            sample_branches: 30_000,
            seed: 0xD1A7_0F15,
        }
    }
}

/// Fraction of peak memory bandwidth that is sustainable in practice.
const MEMORY_BW_EFFICIENCY: f64 = 0.8;
/// Approximate size of one "function body" region used by the instruction
/// fetch model.
const FUNCTION_REGION_BYTES: u64 = 4 * 1024;
/// Probability that an instruction fetch jumps to a different function.
const CALL_JUMP_PROBABILITY: f64 = 0.01;
/// Memory-level parallelism available to pointer-chasing access patterns.
const POINTER_CHASE_MLP: f64 = 0.1;

/// Instruction-fetch walk state, kept across the warm-up and measured
/// passes.
#[derive(Debug)]
struct FetchState {
    rng: StdRng,
    region_base: u64,
    offset: u64,
}

impl Default for FetchState {
    fn default() -> Self {
        Self {
            rng: StdRng::seed_from_u64(0x1F37),
            region_base: 0,
            offset: 0,
        }
    }
}

/// Access-weighted memory-level-parallelism friendliness of a profile's
/// segments (pointer chasing exposes almost none).
fn mlp_friendliness(profile: &OpProfile) -> f64 {
    let segments = profile.normalized_segments();
    if segments.is_empty() {
        return 1.0;
    }
    segments
        .iter()
        .map(|s| s.access_weight * pattern_mlp(s.pattern))
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// How much of an access pattern's miss latency the core (and the hardware
/// prefetchers) can overlap with other work.
fn pattern_mlp(pattern: AccessPattern) -> f64 {
    use AccessPattern::*;
    match pattern {
        Sequential => 0.97,
        Strided { .. } => 0.88,
        Random => 0.65,
        PointerChase => POINTER_CHASE_MLP,
    }
}

/// The cache hierarchy's share of a [`SimOutcome`]: steady-state hit
/// ratios and the fraction of data accesses served by main memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HierarchyOutcome {
    /// L1 instruction-cache hit ratio.
    pub l1i_hit: f64,
    /// L1 data-cache hit ratio.
    pub l1d_hit: f64,
    /// L2 hit ratio (of accesses reaching L2).
    pub l2_hit: f64,
    /// L3 hit ratio (of accesses reaching L3).
    pub l3_hit: f64,
    /// Fraction of sampled data accesses served by main memory.
    pub memory_served: f64,
}

/// Everything the simulators measured for one profile; the input of
/// [`ExecutionEngine::derive`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimOutcome {
    /// What the cache-hierarchy simulation measured.
    pub hierarchy: HierarchyOutcome,
    /// Misprediction ratio of the sampled branch stream (0 for a
    /// branch-free profile).
    pub branch_miss_ratio: f64,
}

/// One sampled memory segment as the cache-hierarchy simulator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegmentInputs {
    /// Position in [`OpProfile::normalized_segments`], counting segments
    /// that draw no samples: it sets the stream's base address and seed.
    index: usize,
    pattern: AccessPattern,
    working_set_bytes: u64,
    /// Sampled accesses per pass, always non-zero.
    samples: usize,
}

/// Exactly the profile inputs the cache-hierarchy simulation reads.  Under
/// one engine, equal inputs give bit-identical [`HierarchyOutcome`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct HierarchyInputs {
    pub(crate) code_footprint_bytes: u64,
    segments: Vec<SegmentInputs>,
}

/// What the instruction-fetch stream of one code footprint does to the
/// L1I: the addresses that miss it in the warm-up and in the measured
/// pass, in order, and its measured statistics.
///
/// No other cache level's state reaches the L1I, and under one engine the
/// fetch stream depends only on the code footprint, so a trace stands in
/// for the L1I of every hierarchy simulation with that footprint.
#[derive(Debug, Clone)]
pub(crate) struct FetchTrace {
    code_footprint_bytes: u64,
    warm_misses: Vec<u64>,
    measured_misses: Vec<u64>,
    measured: CacheStats,
}

/// Exactly the profile inputs the branch simulation reads: the bits of
/// the branch behaviour's taken ratio and regularity.  A profile without
/// branches has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BranchInputs {
    taken_ratio_bits: u64,
    regularity_bits: u64,
}

/// The shared measurement instrument of the reproduction.
#[derive(Debug, Clone)]
pub struct ExecutionEngine {
    pub(crate) arch: ArchProfile,
    pub(crate) config: EngineConfig,
}

impl ExecutionEngine {
    /// Creates an engine for the given architecture with default sampling.
    pub fn new(arch: ArchProfile) -> Self {
        Self {
            arch,
            config: EngineConfig::default(),
        }
    }

    /// Measures `profile` when executed with `threads` worker tasks on one
    /// node of the modelled machine, returning the full metric vector.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run(&self, profile: &OpProfile, threads: u32) -> MetricVector {
        self.derive(&self.simulate(profile), profile, threads)
    }

    /// Runs the cache-hierarchy and branch simulations of `profile`.
    pub(crate) fn simulate(&self, profile: &OpProfile) -> SimOutcome {
        let inputs = self.hierarchy_inputs(profile);
        let fetches = self.fetch_trace(inputs.code_footprint_bytes);
        SimOutcome {
            hierarchy: self.simulate_hierarchy(&inputs, &fetches),
            branch_miss_ratio: self
                .branch_inputs(profile)
                .map_or(0.0, |inputs| self.simulate_branches(inputs)),
        }
    }

    /// The analytic half of [`ExecutionEngine::run`]: folds the simulated
    /// ratios of `sim` into the pipeline, runtime and bandwidth model for
    /// `profile` on `threads` worker tasks.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub(crate) fn derive(
        &self,
        sim: &SimOutcome,
        profile: &OpProfile,
        threads: u32,
    ) -> MetricVector {
        assert!(threads > 0, "at least one thread is required");
        let arch = &self.arch;
        let HierarchyOutcome {
            l1i_hit,
            l1d_hit,
            l2_hit,
            l3_hit,
            memory_served,
        } = sim.hierarchy;
        let branch_miss_ratio = sim.branch_miss_ratio;

        // --- Pipeline -------------------------------------------------------
        let mix = profile.instructions.mix();
        let cache_behavior = CacheBehavior {
            l1i_hit,
            l1d_hit,
            l2_hit,
            l3_hit,
            mlp_friendliness: mlp_friendliness(profile),
        };
        let pipe = pipeline::estimate(arch, &mix, &cache_behavior, branch_miss_ratio);

        // --- Runtime --------------------------------------------------------
        let total_instructions = profile.total_instructions() as f64;
        let threads_effective = f64::from(threads.min(arch.cores_per_node()));
        let cycles = total_instructions * pipe.cpi;
        let serial = 1.0 - profile.parallel_fraction;
        let mut compute_secs =
            cycles / arch.frequency_hz * (serial + profile.parallel_fraction / threads_effective);

        // --- Memory traffic and bandwidth ceiling --------------------------
        let mem_instructions = profile.instructions.memory() as f64;
        let dram_accesses = mem_instructions * memory_served;
        let line = arch.l1d.line_bytes as f64;
        let store_share = if profile.instructions.memory() == 0 {
            0.0
        } else {
            profile.instructions.store as f64 / profile.instructions.memory() as f64
        };
        let read_bytes = dram_accesses * line;
        let write_bytes = dram_accesses * line * store_share;
        let total_mem_bytes = read_bytes + write_bytes;
        if compute_secs > 0.0 {
            let demanded_mbps = total_mem_bytes / compute_secs / 1e6;
            let sustainable = arch.peak_memory_bw_mbps * MEMORY_BW_EFFICIENCY;
            if demanded_mbps > sustainable {
                compute_secs = total_mem_bytes / (sustainable * 1e6);
            }
        }

        // --- Disk I/O -------------------------------------------------------
        let disk_bytes = profile.total_disk_bytes() as f64;
        let disk_secs = disk_bytes / (arch.peak_disk_bw_mbps * 1e6);

        // Disk and compute overlap (Hadoop pipelines map output spills with
        // computation); the run is bound by the slower of the two.
        let runtime_secs = compute_secs.max(disk_secs).max(1e-9);

        let mips = total_instructions / runtime_secs / 1e6;
        let mem_read_bw_mbps = read_bytes / runtime_secs / 1e6;
        let mem_write_bw_mbps = write_bytes / runtime_secs / 1e6;
        let disk_io_bw_mbps = disk_bytes / runtime_secs / 1e6;

        MetricVector {
            runtime_secs,
            ipc: pipe.ipc,
            mips,
            instruction_mix: mix,
            branch_miss_ratio,
            l1i_hit_ratio: l1i_hit,
            l1d_hit_ratio: l1d_hit,
            l2_hit_ratio: l2_hit,
            l3_hit_ratio: l3_hit,
            mem_read_bw_mbps,
            mem_write_bw_mbps,
            disk_io_bw_mbps,
        }
    }

    /// The key of the cache-hierarchy simulation of `profile`.
    pub(crate) fn hierarchy_inputs(&self, profile: &OpProfile) -> HierarchyInputs {
        let segments = profile
            .normalized_segments()
            .iter()
            .enumerate()
            .filter_map(|(index, segment)| {
                let samples = ((self.config.sample_data_accesses as f64) * segment.access_weight)
                    .round() as usize;
                (samples > 0).then_some(SegmentInputs {
                    index,
                    pattern: segment.pattern,
                    working_set_bytes: segment.working_set_bytes,
                    samples,
                })
            })
            .collect();
        HierarchyInputs {
            code_footprint_bytes: profile.code_footprint_bytes,
            segments,
        }
    }

    /// The key of the branch simulation of `profile`, or `None` when the
    /// profile executes no branches and there is nothing to simulate.
    pub(crate) fn branch_inputs(&self, profile: &OpProfile) -> Option<BranchInputs> {
        (profile.instructions.branch != 0).then_some(BranchInputs {
            taken_ratio_bits: profile.branch.taken_ratio.to_bits(),
            regularity_bits: profile.branch.regularity.to_bits(),
        })
    }

    /// Runs the instruction-fetch stream of a `code_footprint_bytes` code
    /// footprint through a lone L1I, a warm-up pass and then a measured
    /// pass, and records what reaches L2.
    pub(crate) fn fetch_trace(&self, code_footprint_bytes: u64) -> FetchTrace {
        let mut l1i = Cache::new(self.arch.l1i);
        let mut state = FetchState::default();
        let mut pass = |l1i: &mut Cache| {
            let mut misses = Vec::new();
            self.walk_instruction_fetches(code_footprint_bytes, &mut state, |address| {
                if l1i.access(address) == AccessOutcome::Miss {
                    misses.push(address);
                }
            });
            misses
        };
        let warm_misses = pass(&mut l1i);
        l1i.reset_stats();
        let measured_misses = pass(&mut l1i);
        FetchTrace {
            code_footprint_bytes,
            warm_misses,
            measured_misses,
            measured: l1i.stats(),
        }
    }

    /// Simulates the instruction-fetch and data-access streams described
    /// by `inputs` through a fresh cache hierarchy of the architecture,
    /// with `fetches` the fetch trace of `inputs`' code footprint.
    ///
    /// Both streams run a warm-up pass first and are measured in steady
    /// state: the sampled streams are far shorter than the real
    /// instruction stream, so cold-start misses would otherwise dominate
    /// working sets that are in fact cache resident for most of the run.
    /// The L2 and L3 see the warm-up L1I misses, the warm-up data
    /// accesses, a statistics reset, the measured L1I misses and the
    /// measured data accesses, in that order: the order in which fetches
    /// and data accesses through one hierarchy would reach them.
    ///
    /// # Panics
    ///
    /// Panics if `fetches` was traced for another code footprint.
    pub(crate) fn simulate_hierarchy(
        &self,
        inputs: &HierarchyInputs,
        fetches: &FetchTrace,
    ) -> HierarchyOutcome {
        assert_eq!(
            fetches.code_footprint_bytes, inputs.code_footprint_bytes,
            "fetch trace of another code footprint"
        );
        let mut hierarchy = CacheHierarchy::for_arch(&self.arch);
        let mut data_streams = self.build_data_streams(&inputs.segments);

        // --- Warm-up pass -----------------------------------------------
        for &address in &fetches.warm_misses {
            hierarchy.forward_l1_miss(address);
        }
        self.simulate_data_accesses(&mut data_streams, &mut hierarchy);
        hierarchy.reset_stats();

        // --- Measured pass -----------------------------------------------
        for &address in &fetches.measured_misses {
            hierarchy.forward_l1_miss(address);
        }
        let memory_served = self.simulate_data_accesses(&mut data_streams, &mut hierarchy);

        HierarchyOutcome {
            l1i_hit: fetches.measured.hit_ratio(),
            l1d_hit: hierarchy.l1d_stats().hit_ratio(),
            l2_hit: hierarchy.l2_stats().hit_ratio(),
            l3_hit: hierarchy.l3_stats().hit_ratio(),
            memory_served,
        }
    }

    /// Builds one sampled address stream per sampled memory segment, each
    /// with its own non-overlapping address range and sample budget.
    fn build_data_streams(&self, segments: &[SegmentInputs]) -> Vec<(AddressStream, usize)> {
        segments
            .iter()
            .map(|segment| {
                let i = segment.index as u64;
                let base = 0x1_0000_0000_u64 + (i << 34);
                let stream = AddressStream::new(
                    segment.pattern,
                    base,
                    segment.working_set_bytes,
                    self.config.seed.wrapping_add(i * 7919),
                );
                (stream, segment.samples)
            })
            .collect()
    }

    /// Walks one pass of the instruction-fetch stream, handing each
    /// address to `fetch`: mostly sequential fetches within a hot function
    /// region, with occasional jumps to other functions across the code
    /// footprint.  Heavy software stacks (large footprints) therefore see
    /// lower L1I hit ratios.  The fetch state is kept by the caller so a
    /// warm-up pass can be followed by a measured pass.
    fn walk_instruction_fetches(
        &self,
        code_footprint_bytes: u64,
        state: &mut FetchState,
        mut fetch: impl FnMut(u64),
    ) {
        let footprint = code_footprint_bytes.max(1024);
        for _ in 0..self.config.sample_instruction_fetches {
            if state.rng.gen::<f64>() < CALL_JUMP_PROBABILITY {
                let regions = (footprint / FUNCTION_REGION_BYTES).max(1);
                state.region_base = state.rng.gen_range(0..regions) * FUNCTION_REGION_BYTES;
                state.offset = 0;
            }
            fetch(0x4000_0000 + state.region_base + state.offset);
            state.offset = (state.offset + 4) % FUNCTION_REGION_BYTES;
        }
    }

    /// Advances every sampled data stream by its budget, returning the
    /// fraction of accesses served by main memory in this pass.  Each
    /// stream is drawn in line-granular runs: a run's first access goes
    /// through the hierarchy and the rest hit the L1D line it left.
    fn simulate_data_accesses(
        &self,
        streams: &mut [(AddressStream, usize)],
        hierarchy: &mut CacheHierarchy,
    ) -> f64 {
        let line_bytes = self.arch.l1d.line_bytes;
        let mut served_memory = 0u64;
        let mut total = 0u64;
        // Interleave the segments' accesses finely (as the real instruction
        // stream does) so that frequently re-referenced small working sets
        // are not evicted by another segment's streaming between passes.
        const SLICES: usize = 200;
        for slice in 0..SLICES {
            for (stream, n) in streams.iter_mut() {
                let mut budget = *n / SLICES + usize::from(slice < *n % SLICES);
                total += budget as u64;
                while budget > 0 {
                    let (address, run) = stream.next_run(budget, line_bytes);
                    budget -= run;
                    if hierarchy.access_data_repeated(address, run as u64) == ServedBy::Memory {
                        served_memory += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            served_memory as f64 / total as f64
        }
    }

    /// Simulates the sampled branch stream described by `inputs` through a
    /// gshare predictor and returns the misprediction ratio.
    pub(crate) fn simulate_branches(&self, inputs: BranchInputs) -> f64 {
        let taken_ratio = f64::from_bits(inputs.taken_ratio_bits);
        let regularity = f64::from_bits(inputs.regularity_bits);
        let mut predictor = GsharePredictor::from_config(self.arch.branch);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xB4A2);
        // A handful of static branch sites, as in a hot loop nest.
        let pcs: Vec<u64> = (0..16).map(|i| 0x4000_1000 + i * 24).collect();
        let mut phase: f64 = 0.0;
        for i in 0..self.config.sample_branches {
            let pc = pcs[i % pcs.len()];
            let regular = rng.gen::<f64>() < regularity;
            let taken = if regular {
                // Deterministic Bresenham-style pattern with the requested
                // taken ratio: highly predictable once learned.
                phase += taken_ratio;
                if phase >= 1.0 {
                    phase -= 1.0;
                    true
                } else {
                    false
                }
            } else {
                rng.gen::<f64>() < taken_ratio
            };
            predictor.predict_and_update(pc, taken);
        }
        predictor.stats().miss_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::profile::{BranchBehavior, InstructionCounts, MemorySegment};

    fn base_profile() -> OpProfile {
        OpProfile {
            name: "test".to_string(),
            instructions: InstructionCounts {
                integer: 4_000_000_000,
                floating_point: 500_000_000,
                load: 2_500_000_000,
                store: 1_200_000_000,
                branch: 1_800_000_000,
            },
            memory_segments: vec![
                MemorySegment::new(AccessPattern::Sequential, 1 << 30, 0.7),
                MemorySegment::new(AccessPattern::Random, 64 << 20, 0.3),
            ],
            branch: BranchBehavior::new(0.7, 0.8),
            code_footprint_bytes: 256 * 1024,
            disk_read_bytes: 2_000_000_000,
            disk_write_bytes: 1_000_000_000,
            parallel_fraction: 0.95,
        }
    }

    fn engine() -> ExecutionEngine {
        ExecutionEngine::new(ArchProfile::westmere_e5645())
    }

    #[test]
    fn run_produces_finite_sane_metrics() {
        let m = engine().run(&base_profile(), 12);
        assert!(m.is_finite());
        assert!(m.runtime_secs > 0.0);
        assert!(m.ipc > 0.0 && m.ipc <= 4.0);
        assert!(m.mips > 0.0);
        assert!((0.0..=1.0).contains(&m.branch_miss_ratio));
        for hit in [
            m.l1i_hit_ratio,
            m.l1d_hit_ratio,
            m.l2_hit_ratio,
            m.l3_hit_ratio,
        ] {
            assert!((0.0..=1.0).contains(&hit));
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = engine().run(&base_profile(), 12);
        let b = engine().run(&base_profile(), 12);
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_run_faster() {
        let p = base_profile();
        let e = engine();
        let one = e.run(&p, 1);
        let twelve = e.run(&p, 12);
        // Scaling is sub-linear because the twelve-thread run saturates the
        // node's memory bandwidth, but it must still be faster.
        assert!(
            twelve.runtime_secs < one.runtime_secs * 0.9,
            "1t {} 12t {}",
            one.runtime_secs,
            twelve.runtime_secs
        );
    }

    #[test]
    fn thread_count_is_capped_by_cores() {
        let p = base_profile();
        let e = engine();
        let twelve = e.run(&p, 12);
        let thousand = e.run(&p, 1000);
        assert!((twelve.runtime_secs - thousand.runtime_secs).abs() / twelve.runtime_secs < 1e-9);
    }

    #[test]
    fn scaling_work_scales_runtime_roughly_linearly() {
        let p = base_profile();
        let e = engine();
        let small = e.run(&p, 12);
        let big = e.run(&p.scaled(10.0), 12);
        let ratio = big.runtime_secs / small.runtime_secs;
        assert!((5.0..=20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn random_working_set_hurts_l1d_hit_ratio() {
        let mut streaming = base_profile();
        streaming.memory_segments =
            vec![MemorySegment::new(AccessPattern::Sequential, 1 << 30, 1.0)];
        let mut random = base_profile();
        random.memory_segments = vec![MemorySegment::new(AccessPattern::Random, 1 << 30, 1.0)];
        let e = engine();
        let s = e.run(&streaming, 12);
        let r = e.run(&random, 12);
        assert!(
            s.l1d_hit_ratio > r.l1d_hit_ratio + 0.2,
            "seq {} rand {}",
            s.l1d_hit_ratio,
            r.l1d_hit_ratio
        );
    }

    #[test]
    fn small_code_footprint_has_better_l1i() {
        let mut small = base_profile();
        small.code_footprint_bytes = 8 * 1024;
        let mut huge = base_profile();
        huge.code_footprint_bytes = 8 * 1024 * 1024;
        let e = engine();
        assert!(e.run(&small, 12).l1i_hit_ratio > e.run(&huge, 12).l1i_hit_ratio);
    }

    #[test]
    fn irregular_branches_mispredict_more() {
        let mut regular = base_profile();
        regular.branch = BranchBehavior::new(0.8, 0.98);
        let mut irregular = base_profile();
        irregular.branch = BranchBehavior::new(0.5, 0.0);
        let e = engine();
        let r = e.run(&regular, 12);
        let i = e.run(&irregular, 12);
        assert!(
            i.branch_miss_ratio > r.branch_miss_ratio + 0.1,
            "irr {} reg {}",
            i.branch_miss_ratio,
            r.branch_miss_ratio
        );
    }

    #[test]
    fn disk_heavy_profile_is_io_bound() {
        let mut p = base_profile();
        p.disk_read_bytes = 400_000_000_000; // 400 GB through a ~140 MB/s disk
        p.disk_write_bytes = 0;
        let m = engine().run(&p, 12);
        // Runtime should be close to the disk service time.
        let disk_secs = 400_000_000_000.0 / (ArchProfile::westmere_e5645().peak_disk_bw_mbps * 1e6);
        assert!((m.runtime_secs - disk_secs).abs() / disk_secs < 0.05);
        assert!(m.disk_io_bw_mbps > 100.0);
    }

    #[test]
    fn no_disk_traffic_means_zero_disk_bandwidth() {
        let mut p = base_profile();
        p.disk_read_bytes = 0;
        p.disk_write_bytes = 0;
        let m = engine().run(&p, 12);
        assert_eq!(m.disk_io_bw_mbps, 0.0);
    }

    #[test]
    fn haswell_outperforms_westmere() {
        let p = base_profile();
        let w = ExecutionEngine::new(ArchProfile::westmere_e5645()).run(&p, 12);
        let h = ExecutionEngine::new(ArchProfile::haswell_e5_2620_v3()).run(&p, 12);
        assert!(
            h.runtime_secs < w.runtime_secs,
            "haswell {} westmere {}",
            h.runtime_secs,
            w.runtime_secs
        );
        let speedup = w.runtime_secs / h.runtime_secs;
        assert!((1.05..=2.5).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = engine().run(&base_profile(), 0);
    }

    /// The hierarchy simulation as one L1I in front of the hierarchy, each
    /// fetch and each data access on its own: warm-up fetches, warm-up
    /// data, a statistics reset, measured fetches, measured data.
    fn reference_hierarchy(engine: &ExecutionEngine, inputs: &HierarchyInputs) -> HierarchyOutcome {
        let mut l1i = Cache::new(engine.arch.l1i);
        let mut hierarchy = CacheHierarchy::for_arch(&engine.arch);
        let mut fetch_state = FetchState::default();
        let mut streams = engine.build_data_streams(&inputs.segments);
        let mut memory_served = 0.0;
        for pass in 0..2 {
            if pass == 1 {
                l1i.reset_stats();
                hierarchy.reset_stats();
            }
            engine.walk_instruction_fetches(inputs.code_footprint_bytes, &mut fetch_state, |a| {
                if l1i.access(a) == AccessOutcome::Miss {
                    hierarchy.forward_l1_miss(a);
                }
            });
            let (mut served, mut total) = (0u64, 0u64);
            for slice in 0..200 {
                for (stream, n) in &mut streams {
                    for _ in 0..*n / 200 + usize::from(slice < *n % 200) {
                        total += 1;
                        served += u64::from(
                            hierarchy.access_data_repeated(stream.next_address(), 1)
                                == ServedBy::Memory,
                        );
                    }
                }
            }
            memory_served = if total == 0 {
                0.0
            } else {
                served as f64 / total as f64
            };
        }
        HierarchyOutcome {
            l1i_hit: l1i.stats().hit_ratio(),
            l1d_hit: hierarchy.l1d_stats().hit_ratio(),
            l2_hit: hierarchy.l2_stats().hit_ratio(),
            l3_hit: hierarchy.l3_stats().hit_ratio(),
            memory_served,
        }
    }

    fn outcome_bits(o: &HierarchyOutcome) -> [u64; 5] {
        [o.l1i_hit, o.l1d_hit, o.l2_hit, o.l3_hit, o.memory_served].map(f64::to_bits)
    }

    /// Random simulator inputs: a code footprint below 1 KiB, between, or
    /// above either L3, and up to four segments of every pattern, some of
    /// them placed high enough that L3 lines pass 2^32.
    fn random_inputs(rng: &mut StdRng) -> HierarchyInputs {
        let code_footprint_bytes = match rng.gen_range(0..3) {
            0 => rng.gen_range(0..1024),
            1 => rng.gen_range(1024..(4 << 20)),
            _ => rng.gen_range((16 << 20)..(64 << 20)),
        };
        let mut index = 0;
        let segments = (0..rng.gen_range(0..5))
            .map(|_| {
                index += rng.gen_range(0..8);
                let pattern = match rng.gen_range(0..4) {
                    0 => AccessPattern::Sequential,
                    1 => AccessPattern::Strided {
                        stride_bytes: rng.gen_range(0..300),
                    },
                    2 => AccessPattern::Random,
                    _ => AccessPattern::PointerChase,
                };
                let working_set_bytes = match rng.gen_range(0..3) {
                    0 => rng.gen_range(1..1024),
                    1 => rng.gen_range(1024..(1 << 20)),
                    _ => rng.gen_range((1 << 20)..(64 << 20)),
                };
                let segment = SegmentInputs {
                    index,
                    pattern,
                    working_set_bytes,
                    samples: rng.gen_range(1..2_000),
                };
                index += 1;
                segment
            })
            .collect();
        HierarchyInputs {
            code_footprint_bytes,
            segments,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The fetch trace and line-granular data runs give the bits of the
        /// one-access-at-a-time hierarchy on both architectures.
        #[test]
        fn hierarchy_simulation_matches_the_full_hierarchy_reference(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let arch = if rng.gen::<bool>() {
                ArchProfile::westmere_e5645()
            } else {
                ArchProfile::haswell_e5_2620_v3()
            };
            let engine = ExecutionEngine {
                arch,
                config: EngineConfig {
                    sample_data_accesses: 0,
                    sample_instruction_fetches: rng.gen_range(0..4_000),
                    sample_branches: 0,
                    ..EngineConfig::default()
                },
            };
            let inputs = random_inputs(&mut rng);
            let fetches = engine.fetch_trace(inputs.code_footprint_bytes);
            proptest::prop_assert_eq!(
                outcome_bits(&engine.simulate_hierarchy(&inputs, &fetches)),
                outcome_bits(&reference_hierarchy(&engine, &inputs))
            );
        }
    }

    #[test]
    fn empty_memory_profile_is_handled() {
        let mut p = base_profile();
        p.memory_segments.clear();
        let m = engine().run(&p, 12);
        assert!(m.is_finite());
        assert_eq!(m.mem_read_bw_mbps, 0.0);
    }
}
