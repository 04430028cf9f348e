//! A memo of simulation outcomes, owned by one tune.
//!
//! A tune measures dozens of candidate profiles that often share their
//! simulator inputs: a thread-count probe changes none of them, and an
//! action that undoes the last accepted one returns to inputs already
//! simulated.  [`SimMemo`] keys each cache-hierarchy simulation and each
//! branch simulation on exactly the profile inputs that simulator reads
//! (see [`crate::engine`]), runs a simulator only for a key it has not
//! seen, and always redoes the analytic [`ExecutionEngine::derive`].
//! Because a simulator reads nothing but its key, [`SimMemo::run`]
//! returns exactly the bits of [`ExecutionEngine::run`].
//!
//! Besides the hierarchy and branch outcomes, the memo keeps one L1I fetch
//! trace per code footprint (see [`crate::engine`]), built by the first
//! hierarchy simulation with that footprint and replayed by the later
//! ones; a tune sees one to three footprints.  Traces are not counted as
//! simulations.
//!
//! The memo is bound to one engine, so the architecture and
//! [`crate::engine::EngineConfig`] are fixed for its whole life.  It holds
//! no global state: its outcomes and traces live and die with the tune
//! that owns it, and its size is bounded by the number of profiles it has
//! run.

use std::collections::HashMap;
use std::hash::Hash;

use dmpb_metrics::MetricVector;

use crate::engine::{
    BranchInputs, ExecutionEngine, FetchTrace, HierarchyInputs, HierarchyOutcome, SimOutcome,
};
use crate::profile::OpProfile;

/// Simulation outcomes of one engine, keyed by simulator inputs.
#[derive(Debug)]
pub struct SimMemo {
    engine: ExecutionEngine,
    hierarchy: HashMap<HierarchyInputs, HierarchyOutcome>,
    /// Fetch traces by code footprint, built on a footprint's first
    /// hierarchy simulation.
    fetches: HashMap<u64, FetchTrace>,
    branches: HashMap<BranchInputs, f64>,
    sim_runs: usize,
    sim_memo_hits: usize,
}

impl SimMemo {
    /// An empty memo over `engine`.
    pub fn new(engine: ExecutionEngine) -> Self {
        Self {
            engine,
            hierarchy: HashMap::new(),
            fetches: HashMap::new(),
            branches: HashMap::new(),
            sim_runs: 0,
            sim_memo_hits: 0,
        }
    }

    /// Bit-identical to [`ExecutionEngine::run`] on the memo's engine,
    /// simulating only inputs the memo has not seen.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run(&mut self, profile: &OpProfile, threads: u32) -> MetricVector {
        let engine = &self.engine;
        let fetches = &mut self.fetches;
        let hierarchy = memoized(
            &mut self.hierarchy,
            engine.hierarchy_inputs(profile),
            (&mut self.sim_runs, &mut self.sim_memo_hits),
            |inputs| {
                let footprint = inputs.code_footprint_bytes;
                let trace = fetches
                    .entry(footprint)
                    .or_insert_with(|| engine.fetch_trace(footprint));
                engine.simulate_hierarchy(inputs, trace)
            },
        );
        let branch_miss_ratio = engine.branch_inputs(profile).map_or(0.0, |inputs| {
            memoized(
                &mut self.branches,
                inputs,
                (&mut self.sim_runs, &mut self.sim_memo_hits),
                |&inputs| engine.simulate_branches(inputs),
            )
        });
        let sim = SimOutcome {
            hierarchy,
            branch_miss_ratio,
        };
        engine.derive(&sim, profile, threads)
    }

    /// Simulations run so far (cache hierarchy and branch predictor
    /// counted separately).
    pub fn sim_runs(&self) -> usize {
        self.sim_runs
    }

    /// Simulations skipped so far because the memo held their outcome.
    pub fn sim_memo_hits(&self) -> usize {
        self.sim_memo_hits
    }
}

/// Looks `key` up in `memo`, simulating and storing it on a miss, and
/// counts the run or the hit.
fn memoized<K: Eq + Hash, V: Copy>(
    memo: &mut HashMap<K, V>,
    key: K,
    (runs, hits): (&mut usize, &mut usize),
    simulate: impl FnOnce(&K) -> V,
) -> V {
    if let Some(&outcome) = memo.get(&key) {
        *hits += 1;
        return outcome;
    }
    *runs += 1;
    let outcome = simulate(&key);
    memo.insert(key, outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessPattern;
    use crate::arch::ArchProfile;
    use crate::engine::EngineConfig;
    use crate::profile::{BranchBehavior, InstructionCounts, MemorySegment};
    use dmpb_metrics::MetricId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Short sample streams: the memo must be exact at any sampling size,
    /// and short streams keep the property test fast.
    fn engine() -> ExecutionEngine {
        ExecutionEngine {
            arch: ArchProfile::westmere_e5645(),
            config: EngineConfig {
                sample_data_accesses: 3_000,
                sample_instruction_fetches: 1_500,
                sample_branches: 1_500,
                ..EngineConfig::default()
            },
        }
    }

    fn base_profile() -> OpProfile {
        OpProfile {
            name: "memo".to_string(),
            instructions: InstructionCounts {
                integer: 4_000_000_000,
                floating_point: 500_000_000,
                load: 2_500_000_000,
                store: 1_200_000_000,
                branch: 1_800_000_000,
            },
            memory_segments: vec![
                MemorySegment::new(AccessPattern::Sequential, 1 << 30, 0.6),
                MemorySegment::new(AccessPattern::Strided { stride_bytes: 256 }, 8 << 20, 0.1),
                MemorySegment::new(AccessPattern::Random, 64 << 20, 0.3),
            ],
            branch: BranchBehavior::new(0.7, 0.8),
            code_footprint_bytes: 256 * 1024,
            disk_read_bytes: 2_000_000_000,
            disk_write_bytes: 1_000_000_000,
            parallel_fraction: 0.95,
        }
    }

    fn bits(m: &MetricVector) -> Vec<u64> {
        MetricId::ALL
            .iter()
            .map(|&id| m.get(id).to_bits())
            .collect()
    }

    /// Runs `profile` through `memo`, checks it against a fresh engine bit
    /// for bit, and returns the (runs, hits) the call added.
    fn run_checked(memo: &mut SimMemo, profile: &OpProfile, threads: u32) -> (usize, usize) {
        let (runs, hits) = (memo.sim_runs(), memo.sim_memo_hits());
        let memoized = memo.run(profile, threads);
        let fresh = engine().run(profile, threads);
        assert_eq!(bits(&memoized), bits(&fresh));
        assert_eq!(memoized, fresh);
        (memo.sim_runs() - runs, memo.sim_memo_hits() - hits)
    }

    #[test]
    fn inputs_no_simulator_reads_are_hits() {
        let mut memo = SimMemo::new(engine());
        let base = base_profile();
        assert_eq!(run_checked(&mut memo, &base, 12), (2, 0));

        let mut more_work = base.clone();
        more_work.instructions.integer += 123_456;
        more_work.instructions.branch += 7;
        let mut more_disk = base.clone();
        more_disk.disk_read_bytes *= 3;
        more_disk.disk_write_bytes = 0;
        let mut less_parallel = base.clone();
        less_parallel.parallel_fraction = 0.5;
        let mut rescaled_weights = base.clone();
        for segment in &mut rescaled_weights.memory_segments {
            segment.access_weight *= 2.0;
        }
        assert_eq!(run_checked(&mut memo, &base, 3), (0, 2));
        for profile in [more_work, more_disk, less_parallel, rescaled_weights] {
            assert_eq!(run_checked(&mut memo, &profile, 12), (0, 2));
        }
    }

    #[test]
    fn inputs_a_simulator_reads_are_misses() {
        let mut memo = SimMemo::new(engine());
        let base = base_profile();
        run_checked(&mut memo, &base, 12);

        let mut footprint = base.clone();
        footprint.code_footprint_bytes *= 2;
        let mut working_set = base.clone();
        working_set.memory_segments[2].working_set_bytes += 4096;
        let mut pattern = base.clone();
        pattern.memory_segments[2].pattern = AccessPattern::PointerChase;
        let mut stride = base.clone();
        stride.memory_segments[1].pattern = AccessPattern::Strided { stride_bytes: 512 };
        let mut weight = base.clone();
        weight.memory_segments[0].access_weight = 0.61;
        for profile in [footprint, working_set, pattern, stride, weight] {
            // A new hierarchy simulation; the branch outcome is reused.
            assert_eq!(run_checked(&mut memo, &profile, 12), (1, 1));
        }

        let mut taken = base.clone();
        taken.branch.taken_ratio = 0.71;
        let mut regularity = base.clone();
        regularity.branch.regularity = 0.81;
        for profile in [taken, regularity] {
            // A new branch simulation; the hierarchy outcome is reused.
            assert_eq!(run_checked(&mut memo, &profile, 12), (1, 1));
        }
    }

    #[test]
    fn branch_free_profiles_run_no_branch_simulation() {
        let mut memo = SimMemo::new(engine());
        let mut branch_free = base_profile();
        branch_free.instructions.branch = 0;
        assert_eq!(run_checked(&mut memo, &branch_free, 12), (1, 0));
        branch_free.branch = BranchBehavior::new(0.5, 0.15);
        assert_eq!(run_checked(&mut memo, &branch_free, 12), (0, 1));
    }

    /// A random profile: one to four segments over every access pattern.
    fn random_profile(rng: &mut StdRng) -> OpProfile {
        let mut profile = base_profile();
        profile.memory_segments = (0..rng.gen_range(1..5))
            .map(|_| {
                let pattern = match rng.gen_range(0..4) {
                    0 => AccessPattern::Sequential,
                    1 => AccessPattern::Strided {
                        stride_bytes: 64 << rng.gen_range(0..4),
                    },
                    2 => AccessPattern::Random,
                    _ => AccessPattern::PointerChase,
                };
                MemorySegment::new(pattern, rng.gen_range(4096..(256 << 20)), rng.gen::<f64>())
            })
            .collect();
        profile.branch = BranchBehavior::new(rng.gen::<f64>(), rng.gen::<f64>());
        profile.code_footprint_bytes = rng.gen_range(1024..(4 << 20));
        profile
    }

    /// A near-repeat of `profile`: one field changed, either one no
    /// simulator reads or one a simulator does.  Simulated fields change
    /// enough to change the outcome, except the small weight nudge, which
    /// probes the rounding of sample counts.
    fn nudge(profile: &OpProfile, rng: &mut StdRng) -> OpProfile {
        let mut p = profile.clone();
        let segment = rng.gen_range(0..p.memory_segments.len());
        match rng.gen_range(0..10) {
            0 => p.instructions.load += rng.gen_range(1..1_000_000),
            1 => p.instructions.branch = if rng.gen::<f64>() < 0.5 { 0 } else { 1 << 30 },
            2 => p.disk_write_bytes += rng.gen_range(1..1_000_000),
            3 => p.parallel_fraction = rng.gen::<f64>(),
            4 => p.code_footprint_bytes *= 4,
            5 => p.memory_segments[segment].working_set_bytes *= 4,
            6 => p.memory_segments[segment].access_weight *= 1.0 + rng.gen::<f64>() * 1e-3,
            7 => p.memory_segments[segment].access_weight *= 2.0,
            8 => p.branch.taken_ratio = 1.0 - p.branch.taken_ratio,
            _ => p.branch.regularity = 1.0 - p.branch.regularity,
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over sequences of fresh profiles, exact repeats and near-repeats
        /// on random thread counts, the memo returns a fresh engine's bits.
        #[test]
        fn memo_runs_match_fresh_engine_runs(seed in 0u64..u64::MAX, steps in 4usize..12) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut memo = SimMemo::new(engine());
            let mut seen: Vec<OpProfile> = Vec::new();
            for _ in 0..steps {
                let profile = match (seen.is_empty(), rng.gen_range(0..6)) {
                    (true, _) | (false, 0) => random_profile(&mut rng),
                    (false, 1) => seen[rng.gen_range(0..seen.len())].clone(),
                    (false, _) => nudge(&seen[rng.gen_range(0..seen.len())], &mut rng),
                };
                run_checked(&mut memo, &profile, rng.gen_range(1..32));
                seen.push(profile);
            }
            prop_assert!(memo.sim_runs() <= 2 * steps);
            prop_assert!(memo.sim_runs() + memo.sim_memo_hits() <= 2 * steps);
        }
    }
}
