//! Operation profiles — the interface between workloads/motifs and the
//! performance model.
//!
//! An [`OpProfile`] summarises what a piece of computation does to the
//! machine: how many dynamic instructions of each class it executes, how it
//! walks memory, how predictable its branches are, how much code it touches
//! and how many bytes it moves to and from disk.  Motif cost models emit
//! `OpProfile`s, workload models compose them (together with software-stack
//! overhead profiles), and the [`crate::engine::ExecutionEngine`] turns a
//! profile into the metric vector of Table V.
//!
//! Profiles form a small algebra: [`OpProfile::scaled`] multiplies the work
//! by a factor (more data → proportionally more instructions and I/O, same
//! locality), and [`OpProfile::merge`] concatenates two pieces of work into
//! one profile, blending their mixes and memory behaviour by their
//! instruction weights.

use dmpb_metrics::InstructionMix;

use crate::access::AccessPattern;

/// Dynamic instruction counts by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionCounts {
    /// Integer ALU instructions.
    pub integer: u64,
    /// Floating-point instructions.
    pub floating_point: u64,
    /// Load instructions.
    pub load: u64,
    /// Store instructions.
    pub store: u64,
    /// Branch instructions.
    pub branch: u64,
}

impl InstructionCounts {
    /// Total dynamic instruction count.
    pub(crate) fn total(&self) -> u64 {
        self.integer + self.floating_point + self.load + self.store + self.branch
    }

    /// Number of memory (load + store) instructions.
    pub(crate) fn memory(&self) -> u64 {
        self.load + self.store
    }

    /// The instruction mix these counts imply.
    pub fn mix(&self) -> InstructionMix {
        InstructionMix::from_counts(
            self.integer,
            self.floating_point,
            self.load,
            self.store,
            self.branch,
        )
    }

    /// Element-wise sum.
    pub(crate) fn add(&self, other: &InstructionCounts) -> InstructionCounts {
        InstructionCounts {
            integer: self.integer + other.integer,
            floating_point: self.floating_point + other.floating_point,
            load: self.load + other.load,
            store: self.store + other.store,
            branch: self.branch + other.branch,
        }
    }

    /// Scales every count by `factor`, rounding to the nearest integer.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub(crate) fn scaled(&self, factor: f64) -> InstructionCounts {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative"
        );
        let s = |v: u64| (v as f64 * factor).round() as u64;
        InstructionCounts {
            integer: s(self.integer),
            floating_point: s(self.floating_point),
            load: s(self.load),
            store: s(self.store),
            branch: s(self.branch),
        }
    }
}

/// One region of memory touched by the computation and how it is walked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySegment {
    /// Access pattern over the region.
    pub pattern: AccessPattern,
    /// Size of the region in bytes.
    pub working_set_bytes: u64,
    /// Fraction of all memory accesses that target this segment, in `[0, 1]`.
    pub access_weight: f64,
}

impl MemorySegment {
    /// Creates a segment.  Weights are relative: `OpProfile::normalized_segments`
    /// rescales them to sum to one, so any non-negative value is accepted.
    ///
    /// # Panics
    ///
    /// Panics if the working set is zero or the weight is negative or not
    /// finite.
    pub fn new(pattern: AccessPattern, working_set_bytes: u64, access_weight: f64) -> Self {
        assert!(working_set_bytes > 0, "working set must be non-zero");
        assert!(
            access_weight.is_finite() && access_weight >= 0.0,
            "access weight must be a non-negative finite number"
        );
        Self {
            pattern,
            working_set_bytes,
            access_weight,
        }
    }
}

/// Branch behaviour of the computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchBehavior {
    /// Fraction of branches that are taken.
    pub taken_ratio: f64,
    /// Regularity of the outcome pattern in `[0, 1]`: 1.0 means perfectly
    /// repetitive (loop-closing branches), 0.0 means data-dependent and
    /// effectively random (comparison results on unsorted data).
    pub regularity: f64,
}

impl BranchBehavior {
    /// Creates a branch-behaviour descriptor.
    ///
    /// # Panics
    ///
    /// Panics if either field is outside `[0, 1]`.
    pub fn new(taken_ratio: f64, regularity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&taken_ratio),
            "taken ratio must be within [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&regularity),
            "regularity must be within [0, 1]"
        );
        Self {
            taken_ratio,
            regularity,
        }
    }

    /// Loop-dominated, highly predictable branch behaviour.
    pub(crate) fn loop_dominated() -> Self {
        Self::new(0.9, 0.97)
    }

    /// Weighted blend of two behaviours (`t` = weight of `other`).
    pub(crate) fn blend(&self, other: &BranchBehavior, t: f64) -> Self {
        let t = t.clamp(0.0, 1.0);
        Self {
            taken_ratio: self.taken_ratio * (1.0 - t) + other.taken_ratio * t,
            regularity: self.regularity * (1.0 - t) + other.regularity * t,
        }
    }
}

/// Complete description of one unit of work as seen by the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Human-readable label (motif or phase name), used in reports.
    pub name: String,
    /// Dynamic instruction counts.
    pub instructions: InstructionCounts,
    /// Memory regions and how they are accessed.  Weights should sum to
    /// (approximately) one; `OpProfile::normalized_segments` renormalises.
    pub memory_segments: Vec<MemorySegment>,
    /// Branch behaviour.
    pub branch: BranchBehavior,
    /// Bytes of distinct code executed (drives L1I behaviour; big software
    /// stacks like the JVM have footprints far beyond the 32 KB L1I).
    pub code_footprint_bytes: u64,
    /// Bytes read from disk over the lifetime of the work.
    pub disk_read_bytes: u64,
    /// Bytes written to disk over the lifetime of the work.
    pub disk_write_bytes: u64,
    /// Fraction of the work that can run in parallel across tasks
    /// (Amdahl's law), in `[0, 1]`.
    pub parallel_fraction: f64,
}

impl OpProfile {
    /// Creates an empty profile with the given name.
    pub fn new<S: Into<String>>(name: S) -> Self {
        Self {
            name: name.into(),
            instructions: InstructionCounts::default(),
            memory_segments: Vec::new(),
            branch: BranchBehavior::loop_dominated(),
            code_footprint_bytes: 16 * 1024,
            disk_read_bytes: 0,
            disk_write_bytes: 0,
            parallel_fraction: 0.95,
        }
    }

    /// Total dynamic instruction count.
    pub fn total_instructions(&self) -> u64 {
        self.instructions.total()
    }

    /// Total disk traffic in bytes.
    pub fn total_disk_bytes(&self) -> u64 {
        self.disk_read_bytes + self.disk_write_bytes
    }

    /// Memory segments with weights renormalised to sum to one.  Returns an
    /// empty vector if the profile has no segments.
    pub(crate) fn normalized_segments(&self) -> Vec<MemorySegment> {
        let total: f64 = self.memory_segments.iter().map(|s| s.access_weight).sum();
        if total <= 0.0 {
            return Vec::new();
        }
        self.memory_segments
            .iter()
            .map(|s| MemorySegment {
                access_weight: s.access_weight / total,
                ..*s
            })
            .collect()
    }

    /// Scales the amount of work (instructions and disk traffic) by
    /// `factor`, keeping locality descriptors untouched.  Working sets are
    /// scaled sub-linearly (square root) to reflect that processing more
    /// data enlarges hot structures slower than total volume — e.g. a
    /// bigger TeraSort input grows each task's sort buffer only up to the
    /// configured chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> OpProfile {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be non-negative"
        );
        let ws_factor = factor.sqrt().max(f64::MIN_POSITIVE);
        OpProfile {
            name: self.name.clone(),
            instructions: self.instructions.scaled(factor),
            memory_segments: self
                .memory_segments
                .iter()
                .map(|s| MemorySegment {
                    working_set_bytes: ((s.working_set_bytes as f64 * ws_factor).round() as u64)
                        .max(1),
                    ..*s
                })
                .collect(),
            branch: self.branch,
            code_footprint_bytes: self.code_footprint_bytes,
            disk_read_bytes: (self.disk_read_bytes as f64 * factor).round() as u64,
            disk_write_bytes: (self.disk_write_bytes as f64 * factor).round() as u64,
            parallel_fraction: self.parallel_fraction,
        }
    }

    /// Merges another profile into this one, as if the two pieces of work
    /// ran back to back.  Instruction counts and disk bytes add; memory
    /// segments are concatenated with weights rescaled by each side's share
    /// of memory instructions; branch behaviour and the parallel fraction
    /// blend by branch / instruction weight; the code footprint adds
    /// (different code bodies).
    pub fn merge(&self, other: &OpProfile) -> OpProfile {
        let mem_self = self.instructions.memory() as f64;
        let mem_other = other.instructions.memory() as f64;
        let mem_total = mem_self + mem_other;
        let mut segments = Vec::new();
        if mem_total > 0.0 {
            for s in self.normalized_segments() {
                segments.push(MemorySegment {
                    access_weight: s.access_weight * (mem_self / mem_total),
                    ..s
                });
            }
            for s in other.normalized_segments() {
                segments.push(MemorySegment {
                    access_weight: s.access_weight * (mem_other / mem_total),
                    ..s
                });
            }
        }

        let br_self = self.instructions.branch as f64;
        let br_other = other.instructions.branch as f64;
        let branch = if br_self + br_other > 0.0 {
            self.branch
                .blend(&other.branch, br_other / (br_self + br_other))
        } else {
            self.branch
        };

        let inst_self = self.total_instructions() as f64;
        let inst_other = other.total_instructions() as f64;
        let parallel_fraction = if inst_self + inst_other > 0.0 {
            (self.parallel_fraction * inst_self + other.parallel_fraction * inst_other)
                / (inst_self + inst_other)
        } else {
            self.parallel_fraction
        };

        OpProfile {
            name: format!("{}+{}", self.name, other.name),
            instructions: self.instructions.add(&other.instructions),
            memory_segments: segments,
            branch,
            code_footprint_bytes: self.code_footprint_bytes.max(other.code_footprint_bytes)
                + self.code_footprint_bytes.min(other.code_footprint_bytes) / 4,
            disk_read_bytes: self.disk_read_bytes + other.disk_read_bytes,
            disk_write_bytes: self.disk_write_bytes + other.disk_write_bytes,
            parallel_fraction,
        }
    }

    /// Merges a whole sequence of profiles (`None` if the iterator is
    /// empty).
    pub fn merge_all<I: IntoIterator<Item = OpProfile>>(profiles: I) -> Option<OpProfile> {
        profiles.into_iter().reduce(|a, b| a.merge(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(name: &str, loads: u64) -> OpProfile {
        OpProfile {
            name: name.to_string(),
            instructions: InstructionCounts {
                integer: 100,
                floating_point: 20,
                load: loads,
                store: 30,
                branch: 40,
            },
            memory_segments: vec![MemorySegment::new(AccessPattern::Sequential, 1 << 20, 1.0)],
            branch: BranchBehavior::loop_dominated(),
            code_footprint_bytes: 8 * 1024,
            disk_read_bytes: 1000,
            disk_write_bytes: 500,
            parallel_fraction: 0.9,
        }
    }

    #[test]
    fn counts_total_and_mix() {
        let c = InstructionCounts {
            integer: 40,
            floating_point: 10,
            load: 25,
            store: 15,
            branch: 10,
        };
        assert_eq!(c.total(), 100);
        assert_eq!(c.memory(), 40);
        assert!((c.mix().integer - 0.4).abs() < 1e-12);
    }

    #[test]
    fn scaled_counts_round() {
        let c = InstructionCounts {
            integer: 3,
            floating_point: 0,
            load: 0,
            store: 0,
            branch: 0,
        };
        assert_eq!(c.scaled(2.5).integer, 8);
        assert_eq!(c.scaled(0.0).integer, 0);
    }

    #[test]
    fn scaling_preserves_mix_and_scales_io() {
        let p = profile("a", 50);
        let s = p.scaled(10.0);
        assert_eq!(s.total_instructions(), p.total_instructions() * 10);
        assert_eq!(s.disk_read_bytes, 10_000);
        let m0 = p.instructions.mix();
        let m1 = s.instructions.mix();
        assert!((m0.integer - m1.integer).abs() < 1e-9);
        // Working set grows sub-linearly.
        assert!(
            s.memory_segments[0].working_set_bytes < 10 * p.memory_segments[0].working_set_bytes
        );
        assert!(s.memory_segments[0].working_set_bytes > p.memory_segments[0].working_set_bytes);
    }

    #[test]
    fn merge_adds_instructions_and_io() {
        let a = profile("a", 50);
        let b = profile("b", 150);
        let m = a.merge(&b);
        assert_eq!(
            m.total_instructions(),
            a.total_instructions() + b.total_instructions()
        );
        assert_eq!(m.disk_read_bytes, 2000);
        assert_eq!(m.code_footprint_bytes, 8 * 1024 + 2 * 1024);
    }

    #[test]
    fn merge_weights_segments_by_memory_share() {
        let a = profile("a", 70); // memory = 100
        let b = profile("b", 270); // memory = 300
        let m = a.merge(&b);
        let weights: Vec<f64> = m.memory_segments.iter().map(|s| s.access_weight).collect();
        assert_eq!(weights.len(), 2);
        assert!((weights[0] - 0.25).abs() < 1e-9, "{weights:?}");
        assert!((weights[1] - 0.75).abs() < 1e-9, "{weights:?}");
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn normalized_segments_sum_to_one() {
        let mut p = profile("a", 10);
        p.memory_segments = vec![
            MemorySegment::new(AccessPattern::Random, 1 << 16, 0.5),
            MemorySegment::new(AccessPattern::Sequential, 1 << 20, 1.5),
        ];
        let n = p.normalized_segments();
        let sum: f64 = n.iter().map(|s| s.access_weight).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((n[0].access_weight - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_all_of_empty_is_none() {
        assert!(OpProfile::merge_all(Vec::new()).is_none());
    }

    #[test]
    fn merge_all_folds_left() {
        let merged =
            OpProfile::merge_all(vec![profile("a", 10), profile("b", 10), profile("c", 10)])
                .unwrap();
        assert_eq!(
            merged.total_instructions(),
            3 * profile("x", 10).total_instructions()
        );
    }

    #[test]
    fn branch_behavior_blend_is_bounded() {
        let a = BranchBehavior::loop_dominated();
        let b = BranchBehavior::new(0.5, 0.15);
        let m = a.blend(&b, 0.5);
        assert!(m.regularity < a.regularity && m.regularity > b.regularity);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn segment_rejects_negative_weight() {
        let _ = MemorySegment::new(AccessPattern::Random, 100, -0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative_factor() {
        let _ = profile("a", 10).scaled(-1.0);
    }
}
