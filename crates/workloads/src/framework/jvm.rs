//! JVM overhead model: object churn, garbage collection and the large code
//! footprint of the managed runtime.
//!
//! The model is intentionally coarse: for every byte of user data a Hadoop
//! task processes, the JVM executes a fixed number of additional
//! instructions (deserialisation into objects, boxing, writable copying,
//! GC marking and compaction).  The constants are calibrated so that the
//! composed workload models land in the same runtime range the paper
//! reports for its 100 GB inputs on the five-node cluster.

use dmpb_perfmodel::access::AccessPattern;
use dmpb_perfmodel::profile::{BranchBehavior, InstructionCounts, MemorySegment, OpProfile};

/// Instructions the managed runtime executes per byte of user data moved
/// through a Hadoop task pipeline (deserialisation, object creation,
/// comparisons through comparators, GC work).
pub const JVM_INSTRUCTIONS_PER_BYTE: f64 = 55.0;

/// Code footprint of the JVM + Hadoop runtime (far beyond any L1I).
pub(crate) const JVM_CODE_FOOTPRINT_BYTES: u64 = 6 * 1024 * 1024;

/// Builds the JVM overhead profile for `processed_bytes` of user data with
/// the given live-heap working set.
pub fn jvm_overhead_profile(processed_bytes: u64, heap_bytes: u64) -> OpProfile {
    let instructions = processed_bytes as f64 * JVM_INSTRUCTIONS_PER_BYTE;
    let mut profile = OpProfile::new("jvm-overhead");
    profile.instructions = InstructionCounts {
        integer: (instructions * 0.40) as u64,
        floating_point: (instructions * 0.01) as u64,
        load: (instructions * 0.27) as u64,
        store: (instructions * 0.12) as u64,
        branch: (instructions * 0.20) as u64,
    };
    profile.memory_segments = vec![
        // Most accesses hit hot young-generation objects and task-local
        // buffers; the rest walk colder object graphs (GC marking, spill
        // index lookups) over a slice of the live heap.
        MemorySegment::new(
            AccessPattern::Sequential,
            (processed_bytes / 8).max(1 << 20),
            0.62,
        ),
        MemorySegment::new(AccessPattern::Random, 2 << 20, 0.30),
        MemorySegment::new(
            AccessPattern::PointerChase,
            (heap_bytes / 128).max(48 << 20),
            0.08,
        ),
    ];
    profile.branch = BranchBehavior::new(0.55, 0.88);
    profile.code_footprint_bytes = JVM_CODE_FOOTPRINT_BYTES;
    // MapReduce barriers, single-threaded merges and task scheduling limit
    // how much of the stack work parallelises across the node's cores.
    profile.parallel_fraction = 0.72;
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_scales_with_processed_bytes() {
        let small = jvm_overhead_profile(1 << 20, 1 << 30);
        let large = jvm_overhead_profile(1 << 30, 1 << 30);
        let ratio = large.total_instructions() as f64 / small.total_instructions() as f64;
        assert!((900.0..=1100.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn overhead_is_integer_and_memory_heavy_not_fp() {
        let p = jvm_overhead_profile(1 << 30, 1 << 30);
        let mix = p.instructions.mix();
        assert!(mix.floating_point < 0.05);
        assert!(mix.integer > 0.3);
        assert!(mix.data_movement() > 0.3);
    }

    #[test]
    fn overhead_has_a_huge_code_footprint_and_pointer_chasing() {
        let p = jvm_overhead_profile(1 << 30, 1 << 30);
        assert!(p.code_footprint_bytes > 1 << 20);
        assert!(p
            .memory_segments
            .iter()
            .any(|s| matches!(s.pattern, AccessPattern::PointerChase)));
    }
}
