//! CPI / IPC pipeline model.
//!
//! The model folds the measured cache hit ratios and branch misprediction
//! ratio into a cycles-per-instruction estimate for the architecture,
//! following the standard additive miss-penalty decomposition used by
//! analytical processor models:
//!
//! ```text
//! CPI = CPI_base
//!     + fp_ratio * fp_extra
//!     + mem_ratio * (miss penalties down the hierarchy, scaled by MLP overlap)
//!     + fetch miss penalty
//!     + branch_ratio * miss_ratio * misprediction_penalty
//! ```
//!
//! The miss penalties are damped by the architecture's memory-level
//! parallelism factor; pointer-chasing access patterns expose no MLP and
//! therefore pay closer to the full latency (the workload reports this
//! through [`CacheBehavior::mlp_friendliness`]).

use crate::arch::ArchProfile;
use dmpb_metrics::InstructionMix;

/// Cache hit ratios observed for one run, plus how much memory-level
/// parallelism the access patterns allow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CacheBehavior {
    /// L1 instruction-cache hit ratio.
    pub l1i_hit: f64,
    /// L1 data-cache hit ratio.
    pub l1d_hit: f64,
    /// L2 hit ratio (of accesses reaching L2).
    pub l2_hit: f64,
    /// L3 hit ratio (of accesses reaching L3).
    pub l3_hit: f64,
    /// Fraction of data accesses whose latency can be overlapped, in `[0, 1]`:
    /// 1.0 for fully independent streaming accesses, ~0.0 for pointer chasing.
    pub mlp_friendliness: f64,
}

/// Result of the pipeline model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PipelineEstimate {
    /// Estimated cycles per instruction.
    pub cpi: f64,
    /// Estimated instructions per cycle (capped by the issue width).
    pub ipc: f64,
}

/// Additional cycles per floating-point instruction relative to the base
/// CPI (longer latency units, less ILP in numeric code).
const FP_EXTRA_CPI: f64 = 0.25;
/// Fraction of an instruction-fetch miss penalty that actually stalls the
/// front end (decoupling queues hide the rest).
const FETCH_STALL_FACTOR: f64 = 0.35;

/// Computes the CPI / IPC estimate for one run.
pub(crate) fn estimate(
    arch: &ArchProfile,
    mix: &InstructionMix,
    cache: &CacheBehavior,
    branch_miss_ratio: f64,
) -> PipelineEstimate {
    let mix = mix.normalized();
    let mem_ratio = mix.load + mix.store;

    // Average penalty of one data access, walking down the hierarchy.
    let l1d_miss = 1.0 - cache.l1d_hit;
    let l2_miss = 1.0 - cache.l2_hit;
    let l3_miss = 1.0 - cache.l3_hit;
    let data_penalty_per_access = l1d_miss
        * (arch.l2_latency_cycles
            + l2_miss * (arch.l3_latency_cycles + l3_miss * arch.memory_latency_cycles));

    // Memory-level parallelism hides part of that latency.
    let overlap = (arch.mlp_overlap * cache.mlp_friendliness).clamp(0.0, 0.95);
    let data_penalty = data_penalty_per_access * (1.0 - overlap);

    // Instruction fetch penalty per instruction.  Code is hot relative to
    // data, so instruction misses are served from L2 / L3 rather than DRAM.
    let l1i_miss = 1.0 - cache.l1i_hit;
    let fetch_penalty =
        l1i_miss * (arch.l2_latency_cycles + 0.3 * arch.l3_latency_cycles) * FETCH_STALL_FACTOR;

    let branch_penalty = mix.branch * branch_miss_ratio * arch.branch.misprediction_penalty_cycles;

    let cpi = arch.base_cpi
        + mix.floating_point * FP_EXTRA_CPI
        + mem_ratio * data_penalty
        + fetch_penalty
        + branch_penalty;

    let ipc = (1.0 / cpi).min(arch.issue_width);
    PipelineEstimate { cpi, ipc }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_friendly() -> CacheBehavior {
        CacheBehavior {
            l1i_hit: 0.99,
            l1d_hit: 0.97,
            l2_hit: 0.8,
            l3_hit: 0.7,
            mlp_friendliness: 0.9,
        }
    }

    fn cache_hostile() -> CacheBehavior {
        CacheBehavior {
            l1i_hit: 0.90,
            l1d_hit: 0.6,
            l2_hit: 0.3,
            l3_hit: 0.2,
            mlp_friendliness: 0.2,
        }
    }

    fn typical_mix() -> InstructionMix {
        InstructionMix::from_counts(45, 5, 25, 12, 13)
    }

    #[test]
    fn friendly_code_achieves_high_ipc() {
        let e = estimate(
            &ArchProfile::westmere_e5645(),
            &typical_mix(),
            &cache_friendly(),
            0.02,
        );
        assert!(e.ipc > 1.0, "ipc {}", e.ipc);
        assert!(e.ipc <= 4.0);
    }

    #[test]
    fn hostile_code_is_memory_bound() {
        let good = estimate(
            &ArchProfile::westmere_e5645(),
            &typical_mix(),
            &cache_friendly(),
            0.02,
        );
        let bad = estimate(
            &ArchProfile::westmere_e5645(),
            &typical_mix(),
            &cache_hostile(),
            0.1,
        );
        assert!(
            bad.ipc < good.ipc * 0.5,
            "bad {} vs good {}",
            bad.ipc,
            good.ipc
        );
    }

    #[test]
    fn branch_misses_hurt() {
        let arch = ArchProfile::westmere_e5645();
        let low = estimate(&arch, &typical_mix(), &cache_friendly(), 0.01);
        let high = estimate(&arch, &typical_mix(), &cache_friendly(), 0.2);
        assert!(high.cpi > low.cpi);
    }

    #[test]
    fn haswell_is_faster_than_westmere_on_same_behavior() {
        let mix = typical_mix();
        let w = estimate(
            &ArchProfile::westmere_e5645(),
            &mix,
            &cache_friendly(),
            0.03,
        );
        let h = estimate(
            &ArchProfile::haswell_e5_2620_v3(),
            &mix,
            &cache_friendly(),
            0.03,
        );
        assert!(h.ipc > w.ipc, "haswell {} westmere {}", h.ipc, w.ipc);
    }

    #[test]
    fn fp_heavy_mix_costs_more_base_cycles() {
        let arch = ArchProfile::westmere_e5645();
        let int_mix = InstructionMix::from_counts(70, 0, 15, 5, 10);
        let fp_mix = InstructionMix::from_counts(30, 40, 15, 5, 10);
        let i = estimate(&arch, &int_mix, &cache_friendly(), 0.02);
        let f = estimate(&arch, &fp_mix, &cache_friendly(), 0.02);
        assert!(f.cpi > i.cpi);
    }

    #[test]
    fn ipc_is_capped_by_issue_width() {
        let mut arch = ArchProfile::westmere_e5645();
        arch.base_cpi = 0.05;
        let perfect = CacheBehavior {
            l1i_hit: 1.0,
            l1d_hit: 1.0,
            l2_hit: 1.0,
            l3_hit: 1.0,
            mlp_friendliness: 1.0,
        };
        let e = estimate(&arch, &typical_mix(), &perfect, 0.0);
        assert!(e.ipc <= arch.issue_width);
    }

    #[test]
    fn mlp_unfriendly_access_pays_more() {
        let arch = ArchProfile::westmere_e5645();
        let mut chase = cache_hostile();
        chase.mlp_friendliness = 0.0;
        let mut stream = cache_hostile();
        stream.mlp_friendliness = 1.0;
        let c = estimate(&arch, &typical_mix(), &chase, 0.05);
        let s = estimate(&arch, &typical_mix(), &stream, 0.05);
        assert!(c.cpi > s.cpi);
    }
}
