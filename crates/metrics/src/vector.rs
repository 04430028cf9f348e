//! The metric vector **M** (Table V of the paper).

use crate::instruction_mix::InstructionMix;

/// Identifier of one metric tracked by the methodology.
///
/// The variants cover every row of Table V: processor performance,
/// instruction mix, branch prediction, cache behaviour, memory bandwidth
/// and disk I/O behaviour, plus the wall-clock runtime used for the
/// speedup tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetricId {
    /// Wall-clock runtime in seconds.
    Runtime,
    /// Instructions per cycle.
    Ipc,
    /// Million instructions per second.
    Mips,
    /// Fraction of integer instructions.
    IntegerRatio,
    /// Fraction of floating-point instructions.
    FloatRatio,
    /// Fraction of load instructions.
    LoadRatio,
    /// Fraction of store instructions.
    StoreRatio,
    /// Fraction of branch instructions.
    BranchRatio,
    /// Branch miss-prediction ratio.
    BranchMissRatio,
    /// L1 instruction-cache hit ratio.
    L1iHitRatio,
    /// L1 data-cache hit ratio.
    L1dHitRatio,
    /// L2 cache hit ratio.
    L2HitRatio,
    /// L3 cache hit ratio.
    L3HitRatio,
    /// Memory read bandwidth in MB/s.
    MemReadBandwidth,
    /// Memory write bandwidth in MB/s.
    MemWriteBandwidth,
    /// Total memory bandwidth in MB/s.
    MemTotalBandwidth,
    /// Disk I/O bandwidth in MB/s (Equation 2 of the paper).
    DiskIoBandwidth,
}

impl MetricId {
    /// Every metric, in report order.
    pub const ALL: [MetricId; 17] = [
        MetricId::Runtime,
        MetricId::Ipc,
        MetricId::Mips,
        MetricId::IntegerRatio,
        MetricId::FloatRatio,
        MetricId::LoadRatio,
        MetricId::StoreRatio,
        MetricId::BranchRatio,
        MetricId::BranchMissRatio,
        MetricId::L1iHitRatio,
        MetricId::L1dHitRatio,
        MetricId::L2HitRatio,
        MetricId::L3HitRatio,
        MetricId::MemReadBandwidth,
        MetricId::MemWriteBandwidth,
        MetricId::MemTotalBandwidth,
        MetricId::DiskIoBandwidth,
    ];

    /// The system-level metrics of Table V (plus runtime).
    pub(crate) const SYSTEM: [MetricId; 5] = [
        MetricId::Runtime,
        MetricId::MemReadBandwidth,
        MetricId::MemWriteBandwidth,
        MetricId::MemTotalBandwidth,
        MetricId::DiskIoBandwidth,
    ];

    /// The default tuning target used by the auto-tuner: every metric of
    /// Table V except raw runtime (the proxy is *supposed* to run much
    /// faster than the original, so runtime itself is never matched).
    pub const TUNABLE: [MetricId; 16] = [
        MetricId::Ipc,
        MetricId::Mips,
        MetricId::IntegerRatio,
        MetricId::FloatRatio,
        MetricId::LoadRatio,
        MetricId::StoreRatio,
        MetricId::BranchRatio,
        MetricId::BranchMissRatio,
        MetricId::L1iHitRatio,
        MetricId::L1dHitRatio,
        MetricId::L2HitRatio,
        MetricId::L3HitRatio,
        MetricId::MemReadBandwidth,
        MetricId::MemWriteBandwidth,
        MetricId::MemTotalBandwidth,
        MetricId::DiskIoBandwidth,
    ];

    /// Short name used in reports (matches the paper's abbreviations where
    /// it has one, e.g. `br_miss`, `read_bw`).
    pub fn name(&self) -> &'static str {
        match self {
            MetricId::Runtime => "runtime",
            MetricId::Ipc => "IPC",
            MetricId::Mips => "MIPS",
            MetricId::IntegerRatio => "int_ratio",
            MetricId::FloatRatio => "fp_ratio",
            MetricId::LoadRatio => "load_ratio",
            MetricId::StoreRatio => "store_ratio",
            MetricId::BranchRatio => "branch_ratio",
            MetricId::BranchMissRatio => "br_miss",
            MetricId::L1iHitRatio => "L1I_hitR",
            MetricId::L1dHitRatio => "L1D_hitR",
            MetricId::L2HitRatio => "L2_hitR",
            MetricId::L3HitRatio => "L3_hitR",
            MetricId::MemReadBandwidth => "read_bw",
            MetricId::MemWriteBandwidth => "write_bw",
            MetricId::MemTotalBandwidth => "mem_bw",
            MetricId::DiskIoBandwidth => "disk_io_bw",
        }
    }

    /// Returns true if the metric belongs to the system-level group.
    pub fn is_system(&self) -> bool {
        MetricId::SYSTEM.contains(self)
    }
}

impl std::fmt::Display for MetricId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The metric vector **M**: one concrete measurement of a workload or
/// proxy benchmark under the shared performance-model instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricVector {
    /// Wall-clock runtime in seconds.
    pub runtime_secs: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Million instructions per second.
    pub mips: f64,
    /// Instruction mix fractions.
    pub instruction_mix: InstructionMix,
    /// Branch miss-prediction ratio.
    pub branch_miss_ratio: f64,
    /// L1 instruction-cache hit ratio.
    pub l1i_hit_ratio: f64,
    /// L1 data-cache hit ratio.
    pub l1d_hit_ratio: f64,
    /// L2 cache hit ratio.
    pub l2_hit_ratio: f64,
    /// L3 cache hit ratio.
    pub l3_hit_ratio: f64,
    /// Memory read bandwidth in MB/s.
    pub mem_read_bw_mbps: f64,
    /// Memory write bandwidth in MB/s.
    pub mem_write_bw_mbps: f64,
    /// Disk I/O bandwidth in MB/s.
    pub disk_io_bw_mbps: f64,
}

impl MetricVector {
    /// Total memory bandwidth (read + write) in MB/s.
    pub fn mem_total_bw_mbps(&self) -> f64 {
        self.mem_read_bw_mbps + self.mem_write_bw_mbps
    }

    /// Looks up a single metric by id.
    pub fn get(&self, id: MetricId) -> f64 {
        match id {
            MetricId::Runtime => self.runtime_secs,
            MetricId::Ipc => self.ipc,
            MetricId::Mips => self.mips,
            MetricId::IntegerRatio => self.instruction_mix.integer,
            MetricId::FloatRatio => self.instruction_mix.floating_point,
            MetricId::LoadRatio => self.instruction_mix.load,
            MetricId::StoreRatio => self.instruction_mix.store,
            MetricId::BranchRatio => self.instruction_mix.branch,
            MetricId::BranchMissRatio => self.branch_miss_ratio,
            MetricId::L1iHitRatio => self.l1i_hit_ratio,
            MetricId::L1dHitRatio => self.l1d_hit_ratio,
            MetricId::L2HitRatio => self.l2_hit_ratio,
            MetricId::L3HitRatio => self.l3_hit_ratio,
            MetricId::MemReadBandwidth => self.mem_read_bw_mbps,
            MetricId::MemWriteBandwidth => self.mem_write_bw_mbps,
            MetricId::MemTotalBandwidth => self.mem_total_bw_mbps(),
            MetricId::DiskIoBandwidth => self.disk_io_bw_mbps,
        }
    }

    /// Iterates over `(id, value)` pairs for every metric in report order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, f64)> + '_ {
        MetricId::ALL.iter().map(move |&id| (id, self.get(id)))
    }

    /// Returns true if every field is finite (guards against division by
    /// zero in downstream accuracy computations).
    pub fn is_finite(&self) -> bool {
        self.iter().all(|(_, v)| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricVector {
        MetricVector {
            runtime_secs: 100.0,
            ipc: 1.2,
            mips: 2_400.0,
            instruction_mix: InstructionMix::from_counts(44, 1, 26, 13, 16),
            branch_miss_ratio: 0.04,
            l1i_hit_ratio: 0.98,
            l1d_hit_ratio: 0.92,
            l2_hit_ratio: 0.6,
            l3_hit_ratio: 0.5,
            mem_read_bw_mbps: 1_800.0,
            mem_write_bw_mbps: 900.0,
            disk_io_bw_mbps: 34.0,
        }
    }

    #[test]
    fn get_covers_every_metric_id() {
        let v = sample();
        for id in MetricId::ALL {
            let value = v.get(id);
            assert!(value.is_finite(), "{id} not finite");
        }
    }

    #[test]
    fn total_bandwidth_is_sum_of_read_and_write() {
        let v = sample();
        assert!((v.get(MetricId::MemTotalBandwidth) - 2_700.0).abs() < 1e-9);
    }

    #[test]
    fn tunable_excludes_runtime() {
        assert!(!MetricId::TUNABLE.contains(&MetricId::Runtime));
        assert_eq!(MetricId::TUNABLE.len(), MetricId::ALL.len() - 1);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = MetricId::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricId::ALL.len());
    }
}
