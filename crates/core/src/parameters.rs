//! The parameter vector **P** (Table I of the paper).

use dmpb_motifs::MotifConfig;

/// One tunable parameter of a proxy benchmark (the rows of Table I, plus
/// the framework-emulation weight of the light-weight stack model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ParameterId {
    /// Input data size processed by the proxy (`dataSize` / `totalSize`).
    DataSize,
    /// Data block size processed by each thread (`chunkSize`).
    ChunkSize,
    /// Process / thread count (`numTasks`).
    NumTasks,
    /// Contribution of each data motif (`weight`) — adjusted jointly as a
    /// skew between compute-heavy and data-movement-heavy motifs.
    Weight,
    /// Batch size per iteration for AI motifs (`batchSize`).
    BatchSize,
    /// Weight of the software-stack emulation component (the unified
    /// memory-management / GC-like module of the motif implementations).
    FrameworkWeight,
}

impl ParameterId {
    /// Every tunable parameter in a stable order.
    pub const ALL: [ParameterId; 6] = [
        ParameterId::DataSize,
        ParameterId::ChunkSize,
        ParameterId::NumTasks,
        ParameterId::Weight,
        ParameterId::BatchSize,
        ParameterId::FrameworkWeight,
    ];

    /// Short name used in reports (Table I naming).
    pub fn name(&self) -> &'static str {
        match self {
            ParameterId::DataSize => "dataSize",
            ParameterId::ChunkSize => "chunkSize",
            ParameterId::NumTasks => "numTasks",
            ParameterId::Weight => "weight",
            ParameterId::BatchSize => "batchSize",
            ParameterId::FrameworkWeight => "frameworkWeight",
        }
    }
}

impl std::fmt::Display for ParameterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Direction of a parameter adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increase the parameter.
    Up,
    /// Decrease the parameter.
    Down,
}

/// The concrete parameter vector of one proxy benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxyParameters {
    /// Input data volume the proxy processes, in bytes.
    pub data_size_bytes: u64,
    /// Chunk size per worker task, in bytes.
    pub chunk_size_bytes: u64,
    /// Number of worker tasks.
    pub num_tasks: u32,
    /// Skew applied to the motif weights: 1.0 keeps the decomposition's
    /// execution ratios, values above 1.0 emphasise the dominant motif
    /// class, values below de-emphasise it.  Kept within ±10 % of neutral,
    /// as the paper allows.
    pub weight_skew: f64,
    /// Batch size for AI motifs.
    pub batch_size: u32,
    /// Tensor geometry for AI motifs (height, width, channels).
    pub geometry: (u32, u32, u32),
    /// Fraction of the proxy's work spent in the software-stack emulation
    /// component (GC-like memory management, runtime dispatch).
    pub framework_weight: f64,
    /// Whether the proxy spills intermediate data to disk (big data
    /// proxies do, AI proxies do not).
    pub spill_to_disk: bool,
}

/// Bounds that keep a tuned parameter vector sensible.
const MIN_DATA_SIZE: u64 = 4 << 20;
const MAX_DATA_SIZE: u64 = 8 << 30;
const MIN_CHUNK: u64 = 64 * 1024;
const MAX_CHUNK: u64 = 512 << 20;
const MAX_TASKS: u32 = 256;
const WEIGHT_SKEW_RANGE: (f64, f64) = (0.9, 1.1);
const FRAMEWORK_RANGE: (f64, f64) = (0.0, 0.85);

impl ProxyParameters {
    /// Default starting point for a big-data proxy over `data_size_bytes`.
    pub fn big_data(data_size_bytes: u64, num_tasks: u32) -> Self {
        Self {
            data_size_bytes,
            chunk_size_bytes: 8 << 20,
            num_tasks,
            weight_skew: 1.0,
            batch_size: 1,
            geometry: (1, 1, 1),
            framework_weight: 0.45,
            spill_to_disk: true,
        }
    }

    /// Default starting point for an AI proxy over `data_size_bytes`.
    pub(crate) fn ai(
        data_size_bytes: u64,
        num_tasks: u32,
        batch_size: u32,
        geometry: (u32, u32, u32),
    ) -> Self {
        Self {
            data_size_bytes,
            chunk_size_bytes: 8 << 20,
            num_tasks,
            weight_skew: 1.0,
            batch_size,
            geometry,
            framework_weight: 0.08,
            spill_to_disk: false,
        }
    }

    /// Returns a copy with `id` nudged in `direction` by one tuning step,
    /// clamped to its legal range.
    pub fn adjusted(&self, id: ParameterId, direction: Direction) -> Self {
        let mut next = *self;
        let up = direction == Direction::Up;
        match id {
            ParameterId::DataSize => {
                let factor = if up { 1.3 } else { 1.0 / 1.3 };
                next.data_size_bytes = ((self.data_size_bytes as f64 * factor) as u64)
                    .clamp(MIN_DATA_SIZE, MAX_DATA_SIZE);
            }
            ParameterId::ChunkSize => {
                let factor = if up { 2.0 } else { 0.5 };
                next.chunk_size_bytes =
                    ((self.chunk_size_bytes as f64 * factor) as u64).clamp(MIN_CHUNK, MAX_CHUNK);
            }
            ParameterId::NumTasks => {
                next.num_tasks = if up {
                    (self.num_tasks + self.num_tasks.max(2) / 2).min(MAX_TASKS)
                } else {
                    (self.num_tasks.saturating_sub(self.num_tasks / 3)).max(1)
                };
            }
            ParameterId::Weight => {
                let delta = if up { 0.05 } else { -0.05 };
                next.weight_skew =
                    (self.weight_skew + delta).clamp(WEIGHT_SKEW_RANGE.0, WEIGHT_SKEW_RANGE.1);
            }
            ParameterId::BatchSize => {
                next.batch_size = if up {
                    (self.batch_size * 2).min(1024)
                } else {
                    (self.batch_size / 2).max(1)
                };
            }
            ParameterId::FrameworkWeight => {
                let delta = if up { 0.1 } else { -0.1 };
                next.framework_weight =
                    (self.framework_weight + delta).clamp(FRAMEWORK_RANGE.0, FRAMEWORK_RANGE.1);
            }
        }
        next
    }

    /// The motif-level configuration this parameter vector implies.
    pub(crate) fn motif_config(&self) -> MotifConfig {
        MotifConfig {
            chunk_bytes: self.chunk_size_bytes,
            num_tasks: self.num_tasks,
            batch_size: self.batch_size,
            height: self.geometry.0,
            width: self.geometry.1,
            channels: self.geometry.2,
            filter_size: 3,
            spill_to_disk: self.spill_to_disk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_names_are_unique_and_match_table_i() {
        let mut names: Vec<&str> = ParameterId::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ParameterId::ALL.len());
        assert!(names.contains(&"dataSize"));
        assert!(names.contains(&"chunkSize"));
        assert!(names.contains(&"numTasks"));
        assert!(names.contains(&"batchSize"));
        assert!(names.contains(&"weight"));
    }

    /// Reads one parameter as a float.
    fn value(p: &ProxyParameters, id: ParameterId) -> f64 {
        match id {
            ParameterId::DataSize => p.data_size_bytes as f64,
            ParameterId::ChunkSize => p.chunk_size_bytes as f64,
            ParameterId::NumTasks => f64::from(p.num_tasks),
            ParameterId::Weight => p.weight_skew,
            ParameterId::BatchSize => f64::from(p.batch_size),
            ParameterId::FrameworkWeight => p.framework_weight,
        }
    }

    #[test]
    fn adjustments_move_in_the_requested_direction_and_are_bounded() {
        let p = ProxyParameters::big_data(256 << 20, 8);
        for id in ParameterId::ALL {
            let up = p.adjusted(id, Direction::Up);
            let down = p.adjusted(id, Direction::Down);
            assert!(value(&up, id) >= value(&p, id), "{id} up");
            assert!(value(&down, id) <= value(&p, id), "{id} down");
        }
        // Repeated weight increases stay within the ±10 % window.
        let mut w = p;
        for _ in 0..10 {
            w = w.adjusted(ParameterId::Weight, Direction::Up);
        }
        assert!(w.weight_skew <= 1.1 + 1e-9);
    }

    #[test]
    fn num_tasks_never_reaches_zero() {
        let mut p = ProxyParameters::big_data(64 << 20, 2);
        for _ in 0..10 {
            p = p.adjusted(ParameterId::NumTasks, Direction::Down);
        }
        assert!(p.num_tasks >= 1);
    }

    #[test]
    fn motif_config_reflects_parameters() {
        let p = ProxyParameters::ai(128 << 20, 4, 64, (32, 32, 3));
        let c = p.motif_config();
        assert_eq!(c.batch_size, 64);
        assert_eq!(c.num_tasks, 4);
        assert!(!c.spill_to_disk);
        assert_eq!((c.height, c.width, c.channels), (32, 32, 3));
    }
}
