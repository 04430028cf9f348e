//! Per-motif configuration — the implementation-side view of Table I.
//!
//! The proxy generator (in `dmpb-core`) owns the full parameter vector
//! **P**; when it runs or models one motif it translates the relevant
//! entries into this [`MotifConfig`]: the chunk size processed per task,
//! the number of tasks, and the tensor geometry for the AI motifs.

/// Configuration of a single motif invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotifConfig {
    /// Data block size processed by each worker task, in bytes
    /// (`chunkSize` of Table I).
    pub chunk_bytes: u64,
    /// Number of worker tasks (`numTasks`).
    pub num_tasks: u32,
    /// Batch size per iteration for AI motifs (`batchSize`).
    pub batch_size: u32,
    /// Input / filter height for AI motifs (`heightSize`).
    pub height: u32,
    /// Input / filter width for AI motifs (`widthSize`).
    pub width: u32,
    /// Number of channels for AI motifs (`numChannels`).
    pub channels: u32,
    /// Convolution filter spatial size (filters are square).
    pub filter_size: u32,
    /// Whether intermediate results are spilled to disk between phases, as
    /// the Hadoop-style big-data motifs do.
    pub spill_to_disk: bool,
}

impl MotifConfig {
    /// A sensible default for big-data motifs: 64 MB chunks (the HDFS
    /// default block size), 8 tasks, spilling intermediates to disk.
    pub fn big_data_default() -> Self {
        Self {
            chunk_bytes: 64 * 1024 * 1024,
            num_tasks: 8,
            batch_size: 1,
            height: 1,
            width: 1,
            channels: 1,
            filter_size: 1,
            spill_to_disk: true,
        }
    }

    /// A sensible default for AI motifs: CIFAR-sized tensors, batch 128,
    /// no disk spilling (TensorFlow keeps activations in memory).
    pub fn ai_default() -> Self {
        Self {
            chunk_bytes: 8 * 1024 * 1024,
            num_tasks: 8,
            batch_size: 128,
            height: 32,
            width: 32,
            channels: 3,
            filter_size: 3,
            spill_to_disk: false,
        }
    }

    /// Returns a copy with a different task count.
    pub fn with_num_tasks(mut self, num_tasks: u32) -> Self {
        self.num_tasks = num_tasks;
        self
    }

    /// Returns a copy with a different batch size.
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Returns a copy with different tensor geometry.
    pub fn with_geometry(mut self, height: u32, width: u32, channels: u32) -> Self {
        self.height = height;
        self.width = width;
        self.channels = channels;
        self
    }

    /// Elements in one image/feature-map of the configured geometry.
    pub fn spatial_elements(&self) -> u64 {
        u64::from(self.height) * u64::from(self.width) * u64::from(self.channels)
    }
}

impl Default for MotifConfig {
    fn default() -> Self {
        Self::big_data_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_differ_between_families() {
        let bd = MotifConfig::big_data_default();
        let ai = MotifConfig::ai_default();
        assert!(bd.spill_to_disk);
        assert!(!ai.spill_to_disk);
        assert_eq!(bd.chunk_bytes, 64 * 1024 * 1024);
        assert_eq!(ai.batch_size, 128);
    }

    #[test]
    fn builders_set_fields() {
        let c = MotifConfig::ai_default()
            .with_batch_size(32)
            .with_geometry(299, 299, 3)
            .with_num_tasks(4);
        assert_eq!(c.batch_size, 32);
        assert_eq!(c.height, 299);
        assert_eq!(c.num_tasks, 4);
        assert_eq!(c.spatial_elements(), 299 * 299 * 3);
    }
}
