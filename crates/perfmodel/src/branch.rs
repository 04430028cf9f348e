//! Branch prediction models.
//!
//! The metric vector tracks the branch miss-prediction ratio (`br_miss`),
//! so the engine needs a predictor that responds to how *regular* a
//! workload's branch behaviour is — sorted data and tight numeric loops
//! predict well, hash-partitioned shuffles and pointer-chasing graph code
//! predict worse.  A classic gshare predictor (global history XOR PC
//! indexing a table of two-bit saturating counters) over a sampled branch
//! outcome stream captures exactly that.

use crate::arch::BranchPredictorConfig;

/// A two-bit saturating counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TwoBitCounter(u8);

impl TwoBitCounter {
    fn new() -> Self {
        // Start weakly taken, the conventional initial state.
        TwoBitCounter(2)
    }

    fn predict(&self) -> bool {
        self.0 >= 2
    }

    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Running prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BranchStats {
    /// Number of predicted branches.
    pub predictions: u64,
    /// Number of mispredictions.
    pub mispredictions: u64,
}

impl BranchStats {
    /// Misprediction ratio; 0.0 when no branches were predicted.
    pub(crate) fn miss_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

/// A gshare predictor: global history XORed with the PC indexes a table of
/// two-bit counters.
#[derive(Debug, Clone)]
pub(crate) struct GsharePredictor {
    table: Vec<TwoBitCounter>,
    mask: u64,
    history: u64,
    history_mask: u64,
    stats: BranchStats,
}

impl GsharePredictor {
    /// Creates a predictor from an architecture's branch configuration.
    pub(crate) fn from_config(config: BranchPredictorConfig) -> Self {
        Self::new(config.gshare_bits, config.history_bits)
    }

    /// Creates a predictor with `2^index_bits` counters and
    /// `history_bits` bits of global history.
    pub(crate) fn new(index_bits: u32, history_bits: u32) -> Self {
        let size = 1usize << index_bits;
        Self {
            table: vec![TwoBitCounter::new(); size],
            mask: (size - 1) as u64,
            history: 0,
            history_mask: (1u64 << history_bits.min(63)) - 1,
            stats: BranchStats::default(),
        }
    }

    /// Predicts and then trains on the actual outcome, returning whether
    /// the prediction was correct.
    pub(crate) fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let idx = (((pc >> 2) ^ self.history) & self.mask) as usize;
        let predicted = self.table[idx].predict();
        self.table[idx].update(taken);
        self.history = ((self.history << 1) | u64::from(taken)) & self.history_mask;
        self.stats.predictions += 1;
        let correct = predicted == taken;
        if !correct {
            self.stats.mispredictions += 1;
        }
        correct
    }

    /// Accumulated statistics.
    pub(crate) fn stats(&self) -> BranchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn two_bit_counter_saturates() {
        let mut c = TwoBitCounter::new();
        for _ in 0..10 {
            c.update(true);
        }
        assert!(c.predict());
        for _ in 0..10 {
            c.update(false);
        }
        assert!(!c.predict());
    }

    #[test]
    fn always_taken_branch_predicts_well() {
        let mut p = GsharePredictor::new(12, 10);
        for i in 0..10_000u64 {
            p.predict_and_update(0x400_000 + (i % 4) * 8, true);
        }
        assert!(
            p.stats().miss_ratio() < 0.01,
            "miss {}",
            p.stats().miss_ratio()
        );
    }

    #[test]
    fn alternating_pattern_is_learned_by_gshare() {
        let mut gshare = GsharePredictor::new(12, 10);
        for i in 0..20_000u64 {
            gshare.predict_and_update(0x400_100, i % 2 == 0);
        }
        assert!(
            gshare.stats().miss_ratio() < 0.05,
            "gshare {}",
            gshare.stats().miss_ratio()
        );
    }

    #[test]
    fn random_branches_mispredict_around_half() {
        let mut p = GsharePredictor::new(13, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..50_000 {
            p.predict_and_update(0x400_200, rng.gen());
        }
        let miss = p.stats().miss_ratio();
        assert!((0.4..=0.6).contains(&miss), "miss {miss}");
    }

    #[test]
    fn empty_stats_have_zero_miss_ratio() {
        assert_eq!(BranchStats::default().miss_ratio(), 0.0);
    }

    #[test]
    fn from_config_uses_arch_sizes() {
        let cfg = crate::arch::ArchProfile::westmere_e5645().branch;
        let p = GsharePredictor::from_config(cfg);
        assert_eq!(p.table.len(), 1 << cfg.gshare_bits);
    }
}
