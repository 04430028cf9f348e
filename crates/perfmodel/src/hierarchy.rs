//! The modelled cache hierarchy: per-core L1D, private L2 and a shared L3,
//! as configured by an [`crate::arch::ArchProfile`].
//!
//! The hierarchy is inclusive-agnostic: each level is looked up only when
//! the previous level missed, which is exactly how the hit ratios of
//! Table V are defined (`L2 hit ratio` = hits in L2 / accesses that reached
//! L2).  The L1I is not part of it: no other level's state reaches the
//! L1I, so the engine simulates it on its own and forwards its misses with
//! [`CacheHierarchy::forward_l1_miss`] (see [`crate::engine`]).

use crate::arch::ArchProfile;
use crate::cache::{AccessOutcome, Cache, CacheStats};

/// Which cache level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ServedBy {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the unified L2.
    L2,
    /// Hit in the shared L3.
    L3,
    /// Missed everywhere; served by main memory.
    Memory,
}

/// The L1D, L2 and L3 of one core, with an entry point at L2 for the
/// misses of an L1I simulated apart.
#[derive(Debug, Clone)]
pub(crate) struct CacheHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
}

impl CacheHierarchy {
    /// Builds the hierarchy described by an architecture profile.
    pub(crate) fn for_arch(arch: &ArchProfile) -> Self {
        Self {
            l1d: Cache::new(arch.l1d),
            l2: Cache::new(arch.l2),
            l3: Cache::new(arch.l3),
        }
    }

    /// Performs `times` data accesses in a row to the line of `address`
    /// and reports where the first was served; the others hit the L1D.
    pub(crate) fn access_data_repeated(&mut self, address: u64, times: u64) -> ServedBy {
        if self.l1d.access_repeated(address, times) == AccessOutcome::Hit {
            return ServedBy::L1;
        }
        self.forward_l1_miss(address)
    }

    /// Looks up an access that missed a first-level cache (the L1D, or an
    /// L1I simulated apart) in L2, then L3.
    pub(crate) fn forward_l1_miss(&mut self, address: u64) -> ServedBy {
        if self.l2.access(address) == AccessOutcome::Hit {
            return ServedBy::L2;
        }
        if self.l3.access(address) == AccessOutcome::Hit {
            return ServedBy::L3;
        }
        ServedBy::Memory
    }

    /// Clears all statistics while keeping cache contents, so that a
    /// warm-up pass does not distort steady-state hit ratios.
    pub(crate) fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
    }

    /// Statistics of the L1 data cache.
    pub(crate) fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Statistics of the L2 cache (accesses that missed in either L1).
    pub(crate) fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Statistics of the L3 cache (accesses that missed in L2).
    pub(crate) fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::for_arch(&ArchProfile::westmere_e5645())
    }

    #[test]
    fn small_working_set_hits_l1() {
        let mut h = hierarchy();
        // 16 KB working set fits comfortably in the 32 KB L1D.
        for _ in 0..4 {
            for i in 0..(16 * 1024 / 64) {
                h.access_data_repeated(i * 64, 1);
            }
        }
        assert!(
            h.l1d_stats().hit_ratio() > 0.7,
            "l1d {}",
            h.l1d_stats().hit_ratio()
        );
    }

    #[test]
    fn medium_working_set_falls_into_l2() {
        let mut h = hierarchy();
        // 128 KB working set: too big for the 32 KB L1D, fits in 256 KB L2.
        for _ in 0..4 {
            for i in 0..(128 * 1024 / 64) {
                h.access_data_repeated(i * 64, 1);
            }
        }
        assert!(
            h.l1d_stats().hit_ratio() < 0.2,
            "l1d {}",
            h.l1d_stats().hit_ratio()
        );
        assert!(
            h.l2_stats().hit_ratio() > 0.6,
            "l2 {}",
            h.l2_stats().hit_ratio()
        );
    }

    #[test]
    fn huge_working_set_reaches_memory() {
        let mut h = hierarchy();
        // 64 MB streaming working set blows through the 12 MB L3.
        for i in 0..(64 * 1024 * 1024 / 64) {
            h.access_data_repeated(i * 64, 1);
        }
        assert!(
            h.l3_stats().hit_ratio() < 0.2,
            "l3 {}",
            h.l3_stats().hit_ratio()
        );
    }

    #[test]
    fn instruction_and_data_paths_are_split_at_l1() {
        let mut h = hierarchy();
        // An L1I miss enters at L2: it warms L2 but leaves the L1D alone.
        assert_eq!(h.forward_l1_miss(0x400_000), ServedBy::Memory);
        assert_eq!(h.l1d_stats().accesses(), 0);
        assert_eq!(
            h.access_data_repeated(0x400_000, 1),
            ServedBy::L2,
            "L2 holds the fetched line"
        );
        for _ in 0..10 {
            assert_eq!(h.access_data_repeated(0x400_000, 1), ServedBy::L1);
        }
        assert_eq!(h.l1d_stats().misses, 1);
        assert_eq!(h.l2_stats().accesses(), 2);
    }

    #[test]
    fn repeated_accesses_hit_the_l1d_after_the_first() {
        let mut h = hierarchy();
        assert_eq!(h.access_data_repeated(0x1230, 5), ServedBy::Memory);
        assert_eq!(h.access_data_repeated(0x1238, 3), ServedBy::L1);
        assert_eq!(h.l1d_stats().misses, 1);
        assert_eq!(h.l1d_stats().hits, 7);
        assert_eq!(h.l2_stats().accesses(), 1);
    }

    #[test]
    fn served_by_reports_the_correct_level() {
        let mut h = hierarchy();
        assert_eq!(
            h.access_data_repeated(0x1234, 1),
            ServedBy::Memory,
            "cold miss"
        );
        assert_eq!(
            h.access_data_repeated(0x1234, 1),
            ServedBy::L1,
            "now resident"
        );
    }

    #[test]
    fn l2_only_sees_l1_misses() {
        let mut h = hierarchy();
        for _ in 0..100 {
            h.access_data_repeated(0x40, 1);
        }
        assert_eq!(h.l2_stats().accesses(), 1, "only the cold miss reached L2");
    }
}
