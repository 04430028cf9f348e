//! Set-associative cache simulation with LRU replacement.
//!
//! One [`Cache`] models a single level; `crate::hierarchy::CacheHierarchy`
//! stacks them into the L1I / L1D / L2 / L3 configuration of the modelled
//! processors.  The simulator is functional (tags only, no data) and
//! deterministic.
//!
//! After any access its line sits at way 0 of its set, where a hit changes
//! nothing, so a run of accesses to one line is one access followed by
//! hits that only count: `Cache::access_repeated`.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
}

impl CacheConfig {
    /// Creates a configuration, validating the geometry.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero, if the line size is not a power of two,
    /// or if the capacity is not divisible by
    /// `line_bytes * associativity`.  (The capacity itself need not be a
    /// power of two: the 12 MB Westmere L3 is not.)
    pub fn new(size_bytes: u64, line_bytes: u64, associativity: u32) -> Self {
        assert!(
            size_bytes > 0 && line_bytes > 0 && associativity > 0,
            "cache geometry must be non-zero"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            size_bytes % (line_bytes * associativity as u64) == 0,
            "capacity must divide evenly into sets"
        );
        Self {
            size_bytes,
            line_bytes,
            associativity,
        }
    }

    /// Number of sets.
    pub(crate) fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.associativity as u64)
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed.
    Miss,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio; defined as 1.0 when there were no accesses (an untouched
    /// cache should not drag an accuracy average down).
    pub(crate) fn hit_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Marks an empty way.  Real tags are checked to stay below it, so an
/// empty way never matches a lookup.
const EMPTY: u32 = u32::MAX;

/// A single set-associative cache level with LRU replacement.
///
/// Tags are stored as `u32` in one flat array, `associativity` ways per
/// set, and each set is kept in recency order: way 0 is the most recently
/// used line, the last valid way the least recently used one, and empty
/// ways (tag `u32::MAX`) sit behind every valid way.  A hit moves its
/// line to way 0, a miss shifts the set one way back (dropping the LRU
/// line, or an empty way while the set is filling) and installs the new
/// tag at way 0.  That evicts exactly the line a per-way last-use
/// timestamp would pick.
///
/// The `u32` tag keeps a 16-way set at 64 bytes, one host cache line's
/// worth.  Its price is an address bound: the tag is the address divided by
/// `line_bytes * num_sets`, which must stay below `u32::MAX` (for a
/// 64-set, 64-byte-line L1 that is addresses under 2^44).  An address
/// beyond it panics instead of aliasing another line.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    num_sets: u64,
    line_shift: u32,
    /// `log2(num_sets)` when the set count is a power of two, so indexing
    /// is a shift and a mask; otherwise `/` and `%` by `num_sets`.
    set_shift: Option<u32>,
    tags: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let ways = config.associativity as usize;
        let lines = usize::try_from(num_sets).expect("set count fits in usize") * ways;
        Self {
            ways,
            num_sets,
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            tags: vec![EMPTY; lines],
            stats: CacheStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics but keeps cache contents.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses `address`, updating LRU state and statistics.
    ///
    /// # Panics
    ///
    /// Panics if the address's tag does not fit below `u32::MAX` (see the
    /// type documentation).
    pub fn access(&mut self, address: u64) -> AccessOutcome {
        let line = address >> self.line_shift;
        let (set_index, tag) = match self.set_shift {
            Some(shift) => (line & (self.num_sets - 1), line >> shift),
            None => (line % self.num_sets, line / self.num_sets),
        };
        assert!(
            tag < u64::from(EMPTY),
            "address {address:#x} is beyond the cache's u32 tag range"
        );
        let tag = tag as u32;
        let start = set_index as usize * self.ways;
        let set = &mut self.tags[start..start + self.ways];

        if let Some(way) = set.iter().position(|&t| t == tag) {
            set[..=way].rotate_right(1);
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }

        self.stats.misses += 1;
        set.copy_within(..self.ways - 1, 1);
        set[0] = tag;
        AccessOutcome::Miss
    }

    /// Accesses `address` `times` times in a row and returns the first
    /// access's outcome.  The first access leaves its line at way 0 of its
    /// set, where each later access is a hit that changes nothing, so the
    /// later ones only count.
    ///
    /// # Panics
    ///
    /// Panics if `times` is zero, or as [`Cache::access`] does.
    pub(crate) fn access_repeated(&mut self, address: u64, times: u64) -> AccessOutcome {
        assert!(times > 0, "at least one access");
        let outcome = self.access(address);
        self.stats.hits += times - 1;
        outcome
    }

    /// Number of resident lines (for tests and invariant checks).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

/// The reference LRU cache: one `Vec<(tag, last-use tick)>` per set,
/// evicting the way with the smallest tick.  The recency-ordered sets of
/// [`Cache`] are tested against it access by access.
#[cfg(test)]
mod reference {
    use super::{AccessOutcome, CacheConfig, CacheStats};

    pub struct ReferenceCache {
        config: CacheConfig,
        sets: Vec<Vec<(u64, u64)>>,
        tick: u64,
        stats: CacheStats,
    }

    impl ReferenceCache {
        pub fn new(config: CacheConfig) -> Self {
            let sets =
                vec![Vec::with_capacity(config.associativity as usize); config.num_sets() as usize];
            Self {
                config,
                sets,
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        pub fn stats(&self) -> CacheStats {
            self.stats
        }

        pub fn access(&mut self, address: u64) -> AccessOutcome {
            self.tick += 1;
            let line = address / self.config.line_bytes;
            let set_index = (line % self.config.num_sets()) as usize;
            let tag = line / self.config.num_sets();
            let set = &mut self.sets[set_index];

            if let Some(entry) = set.iter_mut().find(|(t, _)| *t == tag) {
                entry.1 = self.tick;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }

            self.stats.misses += 1;
            if set.len() < self.config.associativity as usize {
                set.push((tag, self.tick));
            } else {
                let lru = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, t))| *t)
                    .map(|(i, _)| i)
                    .expect("set is full, so non-empty");
                set[lru] = (tag, self.tick);
            }
            AccessOutcome::Miss
        }

        pub fn resident_lines(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cache() -> Cache {
        // 4 sets * 2 ways * 64-byte lines = 512 bytes
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(32 * 1024, 64, 8);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn config_rejects_non_power_of_two_line() {
        let _ = CacheConfig::new(4096, 48, 2);
    }

    #[test]
    fn config_accepts_non_power_of_two_capacity() {
        // The Westmere 12 MB L3 is not a power of two.
        let c = CacheConfig::new(12 * 1024 * 1024, 64, 16);
        assert_eq!(c.num_sets(), 12288);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert_eq!(c.access(0x1000), AccessOutcome::Miss);
        assert_eq!(c.access(0x1000), AccessOutcome::Hit);
        assert_eq!(
            c.access(0x1004),
            AccessOutcome::Hit,
            "same line, different offset"
        );
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64 B = 256 B).
        let a = 0x0000;
        let b = 0x0100 * 4; // different tag, same set 0 -> actually 0x400
        let d = 0x0200 * 4;
        assert_eq!(c.access(a), AccessOutcome::Miss);
        assert_eq!(c.access(b), AccessOutcome::Miss);
        // Touch `a` so `b` becomes LRU.
        assert_eq!(c.access(a), AccessOutcome::Hit);
        // Insert third line: evicts b.
        assert_eq!(c.access(d), AccessOutcome::Miss);
        assert_eq!(c.access(a), AccessOutcome::Hit);
        assert_eq!(c.access(b), AccessOutcome::Miss, "b was evicted");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = small_cache();
        // Stream over 64 distinct lines twice: 512-byte cache holds 8 lines,
        // so the second pass still misses everything (LRU streaming).
        for pass in 0..2 {
            for i in 0..64u64 {
                let outcome = c.access(i * 64);
                if pass == 1 {
                    assert_eq!(outcome, AccessOutcome::Miss);
                }
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = small_cache();
        for _ in 0..4 {
            for i in 0..4u64 {
                c.access(i * 64);
            }
        }
        // 4 cold misses, the remaining 12 accesses hit.
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().hits, 12);
    }

    #[test]
    fn resident_lines_never_exceed_capacity() {
        let mut c = small_cache();
        for i in 0..1000u64 {
            c.access(i * 64 * 3);
        }
        assert!(c.resident_lines() <= 8);
    }

    #[test]
    fn empty_stats_hit_ratio_is_one() {
        assert_eq!(CacheStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = small_cache();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(
            c.access(0),
            AccessOutcome::Hit,
            "line survived the stats reset"
        );
    }

    /// Draws one address stream: `pattern` 0 is sequential, 1 strided, 2
    /// random and 3 a random mix of the three, over a span of `span`
    /// bytes from `base`.
    fn address_stream(pattern: u32, base: u64, span: u64, len: usize, seed: u64) -> Vec<u64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let stride = rng.gen_range(1..(span / 4).max(2));
        let mut cursor = 0u64;
        (0..len)
            .map(|_| {
                let kind = if pattern == 3 {
                    rng.gen_range(0..3)
                } else {
                    pattern
                };
                let offset = match kind {
                    0 => {
                        cursor = (cursor + 8) % span;
                        cursor
                    }
                    1 => {
                        cursor = (cursor + stride) % span;
                        cursor
                    }
                    _ => rng.gen_range(0..span),
                };
                base + offset
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The recency-ordered cache makes the reference's choice on every
        /// access, for power-of-two and other set counts, 1 to 16 ways and
        /// 32- to 128-byte lines, over sequential, strided, random and
        /// mixed streams whose span ranges from a fraction of the cache to
        /// several times its size.
        #[test]
        fn recency_sets_match_the_tick_reference(
            sets in 1u64..200,
            power_of_two_sets in 0u32..2,
            ways in 1u32..17,
            line_log in 5u32..8,
            pattern in 0u32..4,
            span_eighths in 1u64..40,
            high_base in 0u32..2,
            len in 1usize..3000,
            seed in 0u64..u64::MAX,
        ) {
            let sets = if power_of_two_sets == 1 { sets.next_power_of_two() } else { sets };
            let line = 1u64 << line_log;
            let config = CacheConfig::new(sets * u64::from(ways) * line, line, ways);
            let span = (config.size_bytes * span_eighths / 8).max(1);
            // Either low addresses or ones whose tags sit near the top of
            // the u32 range.
            let base = if high_base == 1 {
                (u64::from(u32::MAX) - 1 - 4 * (span / (line * sets) + 1)) * line * sets
            } else {
                0
            };
            let mut cache = Cache::new(config);
            let mut oracle = reference::ReferenceCache::new(config);
            let stream = address_stream(pattern, base, span, len, seed);
            for (i, address) in stream.into_iter().enumerate() {
                prop_assert_eq!(
                    cache.access(address),
                    oracle.access(address),
                    "access {} at {:#x}", i, address
                );
                prop_assert_eq!(cache.stats(), oracle.stats());
                prop_assert_eq!(cache.resident_lines(), oracle.resident_lines());
            }
        }
    }

    #[test]
    fn repeated_accesses_count_as_hits() {
        let mut c = small_cache();
        assert_eq!(c.access_repeated(0x1000, 4), AccessOutcome::Miss);
        assert_eq!(c.access_repeated(0x1008, 1), AccessOutcome::Hit);
        assert_eq!(c.stats(), CacheStats { hits: 4, misses: 1 });
    }

    #[test]
    #[should_panic(expected = "u32 tag range")]
    fn tag_beyond_u32_panics_instead_of_aliasing() {
        // 64 sets of 64-byte lines: the tag is address >> 12 and must stay
        // below u32::MAX, the empty-way sentinel.
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 64, 8));
        c.access((1 << 44) - 2 * 4096);
        c.access((1 << 44) - 4096);
    }
}
