//! Memory access-pattern descriptors and sampled address streams.
//!
//! Simulating every memory access of a 100 GB workload is exactly the cost
//! the paper is trying to avoid, so the engine works from *descriptors*: a
//! kernel states how it walks memory (sequentially, strided, randomly over
//! some working set, or pointer-chasing) and how many bytes it touches, and
//! the engine draws a bounded, seeded sample of concrete addresses from the
//! descriptor to drive the cache hierarchy.  The hit ratios measured on the
//! sample stand in for the full run — the same idea as sampled simulation,
//! applied to a synthetic stream whose locality matches the kernel.
//!
//! A stream is drawn in line-granular runs (`AddressStream::next_run`):
//! each call returns an address and how many of the following accesses
//! fall in its cache line, computed from the pattern rather than by
//! walking them, so the engine sends one access per run through the
//! hierarchy.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// How a kernel walks a region of memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Consecutive addresses (streaming read/write, e.g. scanning records).
    Sequential,
    /// Fixed stride in bytes (e.g. column walks, batched feature access).
    Strided {
        /// Stride between consecutive accesses in bytes.
        stride_bytes: u64,
    },
    /// Uniformly random addresses within the working set (hash tables,
    /// shuffle buffers, histogram updates).
    Random,
    /// Dependent chain of random addresses (graph traversal, linked
    /// structures); behaves like `Random` for hit ratios but exposes no
    /// memory-level parallelism to the pipeline model.
    PointerChase,
}

/// Number of consecutive same-object (same cache line) accesses a random
/// or pointer-chasing walk performs before moving to the next object.
/// Real object accesses read several fields of the object they land on,
/// which is why even "random" heap traffic retains intra-line locality.
const FIELDS_PER_OBJECT: u32 = 3;

/// A deterministic generator of sample addresses for one memory segment.
///
/// [`AddressStream::next_run`] hands the stream out in line-granular runs:
/// an address plus the number of the following accesses that fall in its
/// cache line.  The count is arithmetic, not a walk:
///
/// * sequential and strided runs end at the line's end or at the wrap to
///   the start of the working set, whichever comes first;
/// * a random or pointer-chasing run is the rest of the current object's
///   fields.  An object is 64-byte aligned within the working set, with
///   fields at +0, +8 and +16 clamped to its last byte, so the fields share
///   a line whenever the line holds them all (32-byte lines and up at an
///   aligned base); otherwise each field is a run of its own.
///
/// The sequential and strided cursor is kept reduced modulo the working
/// set, so `%` runs only when an access passes the end.
#[derive(Debug)]
pub(crate) struct AddressStream {
    pattern: AccessPattern,
    base: u64,
    working_set_bytes: u64,
    /// Offset of the next sequential or strided access, below
    /// `working_set_bytes`.
    cursor: u64,
    current_object: u64,
    remaining_fields: u32,
    rng: StdRng,
}

impl AddressStream {
    /// Creates a stream over `working_set_bytes` bytes starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the working set is zero.
    pub(crate) fn new(
        pattern: AccessPattern,
        base: u64,
        working_set_bytes: u64,
        seed: u64,
    ) -> Self {
        assert!(working_set_bytes > 0, "working set must be non-zero");
        Self {
            pattern,
            base,
            working_set_bytes,
            cursor: 0,
            current_object: 0,
            remaining_fields: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Produces the next sample address and how many accesses, counting
    /// it and at most `max` in all, fall in its `line_bytes`-byte line in
    /// a row.  The stream advances past all of them.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero or `line_bytes` is not a power of two.
    pub(crate) fn next_run(&mut self, max: usize, line_bytes: u64) -> (u64, usize) {
        assert!(max > 0, "a run holds at least one access");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let step = match self.pattern {
            AccessPattern::Sequential => 8,
            AccessPattern::Strided { stride_bytes } => stride_bytes.max(1),
            AccessPattern::Random | AccessPattern::PointerChase => {
                return self.next_field_run(max, line_bytes)
            }
        };
        let address = self.base + self.cursor;
        let line_left = line_bytes - (address & (line_bytes - 1));
        let span = line_left.min(self.working_set_bytes - self.cursor);
        let run = span.div_ceil(step).min(max as u64);
        self.cursor += run * step;
        if self.cursor >= self.working_set_bytes {
            self.cursor %= self.working_set_bytes;
        }
        (address, run as usize)
    }

    /// [`AddressStream::next_run`] for the random patterns: the current
    /// object's remaining fields, landing on a new object first if none
    /// remain.
    fn next_field_run(&mut self, max: usize, line_bytes: u64) -> (u64, usize) {
        if self.remaining_fields == 0 {
            // Land on a new object (cache-line granular) and read a few of
            // its fields before moving on.
            self.current_object = self.rng.gen_range(0..self.working_set_bytes) & !63;
            self.remaining_fields = FIELDS_PER_OBJECT;
        }
        // The address of the field read when `left` fields remain.
        let field = |left: u32| {
            let offset = self.current_object + u64::from(FIELDS_PER_OBJECT - left) * 8;
            self.base + offset.min(self.working_set_bytes - 1)
        };
        let first = field(self.remaining_fields);
        let mut run = self
            .remaining_fields
            .min(max.min(FIELDS_PER_OBJECT as usize) as u32);
        // Field addresses never decrease, so the run shares the first
        // field's line exactly when its last field does.
        if field(self.remaining_fields + 1 - run) / line_bytes != first / line_bytes {
            run = 1;
        }
        self.remaining_fields -= run;
        (first, run as usize)
    }
}

/// The stream one access at a time, as the engine drew it before runs:
/// the reference [`AddressStream::next_run`] is tested against.
#[cfg(test)]
impl AddressStream {
    /// Produces the next sample address.
    pub(crate) fn next_address(&mut self) -> u64 {
        let offset = match self.pattern {
            AccessPattern::Sequential => {
                let o = self.cursor % self.working_set_bytes;
                self.cursor += 8;
                o
            }
            AccessPattern::Strided { stride_bytes } => {
                let o = self.cursor % self.working_set_bytes;
                self.cursor += stride_bytes.max(1);
                o
            }
            AccessPattern::Random | AccessPattern::PointerChase => {
                if self.remaining_fields == 0 {
                    self.current_object = self.rng.gen_range(0..self.working_set_bytes) & !63;
                    self.remaining_fields = FIELDS_PER_OBJECT;
                }
                self.remaining_fields -= 1;
                let field = u64::from(FIELDS_PER_OBJECT - 1 - self.remaining_fields) * 8;
                (self.current_object + field).min(self.working_set_bytes - 1)
            }
        };
        self.base + offset
    }

    /// Collects `n` sample addresses.
    pub(crate) fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_address()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_addresses_increase_then_wrap() {
        let mut s = AddressStream::new(AccessPattern::Sequential, 0x1000, 64, 1);
        let addrs = s.take(10);
        assert_eq!(addrs[0], 0x1000);
        assert_eq!(addrs[1], 0x1008);
        assert_eq!(addrs[8], 0x1000, "wrapped after 64 bytes / 8-byte steps");
    }

    #[test]
    fn strided_addresses_follow_stride() {
        let mut s = AddressStream::new(AccessPattern::Strided { stride_bytes: 256 }, 0, 1024, 1);
        let addrs = s.take(4);
        assert_eq!(addrs, vec![0, 256, 512, 768]);
    }

    #[test]
    fn random_addresses_stay_in_working_set() {
        let mut s = AddressStream::new(AccessPattern::Random, 0x10_000, 4096, 7);
        for a in s.take(1000) {
            assert!((0x10_000..0x11_000).contains(&a));
        }
    }

    #[test]
    fn random_accesses_have_intra_object_locality() {
        let mut s = AddressStream::new(AccessPattern::Random, 0, 1 << 26, 11);
        let addrs = s.take(3 * 100);
        // Consecutive triples share a cache line (field accesses of one object).
        let mut same_line = 0;
        for pair in addrs.windows(2) {
            if pair[0] / 64 == pair[1] / 64 {
                same_line += 1;
            }
        }
        assert!(same_line >= 150, "same-line pairs {same_line}");
    }

    #[test]
    fn random_stream_is_deterministic() {
        let mut a = AddressStream::new(AccessPattern::Random, 0, 1 << 20, 42);
        let mut b = AddressStream::new(AccessPattern::Random, 0, 1 << 20, 42);
        assert_eq!(a.take(100), b.take(100));
    }

    #[test]
    fn runs_end_at_the_line_end_and_at_the_wrap() {
        let mut s = AddressStream::new(AccessPattern::Sequential, 0x1000, 100, 1);
        assert_eq!(s.next_run(100, 64), (0x1000, 8));
        assert_eq!(s.next_run(3, 64), (0x1040, 3));
        // 0x1058..0x1060 is left before the wrap at 100 bytes.
        assert_eq!(s.next_run(100, 64), (0x1058, 2));
        assert_eq!(s.next_run(100, 64), (0x1004, 8));

        let mut s = AddressStream::new(AccessPattern::Random, 0, 1 << 20, 3);
        assert_eq!(s.next_run(100, 64).1, 3, "all three fields share a line");
        let mut s = AddressStream::new(AccessPattern::Random, 0, 1 << 20, 3);
        assert_eq!(s.next_run(100, 16).1, 1, "+16 is in the next 16-byte line");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Flattening `next_run` over runs of random length gives exactly
        /// the one-at-a-time stream, and every access of a run is in the
        /// line of its first address: all four patterns, working sets from
        /// 1 byte to several lines, strides from 0 to beyond a line, 16- to
        /// 128-byte lines, line-aligned and unaligned bases.
        #[test]
        fn runs_flatten_to_the_reference_stream(
            pattern in 0u32..4,
            working_set in 1u64..700,
            stride in 0u64..300,
            line_log in 4u32..8,
            base in 0usize..3,
            longest in 1usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let pattern = match pattern {
                0 => AccessPattern::Sequential,
                1 => AccessPattern::Strided { stride_bytes: stride },
                2 => AccessPattern::Random,
                _ => AccessPattern::PointerChase,
            };
            let line = 1u64 << line_log;
            let base = [0, 0x1_0000_0000 + (5 << 34), 0x1234][base];
            let mut runs = AddressStream::new(pattern, base, working_set, seed);
            let mut reference = AddressStream::new(pattern, base, working_set, seed);
            let mut lengths = StdRng::seed_from_u64(seed ^ 0x5EED);
            let mut accesses = 0;
            while accesses < 1500 {
                let max = lengths.gen_range(1..longest + 1);
                let (first, run) = runs.next_run(max, line);
                prop_assert!((1..=max).contains(&run), "run {} of at most {}", run, max);
                prop_assert_eq!(first, reference.next_address(), "access {}", accesses);
                for i in 1..run {
                    let address = reference.next_address();
                    prop_assert_eq!(address / line, first / line, "access {}", accesses + i);
                }
                accesses += run;
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_working_set_is_rejected() {
        let _ = AddressStream::new(AccessPattern::Sequential, 0, 0, 1);
    }
}
