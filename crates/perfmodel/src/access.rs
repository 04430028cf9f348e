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

impl AccessPattern {
    /// Returns true if consecutive accesses are independent enough for the
    /// processor to overlap their latency (everything except pointer
    /// chasing).
    pub fn allows_mlp(&self) -> bool {
        !matches!(self, AccessPattern::PointerChase)
    }

    /// Short name used in debug output.
    pub fn name(&self) -> &'static str {
        match self {
            AccessPattern::Sequential => "sequential",
            AccessPattern::Strided { .. } => "strided",
            AccessPattern::Random => "random",
            AccessPattern::PointerChase => "pointer-chase",
        }
    }
}

/// Number of consecutive same-object (same cache line) accesses a random
/// or pointer-chasing walk performs before moving to the next object.
/// Real object accesses read several fields of the object they land on,
/// which is why even "random" heap traffic retains intra-line locality.
const FIELDS_PER_OBJECT: u32 = 3;

/// A deterministic generator of sample addresses for one memory segment.
#[derive(Debug)]
pub struct AddressStream {
    pattern: AccessPattern,
    base: u64,
    working_set_bytes: u64,
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
    pub fn new(pattern: AccessPattern, base: u64, working_set_bytes: u64, seed: u64) -> Self {
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

    /// The pattern this stream follows.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// Produces the next sample address.
    pub fn next_address(&mut self) -> u64 {
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
                    // Land on a new object (cache-line granular) and read a
                    // few of its fields before moving on.
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
    pub fn take(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_address()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pointer_chase_denies_mlp() {
        assert!(!AccessPattern::PointerChase.allows_mlp());
        assert!(AccessPattern::Sequential.allows_mlp());
        assert!(AccessPattern::Random.allows_mlp());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_working_set_is_rejected() {
        let _ = AddressStream::new(AccessPattern::Sequential, 0, 0, 1);
    }
}
