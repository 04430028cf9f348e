//! Gensort-style text record generation (TeraSort input).
//!
//! The original TeraSort evaluation uses 100 GB of records produced by
//! `gensort`: each record is 100 bytes, the first 10 bytes are the sort key
//! and the remaining 90 bytes are payload.  [`TextGenerator`] reproduces
//! that format with printable ASCII keys drawn uniformly at random, which
//! matches gensort's default (uniformly distributed keys).

use rand::Rng;

use crate::chunks::{granule_seed, CHUNK_GRANULE};
use crate::descriptor::{DataClass, DataDescriptor, Distribution};
use crate::rng::seeded_rng;

/// Length of one record in bytes (gensort format).
pub const RECORD_LEN: usize = 100;
/// Length of the sort key prefix in bytes (gensort format).
pub const KEY_LEN: usize = 10;

/// A contiguous buffer of fixed-size text records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSet {
    data: Vec<u8>,
}

impl RecordSet {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.data.len() / RECORD_LEN
    }

    /// Returns true if the set holds no records.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The raw backing buffer.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Iterates over the records in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.data.chunks_exact(RECORD_LEN)
    }

    /// Extracts all keys as owned arrays, the form the sort motif consumes.
    pub fn keys(&self) -> Vec<[u8; KEY_LEN]> {
        self.iter()
            .map(|r| {
                let mut k = [0u8; KEY_LEN];
                k.copy_from_slice(&r[..KEY_LEN]);
                k
            })
            .collect()
    }
}

/// Deterministic generator of gensort-style records.
#[derive(Debug, Clone)]
pub struct TextGenerator {
    seed: u64,
}

impl TextGenerator {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates `count` records (the single-chunk case of
    /// [`generate_range`](Self::generate_range)).
    pub fn generate(&self, count: usize) -> RecordSet {
        self.generate_range(0, count)
    }

    /// Generates records `[start, end)` of the logical data set.
    ///
    /// Each [`CHUNK_GRANULE`]-record granule draws from its own RNG stream
    /// seeded with `granule_seed(seed, granule_index)`, so any
    /// granule-aligned chunking of `[0, n)` concatenates to exactly the
    /// bytes of `generate(n)`; unaligned ranges fast-forward within their
    /// first granule and remain sub-slices of the same logical data set.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn generate_range(&self, start: usize, end: usize) -> RecordSet {
        assert!(start <= end, "invalid record range {start}..{end}");
        let mut data = vec![0u8; (end - start) * RECORD_LEN];
        if start == end {
            return RecordSet { data };
        }
        let mut out = data.chunks_exact_mut(RECORD_LEN);
        for g in start / CHUNK_GRANULE..=(end - 1) / CHUNK_GRANULE {
            let mut rng = seeded_rng(granule_seed(self.seed, g as u64));
            let g_start = g * CHUNK_GRANULE;
            for i in g_start..(g_start + CHUNK_GRANULE).min(end) {
                if i < start {
                    // Burn this record's draws so an unaligned start stays
                    // in phase with the granule's stream.
                    for _ in 0..KEY_LEN {
                        let _ = rng.gen_range(b' '..=b'~');
                    }
                    for _ in KEY_LEN..RECORD_LEN {
                        let _ = rng.gen_range(b'A'..=b'Z');
                    }
                    continue;
                }
                let rec = out.next().expect("output sized to range");
                // Keys: printable ASCII (' ' .. '~'), matching gensort's
                // uniformly distributed key space.
                for b in rec[..KEY_LEN].iter_mut() {
                    *b = rng.gen_range(b' '..=b'~');
                }
                // Payload: record body bytes are alphanumeric filler.
                for b in rec[KEY_LEN..].iter_mut() {
                    *b = rng.gen_range(b'A'..=b'Z');
                }
            }
        }
        RecordSet { data }
    }

    /// Descriptor for a logical data set of `total_bytes` in this format.
    pub fn descriptor(total_bytes: u64) -> DataDescriptor {
        DataDescriptor::new(
            DataClass::Text,
            total_bytes,
            RECORD_LEN as u64,
            0.0,
            Distribution::Uniform,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let rs = TextGenerator::new(1).generate(128);
        assert_eq!(rs.len(), 128);
        assert_eq!(rs.as_bytes().len(), 128 * RECORD_LEN);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TextGenerator::new(42).generate(64);
        let b = TextGenerator::new(42).generate(64);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_records() {
        let a = TextGenerator::new(1).generate(64);
        let b = TextGenerator::new(2).generate(64);
        assert_ne!(a, b);
    }

    #[test]
    fn keys_are_printable_ascii() {
        let rs = TextGenerator::new(3).generate(32);
        for key in rs.keys() {
            for b in key {
                assert!((b' '..=b'~').contains(&b));
            }
        }
    }

    #[test]
    fn record_accessors_are_consistent() {
        let rs = TextGenerator::new(4).generate(10);
        for (record, key) in rs.iter().zip(rs.keys()) {
            assert_eq!(&record[..KEY_LEN], &key);
        }
        assert_eq!(rs.iter().count(), 10);
        assert_eq!(rs.keys().len(), 10);
    }

    #[test]
    fn fresh_records_are_not_sorted() {
        // 1000 uniformly random keys are sorted with probability ~0.
        let rs = TextGenerator::new(5).generate(1000);
        assert!(!rs.keys().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_set_is_sorted_and_empty() {
        let rs = TextGenerator::new(6).generate(0);
        assert!(rs.is_empty());
        assert!(rs.keys().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chunked_generation_concatenates_to_monolithic_bytes() {
        let total = 2 * CHUNK_GRANULE + 300;
        let generator = TextGenerator::new(9);
        let whole = generator.generate(total);
        for chunk in [CHUNK_GRANULE, 2 * CHUNK_GRANULE] {
            let mut data = Vec::new();
            let mut start = 0;
            while start < total {
                let end = (start + chunk).min(total);
                data.extend_from_slice(generator.generate_range(start, end).as_bytes());
                start = end;
            }
            assert_eq!(data, whole.as_bytes(), "chunk={chunk}");
        }
    }

    #[test]
    fn unaligned_range_is_a_slice_of_the_logical_data_set() {
        let generator = TextGenerator::new(10);
        let whole = generator.generate(CHUNK_GRANULE + 64);
        let (start, end) = (CHUNK_GRANULE - 7, CHUNK_GRANULE + 5);
        let part = generator.generate_range(start, end);
        assert_eq!(
            part.as_bytes(),
            &whole.as_bytes()[start * RECORD_LEN..end * RECORD_LEN]
        );
    }

    #[test]
    fn descriptor_reflects_format() {
        let d = TextGenerator::descriptor(100 * RECORD_LEN as u64);
        assert_eq!(d.class, DataClass::Text);
        assert_eq!(d.element_count(), 100);
    }
}
