//! FNV-1a hashing shared by the tuning-cache fingerprints, the
//! suite-report digest and the scenario campaign engine's
//! content-addressed cell fingerprints.  (Kernel checksums moved to
//! `dmpb_motifs::kernel` with the motif registry.)
//!
//! The functions are deliberately tiny and dependency-free: every
//! fingerprint in the workspace — cluster configurations, tuner
//! configurations, campaign cells, stored results — goes through these two
//! mixers, so equal inputs hash identically across crates and across
//! processes.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a over a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over a word sequence (one mixing step per word).
pub(crate) fn hash_u64s<I: IntoIterator<Item = u64>>(values: I) -> u64 {
    let mut h = OFFSET;
    for v in values {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_input_sensitive() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_eq!(hash_u64s([1, 2, 3]), hash_u64s([1, 2, 3]));
        assert_ne!(hash_u64s([1, 2, 3]), hash_u64s([3, 2, 1]));
    }
}
