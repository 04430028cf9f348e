//! The granule grid shared by every generator and motif kernel.
//!
//! Production-scale cells run over 10^7+ elements; materialising such a
//! data set whole would pin gigabytes of RSS.  Instead, every generator in
//! this crate addresses its logical data set in fixed **granules** of
//! [`CHUNK_GRANULE`] elements: granule `g` of a data set seeded with `s`
//! is always generated from the derived stream
//! [`granule_seed`]`(s, g)` — regardless of how much of the data set is
//! materialised at once, by whom, or in which order.  That single property
//! gives the whole stack two guarantees:
//!
//! * **byte identity** — generating a data set in one call or in
//!   arbitrary granule-aligned ranges produces the same bytes once
//!   concatenated, because each granule's RNG stream depends only on
//!   `(seed, granule index)`;
//! * **constant peak RSS** — a consumer that works one granule at a time,
//!   as every motif kernel does (see `dmpb_motifs`), holds one granule of
//!   storage, never the full data set.

use crate::rng::derive_seed;

/// The fixed granule size, in elements, shared by every generator and by
/// the motif kernels' granule-local work units.
///
/// 4096 is large enough that per-granule seeding and dispatch amortise
/// (a text granule is 400 KiB of records) and that granule-local inner
/// loops vectorise, yet small enough that tens of thousands of granules
/// exist at 10^8 elements and a single granule's scratch fits in cache.
pub const CHUNK_GRANULE: usize = 4096;

/// The derived RNG seed of granule `granule` of a data set seeded with
/// `seed` (an alias of [`derive_seed`] naming the granule convention).
pub fn granule_seed(seed: u64, granule: u64) -> u64 {
    derive_seed(seed, granule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_seeds_depend_only_on_seed_and_index() {
        assert_eq!(granule_seed(7, 3), granule_seed(7, 3));
        assert_ne!(granule_seed(7, 3), granule_seed(7, 4));
        assert_ne!(granule_seed(7, 3), granule_seed(8, 3));
    }
}
