//! A sharded pool of intermediate buffers for motif-kernel execution.
//!
//! Every motif kernel materialises one or more scratch vectors (generated
//! keys, signal samples, activation tensors…) per invocation.  When a DAG
//! executor runs dozens of kernels per proxy — and eight proxies per suite
//! run — those allocations dominate the allocator traffic of sample
//! execution.  [`BufferPool`] recycles the backing storage: a kernel leases
//! a buffer of the length it needs, and the allocation is returned to the
//! pool when the lease is dropped.
//!
//! Two properties make the pool cheap under the work-stealing executor:
//!
//! * **Sharding** — free lists are split into per-worker shards, indexed
//!   by [`crate::workers::current_worker_index`] (shard 0 serves external
//!   threads).  A worker leases and returns through its own shard, so the
//!   hot path never contends on a global lock; only when a shard has no
//!   fitting buffer does `take` probe the other shards before allocating
//!   fresh storage.
//! * **Size-bucketed best-fit reuse** — within a shard, free buffers are
//!   bucketed by capacity class (power-of-two ceiling) and `take` pops the
//!   *smallest* buffer whose capacity fits the requested length.  A
//!   fitting recycled buffer therefore never reallocates, and a large
//!   buffer is never burned on a tiny request while a snug one idles (the
//!   old LIFO pop did both).
//!
//! Determinism: a leased buffer is always resized to the requested length
//! and zero-filled before it is handed out, so a kernel observes the same
//! contents whether its buffer is fresh, recycled, or stolen from another
//! shard.  Pool state therefore never leaks into kernel checksums.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::profile::KernelProfiler;
use crate::workers;

/// Free buffers a shard keeps per capacity class; overflow is released to
/// the allocator so an execution spike cannot pin memory forever.
const MAX_PER_BUCKET: usize = 32;

/// Number of power-of-two capacity classes (`ceil(log2(capacity))` for
/// every possible `usize` capacity).
const BUCKETS: usize = usize::BITS as usize + 1;

/// The capacity class of `capacity`: the smallest `b` with
/// `2^b >= capacity` (0 for empty or single-element buffers).
fn bucket_of(capacity: usize) -> usize {
    (usize::BITS - capacity.max(1).saturating_sub(1).leading_zeros()) as usize
}

/// One worker's free lists: per capacity class, the returned buffers.
struct Shard<T> {
    buckets: Vec<Vec<Vec<T>>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
        }
    }
}

impl<T> Shard<T> {
    /// Removes and returns the smallest free buffer whose capacity fits
    /// `len`, searching the exact capacity class first and then the larger
    /// ones.
    fn take_fit(&mut self, len: usize) -> Option<Vec<T>> {
        for bucket in &mut self.buckets[bucket_of(len)..] {
            let mut best: Option<usize> = None;
            for (i, vec) in bucket.iter().enumerate() {
                // In the request's own class a buffer may still be too
                // small (classes span a 2x range); higher classes always
                // fit, there best-fit just picks the smallest.
                if vec.capacity() >= len
                    && best.map_or(true, |b| vec.capacity() < bucket[b].capacity())
                {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                return Some(bucket.swap_remove(i));
            }
        }
        None
    }

    fn put(&mut self, vec: Vec<T>) {
        if vec.capacity() == 0 {
            return;
        }
        let bucket = &mut self.buckets[bucket_of(vec.capacity())];
        if bucket.len() < MAX_PER_BUCKET {
            bucket.push(vec);
        }
    }
}

/// A sharded free list of `Vec<T>` allocations plus reuse counters.
struct ShardedFreeList<T> {
    shards: Vec<Mutex<Shard<T>>>,
    reused: AtomicU64,
    allocated: AtomicU64,
}

impl<T> std::fmt::Debug for ShardedFreeList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFreeList")
            .field("shards", &self.shards.len())
            .field("reused", &self.reused.load(Ordering::Relaxed))
            .field("allocated", &self.allocated.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Default + Clone> ShardedFreeList<T> {
    fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            reused: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// The shard serving the current thread: worker `i` maps to shard
    /// `(i + 1) % shards`, external threads to shard 0.
    fn home_shard(&self) -> usize {
        workers::current_worker_index()
            .map(|index| (index + 1) % self.shards.len())
            .unwrap_or(0)
    }

    fn take(&self, len: usize) -> Vec<T> {
        let home = self.home_shard();
        let shards = self.shards.len();
        for offset in 0..shards {
            let shard = &self.shards[(home + offset) % shards];
            let recycled = shard.lock().expect("buffer pool poisoned").take_fit(len);
            if let Some(mut vec) = recycled {
                self.reused.fetch_add(1, Ordering::Relaxed);
                vec.clear();
                vec.resize(len, T::default());
                return vec;
            }
        }
        self.allocated.fetch_add(1, Ordering::Relaxed);
        let mut vec = Vec::with_capacity(len);
        vec.resize(len, T::default());
        vec
    }

    fn put_back(&self, vec: Vec<T>) {
        self.shards[self.home_shard()]
            .lock()
            .expect("buffer pool poisoned")
            .put(vec);
    }
}

/// Counters describing how effectively a [`BufferPool`] recycles storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Leases served by recycling a previously returned allocation whose
    /// capacity already fit the request (such a lease never reallocates).
    pub reused: u64,
    /// Leases that had to allocate fresh storage.
    pub allocated: u64,
}

impl PoolStats {
    /// Total leases served.
    pub fn leases(&self) -> u64 {
        self.reused + self.allocated
    }

    /// Fraction of leases served without allocating (`0.0` when no lease
    /// has been served yet).
    pub fn reuse_ratio(&self) -> f64 {
        if self.leases() == 0 {
            0.0
        } else {
            self.reused as f64 / self.leases() as f64
        }
    }
}

/// A thread-safe, sharded pool of scratch buffers shared by all motif
/// kernels of an execution (see the [module documentation](self)).
#[derive(Debug)]
pub struct BufferPool {
    f64s: ShardedFreeList<f64>,
    f32s: ShardedFreeList<f32>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

/// A leased buffer; dereferences to its `Vec` and returns the allocation
/// to the pool (the current thread's shard) on drop.
#[derive(Debug)]
pub struct Lease<'p, T: Default + Clone> {
    vec: Vec<T>,
    list: &'p ShardedFreeList<T>,
}

impl<T: Default + Clone> Deref for Lease<'_, T> {
    type Target = Vec<T>;
    fn deref(&self) -> &Vec<T> {
        &self.vec
    }
}

impl<T: Default + Clone> DerefMut for Lease<'_, T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.vec
    }
}

impl<T: Default + Clone> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        self.list.put_back(std::mem::take(&mut self.vec));
    }
}

impl BufferPool {
    /// An empty pool with one shard per hardware thread plus the external
    /// shard.
    pub fn new() -> Self {
        Self::with_shards(workers::hardware_parallelism() + 1)
    }

    /// An empty pool with exactly `shards` shards (clamped to at least 1).
    /// Executors size this as worker count + 1: one shard per worker plus
    /// shard 0 for external threads.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            f64s: ShardedFreeList::new(shards),
            f32s: ShardedFreeList::new(shards),
        }
    }

    /// Number of shards per element type.
    pub fn shards(&self) -> usize {
        self.f64s.shards.len()
    }

    /// Leases a zero-filled `f64` buffer of length `len`.
    pub fn f64s(&self, len: usize) -> Lease<'_, f64> {
        let profiler = KernelProfiler::global();
        if profiler.enabled() {
            profiler.record_lease_f64(len);
        }
        Lease {
            vec: self.f64s.take(len),
            list: &self.f64s,
        }
    }

    /// Leases a zero-filled `f32` buffer of length `len`.
    pub fn f32s(&self, len: usize) -> Lease<'_, f32> {
        let profiler = KernelProfiler::global();
        if profiler.enabled() {
            profiler.record_lease_f32(len);
        }
        Lease {
            vec: self.f32s.take(len),
            list: &self.f32s,
        }
    }

    /// Snapshot of the reuse counters, aggregated over all element types
    /// and shards.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reused: self.f64s.reused.load(Ordering::Relaxed)
                + self.f32s.reused.load(Ordering::Relaxed),
            allocated: self.f64s.allocated.load(Ordering::Relaxed)
                + self.f32s.allocated.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_zero_filled_even_when_recycled() {
        let pool = BufferPool::with_shards(1);
        {
            let mut a = pool.f64s(16);
            a.iter_mut().for_each(|v| *v = 42.0);
        }
        let b = pool.f64s(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer leaked state");
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn returned_buffers_are_reused_when_they_fit() {
        let pool = BufferPool::with_shards(1);
        drop(pool.f32s(64));
        drop(pool.f32s(32));
        let stats = pool.stats();
        assert_eq!(stats.allocated, 1, "second lease must recycle the first");
        assert_eq!(stats.reused, 1);
        assert_eq!(stats.leases(), 2);
        assert!((stats.reuse_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_fitting_recycled_buffer_never_reallocates() {
        let pool = BufferPool::with_shards(1);
        let (small_ptr, big_ptr) = {
            let small = pool.f64s(100);
            let big = pool.f64s(512);
            (small.as_ptr(), big.as_ptr())
        };
        // Best fit: a 64-element request must come from the 100-capacity
        // buffer (the smallest that fits), untouched by a reallocation…
        let small_again = pool.f64s(64);
        assert_eq!(small_again.as_ptr(), small_ptr);
        assert_eq!(small_again.capacity(), 100);
        // …and a 256-element request must skip the too-small buffer and
        // reuse the 512-capacity one instead of allocating.
        let big_again = pool.f64s(256);
        assert_eq!(big_again.as_ptr(), big_ptr);
        assert_eq!(big_again.capacity(), 512);
        let stats = pool.stats();
        assert_eq!(stats.allocated, 2, "no fitting lease may allocate");
        assert_eq!(stats.reused, 2);
    }

    #[test]
    fn too_small_recycled_buffers_are_not_regrown() {
        let pool = BufferPool::with_shards(1);
        drop(pool.f32s(16));
        // The 16-capacity buffer does not fit: allocate fresh instead of
        // growing it (the old LIFO pop reallocated here), and keep the
        // small one for a later small request.
        let big = pool.f32s(4096);
        assert_eq!(big.capacity(), 4096);
        assert_eq!(pool.stats().allocated, 2);
        assert_eq!(pool.stats().reused, 0);
        drop(big);
        let small = pool.f32s(8);
        assert_eq!(small.capacity(), 16, "the idle small buffer serves it");
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn concurrent_leases_get_distinct_buffers() {
        let pool = BufferPool::new();
        let a = pool.f64s(4);
        let b = pool.f64s(4);
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(pool.stats().allocated, 2);
    }

    #[test]
    fn capacity_classes_are_monotonic() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        for cap in 1..10_000usize {
            assert!(cap <= 1usize << bucket_of(cap), "{cap}");
        }
    }

    #[test]
    fn shards_overflowing_a_bucket_release_to_the_allocator() {
        let pool = BufferPool::with_shards(1);
        for _ in 0..(MAX_PER_BUCKET + 10) {
            // Leases of the same class, returned one at a time: the first
            // allocates, the rest reuse the single cached buffer.
            drop(pool.f64s(100));
        }
        let held: Vec<_> = (0..MAX_PER_BUCKET + 10).map(|_| pool.f64s(100)).collect();
        drop(held);
        // Dropping the overflow must not panic; the bucket simply caps.
        let stats = pool.stats();
        assert!(stats.allocated >= MAX_PER_BUCKET as u64);
    }

    #[test]
    fn enabled_profiling_observes_lease_classes() {
        use crate::profile::{lease_class, KernelProfiler};
        // The pool reports into the *global* profiler; use a capacity
        // class no kernel ever leases (100k elements) so concurrently
        // running tests cannot perturb the counter.
        let profiler = KernelProfiler::global();
        let before = profiler.snapshot();
        let pool = BufferPool::with_shards(1);
        drop(pool.f64s(100_000));
        let was_enabled = profiler.enabled();
        profiler.set_enabled(true);
        drop(pool.f64s(100_000));
        drop(pool.f32s(100_000));
        profiler.set_enabled(was_enabled);
        let after = profiler.snapshot();
        let class = lease_class(100_000);
        assert_eq!(
            after.lease_f64[class] - before.lease_f64[class],
            1,
            "only the lease taken while enabled is observed"
        );
        assert_eq!(after.lease_f32[class] - before.lease_f32[class], 1);
    }

    #[test]
    fn workers_use_their_own_shards_without_losing_reuse() {
        use crate::workers::WorkerPool;
        let pool = BufferPool::with_shards(3);
        let workers = WorkerPool::new(2);
        workers.scope(|s| {
            for _ in 0..16 {
                let pool = &pool;
                s.spawn(move |_| {
                    drop(pool.f64s(256));
                });
            }
        });
        // Same-sized leases from any shard: after the first allocation per
        // shard at most `shards` fresh allocations are needed.
        let stats = pool.stats();
        assert_eq!(stats.leases(), 16);
        assert!(
            stats.allocated <= 3,
            "at most one allocation per shard: {stats:?}"
        );
    }
}
