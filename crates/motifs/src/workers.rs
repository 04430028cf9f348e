//! A persistent work-stealing worker pool shared by the whole harness.
//!
//! Before this module existed, every parallel site of the workspace —
//! the suite's per-workload fan-out, the DAG executor's per-stage
//! branches, [`crate::threading::map_chunks`]'s chunk map — spawned fresh
//! scoped OS threads on every call.  At proxy-benchmark scale (kernels of
//! microseconds, dozens of kernels per proxy, eight proxies per run) the
//! spawn/join syscalls rival the work itself, which directly erodes the
//! ~100x proxy speedup the methodology exists to deliver.
//!
//! [`WorkerPool`] replaces all of that with long-lived workers:
//!
//! * each worker owns a deque; a worker pushes tasks it spawns onto its
//!   own deque (popped LIFO for locality) and **steals** FIFO from the
//!   other deques and the shared injector queue when its own runs dry;
//! * external threads (anything that is not a pool worker) submit to the
//!   injector queue;
//! * [`WorkerPool::scope`] gives structured, borrow-friendly task groups:
//!   tasks may borrow from the caller's stack because `scope` does not
//!   return until every task it spawned (transitively) has finished;
//! * the **caller participates**: while waiting for a scope to drain, the
//!   calling thread executes tasks itself.  A pool therefore only needs
//!   `n - 1` background workers to run `n` branches concurrently, a pool
//!   with zero workers degrades to plain serial execution, and nested
//!   scopes on one pool cannot deadlock (a blocked waiter keeps running
//!   tasks instead of holding a worker hostage).
//!
//! Workers are spawned once, in [`WorkerPool::new`], and never in steady
//! state; [`WorkerPool::total_threads_spawned`] exposes the process-wide
//! spawn counter so tests can pin that property.
//!
//! Determinism: the pool schedules *when* tasks run, never *what* they
//! compute.  All harness tasks derive their seeds from topological or
//! positional indices and publish results into pre-indexed slots, so any
//! interleaving produces byte-identical output (see
//! `dmpb_core::executor`).

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// The number of hardware threads the host exposes (at least 1;
/// [`std::thread::available_parallelism`] with a conservative fallback).
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The default ceiling for explicit parallelism requests, derived from
/// [`hardware_parallelism`] instead of a hard-wired constant: 4x the
/// hardware threads (a benchmark harness tolerates mild oversubscription),
/// floored at 8 so the canonical 8-worker determinism gates stay
/// meaningful on small CI boxes, and capped at 512 as a sanity bound on
/// very wide machines.
pub fn default_parallel_ceiling() -> usize {
    hardware_parallelism().saturating_mul(4).clamp(8, 512)
}

/// A task as stored in the queues: the scope it belongs to plus the
/// lifetime-erased closure (see the `SAFETY` discussion in
/// [`Scope::spawn`]).
struct Task {
    state: Arc<ScopeState>,
    run: Box<dyn FnOnce(&Scope<'static>) + Send + 'static>,
}

/// Completion tracking for one [`WorkerPool::scope`] call.
struct ScopeState {
    /// Tasks spawned but not yet finished.  The scope call returns only
    /// once this reaches zero.
    pending: AtomicUsize,
    /// First panic payload raised by a task of this scope, re-raised on
    /// the scope caller's thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// Distinguishes pools so a worker of pool A submitting to pool B is
    /// routed to B's injector, not A's deque index.
    id: usize,
    /// One deque per background worker.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Submission queue for external (non-worker) threads.
    injector: Mutex<VecDeque<Task>>,
    /// Sleep/wake plumbing: pushers notify under this lock, idle workers
    /// and scope waiters re-check the queues under it before parking.
    monitor: Mutex<()>,
    signal: Condvar,
    /// Threads currently parked (or about to park) on `signal`.  Pushers
    /// skip the monitor lock and the notification entirely while this is
    /// zero, keeping the task-submission hot path lock-free with respect
    /// to the monitor when every worker is busy.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    /// Enqueues a task: onto the current worker's own deque when called
    /// from a worker of this pool, onto the injector otherwise.
    fn push(&self, task: Task) {
        match current_slot() {
            Some((pool, index)) if pool == self.id && index < self.deques.len() => {
                self.deques[index]
                    .lock()
                    .expect("worker deque poisoned")
                    .push_back(task);
            }
            _ => {
                self.injector
                    .lock()
                    .expect("injector poisoned")
                    .push_back(task);
            }
        }
        self.wake();
    }

    /// Wakes parked threads if there are any.  Sound against the parking
    /// protocol: a parking thread registers in `sleepers` (SeqCst) and
    /// only then re-checks the queues, so either this load observes the
    /// sleeper and notifies, or the sleeper's re-check observes the work
    /// enqueued before the load — a wakeup can be skipped only when it
    /// was not needed.
    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.monitor.lock().expect("pool monitor poisoned");
            self.signal.notify_all();
        }
    }

    /// Pops a task: the caller's own deque LIFO first (locality), then the
    /// injector, then the other deques FIFO (stealing).
    fn find_task(&self, own: Option<usize>) -> Option<Task> {
        if let Some(me) = own {
            if let Some(task) = self.deques[me]
                .lock()
                .expect("worker deque poisoned")
                .pop_back()
            {
                return Some(task);
            }
        }
        if let Some(task) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some(task);
        }
        let workers = self.deques.len();
        let start = own.map_or(0, |me| me + 1);
        for offset in 0..workers {
            let victim = (start + offset) % workers;
            if Some(victim) == own {
                continue;
            }
            if let Some(task) = self.deques[victim]
                .lock()
                .expect("worker deque poisoned")
                .pop_front()
            {
                return Some(task);
            }
        }
        None
    }

    /// Whether any queue currently holds a task (used for the re-check
    /// under the monitor lock before parking).
    fn has_tasks(&self) -> bool {
        if !self.injector.lock().expect("injector poisoned").is_empty() {
            return true;
        }
        self.deques
            .iter()
            .any(|d| !d.lock().expect("worker deque poisoned").is_empty())
    }
}

thread_local! {
    /// `(pool id, worker index)` of the pool worker running on this
    /// thread, `None` on external threads.
    static WORKER_SLOT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn current_slot() -> Option<(usize, usize)> {
    WORKER_SLOT.with(Cell::get)
}

/// The index of the pool worker running on the current thread, if any.
///
/// Sharded resources (notably [`crate::pool::BufferPool`]) use this to
/// pick a per-worker shard without threading pool handles through every
/// kernel signature.
pub fn current_worker_index() -> Option<usize> {
    current_slot().map(|(_, index)| index)
}

/// Runs one task, routing a panic into the scope state, and signals
/// completion.
fn run_task(shared: &Arc<Shared>, task: Task) {
    let Task { state, run } = task;
    let scope = Scope::<'static> {
        shared: Arc::clone(shared),
        state: Arc::clone(&state),
        _marker: PhantomData,
    };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(&scope))) {
        let mut slot = state.panic.lock().expect("scope panic slot poisoned");
        slot.get_or_insert(payload);
    }
    if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
        // Last task of the scope: wake its waiter.
        shared.wake();
    }
}

/// The long-lived background worker body.
fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_SLOT.with(|slot| slot.set(Some((shared.id, index))));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.find_task(Some(index)) {
            run_task(&shared, task);
            continue;
        }
        let guard = shared.monitor.lock().expect("pool monitor poisoned");
        // Park protocol: register as a sleeper *first*, then re-check the
        // queues — a pusher either sees the registration and notifies, or
        // enqueued early enough for this re-check to find the task.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::Acquire) || shared.has_tasks() {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        }
        let _ = shared
            .signal
            .wait_timeout(guard, Duration::from_millis(2))
            .expect("pool monitor poisoned");
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Helps execute tasks until `state` has no pending tasks left.  Called by
/// scope waiters — the scope owner's thread and any worker blocked on a
/// nested scope — so waiting threads contribute throughput instead of
/// parking.
fn help_until_done(shared: &Arc<Shared>, state: &Arc<ScopeState>) {
    let own = current_slot().and_then(|(pool, index)| (pool == shared.id).then_some(index));
    while state.pending.load(Ordering::SeqCst) != 0 {
        if let Some(task) = shared.find_task(own) {
            run_task(shared, task);
            continue;
        }
        let guard = shared.monitor.lock().expect("pool monitor poisoned");
        // Same park protocol as `worker_loop`: register, then re-check
        // both wake conditions (scope drained, work available).
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if state.pending.load(Ordering::SeqCst) == 0 || shared.has_tasks() {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            if state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            continue;
        }
        let _ = shared
            .signal
            .wait_timeout(guard, Duration::from_micros(500))
            .expect("pool monitor poisoned");
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A spawn handle into one [`WorkerPool::scope`] call.
///
/// Tasks receive a `&Scope<'scope>` so they can spawn further tasks into
/// the same scope — this is what lets the DAG executor release successor
/// edges the instant their countdown hits zero, from whichever worker
/// finished the last predecessor.
pub struct Scope<'scope> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant over `'scope`, like [`std::thread::Scope`].
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            .field("pending", &self.state.pending.load(Ordering::Relaxed))
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Spawns a task into this scope.  The closure may borrow anything
    /// that outlives the `scope` call, and may itself spawn further tasks
    /// through the `&Scope` it receives.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let run: Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope> = Box::new(f);
        // SAFETY: the closure's `'scope` borrows are erased to `'static`
        // for storage in the queues.  This is sound because every path out
        // of `WorkerPool::scope` — normal return or unwind — first waits
        // for `pending` to reach zero (the `WaitGuard`), and `pending` is
        // only decremented *after* a task's closure has returned.  No task
        // can therefore touch its borrows after `scope` returns, which is
        // exactly the guarantee `'scope` encoded.  The `Scope<'static>`
        // argument mismatch is equally erased; `Scope`'s layout does not
        // depend on its lifetime parameter.
        let run: Box<dyn FnOnce(&Scope<'static>) + Send + 'static> = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>,
                Box<dyn FnOnce(&Scope<'static>) + Send + 'static>,
            >(run)
        };
        self.shared.push(Task {
            state: Arc::clone(&self.state),
            run,
        });
    }
}

/// Process-wide count of threads ever spawned by any [`WorkerPool`]; see
/// [`WorkerPool::total_threads_spawned`].
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);
/// Monotonic pool-id source for [`Shared::id`].
static POOL_IDS: AtomicUsize = AtomicUsize::new(0);

/// A persistent pool of work-stealing workers (see the
/// [module documentation](self)).
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` background worker threads.  Because
    /// scope callers participate in execution, a pool sized `n - 1` runs
    /// `n` branches concurrently, and `WorkerPool::new(0)` is a valid,
    /// thread-free pool whose scopes execute entirely on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            monitor: Mutex::new(()),
            signal: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|index| {
                THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dmpb-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// A process-wide shared pool sized to the hardware
    /// (`hardware_parallelism() - 1` background workers), for call sites
    /// without their own pool (e.g. [`crate::threading::map_chunks`]).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(hardware_parallelism() - 1)))
    }

    /// Number of background worker threads (constant for the pool's whole
    /// lifetime — workers are never added, replaced or respawned).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Total threads ever spawned by worker pools in this process.  Stable
    /// across steady-state execution: after the pools a workload uses have
    /// been constructed, repeated runs must not move this counter.
    pub fn total_threads_spawned() -> usize {
        THREADS_SPAWNED.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`Scope`] spawn handle and waits — helping to
    /// execute tasks — until every task spawned into the scope (including
    /// transitively, by other tasks) has finished.  Panics raised by tasks
    /// are re-raised here after the scope has drained.
    pub fn scope<'scope, R>(&self, f: impl FnOnce(&Scope<'scope>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            state: Arc::clone(&state),
            _marker: PhantomData,
        };
        let result = {
            /// Waits out the scope even when `f` unwinds, so borrowed data
            /// is never freed under a still-running task.
            struct WaitGuard<'a> {
                shared: &'a Arc<Shared>,
                state: &'a Arc<ScopeState>,
            }
            impl Drop for WaitGuard<'_> {
                fn drop(&mut self) {
                    help_until_done(self.shared, self.state);
                }
            }
            let _wait = WaitGuard {
                shared: &self.shared,
                state: &state,
            };
            f(&scope)
        };
        let payload = state
            .panic
            .lock()
            .expect("scope panic slot poisoned")
            .take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.monitor.lock().expect("pool monitor poisoned");
            self.shared.signal.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_worker_pool_executes_on_the_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.scope(|s| {
            let ran_on = &ran_on;
            s.spawn(move |_| {
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
            });
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn tasks_can_spawn_tasks_into_the_same_scope() {
        let pool = WorkerPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            let counter = &counter;
            s.spawn(move |s| {
                counter.fetch_add(1, Ordering::Relaxed);
                for _ in 0..10 {
                    s.spawn(move |s| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        s.spawn(move |_| {
                            counter.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 21);
    }

    #[test]
    fn nested_scopes_on_one_pool_do_not_deadlock() {
        let pool = WorkerPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let counter = &counter;
                let pool = &pool;
                outer.spawn(move |_| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move |_| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn task_panics_propagate_to_the_scope_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|_| panic!("task exploded"));
            });
        }));
        assert!(result.is_err());
        // The pool survives a task panic.
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            let counter = &counter;
            s.spawn(move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_count_is_constant_and_spawns_are_construction_only() {
        let before = WorkerPool::total_threads_spawned();
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let after_construction = WorkerPool::total_threads_spawned();
        assert_eq!(after_construction - before, 4);
        for _ in 0..10 {
            pool.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|_| {
                        std::hint::black_box(0u64);
                    });
                }
            });
        }
        assert_eq!(
            WorkerPool::total_threads_spawned(),
            after_construction,
            "steady-state scopes must not spawn threads"
        );
        assert_eq!(pool.workers(), 4);
    }

    #[test]
    fn worker_indices_are_exposed_to_tasks() {
        let pool = WorkerPool::new(2);
        // The external caller has no worker index; pool workers do.  With
        // the caller helping, some tasks may legitimately observe `None`.
        assert_eq!(current_worker_index(), None);
        let seen = Mutex::new(Vec::new());
        pool.scope(|s| {
            for _ in 0..64 {
                let seen = &seen;
                s.spawn(move |_| {
                    seen.lock().unwrap().push(current_worker_index());
                    std::thread::yield_now();
                });
            }
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 64);
        assert!(seen
            .iter()
            .all(|slot| matches!(slot, None | Some(0) | Some(1))));
    }

    #[test]
    fn ceiling_is_derived_from_the_hardware() {
        let ceiling = default_parallel_ceiling();
        assert!(ceiling >= 8, "floor keeps 8-worker gates meaningful");
        assert!(ceiling >= hardware_parallelism());
        assert!(ceiling <= 512);
    }
}
