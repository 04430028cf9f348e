//! A persistent worker pool for running campaign cells concurrently.
//!
//! Cells are the harness's only unit of concurrency: a wide campaign
//! hands each of its cell loops to one [`WorkerPool`] task, and every
//! proxy DAG then runs serially inside its cell.  The pool exists so
//! those tasks land on long-lived threads instead of freshly spawned
//! ones — steady-state campaigns spawn no threads at all.
//!
//! The design is one queue and one condition variable:
//!
//! * every spawned task goes into one shared FIFO queue, and idle
//!   workers block on the condition variable until a task (or shutdown)
//!   arrives;
//! * [`WorkerPool::scope`] gives structured, borrow-friendly task groups:
//!   tasks may borrow from the caller's stack because `scope` does not
//!   return until every task it spawned has finished;
//! * the **caller participates**: while waiting for a scope to drain, the
//!   calling thread executes queued tasks itself.  A pool therefore only
//!   needs `n - 1` background workers to run `n` tasks concurrently, a
//!   pool with zero workers degrades to plain serial execution, and
//!   nested scopes on one pool cannot deadlock (a blocked waiter keeps
//!   running tasks instead of holding a worker hostage).
//!
//! Every state change a thread can wait for — a task queued, a scope
//! drained, shutdown — is made or ordered under the queue lock and then
//! notified, and every waiter re-checks its condition under that lock
//! before blocking, so no wakeup can be missed and nobody polls.
//!
//! Workers are spawned once, in [`WorkerPool::new`], and never in steady
//! state; [`WorkerPool::total_threads_spawned`] exposes the process-wide
//! spawn counter so tests can pin that property.
//!
//! Determinism: the pool schedules *when* tasks run, never *what* they
//! compute.  Campaign cells carry pre-derived seeds and publish results
//! into pre-indexed slots, so any interleaving produces byte-identical
//! output.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The number of hardware threads the host exposes (at least 1;
/// [`std::thread::available_parallelism`] with a conservative fallback).
pub fn hardware_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A queued task: the scope it belongs to plus the lifetime-erased
/// closure (see the `SAFETY` discussion in [`Scope::spawn`]).
struct Task {
    state: Arc<ScopeState>,
    run: Box<dyn FnOnce() + Send + 'static>,
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

/// The queue shared by the pool handle, its workers and scope waiters.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    queue: Mutex<Queue>,
    /// Notified whenever a task is queued, a scope drains or the pool
    /// shuts down.
    signal: Condvar,
}

impl Shared {
    /// Locks the queue.  Tasks never run under this lock, so a panicking
    /// task cannot poison it; a poisoned lock is recovered all the same.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks on the condition variable, releasing `queue` meanwhile.
    fn wait<'a>(&self, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
        self.signal
            .wait(queue)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Wakes every waiter after a state change.  Taking the lock orders
    /// the notification after any waiter's under-lock re-check, which is
    /// what rules out lost wakeups.
    fn notify(&self) {
        let _queue = self.lock();
        self.signal.notify_all();
    }
}

thread_local! {
    /// The index of the pool worker running on this thread, `None` on
    /// external threads.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The index of the pool worker running on the current thread, if any.
///
/// Sharded resources (notably [`crate::pool::BufferPool`]) use this to
/// pick a per-worker shard without threading pool handles through every
/// kernel signature.
pub fn current_worker_index() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// Runs one task, routing a panic into the scope state, and signals the
/// scope's waiter when it was the last one.
fn run_task(shared: &Shared, task: Task) {
    let Task { state, run } = task;
    if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
        let mut slot = state.panic.lock().expect("scope panic slot poisoned");
        slot.get_or_insert(payload);
    }
    if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
        shared.notify();
    }
}

/// The long-lived background worker body: run queued tasks until
/// shutdown, blocking while the queue is empty.
fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER_INDEX.with(|slot| slot.set(Some(index)));
    let mut queue = shared.lock();
    loop {
        if let Some(task) = queue.tasks.pop_front() {
            drop(queue);
            run_task(&shared, task);
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.wait(queue);
        }
    }
}

/// Helps execute queued tasks until `state` has no pending tasks left,
/// blocking only while the queue is empty.  Called by scope waiters — the
/// scope owner's thread and any worker blocked on a nested scope — so
/// waiting threads contribute throughput instead of idling.
fn help_until_done(shared: &Shared, state: &ScopeState) {
    let mut queue = shared.lock();
    while state.pending.load(Ordering::SeqCst) != 0 {
        match queue.tasks.pop_front() {
            Some(task) => {
                drop(queue);
                run_task(shared, task);
                queue = shared.lock();
            }
            None => queue = shared.wait(queue),
        }
    }
}

/// A spawn handle into one [`WorkerPool::scope`] call.
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
    /// that outlives the `scope` call.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let run: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the closure's `'scope` borrows are erased to `'static`
        // for storage in the queue.  This is sound because every path out
        // of `WorkerPool::scope` — normal return or unwind — first waits
        // for `pending` to reach zero (the `WaitGuard`), and `pending` is
        // only decremented *after* a task's closure has returned.  No task
        // can therefore touch its borrows after `scope` returns, which is
        // exactly the guarantee `'scope` encoded.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(run)
        };
        self.shared.lock().tasks.push_back(Task {
            state: Arc::clone(&self.state),
            run,
        });
        self.shared.signal.notify_all();
    }
}

/// Process-wide count of threads ever spawned by any [`WorkerPool`]; see
/// [`WorkerPool::total_threads_spawned`].
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// A persistent pool of workers draining one shared queue (see the
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
    /// `n` tasks concurrently, and `WorkerPool::new(0)` is a valid,
    /// thread-free pool whose scopes execute entirely on the caller.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            signal: Condvar::new(),
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
    /// execute queued tasks — until every task spawned into the scope has
    /// finished.  Panics raised by tasks are re-raised here after the
    /// scope has drained.
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
                shared: &'a Shared,
                state: &'a ScopeState,
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
        self.shared.lock().shutdown = true;
        self.shared.signal.notify_all();
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
                s.spawn(move || {
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
            s.spawn(move || {
                *ran_on.lock().unwrap() = Some(std::thread::current().id());
            });
        });
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn nested_scopes_on_one_pool_do_not_deadlock() {
        let pool = WorkerPool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                let counter = &counter;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(move || {
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
                s.spawn(|| panic!("task exploded"));
            });
        }));
        assert!(result.is_err());
        // The pool survives a task panic.
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            let counter = &counter;
            s.spawn(move || {
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
                    s.spawn(|| {
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
                s.spawn(move || {
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

    /// Back-to-back tiny scopes race every wakeup path: a worker
    /// parking just as a task is queued, the caller parking just as the
    /// scope's last task finishes, a nested scope's waiter blocking
    /// inside a task.  Waiters block without a timeout, so a missed
    /// notification hangs this test instead of costing a poll interval.
    #[test]
    fn back_to_back_scopes_never_miss_a_wakeup() {
        const ROUNDS: usize = 20_000;
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        let mut expected = 0;
        for round in 0..ROUNDS {
            let tasks = 1 + round % 3;
            let nested = round % 7 == 0;
            expected += tasks as u64 + if nested { 2 } else { 0 };
            pool.scope(|s| {
                for task in 0..tasks {
                    let (counter, pool) = (&counter, &pool);
                    s.spawn(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                        if nested && task == 0 {
                            pool.scope(|inner| {
                                for _ in 0..2 {
                                    inner.spawn(move || {
                                        counter.fetch_add(1, Ordering::Relaxed);
                                    });
                                }
                            });
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Relaxed), expected, "round {round}");
        }
    }
}
