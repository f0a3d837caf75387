//! `dmcp-pool` — the repo's one shared execution substrate.
//!
//! The sweeps that fan out are *embarrassingly* parallel (per-workload
//! evaluation in `dmcp-bench`, per-seed property sweeps in `dmcp-check`),
//! and a service takes work over time, so this crate provides exactly two
//! shapes and nothing more:
//!
//! * [`Pool`] — scoped fork-join over a fixed item list with
//!   **deterministic ordered joins**: `map` returns results in input
//!   order no matter which worker ran which item, so pooled callers are
//!   bit-identical to their old sequential loops. Workers pull items off
//!   a shared atomic cursor (work stealing by index), and a panic in any
//!   task is re-raised on the caller after the scope joins.
//! * [`WorkerPool`] — a persistent bounded-queue pool for services that
//!   accept work over time instead of all at once (`dmcp-serve`). Jobs
//!   are boxed closures; admission is non-blocking with typed
//!   [`SubmitError`]s so callers shed load instead of blocking; closing
//!   drains everything already admitted before the workers exit.
//!
//! The planner runs on its caller's thread, so nothing nests pools.
//!
//! Determinism rules for pooled execution:
//!
//! 1. tasks never share mutable state — each returns its result by value
//!    and the pool reassembles them by input index;
//! 2. reductions over pooled results happen on the caller, in input
//!    order.
//!
//! Under those rules `Pool::new(1)` and `Pool::new(8)` are
//! indistinguishable except in wall-time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default worker count: the `DMCP_THREADS` environment variable when
/// set to a positive integer, otherwise the machine's available
/// parallelism (1 when even that is unknown).
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("DMCP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// A scoped fork-join pool with deterministic ordered joins.
///
/// The pool owns no threads between calls: each [`Pool::map`] spawns up
/// to `threads` scoped workers, runs the items, joins, and returns the
/// results in input order, so it costs nothing when idle.
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// A strictly sequential pool — handy as an explicit baseline.
    #[must_use]
    pub fn single() -> Self {
        Self::new(1)
    }

    /// The process-wide shared pool, sized by [`default_threads`] on
    /// first use.
    #[must_use]
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning one result per item **in input
    /// order**. `f` receives `(index, &item)`.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic on the caller (after all workers
    /// joined), so `catch_unwind` at the call site behaves exactly as it
    /// would around a sequential loop.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(items.len());
        let mut buckets: Vec<std::thread::Result<Vec<(usize, R)>>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            out.push((i, f(i, &items[i])));
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                buckets.push(h.join());
            }
        });
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for bucket in buckets {
            match bucket {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        slots.into_iter().map(|s| s.expect("pool: every index produced a result")).collect()
    }

    /// [`Pool::map`] over the index range `0..n` (no item list needed).
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = (0..n).collect();
        self.map(&indices, |_, &i| f(i))
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::new(default_threads())
    }
}

/// Typed admission errors for [`WorkerPool::try_submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load and retry later.
    QueueFull,
    /// The pool has been closed.
    Closed,
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Count of admitted-but-unfinished jobs, with a condvar so a drainer can
/// wait (with a deadline) for the pool to go quiet.
struct Pending {
    count: Mutex<usize>,
    quiet: Condvar,
}

impl Pending {
    fn add(&self) {
        *self.count.lock().expect("pending count poisoned") += 1;
    }

    fn done(&self) {
        let mut count = self.count.lock().expect("pending count poisoned");
        *count -= 1;
        if *count == 0 {
            self.quiet.notify_all();
        }
    }

    fn get(&self) -> usize {
        *self.count.lock().expect("pending count poisoned")
    }

    fn wait_quiet(&self, deadline: Instant) -> bool {
        let mut count = self.count.lock().expect("pending count poisoned");
        while *count > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, timeout) =
                self.quiet.wait_timeout(count, deadline - now).expect("pending count poisoned");
            count = next;
            if timeout.timed_out() && *count > 0 {
                return false;
            }
        }
        true
    }
}

/// A persistent worker pool over a bounded job queue.
///
/// This is the execution half of a service: long-lived named threads, a
/// bounded `sync_channel`, non-blocking admission, and graceful draining
/// on close (every job admitted before [`WorkerPool::close`] runs to
/// completion before the workers exit). Dropping the pool closes it.
pub struct WorkerPool {
    queue: Mutex<Option<SyncSender<Job>>>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<Pending>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1) named
    /// `{name}-{k}` draining a queue of depth `queue_depth`.
    #[must_use]
    pub fn new(name: &str, workers: usize, queue_depth: usize) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|k| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("{name}-{k}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            queue: Mutex::new(Some(tx)),
            workers,
            pending: Arc::new(Pending { count: Mutex::new(0), quiet: Condvar::new() }),
        }
    }

    /// Admits one job without blocking.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue cannot take the
    /// job, [`SubmitError::Closed`] after [`WorkerPool::close`].
    pub fn try_submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let queue = self.queue.lock().expect("pool queue poisoned");
        match queue.as_ref() {
            None => Err(SubmitError::Closed),
            Some(tx) => {
                // Count before sending so a drainer never observes a gap
                // between "admitted" and "pending"; uncount on rejection.
                let pending = Arc::clone(&self.pending);
                pending.add();
                let counted = Arc::clone(&pending);
                let wrapped = move || {
                    job();
                    counted.done();
                };
                match tx.try_send(Box::new(wrapped)) {
                    Ok(()) => Ok(()),
                    Err(TrySendError::Full(_)) => {
                        pending.done();
                        Err(SubmitError::QueueFull)
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        pending.done();
                        Err(SubmitError::Closed)
                    }
                }
            }
        }
    }

    /// Number of admitted jobs not yet finished (queued plus running).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.pending.get()
    }

    /// Waits until every admitted job has finished, up to `deadline`.
    /// Returns `true` when the pool went quiet, `false` on deadline. Does
    /// not stop admission by itself — callers that want a drain *guarantee*
    /// stop submitting (or call [`WorkerPool::close`]) first.
    pub fn drain_within(&self, timeout: Duration) -> bool {
        self.pending.wait_quiet(Instant::now() + timeout)
    }

    /// Stops admitting, drains everything already queued, joins the
    /// workers. Idempotent.
    pub fn close(&mut self) {
        self.queue.lock().expect("pool queue poisoned").take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.close();
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        // Rust-book worker-pool idiom: the guard lives only for the recv,
        // so workers run jobs concurrently.
        let job = rx.lock().expect("pool receiver poisoned").recv();
        match job {
            Ok(job) => job(),
            Err(_) => return, // queue closed and drained
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let task =
            |i: usize| (i as u64 ^ 0xD4C9).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
        let seq = Pool::single().run(64, task);
        let par = Pool::new(8).run(64, task);
        assert_eq!(seq, par);
    }

    #[test]
    fn run_covers_every_index_once() {
        let hits = AtomicU64::new(0);
        let out = Pool::new(4).run(37, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..37).collect::<Vec<_>>());
        assert_eq!(hits.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let pool = Pool::new(4);
        let caught = std::panic::catch_unwind(|| {
            pool.run(16, |i| {
                assert!(i != 7, "planted failure");
                i
            })
        });
        assert!(caught.is_err(), "the planted panic must surface");
    }

    #[test]
    fn worker_pool_drains_admitted_jobs_on_close() {
        let done = Arc::new(AtomicU64::new(0));
        let mut pool = WorkerPool::new("test", 2, 64);
        for _ in 0..16 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.close();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn drain_within_waits_for_admitted_jobs() {
        let done = Arc::new(AtomicU64::new(0));
        let mut pool = WorkerPool::new("drain", 2, 64);
        for _ in 0..12 {
            let done = Arc::clone(&done);
            pool.try_submit(move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert!(pool.drain_within(Duration::from_secs(10)), "must drain well within 10s");
        assert_eq!(pool.pending(), 0);
        assert_eq!(done.load(Ordering::Relaxed), 12);
        pool.close();
    }

    #[test]
    fn drain_within_times_out_on_a_wedged_job() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let mut pool = WorkerPool::new("wedged", 1, 4);
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            drop(g.lock().unwrap());
        })
        .unwrap();
        assert!(
            !pool.drain_within(Duration::from_millis(20)),
            "wedged job must time the drain out"
        );
        assert_eq!(pool.pending(), 1);
        drop(held);
        assert!(pool.drain_within(Duration::from_secs(10)));
        pool.close();
    }

    #[test]
    fn rejected_jobs_do_not_leak_pending() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let mut pool = WorkerPool::new("leak", 1, 1);
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            drop(g.lock().unwrap());
        })
        .unwrap();
        let mut rejected = 0;
        for _ in 0..50 {
            if pool.try_submit(|| {}) == Err(SubmitError::QueueFull) {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
        drop(held);
        assert!(pool.drain_within(Duration::from_secs(10)), "rejected submits must not count");
        pool.close();
    }

    #[test]
    fn worker_pool_rejects_when_full() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let mut pool = WorkerPool::new("test", 1, 1);
        // First job parks the only worker on the gate; the second fills
        // the depth-1 queue; the third must be rejected.
        let g = Arc::clone(&gate);
        pool.try_submit(move || {
            drop(g.lock().unwrap());
        })
        .unwrap();
        let mut rejected = false;
        for _ in 0..50 {
            match pool.try_submit(|| {}) {
                Ok(()) => {}
                Err(SubmitError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(SubmitError::Closed) => panic!("pool is open"),
            }
        }
        assert!(rejected, "a depth-1 queue must reject under a burst");
        drop(held);
        pool.close();
    }
}
