//! `dmcp-pool` — scoped fork-join for the sweeps that fan out.
//!
//! The sweeps are *embarrassingly* parallel (per-workload evaluation in
//! `dmcp-bench`, per-seed property sweeps in `dmcp-check`), and [`Pool`]
//! is the one shape they need: scoped fork-join over a fixed item list
//! with **deterministic ordered joins**. `map` returns results in input
//! order no matter which worker ran which item, so pooled callers are
//! bit-identical to their old sequential loops. Workers pull items off a
//! shared atomic cursor (work stealing by index), and a panic in any task
//! is re-raised on the caller after the scope joins.
//!
//! The planner runs on its caller's thread, so nothing nests pools. The
//! plan server's persistent worker pool is `dmcp-serve`'s own.
//!
//! `Pool` keeps a crate of its own because the benchmark harness in
//! `perfbench/` names it (`dmcp::pool::Pool`); ROADMAP item 13 replaces
//! it with a small ordered map beside `dmcp-check`'s harness once the
//! benchmark no longer does.
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
use std::sync::OnceLock;

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
}
