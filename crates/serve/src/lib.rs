//! `dmcp-serve` — a concurrent partition-plan compilation service with a
//! content-addressed plan cache.
//!
//! The partitioner in `dmcp-core` is a pure function of its inputs: the
//! same program, data, machine description, configuration and fault plan
//! always produce the same [`dmcp_core::PartitionOutput`]. This crate
//! turns that purity into a serving layer:
//!
//! * [`PlanKey`] — a content address built from stable fingerprints
//!   ([`dmcp_ir::StableHash`] for programs/data, the
//!   [`dmcp_mach::Fingerprint`] accumulator for machines and faults, and
//!   `PartitionConfig::fingerprint` for the planner knobs);
//! * [`ShardedPlanCache`] — an N-shard LRU over approximate plan bytes
//!   with hit/miss/insert/eviction counters, and an index from the wire
//!   bytes of a request to the entry they resolved to;
//! * [`PlanService`] — a bounded-queue worker pool with single-flight
//!   deduplication (concurrent requests for one key compile once), typed
//!   admission control ([`ServeError::QueueFull`], [`ServeError::Timeout`])
//!   and graceful draining shutdown ([`PlanService::shutdown_within`]).
//!   Every compile is one call of `Partitioner::plan`, the planner's only
//!   entry point, so a served plan is the planner's plan;
//! * [`DiskTier`] — a durable, append-only, checksummed on-disk plan
//!   store behind the memory LRU; crash recovery truncates at most the
//!   record being written when the process died;
//! * [`wire`] / [`codec`] — the length-prefixed binary frame protocol and
//!   the request/plan byte codec it carries;
//! * [`PlanServer`] / [`PlanClient`] — the TCP front end (typed error
//!   frames, per-connection deadlines, bounded handler pool whose idle
//!   connections yield to queued ones) and a client that keeps its
//!   connection, with connect/request timeouts and jittered-backoff retry.
//!
//! The crate's one binary is the server, `dmcp-serve --listen`. Load and
//! latency numbers come from the benchmark harness in `perfbench/` (its
//! `serve_hot` and `serve_cold` workloads), and the crash-safety and chaos
//! gates are tests in `tests/net_serve.rs`.
//!
//! The service's compiles and the server's connections run on the
//! crate-private `WorkerPool` below: persistent named threads over a
//! bounded queue, non-blocking admission that sheds load as a typed
//! `SubmitError`, and a close that drains every admitted job first.
//!
//! # Quick start
//!
//! ```
//! use dmcp_serve::{PlanRequest, PlanService, ServeConfig};
//! use dmcp_mach::MachineConfig;
//!
//! let service = PlanService::new(ServeConfig::default());
//! let w = dmcp_workloads::by_name("ocean", dmcp_workloads::Scale::Tiny).unwrap();
//! let req = PlanRequest::new(w.program, MachineConfig::knl_like(), <_>::default())
//!     .with_data(w.data);
//! let first = service.plan(req.clone()).unwrap();   // compiles
//! let second = service.plan(req).unwrap();          // cache hit
//! assert_eq!(first, second);
//! assert_eq!(service.stats().compiles, 1);
//! service.shutdown();
//! ```

pub mod cache;
pub mod chaos;
pub mod client;
pub mod codec;
pub mod disk;
pub mod key;
pub mod net;
pub mod service;
pub mod storage;
pub mod wire;

pub use cache::{approx_plan_bytes, CacheStats, ShardedPlanCache};
pub use chaos::{ChaosAction, ChaosProxy, ProxyCounters};
pub use client::{ClientConfig, ClientCounters, ClientError, PlanClient};
pub use codec::CodecError;
pub use disk::{DiskStats, DiskTier};
pub use key::{PlanKey, PlanRequest};
pub use net::{NetConfig, PlanServer};
pub use service::{PlanResult, PlanService, PlanTicket, ServeConfig, ServeError, ServeStats};
pub use storage::{ChaosState, FaultyIo, MemIo, RealIo, StorageFile, StorageIo};
pub use wire::{ErrorCode, WireError};

use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Compile-time audit that everything the service moves across or shares
/// between threads is `Send`/`Sync`. The partitioner and layout are
/// constructed inside worker threads; requests cross the queue; plans and
/// the service handle are shared by reference from client threads.
#[allow(dead_code)]
fn send_sync_audit() {
    fn send<T: Send>() {}
    fn sync<T: Sync>() {}
    send::<dmcp_core::Partitioner>();
    sync::<dmcp_core::Partitioner>();
    send::<dmcp_core::Layout>();
    sync::<dmcp_core::Layout>();
    send::<dmcp_core::PartitionOutput>();
    sync::<dmcp_core::PartitionOutput>();
    send::<PlanRequest>();
    send::<PlanTicket>();
    sync::<PlanService>();
    send::<PlanService>();
    sync::<ShardedPlanCache>();
}

/// Typed admission errors for [`WorkerPool::try_submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
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
pub(crate) struct WorkerPool {
    queue: Mutex<Option<SyncSender<Job>>>,
    workers: Vec<JoinHandle<()>>,
    pending: Arc<Pending>,
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1) named
    /// `{name}-{k}` draining a queue of depth `queue_depth`.
    #[must_use]
    pub(crate) fn new(name: &str, workers: usize, queue_depth: usize) -> Self {
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
    pub(crate) fn try_submit(
        &self,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
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

    /// Waits until every admitted job has finished, up to `deadline`.
    /// Returns `true` when the pool went quiet, `false` on deadline. Does
    /// not stop admission by itself — callers that want a drain *guarantee*
    /// stop submitting (or call [`WorkerPool::close`]) first.
    pub(crate) fn drain_within(&self, timeout: Duration) -> bool {
        self.pending.wait_quiet(Instant::now() + timeout)
    }

    /// Stops admitting, drains everything already queued, joins the
    /// workers. Idempotent.
    pub(crate) fn close(&mut self) {
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
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Admitted jobs not yet finished (queued plus running).
    fn pending(pool: &WorkerPool) -> usize {
        *pool.pending.count.lock().unwrap()
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
        assert_eq!(pending(&pool), 0);
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
        assert_eq!(pending(&pool), 1);
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
