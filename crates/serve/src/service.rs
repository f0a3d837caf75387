//! The compilation service: a bounded queue, a worker pool, single-flight
//! deduplication and the plan cache behind one handle.
//!
//! Life of a request:
//!
//! 1. [`PlanService::submit`] derives the request's [`PlanKey`] and probes
//!    the cache — a hit returns a ready ticket without touching the queue;
//! 2. on a miss, the in-flight table is consulted: if the same key is
//!    already queued or compiling, the ticket joins that *flight* instead
//!    of enqueueing a second compile (single-flight);
//! 3. otherwise a job enters the bounded queue. A full queue is a typed
//!    admission error ([`ServeError::QueueFull`]) so callers can shed load
//!    instead of blocking unboundedly;
//! 4. a worker thread dequeues the job, compiles it, encodes and frames
//!    the plan once, stores both in the cache (and the encoded bytes on
//!    disk) and wakes every ticket of the flight.
//!
//! Every ticket resolves to the cache's entry: the plan for in-process
//! callers ([`PlanTicket::wait`]) and its framed reply for the TCP front
//! end ([`PlanTicket::wait_frame`]), which answers a hit, a disk promotion
//! and a fresh compile alike with one write.
//!
//! Shutdown is graceful: [`PlanService::shutdown`] closes the queue,
//! workers drain what was admitted, and every outstanding ticket resolves.

use crate::cache::{CacheStats, CachedPlan, ShardedPlanCache};
use crate::codec::{decode_plan, encode_plan};
use crate::disk::{DiskStats, DiskTier, DEFAULT_REPROBE, DEFAULT_SEGMENT_BYTES};
use crate::key::{PlanKey, PlanRequest};
use crate::storage::{RealIo, StorageIo};
use dmcp_core::{PartitionError, PartitionOutput, Partitioner};
use dmcp_mach::FaultState;
use dmcp_pool::{SubmitError, WorkerPool};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads compiling plans.
    pub workers: usize,
    /// Bounded request-queue depth; a full queue rejects with
    /// [`ServeError::QueueFull`].
    pub queue_depth: usize,
    /// Plan-cache capacity in (approximate) bytes. 0 disables caching.
    pub cache_bytes: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Directory for the durable plan tier ([`DiskTier`]); `None` runs
    /// memory-only. Memory-cache misses fall through to disk before
    /// compiling; compiles write through.
    pub disk_dir: Option<PathBuf>,
    /// Interval between degraded-tier re-probes (see
    /// [`DiskTier::open_with_io`]).
    pub disk_reprobe: Duration,
    /// Storage implementation for the disk tier; `None` uses [`RealIo`].
    /// The chaos harness passes a [`FaultyIo`](crate::storage::FaultyIo)
    /// here to inject disk faults under a live service.
    pub disk_io: Option<Arc<dyn StorageIo>>,
    /// Deadline for one ticket's wait on an in-flight compile; a wedged
    /// compile surfaces as [`ServeError::Timeout`] instead of hanging
    /// every duplicate request forever. `None` waits unboundedly.
    pub wait_timeout: Option<Duration>,
    /// Chaos knob: every compile panics. Exists solely so tests can drive
    /// the worker-panic containment path ([`ServeError::Internal`])
    /// end-to-end; never set in production.
    #[doc(hidden)]
    pub chaos_compile_panic: bool,
}

impl fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("cache_bytes", &self.cache_bytes)
            .field("cache_shards", &self.cache_shards)
            .field("disk_dir", &self.disk_dir)
            .field("disk_reprobe", &self.disk_reprobe)
            .field("disk_io", &self.disk_io.as_ref().map(|_| "custom"))
            .field("wait_timeout", &self.wait_timeout)
            .field("chaos_compile_panic", &self.chaos_compile_panic)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            cache_bytes: 64 << 20,
            cache_shards: 8,
            disk_dir: None,
            disk_reprobe: DEFAULT_REPROBE,
            disk_io: None,
            wait_timeout: Some(Duration::from_secs(120)),
            chaos_compile_panic: false,
        }
    }
}

/// Errors surfaced by the service.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The bounded request queue is full — shed load and retry later.
    QueueFull,
    /// A wait on an in-flight compile exceeded its deadline. The compile
    /// may still finish and populate the cache; retrying is safe.
    Timeout,
    /// The service has been shut down.
    ShuttingDown,
    /// The compile itself failed (invalid config, dead assignment, …).
    Compile(PartitionError),
    /// The durable tier could not be opened.
    Disk(String),
    /// A worker panicked mid-compile. The panic was contained (the worker
    /// and every other flight are unaffected); retrying the same request
    /// will very likely panic again, so the code is not retryable.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => f.write_str("request queue is full"),
            ServeError::Timeout => f.write_str("timed out waiting for an in-flight compile"),
            ServeError::ShuttingDown => f.write_str("service is shutting down"),
            ServeError::Compile(e) => write!(f, "compilation failed: {e}"),
            ServeError::Disk(e) => write!(f, "durable tier unavailable: {e}"),
            ServeError::Internal(e) => write!(f, "internal failure (contained panic): {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PartitionError> for ServeError {
    fn from(e: PartitionError) -> Self {
        ServeError::Compile(e)
    }
}

/// The result every ticket resolves to.
pub type PlanResult = Result<Arc<PartitionOutput>, ServeError>;

/// What a flight resolves to: the cache's entry for the key, whether or
/// not the cache kept it.
type Resolved = Result<CachedPlan, ServeError>;

/// One in-flight compilation, shared by every ticket waiting on it.
struct Flight {
    done: Mutex<Option<Resolved>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Self { done: Mutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, result: Resolved) {
        *self.done.lock().expect("flight poisoned") = Some(result);
        self.cv.notify_all();
    }

    /// Waits for the flight to resolve, up to `timeout` (`None` waits
    /// unboundedly). Elapsing the deadline is [`ServeError::Timeout`]; the
    /// flight itself keeps running and may still populate the cache.
    fn wait_deadline(&self, timeout: Option<Duration>) -> Resolved {
        let mut done = self.done.lock().expect("flight poisoned");
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(r) = &*done {
                return r.clone();
            }
            match deadline {
                None => done = self.cv.wait(done).expect("flight poisoned"),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ServeError::Timeout);
                    }
                    let (next, timed_out) =
                        self.cv.wait_timeout(done, deadline - now).expect("flight poisoned");
                    done = next;
                    if timed_out.timed_out() && done.is_none() {
                        return Err(ServeError::Timeout);
                    }
                }
            }
        }
    }
}

/// A handle to one submitted request; [`PlanTicket::wait`] blocks until
/// the plan is ready (immediately for cache hits).
pub struct PlanTicket {
    inner: TicketInner,
    /// The service's configured wait deadline, applied by [`PlanTicket::wait`].
    wait_timeout: Option<Duration>,
    /// The service's timeout counter, bumped when a wait elapses.
    timeouts: Arc<AtomicU64>,
}

enum TicketInner {
    Ready(CachedPlan),
    Flight(Arc<Flight>),
}

impl PlanTicket {
    /// Blocks until the compile resolves and returns the shared plan,
    /// bounded by the service's configured `wait_timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the deadline elapses first; otherwise
    /// whatever the compile resolved to.
    pub fn wait(self) -> PlanResult {
        self.resolve().map(|cached| cached.plan)
    }

    /// [`PlanTicket::wait`], returning the plan's framed `PlanOk` reply
    /// instead: one buffer of header, plan bytes and checksum, made once
    /// per cache residency and shared by every reply, which the TCP front
    /// end writes as it is.
    ///
    /// # Errors
    ///
    /// As [`PlanTicket::wait`].
    pub fn wait_frame(self) -> Result<Arc<[u8]>, ServeError> {
        self.resolve().map(|cached| cached.frame)
    }

    fn resolve(self) -> Resolved {
        match self.inner {
            TicketInner::Ready(cached) => Ok(cached),
            TicketInner::Flight(f) => {
                let result = f.wait_deadline(self.wait_timeout);
                if matches!(result, Err(ServeError::Timeout)) {
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                result
            }
        }
    }

    /// `true` when the ticket was answered from the cache at submit time.
    #[must_use]
    pub fn from_cache(&self) -> bool {
        matches!(self.inner, TicketInner::Ready(_))
    }
}

struct Job {
    key: PlanKey,
    request: PlanRequest,
    flight: Arc<Flight>,
}

struct Inner {
    cache: ShardedPlanCache,
    /// The durable tier, when configured: probed on memory misses, written
    /// through on compiles, flushed on shutdown.
    disk: Option<DiskTier>,
    inflight: Mutex<HashMap<PlanKey, Arc<Flight>>>,
    compiles: AtomicU64,
    shared: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    timeouts: Arc<AtomicU64>,
    /// Worker panics contained by [`Inner::run_job`].
    panics: AtomicU64,
    /// Cleared by shutdown before the drain: new submissions are refused
    /// while admitted work finishes.
    admitting: AtomicBool,
    /// Chaos knob mirrored from [`ServeConfig::chaos_compile_panic`].
    chaos_compile_panic: bool,
}

/// Compiles one request from scratch. Pure: touches no cache or counter.
/// Both the worker-pool path and the conformance path
/// ([`PlanService::plan_uncached`]) funnel through here, so "cached" and
/// "recompiled" plans are produced by the same code.
fn compile_output(request: &PlanRequest) -> Result<PartitionOutput, PartitionError> {
    let partitioner = match &request.faults {
        None => Partitioner::new(&request.machine, &request.program, request.config.clone()),
        Some(plan) => {
            let faults = FaultState::new(plan.clone(), request.machine.mesh)?;
            Partitioner::new_degraded(
                &request.machine,
                &request.program,
                request.config.clone(),
                &faults,
            )?
        }
    };
    let initial;
    let data = match &request.data {
        Some(d) => d,
        None => {
            initial = request.program.initial_data();
            &initial
        }
    };
    // Concurrency lives at the request grain (the service's worker pool);
    // each compile plans on its worker's thread.
    let mut out = partitioner.plan(&request.program, data, false)?;
    // The plan is kept (cached, persisted, served), so it drops the
    // placement's reserve and `approx_plan_bytes` is its buffers' size.
    out.shrink_to_fit();
    Ok(out)
}

impl Inner {
    /// Probes memory, then disk. A disk hit is decoded once, promoted into
    /// the memory LRU and served; a payload that fails to decode is treated
    /// as a miss (the caller recompiles — corruption degrades, never lies).
    /// A payload that decodes is framed as it is: the plan codec admits one
    /// encoding per plan, so it is the bytes `encode_plan` would write.
    fn lookup(&self, key: PlanKey) -> Option<CachedPlan> {
        if let Some(hit) = self.cache.lookup(key) {
            return Some(hit);
        }
        let bytes = self.disk.as_ref()?.get(key)?;
        let plan = decode_plan(&bytes).ok()?;
        debug_assert!(encode_plan(&plan) == bytes, "a stored plan is not its one encoding");
        let promoted = CachedPlan::new(Arc::new(plan), &bytes);
        self.cache.store(key, promoted.clone());
        Some(promoted)
    }

    /// Compiles one request, encodes and frames the plan once, and stores
    /// the frame in memory and its payload on disk.
    fn compile(&self, key: PlanKey, request: &PlanRequest) -> Resolved {
        assert!(!self.chaos_compile_panic, "chaos: injected compile panic");
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let compiled = CachedPlan::encode(Arc::new(compile_output(request)?));
        self.cache.store(key, compiled.clone());
        if let Some(disk) = &self.disk {
            // Write-through. An append failure only costs durability of
            // this one plan (it stays served from memory); a partial
            // append is the torn tail the next open truncates.
            let _ = disk.put(key, compiled.payload());
        }
        Ok(compiled)
    }

    fn run_job(&self, job: Job) {
        // The key may have landed in the cache (or on disk) while the job
        // sat in the queue (an identical key re-submitted after this
        // flight was registered goes through the flight, but a *different*
        // service user may race the compile after an eviction).
        //
        // The whole lookup-or-compile runs under `catch_unwind`: a panic
        // anywhere in the partitioner must resolve this flight (with a
        // typed [`ServeError::Internal`]) instead of leaving every waiter
        // hanging and poisoning the worker.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match self.lookup(job.key) {
                Some(found) => Ok(found),
                None => self.compile(job.key, &job.request),
            }))
            .unwrap_or_else(|payload| {
                self.panics.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Internal(panic_text(payload.as_ref())))
            });
        self.inflight.lock().expect("inflight poisoned").remove(&job.key);
        job.flight.complete(result);
    }
}

/// Best-effort text of a panic payload (`&str` and `String` panics).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Compiles actually executed by the worker pool.
    pub compiles: u64,
    /// Requests that joined an existing flight instead of compiling
    /// (single-flight deduplication).
    pub shared: u64,
    /// Requests admitted (cache hits included).
    pub submitted: u64,
    /// Requests rejected with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Ticket waits that elapsed their deadline ([`ServeError::Timeout`]).
    pub timeouts: u64,
    /// Worker panics contained as [`ServeError::Internal`].
    pub panics: u64,
    /// Durable-tier counters (all zero when no disk tier is configured).
    pub disk: DiskStats,
}

/// The concurrent partition-plan compilation service.
///
/// Dropping the service shuts it down gracefully (queued work drains
/// first); prefer calling [`PlanService::shutdown`] to make that explicit.
pub struct PlanService {
    inner: Arc<Inner>,
    pool: WorkerPool,
    wait_timeout: Option<Duration>,
}

impl PlanService {
    /// Spawns the worker pool and returns the service handle.
    ///
    /// # Panics
    ///
    /// Panics if a configured disk tier cannot be opened — use
    /// [`PlanService::try_new`] to handle that as a typed error.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self::try_new(config).expect("disk tier open failed")
    }

    /// Spawns the worker pool, opening (and crash-recovering) the durable
    /// tier when one is configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disk`] when the configured `disk_dir` cannot be
    /// opened or recovered.
    pub fn try_new(config: ServeConfig) -> Result<Self, ServeError> {
        let disk = match &config.disk_dir {
            None => None,
            Some(dir) => {
                let io: Arc<dyn StorageIo> =
                    config.disk_io.clone().unwrap_or_else(|| Arc::new(RealIo));
                Some(
                    DiskTier::open_with_io(dir, DEFAULT_SEGMENT_BYTES, config.disk_reprobe, io)
                        .map_err(|e| ServeError::Disk(e.to_string()))?,
                )
            }
        };
        let inner = Arc::new(Inner {
            cache: ShardedPlanCache::new(config.cache_shards, config.cache_bytes),
            disk,
            inflight: Mutex::new(HashMap::new()),
            compiles: AtomicU64::new(0),
            shared: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            timeouts: Arc::new(AtomicU64::new(0)),
            panics: AtomicU64::new(0),
            admitting: AtomicBool::new(true),
            chaos_compile_panic: config.chaos_compile_panic,
        });
        let pool = WorkerPool::new("dmcp-serve", config.workers, config.queue_depth);
        Ok(Self { inner, pool, wait_timeout: config.wait_timeout })
    }

    /// Submits one request. Returns a ticket immediately; the compile (if
    /// any) happens on the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bounded queue cannot admit the
    /// request, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, request: PlanRequest) -> Result<PlanTicket, ServeError> {
        if !self.inner.admitting.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        let key = request.key();
        if let Some(found) = self.inner.lookup(key) {
            return Ok(self.ticket(TicketInner::Ready(found)));
        }
        let mut inflight = self.inner.inflight.lock().expect("inflight poisoned");
        if let Some(flight) = inflight.get(&key) {
            self.inner.shared.fetch_add(1, Ordering::Relaxed);
            return Ok(self.ticket(TicketInner::Flight(Arc::clone(flight))));
        }
        let flight = Flight::new();
        inflight.insert(key, Arc::clone(&flight));
        // Hold the in-flight lock across the enqueue so a worker cannot
        // finish the job (and remove the flight) before it is registered.
        let job = Job { key, request, flight: Arc::clone(&flight) };
        let inner_for_job = Arc::clone(&self.inner);
        let admit = self.pool.try_submit(move || inner_for_job.run_job(job)).map_err(|e| match e {
            SubmitError::QueueFull => ServeError::QueueFull,
            SubmitError::Closed => ServeError::ShuttingDown,
        });
        if let Err(e) = admit {
            inflight.remove(&key);
            if e == ServeError::QueueFull {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            }
            return Err(e);
        }
        Ok(self.ticket(TicketInner::Flight(flight)))
    }

    fn ticket(&self, inner: TicketInner) -> PlanTicket {
        PlanTicket {
            inner,
            wait_timeout: self.wait_timeout,
            timeouts: Arc::clone(&self.inner.timeouts),
        }
    }

    /// Submit-and-wait convenience for synchronous callers.
    ///
    /// # Errors
    ///
    /// Everything [`PlanService::submit`] returns, plus compile errors.
    pub fn plan(&self, request: PlanRequest) -> PlanResult {
        self.submit(request)?.wait()
    }

    /// Compiles `request` synchronously on the calling thread, bypassing
    /// the cache, the queue and single-flight — nothing is read from or
    /// written to any service state.
    ///
    /// This is the conformance harness's reference path: the serving
    /// invariant is that a plan answered from the cache is bit-identical
    /// to this from-scratch recompile of an equal key.
    ///
    /// # Errors
    ///
    /// Compile errors only ([`ServeError::Compile`]).
    pub fn plan_uncached(&self, request: &PlanRequest) -> PlanResult {
        Ok(Arc::new(compile_output(request)?))
    }

    /// Compiles a batch: submits every request (applying backpressure by
    /// waiting for earlier tickets whenever the queue is full) and waits
    /// for all results, returned in request order.
    pub fn serve_batch(&self, requests: Vec<PlanRequest>) -> Vec<PlanResult> {
        let mut slots: Vec<Option<PlanResult>> = Vec::with_capacity(requests.len());
        let mut pending: Vec<(usize, PlanTicket)> = Vec::new();
        for (i, request) in requests.into_iter().enumerate() {
            slots.push(None);
            loop {
                match self.submit(request.clone()) {
                    Ok(ticket) => {
                        pending.push((i, ticket));
                        break;
                    }
                    Err(ServeError::QueueFull) => {
                        // Backpressure: resolve the oldest outstanding
                        // ticket (freeing a queue slot) and retry.
                        match pending.is_empty() {
                            true => std::thread::yield_now(),
                            false => {
                                let (slot, ticket) = pending.remove(0);
                                slots[slot] = Some(ticket.wait());
                            }
                        }
                    }
                    Err(e) => {
                        slots[i] = Some(Err(e));
                        break;
                    }
                }
            }
        }
        for (slot, ticket) in pending {
            slots[slot] = Some(ticket.wait());
        }
        slots.into_iter().map(|s| s.expect("every slot resolved")).collect()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            cache: self.inner.cache.stats(),
            compiles: self.inner.compiles.load(Ordering::Relaxed),
            shared: self.inner.shared.load(Ordering::Relaxed),
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            timeouts: self.inner.timeouts.load(Ordering::Relaxed),
            panics: self.inner.panics.load(Ordering::Relaxed),
            disk: self.inner.disk.as_ref().map(DiskTier::stats).unwrap_or_default(),
        }
    }

    /// Direct access to the plan cache (tests, cache warming).
    pub fn cache(&self) -> &ShardedPlanCache {
        &self.inner.cache
    }

    /// Direct access to the durable tier, when one is configured.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.inner.disk.as_ref()
    }

    /// Graceful shutdown: stops admitting, drains the queue, joins the
    /// workers. Every ticket handed out before the call still resolves.
    /// (Dropping the service does the same via the pool's own `Drop`.)
    pub fn shutdown(self) {
        self.shutdown_within(Duration::from_secs(3600));
    }

    /// Graceful shutdown with an explicit drain deadline:
    ///
    /// 1. admission stops — new [`PlanService::submit`]s get
    ///    [`ServeError::ShuttingDown`];
    /// 2. admitted work drains, up to `deadline`;
    /// 3. on a complete drain, the in-flight table is asserted empty
    ///    (every flight resolved — no ticket is left hanging);
    /// 4. the durable tier is fsynced and the workers are joined.
    ///
    /// Returns `true` when the drain completed within the deadline.
    ///
    /// # Panics
    ///
    /// Panics if a completed drain left entries in the in-flight table —
    /// that would mean a ticket exists whose flight can never resolve,
    /// which is exactly the bug this drain ordering exists to rule out.
    pub fn shutdown_within(mut self, deadline: Duration) -> bool {
        self.inner.admitting.store(false, Ordering::SeqCst);
        let drained = self.pool.drain_within(deadline);
        if drained {
            let inflight = self.inner.inflight.lock().expect("inflight poisoned");
            assert!(
                inflight.is_empty(),
                "drained queue left {} unresolved flights",
                inflight.len()
            );
        }
        if let Some(disk) = &self.inner.disk {
            let _ = disk.sync();
        }
        // With the queue drained this joins the workers immediately; on a
        // missed deadline it still waits for the wedged job — the bound
        // applies to the drain, shutdown never abandons running threads.
        self.pool.close();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, FrameKind};
    use dmcp_ir::{Program, ProgramBuilder};
    use dmcp_mach::MachineConfig;

    fn program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D"] {
            b.array(n, &[256], 8);
        }
        b.nest(&[("i", 0, iters)], &["A[i] = B[i] + C[i] + D[i]"]).unwrap();
        b.build()
    }

    fn request(iters: i64) -> PlanRequest {
        PlanRequest::new(program(iters), MachineConfig::knl_like(), <_>::default())
    }

    #[test]
    fn plan_compiles_once_then_hits() {
        let service = PlanService::new(ServeConfig::default());
        let a = service.plan(request(32)).unwrap();
        let b = service.plan(request(32)).unwrap();
        assert_eq!(a, b);
        let stats = service.stats();
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.cache.hits, 1);
        service.shutdown();
    }

    #[test]
    fn plan_uncached_matches_cached_and_touches_no_state() {
        let service = PlanService::new(ServeConfig::default());
        let cached = service.plan(request(32)).unwrap();
        let fresh = service.plan_uncached(&request(32)).unwrap();
        assert_eq!(cached, fresh);
        let stats = service.stats();
        assert_eq!(stats.compiles, 1, "uncached compile bypasses the pool");
        assert_eq!(stats.cache.hits, 0, "uncached compile does not probe the cache");
        service.shutdown();
    }

    #[test]
    fn distinct_programs_get_distinct_plans() {
        let service = PlanService::new(ServeConfig::default());
        let a = service.plan(request(32)).unwrap();
        let b = service.plan(request(48)).unwrap();
        assert_ne!(a, b);
        assert_eq!(service.stats().compiles, 2);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let service = PlanService::new(ServeConfig::default());
        let edits: [fn(&mut PlanRequest); 3] = [
            |req| req.config.window = 0,
            // A contained panic (`Internal`) before `validate` refused them.
            |req| req.config.opts.balance_threshold = -0.5,
            |req| req.config.opts.balance_threshold = f64::NAN,
        ];
        for edit in edits {
            let mut req = request(16);
            edit(&mut req);
            let err = service.plan(req).unwrap_err();
            assert!(
                matches!(err, ServeError::Compile(PartitionError::InvalidConfig(_))),
                "{err:?}"
            );
        }
        assert_eq!(service.stats().panics, 0);
    }

    #[test]
    fn hits_share_the_compile_frame_and_it_holds_the_plan_bytes() {
        let service = PlanService::new(ServeConfig::default());
        let compiled = service.submit(request(32)).unwrap().wait_frame().unwrap();
        let first = service.submit(request(32)).unwrap();
        assert!(first.from_cache());
        let first = first.wait_frame().unwrap();
        let second = service.submit(request(32)).unwrap().wait_frame().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "two hits, one frame");
        assert!(Arc::ptr_eq(&compiled, &first), "the compile's reply is the cached frame");
        let plan = service.plan(request(32)).unwrap();
        let (kind, payload) = read_frame(&mut &first[..]).expect("a valid frame");
        assert_eq!(kind, FrameKind::PlanOk);
        assert_eq!(payload, encode_plan(&plan));
        assert_eq!(service.stats().compiles, 1);
        service.shutdown();
    }

    #[test]
    fn an_undecodable_disk_record_is_a_miss_and_never_sent() {
        let config = ServeConfig {
            disk_dir: Some("/undecodable".into()),
            disk_io: Some(Arc::new(crate::storage::MemIo::new())),
            ..ServeConfig::default()
        };
        let service = PlanService::try_new(config).unwrap();
        let fresh = encode_plan(&service.plan_uncached(&request(32)).unwrap());
        // A plan cut short: the record's checksum holds, the plan does not
        // decode.
        let stored = &fresh[..fresh.len() - 1];
        assert!(decode_plan(stored).is_err());
        service.disk().unwrap().put(request(32).key(), stored).unwrap();

        let frame = service.submit(request(32)).unwrap().wait_frame().unwrap();
        let (kind, payload) = read_frame(&mut &frame[..]).unwrap();
        assert_eq!(kind, FrameKind::PlanOk);
        assert_eq!(payload, fresh, "the reply is the fresh plan's frame");
        let stats = service.stats();
        assert!(stats.disk.hits > 0, "the record was read");
        assert_eq!(stats.compiles, 1, "and the request compiled");
        let again = service.submit(request(32)).unwrap().wait_frame().unwrap();
        assert!(Arc::ptr_eq(&frame, &again), "the compile stays in memory");
        assert_eq!(service.stats().compiles, 1);
        service.shutdown();
    }

    #[test]
    fn queue_full_is_reported() {
        // One worker, depth-1 queue: the worker parks on the first job, the
        // queue holds one more, further submits are rejected. Distinct
        // programs defeat single-flight joining.
        let service =
            PlanService::new(ServeConfig { workers: 1, queue_depth: 1, ..ServeConfig::default() });
        let mut tickets = Vec::new();
        let mut rejected = 0;
        for i in 0..24 {
            match service.submit(request(200 + i)) {
                Ok(t) => tickets.push(t),
                Err(ServeError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected > 0, "a depth-1 queue must reject under a burst");
        assert_eq!(service.stats().rejected, rejected);
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn shutdown_drains_admitted_work() {
        let service =
            PlanService::new(ServeConfig { workers: 2, queue_depth: 16, ..ServeConfig::default() });
        let tickets: Vec<PlanTicket> =
            (0..6).map(|i| service.submit(request(64 + i)).unwrap()).collect();
        service.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted work resolves across shutdown");
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let mut service = PlanService::new(ServeConfig::default());
        let inner = Arc::clone(&service.inner);
        service.pool.close();
        let err = service.plan(request(16)).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        drop(service);
        assert_eq!(inner.compiles.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn compile_panic_resolves_the_flight_and_keeps_workers_alive() {
        let service = PlanService::new(ServeConfig {
            workers: 1,
            chaos_compile_panic: true,
            ..ServeConfig::default()
        });
        let err = service.plan(request(32)).unwrap_err();
        assert!(matches!(err, ServeError::Internal(_)), "panic surfaces typed, got {err:?}");
        // The single worker survived: a second request still resolves
        // (it panics again — the knob is global — but never hangs).
        let err = service.plan(request(48)).unwrap_err();
        assert!(matches!(err, ServeError::Internal(_)));
        assert_eq!(service.stats().panics, 2);
        service.shutdown();
    }

    #[test]
    fn serve_batch_preserves_order_under_backpressure() {
        let service =
            PlanService::new(ServeConfig { workers: 2, queue_depth: 2, ..ServeConfig::default() });
        let reqs: Vec<PlanRequest> = (0..10).map(|i| request(16 + (i % 3) * 16)).collect();
        let direct: Vec<Arc<PartitionOutput>> =
            reqs.iter().map(|r| service.plan(r.clone()).unwrap()).collect();
        let batch = service.serve_batch(reqs);
        assert_eq!(batch.len(), 10);
        for (got, want) in batch.iter().zip(&direct) {
            assert_eq!(got.as_ref().unwrap(), want);
        }
        // 3 distinct keys → 3 compiles total despite 20 requests.
        assert_eq!(service.stats().compiles, 3);
    }
}
