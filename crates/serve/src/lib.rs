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
//! Two binaries ship with the crate: `dmcp-serve`, the server, and
//! `dmcp-loadgen`, the one load driver (an open-loop zipf mix over TCP,
//! with restart and chaos drills).
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
