//! The sharded, content-addressed plan cache.
//!
//! Compiled [`PartitionOutput`]s are memoized under their [`PlanKey`],
//! each beside its framed `PlanOk` reply, so a hit is answered with one
//! write of bytes made when the plan entered the cache. The cache is split
//! into `N` shards, each behind its own [`Mutex`], so concurrent lookups
//! from the worker pool and from client threads contend per-shard rather
//! than on one global lock. Each shard runs an LRU policy over an
//! *approximate byte* accounting of its entries (a plan's size is
//! dominated by its steps, inputs and per-instance records; its frame is
//! counted by length), and the whole cache keeps
//! hit/miss/insert/eviction counters that snapshot into a [`CacheStats`]
//! report.

use crate::codec::encode_plan;
use crate::key::PlanKey;
use crate::wire::{frame_bytes, FrameKind, FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES};
use dmcp_core::{NestPartition, PartitionOutput, StmtRecord};
use dmcp_core::{Step, StepInput, SubId};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Approximate heap footprint of a compiled plan, in bytes.
///
/// Counts the buffers that scale with program size — each schedule's
/// steps, inputs and waits, and the per-instance statistics records — by
/// their lengths, plus the fixed part of each nest. The plans the service
/// caches carry no spare capacity (its compile path shrinks each one, and
/// decoded plans are exact), so for them the lengths are the buffers'
/// sizes; allocator overhead (one allocation per buffer) and small fixed
/// fields are ignored.
#[must_use]
pub fn approx_plan_bytes(plan: &PartitionOutput) -> usize {
    let mut bytes = size_of::<PartitionOutput>();
    for nest in &plan.nests {
        let schedule = &nest.schedule;
        bytes += size_of::<NestPartition>();
        bytes += nest.stats.records.len() * size_of::<StmtRecord>();
        bytes += schedule.steps.len() * size_of::<Step>();
        bytes += schedule.inputs.len() * size_of::<StepInput>();
        bytes += schedule.waits.len() * size_of::<SubId>();
    }
    bytes
}

/// A plan as the cache holds it: the plan and its framed `PlanOk` reply
/// (header, [`encode_plan`] bytes and checksum in one buffer). The frame
/// is made once per residency and shared by every reply.
#[derive(Clone)]
pub(crate) struct CachedPlan {
    pub(crate) plan: Arc<PartitionOutput>,
    pub(crate) frame: Arc<[u8]>,
}

impl CachedPlan {
    /// Frames `payload`, which must be `encode_plan(&plan)`.
    pub(crate) fn new(plan: Arc<PartitionOutput>, payload: &[u8]) -> Self {
        Self { plan, frame: frame_bytes(FrameKind::PlanOk, payload).into() }
    }

    /// Encodes and frames `plan`.
    pub(crate) fn encode(plan: Arc<PartitionOutput>) -> Self {
        let payload = encode_plan(&plan);
        Self::new(plan, &payload)
    }

    /// The frame's payload: the plan's encoded bytes.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.frame[FRAME_HEADER_BYTES..self.frame.len() - FRAME_TRAILER_BYTES]
    }

    /// What the entry counts against its shard's budget.
    fn bytes(&self) -> usize {
        approx_plan_bytes(&self.plan) + self.frame.len()
    }
}

/// Counter snapshot of one cache (or one service run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans inserted.
    pub insertions: u64,
    /// Plans evicted to stay within the byte capacity.
    pub evictions: u64,
    /// Plans currently resident.
    pub entries: u64,
    /// Approximate bytes currently resident: each plan's
    /// [`approx_plan_bytes`] plus the length of its frame.
    pub bytes: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups (0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    cached: CachedPlan,
    bytes: usize,
    /// Last-touch stamp from the shard's monotonic tick; smallest = LRU.
    stamp: u64,
}

struct Shard {
    map: HashMap<PlanKey, Entry>,
    bytes: usize,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: PlanKey) -> Option<CachedPlan> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|e| {
            e.stamp = tick;
            e.cached.clone()
        })
    }
}

/// The sharded LRU plan cache. Capacity 0 disables caching entirely (every
/// lookup misses, nothing is stored).
pub struct ShardedPlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total capacity / shard count).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedPlanCache {
    /// Creates a cache with `capacity_bytes` split evenly over `shards`
    /// shards (shard count is clamped to at least 1).
    #[must_use]
    pub fn new(shards: usize, capacity_bytes: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shard_capacity: capacity_bytes / shards,
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), bytes: 0, tick: 0 }))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: PlanKey) -> &Mutex<Shard> {
        &self.shards[(key.digest() % self.shards.len() as u64) as usize]
    }

    /// Looks up a plan, refreshing its LRU position on a hit.
    pub fn get(&self, key: PlanKey) -> Option<Arc<PartitionOutput>> {
        self.lookup(key).map(|hit| hit.plan)
    }

    /// [`ShardedPlanCache::get`] of the whole entry, frame included.
    pub(crate) fn lookup(&self, key: PlanKey) -> Option<CachedPlan> {
        let found = self.shard(key).lock().expect("cache shard poisoned").touch(key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a plan, encoded and framed for the replies it will answer,
    /// evicting least-recently-used entries of the shard until the entry
    /// (plan and frame) fits the byte budget. An entry larger than the
    /// whole shard budget is not retained. Re-inserting an existing key
    /// refreshes the entry.
    pub fn insert(&self, key: PlanKey, plan: Arc<PartitionOutput>) {
        self.store(key, CachedPlan::encode(plan));
    }

    /// [`ShardedPlanCache::insert`] of a plan already framed.
    pub(crate) fn store(&self, key: PlanKey, cached: CachedPlan) {
        if self.shard_capacity == 0 {
            return;
        }
        let bytes = cached.bytes();
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        shard.tick += 1;
        let stamp = shard.tick;
        if let Some(old) = shard.map.insert(key, Entry { cached, bytes, stamp }) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while shard.bytes > self.shard_capacity {
            let Some((&victim, _)) = shard.map.iter().min_by_key(|(_, e)| e.stamp) else {
                break;
            };
            let gone = shard.map.remove(&victim).expect("victim present");
            shard.bytes -= gone.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().expect("cache shard poisoned");
            s.map.clear();
            s.bytes = 0;
        }
    }

    /// Snapshots the counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0u64, 0u64);
        for shard in &self.shards {
            let s = shard.lock().expect("cache shard poisoned");
            entries += s.map.len() as u64;
            bytes += s.bytes as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> PlanKey {
        PlanKey { program: n, machine: 0, config: 0, faults: 0 }
    }

    /// A plan with `steps` empty steps.
    fn plan(steps: usize) -> Arc<PartitionOutput> {
        use dmcp_core::{NestStats, Schedule, StmtTag};
        let mut schedule = Schedule::default();
        for _ in 0..steps {
            schedule.push_step(dmcp_mach::NodeId::new(0, 0), None, None, StmtTag::default());
        }
        Arc::new(PartitionOutput::new(vec![NestPartition {
            nest: 0,
            schedule,
            stats: NestStats::default(),
        }]))
    }

    /// What a `plan(steps)` entry counts against its shard.
    fn entry_bytes(steps: usize) -> usize {
        CachedPlan::encode(plan(steps)).bytes()
    }

    #[test]
    fn hit_miss_and_insert_counters() {
        let cache = ShardedPlanCache::new(4, 1 << 20);
        assert!(cache.get(key(1)).is_none());
        cache.insert(key(1), plan(4));
        assert!(cache.get(key(1)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.entries, 1);
        assert!(s.bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Single shard so ordering is observable; capacity fits two entries.
        let two = 2 * entry_bytes(8);
        let cache = ShardedPlanCache::new(1, two);
        cache.insert(key(1), plan(8));
        cache.insert(key(2), plan(8));
        assert!(cache.get(key(1)).is_some(), "refresh key 1");
        cache.insert(key(3), plan(8));
        assert!(cache.get(key(1)).is_some(), "recently used survives");
        assert!(cache.get(key(3)).is_some(), "new entry survives");
        assert!(cache.get(key(2)).is_none(), "LRU entry evicted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ShardedPlanCache::new(4, 0);
        cache.insert(key(1), plan(2));
        assert!(cache.get(key(1)).is_none());
        let s = cache.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.entries, 0);
    }

    #[test]
    fn oversized_plan_is_not_retained() {
        let small = entry_bytes(2);
        let cache = ShardedPlanCache::new(1, small);
        cache.insert(key(1), plan(64));
        assert!(cache.get(key(1)).is_none());
        // But a fitting plan stays.
        cache.insert(key(2), plan(2));
        assert!(cache.get(key(2)).is_some());
    }

    #[test]
    fn an_entry_counts_the_plan_and_its_frame() {
        let p = plan(8);
        let frame_len = frame_bytes(FrameKind::PlanOk, &encode_plan(&p)).len();
        let both = approx_plan_bytes(&p) + frame_len;
        let cache = ShardedPlanCache::new(1, both);
        cache.insert(key(1), Arc::clone(&p));
        assert_eq!(cache.stats().bytes, both as u64);
        let hit = cache.lookup(key(1)).expect("fits exactly");
        assert_eq!(hit.payload(), encode_plan(&p));

        // A budget that holds the plan but not the plan and its frame
        // keeps nothing.
        let cache = ShardedPlanCache::new(1, both - 1);
        cache.insert(key(1), p);
        assert!(cache.get(key(1)).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (0, 0, 1));
    }

    #[test]
    fn reinsert_updates_bytes_not_entries() {
        let cache = ShardedPlanCache::new(1, 1 << 20);
        cache.insert(key(1), plan(2));
        let b1 = cache.stats().bytes;
        cache.insert(key(1), plan(4));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert!(s.bytes > b1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn plan_size_scales_with_steps() {
        assert!(approx_plan_bytes(&plan(64)) > 8 * approx_plan_bytes(&plan(4)));
    }
}
