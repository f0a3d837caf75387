//! A set-associative LRU cache model.
//!
//! The same structure models the private L1s, the shared L2 banks, and (in
//! cache memory mode) the direct-mapped MCDRAM cache. It tracks lines by
//! [`LineAddr`] and reports hits, cold misses and evictions.

use crate::addr::LineAddr;

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and inserted into a free way.
    Miss,
    /// The line was absent; inserting it evicted `victim`.
    MissEvict {
        /// The line that was evicted to make room.
        victim: LineAddr,
    },
}

impl AccessOutcome {
    /// `true` for any kind of miss.
    pub fn is_miss(self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// # Examples
///
/// ```
/// use dmcp_mem::{Cache, LineAddr};
///
/// let mut l1 = Cache::new(4, 2); // 4 sets, 2 ways
/// assert!(l1.access(LineAddr::new(0)).is_miss());
/// assert!(!l1.access(LineAddr::new(0)).is_miss());
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    /// `sets × ways` slots, set `s` at `s * ways ..`; only the first
    /// `fill[s]` slots of a set are occupied, in insertion order with
    /// [`Cache::invalidate`]'s swaps. One allocation for the whole cache
    /// (one `Vec` per set would allocate per set, and regrow, on first
    /// use).
    slots: Vec<(LineAddr, u64)>,
    /// Occupied ways per set.
    fill: Vec<u32>,
    ways: u32,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be nonzero");
        Self {
            slots: vec![(LineAddr::new(0), 0); sets as usize * ways as usize],
            fill: vec![0; sets as usize],
            ways,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// A direct-mapped cache with `lines` lines.
    pub fn direct_mapped(lines: u32) -> Self {
        Self::new(lines.max(1), 1)
    }

    /// Number of sets.
    pub fn set_count(&self) -> u32 {
        self.fill.len() as u32
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> u32 {
        self.set_count() * self.ways
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate over all accesses so far; 0 when nothing was accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() % self.fill.len() as u64) as usize
    }

    /// The occupied slots of `line`'s set, and the set's index.
    fn set_of(&mut self, line: LineAddr) -> (&mut [(LineAddr, u64)], usize) {
        let idx = self.set_index(line);
        let start = idx * self.ways as usize;
        (&mut self.slots[start..start + self.fill[idx] as usize], idx)
    }

    /// Accesses `line`, inserting it on a miss (LRU victim on conflict).
    pub fn access(&mut self, line: LineAddr) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways;
        let (set, idx) = self.set_of(line);
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = clock;
            self.hits += 1;
            return AccessOutcome::Hit;
        }
        if set.len() < ways as usize {
            let free = idx * ways as usize + set.len();
            self.slots[free] = (line, clock);
            self.fill[idx] += 1;
            self.misses += 1;
            return AccessOutcome::Miss;
        }
        let lru = set
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, t))| *t)
            .map(|(i, _)| i)
            .expect("non-empty set");
        let victim = set[lru].0;
        set[lru] = (line, clock);
        self.misses += 1;
        AccessOutcome::MissEvict { victim }
    }

    /// `true` if the line is currently resident (does not update LRU state).
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = self.set_index(line);
        let start = idx * self.ways as usize;
        self.slots[start..start + self.fill[idx] as usize].iter().any(|(l, _)| *l == line)
    }

    /// Removes a line if present; returns whether it was resident. The
    /// set's last occupied slot moves into the hole, as `Vec::swap_remove`
    /// would.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let (set, idx) = self.set_of(line);
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            let last = set.len() - 1;
            set.swap(pos, last);
            self.fill[idx] -= 1;
            true
        } else {
            false
        }
    }

    /// Empties the cache and resets statistics.
    pub fn reset(&mut self) {
        self.fill.fill(0);
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(2, 2);
        assert_eq!(c.access(line(0)), AccessOutcome::Miss);
        assert_eq!(c.access(line(0)), AccessOutcome::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(1, 2);
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // 1 is now LRU
        match c.access(line(2)) {
            AccessOutcome::MissEvict { victim } => assert_eq!(victim, line(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(1)));
    }

    #[test]
    fn sets_isolate_conflicts() {
        let mut c = Cache::new(2, 1);
        c.access(line(0)); // set 0
        c.access(line(1)); // set 1
        assert!(c.contains(line(0)));
        assert!(c.contains(line(1)));
        // line 2 conflicts with line 0 only.
        c.access(line(2));
        assert!(!c.contains(line(0)));
        assert!(c.contains(line(1)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(4, 4);
        c.access(line(9));
        assert!(c.invalidate(line(9)));
        assert!(!c.contains(line(9)));
        assert!(!c.invalidate(line(9)));
    }

    #[test]
    fn contains_does_not_touch_lru() {
        let mut c = Cache::new(1, 2);
        c.access(line(0));
        c.access(line(1));
        // Querying 0 must not promote it.
        assert!(c.contains(line(0)));
        match c.access(line(2)) {
            AccessOutcome::MissEvict { victim } => assert_eq!(victim, line(0)),
            other => panic!("expected eviction of 0, got {other:?}"),
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Cache::new(2, 2);
        c.access(line(1));
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(!c.contains(line(1)));
    }

    #[test]
    fn invalidate_keeps_the_rest_of_the_set_and_its_lru_order() {
        let mut c = Cache::new(1, 3);
        for n in 0..3 {
            c.access(line(n));
        }
        assert!(c.invalidate(line(0)));
        assert!(c.contains(line(1)) && c.contains(line(2)) && !c.contains(line(0)));
        // The freed way is filled first; then 1, the least recent, goes.
        assert_eq!(c.access(line(3)), AccessOutcome::Miss);
        assert_eq!(c.access(line(4)), AccessOutcome::MissEvict { victim: line(1) });
    }

    #[test]
    fn direct_mapped_has_one_way() {
        let c = Cache::direct_mapped(128);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.capacity_lines(), 128);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_panics() {
        let _ = Cache::new(0, 2);
    }
}
