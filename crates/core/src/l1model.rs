//! The compiler's model of L1 contents: the `variable2node` map.
//!
//! When a subcomputation is scheduled onto a node, the data it consumed sits
//! in that node's L1 afterwards; later statements in the same window may
//! exploit this (paper Section 4.3, "multiple statements"). Each node's L1
//! has the machine's geometry — `sets` sets of `ways` lines, LRU per set,
//! as the simulated cache ([`dmcp_mem::Cache`]) has — which is how the
//! planner sees L1 *pollution*: in an oversized window, a reuse candidate
//! may already have been evicted, by capacity or by a conflict in its
//! set, by the time the consumer is scheduled (Section 4.4).
//!
//! Lines are named by the dense ids [`crate::resolve`] interns per nest,
//! which also computes each id's set once, so every lookup is an index: a
//! holder set is a bitset over [`Mesh::node_index`] (as many words as the
//! mesh needs), every node's sets share one flat slot array, and a window
//! reset visits only the sets that hold a line.

use dmcp_mach::{Mesh, NodeId};

/// Compile-time per-node L1 occupancy plus the line→holders reverse map.
#[derive(Clone, Debug)]
pub struct L1Model {
    mesh: Mesh,
    /// Sets per L1.
    sets: usize,
    /// Lines per set.
    ways: usize,
    /// Every L1 set's line ids, least recently used first: set `s` of the
    /// node with [`Mesh::node_index`] `n` is `slots[(n * sets + s) *
    /// ways..][..ways]`, of which the first `fill[n * sets + s]` are
    /// occupied.
    slots: Vec<u32>,
    fill: Vec<u32>,
    /// The sets (indices into `fill`) holding a line, each listed once, so
    /// a window reset visits only those: a window-1 placement resets after
    /// every instance, which touches a handful of a mesh's sets.
    occupied: Vec<u32>,
    /// `u64` words per line in `holders`.
    words: usize,
    /// line id → bitset of the nodes believed to hold it in L1 (the
    /// `variable2node` map): line `l` owns `holders[l * words..][..words]`.
    holders: Vec<u64>,
    /// line id → total touches (distinguishes hot loop-invariant lines
    /// from streaming ones).
    touches: Vec<u32>,
}

impl L1Model {
    /// Creates an empty model of the nodes of `mesh`, each L1 holding
    /// `sets` sets of `ways` lines (at least one of each). Line ids index
    /// dense tables that grow to the largest id touched.
    pub fn new(mesh: Mesh, sets: u32, ways: u32) -> Self {
        let (sets, ways) = (sets.max(1) as usize, ways.max(1) as usize);
        let node_sets = mesh.node_count() as usize * sets;
        Self {
            mesh,
            sets,
            ways,
            slots: vec![0; node_sets * ways],
            fill: vec![0; node_sets],
            occupied: Vec::with_capacity(node_sets),
            words: (mesh.node_count() as usize).div_ceil(64),
            holders: Vec::new(),
            touches: Vec::new(),
        }
    }

    /// Sizes the line tables for every dense id below `lines` at once, so
    /// touching those lines never regrows them. Reads are unaffected: an
    /// id past the tables reads as untouched, as does a zeroed entry.
    pub(crate) fn reserve_lines(&mut self, lines: u32) {
        let lines = lines as usize;
        if self.touches.len() < lines {
            self.touches.resize(lines, 0);
        }
        if self.holders.len() < lines * self.words {
            self.holders.resize(lines * self.words, 0);
        }
    }

    fn bits(&self, line: u32) -> &[u64] {
        let first = line as usize * self.words;
        self.holders.get(first..first + self.words).unwrap_or(&[])
    }

    /// Records that `node` fetched (or re-used) `line`, which maps to L1
    /// set `set` (below the set count), into its L1, evicting the set's
    /// LRU line if the set is full.
    pub fn touch(&mut self, node: NodeId, line: u32, set: u32) {
        debug_assert!((set as usize) < self.sets, "set {set} of {} sets", self.sets);
        let l = line as usize;
        if l >= self.touches.len() {
            self.touches.resize(l + 1, 0);
        }
        self.touches[l] += 1;
        if (l + 1) * self.words > self.holders.len() {
            self.holders.resize((l + 1) * self.words, 0);
        }
        let n = self.mesh.node_index(node) as usize;
        let (word, bit) = (n / 64, 1u64 << (n % 64));
        let at = n * self.sets + set as usize;
        let fill = self.fill[at] as usize;
        let lru = &mut self.slots[at * self.ways..][..self.ways];
        if self.holders[l * self.words + word] & bit != 0 {
            let pos = lru[..fill].iter().position(|&x| x == line).expect("holders mirror the sets");
            lru[pos..fill].rotate_left(1);
            return;
        }
        if fill == self.ways {
            let victim = lru[0] as usize;
            self.holders[victim * self.words + word] &= !bit;
            lru.rotate_left(1);
            lru[fill - 1] = line;
        } else {
            if fill == 0 {
                self.occupied.push(at as u32);
            }
            lru[fill] = line;
            self.fill[at] += 1;
        }
        self.holders[l * self.words + word] |= bit;
    }

    /// Nodes believed to hold `line` in their L1 (may be none), in
    /// [`Mesh::node_index`] order.
    pub fn holders(&self, line: u32) -> Holders<'_> {
        Holders::new(self.mesh, self.bits(line))
    }

    /// `true` if `node` is believed to hold `line`.
    pub fn holds(&self, node: NodeId, line: u32) -> bool {
        let n = self.mesh.node_index(node) as usize;
        self.bits(line).get(n / 64).is_some_and(|w| w & (1u64 << (n % 64)) != 0)
    }

    /// Nodes holding `line` where the line is *hot* (touched at least
    /// `min_touches` times) — the register-promotion analogue: only lines
    /// with demonstrated heavy reuse count as durable replicas.
    pub fn hot_holders(&self, line: u32, min_touches: u32) -> Holders<'_> {
        let hot = self.touches.get(line as usize).is_some_and(|&t| t >= min_touches);
        Holders::new(self.mesh, if hot { self.bits(line) } else { &[] })
    }

    /// The union of this model's [`L1Model::holders`] of `line` and
    /// `hot`'s [`L1Model::hot_holders`] of it, each node once, in
    /// [`Mesh::node_index`] order: one OR of the two bitsets. `hot` must
    /// model the same mesh.
    pub fn holders_or_hot<'a>(
        &'a self,
        hot: &'a L1Model,
        line: u32,
        min_touches: u32,
    ) -> Holders<'a> {
        debug_assert_eq!(self.mesh, hot.mesh, "both models cover one mesh");
        let mut holders = self.holders(line);
        holders.or = hot.hot_holders(line, min_touches).words;
        holders
    }

    /// Forgets everything (called at window boundaries: scheduling knowledge
    /// does not cross windows, per the paper's Figure 12c discussion).
    /// Touch counts survive (they describe the program, not the window).
    /// Only lines some node still holds are cleared.
    pub fn reset(&mut self) {
        for at in self.occupied.drain(..) {
            let at = at as usize;
            for &line in &self.slots[at * self.ways..][..self.fill[at] as usize] {
                let first = line as usize * self.words;
                self.holders[first..first + self.words].fill(0);
            }
            self.fill[at] = 0;
        }
    }
}

/// The holders of one line, in [`Mesh::node_index`] order (see
/// [`L1Model::holders`] and [`L1Model::holders_or_hot`]).
#[derive(Clone, Debug)]
pub struct Holders<'a> {
    mesh: Mesh,
    /// The line's bitset words.
    words: &'a [u64],
    /// Bitset words OR-ed into `words`: empty, or as many as the mesh
    /// needs.
    or: &'a [u64],
    /// Index of the next word of `words` to load.
    word: usize,
    /// Bits of the current word not yet yielded; the word's base index is
    /// `64 * (word - 1)`.
    pending: u64,
}

impl<'a> Holders<'a> {
    fn new(mesh: Mesh, words: &'a [u64]) -> Self {
        Self { mesh, words, or: &[], word: 0, pending: 0 }
    }
}

impl Iterator for Holders<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.pending == 0 {
            let (a, b) = (self.words.get(self.word), self.or.get(self.word));
            if a.is_none() && b.is_none() {
                return None;
            }
            self.pending = a.copied().unwrap_or(0) | b.copied().unwrap_or(0);
            self.word += 1;
        }
        let n = 64 * (self.word - 1) as u32 + self.pending.trailing_zeros();
        self.pending &= self.pending - 1;
        Some(self.mesh.bank_node(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_mach::rng::Rng64;
    use dmcp_mem::{Cache, LineAddr};

    fn n(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    /// A fully associative model: one set of `ways` lines per node.
    fn model(ways: u32) -> L1Model {
        L1Model::new(Mesh::new(3, 3), 1, ways)
    }

    fn holders(m: &L1Model, line: u32) -> Vec<NodeId> {
        m.holders(line).collect()
    }

    #[test]
    fn touch_registers_holder() {
        let mut m = model(4);
        m.touch(n(1, 1), 10, 0);
        assert!(m.holds(n(1, 1), 10));
        assert_eq!(holders(&m, 10), [n(1, 1)]);
        assert!(!m.holds(n(0, 0), 10));
    }

    #[test]
    fn multiple_holders_tracked() {
        let mut m = model(4);
        m.touch(n(0, 0), 5, 0);
        m.touch(n(1, 0), 5, 0);
        assert_eq!(holders(&m, 5), [n(0, 0), n(1, 0)]);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut m = model(2);
        m.touch(n(0, 0), 1, 0);
        m.touch(n(0, 0), 2, 0);
        m.touch(n(0, 0), 3, 0); // evicts 1
        assert!(!m.holds(n(0, 0), 1));
        assert!(m.holds(n(0, 0), 2));
        assert!(m.holds(n(0, 0), 3));
    }

    #[test]
    fn retouch_refreshes_lru_position() {
        let mut m = model(2);
        m.touch(n(0, 0), 1, 0);
        m.touch(n(0, 0), 2, 0);
        m.touch(n(0, 0), 1, 0); // 2 is now LRU
        m.touch(n(0, 0), 3, 0); // evicts 2
        assert!(m.holds(n(0, 0), 1));
        assert!(!m.holds(n(0, 0), 2));
    }

    #[test]
    fn eviction_is_per_node() {
        let mut m = model(1);
        m.touch(n(0, 0), 1, 0);
        m.touch(n(1, 1), 1, 0);
        m.touch(n(0, 0), 2, 0); // evicts line 1 from node (0,0) only
        assert_eq!(holders(&m, 1), [n(1, 1)]);
    }

    #[test]
    fn hot_holders_require_repeated_touches() {
        let mut m = model(4);
        m.touch(n(0, 0), 1, 0);
        assert_eq!(m.hot_holders(1, 4).count(), 0, "one touch is not hot");
        for _ in 0..3 {
            m.touch(n(0, 0), 1, 0);
        }
        assert_eq!(m.hot_holders(1, 4).collect::<Vec<_>>(), [n(0, 0)]);
        // Touch counts survive a window reset; holders do not.
        m.reset();
        assert_eq!(m.hot_holders(1, 4).count(), 0);
        m.touch(n(2, 2), 1, 0);
        assert_eq!(m.hot_holders(1, 4).collect::<Vec<_>>(), [n(2, 2)]);
    }

    #[test]
    fn reset_clears_facts() {
        let mut m = model(4);
        m.touch(n(0, 0), 1, 0);
        m.touch(n(1, 0), 2, 0);
        assert!(m.holds(n(0, 0), 1) && m.holds(n(1, 0), 2));
        m.reset();
        assert_eq!(m.holders(1).count(), 0);
        assert_eq!(m.holders(2).count(), 0);
        // A reset node starts from an empty LRU list: refilling to
        // capacity evicts nothing.
        for v in 10..14 {
            m.touch(n(0, 0), v, 0);
        }
        assert!((10..14).all(|v| m.holds(n(0, 0), v)));
    }

    #[test]
    fn a_full_set_evicts_only_its_own_lines() {
        // Two sets of one way: lines 1 and 2 conflict in set 0, line 3
        // lives in set 1 and survives both.
        let mut m = L1Model::new(Mesh::new(3, 3), 2, 1);
        m.touch(n(0, 0), 1, 0);
        m.touch(n(0, 0), 3, 1);
        m.touch(n(0, 0), 2, 0);
        assert!(!m.holds(n(0, 0), 1));
        assert!(m.holds(n(0, 0), 2) && m.holds(n(0, 0), 3));
        // Another node's set 0 is its own.
        m.touch(n(1, 0), 1, 0);
        assert!(m.holds(n(1, 0), 1) && m.holds(n(0, 0), 2));
    }

    #[test]
    fn residency_matches_the_simulated_cache_on_random_streams() {
        // The model must hold exactly what `dmcp_mem::Cache` of the same
        // geometry holds, node by node, after every touch and across
        // window resets, when each dense id's set is its line's set.
        let mesh = Mesh::new(3, 2);
        for (seed, (sets, ways)) in
            [(4, 8), (1, 32), (2, 3), (8, 1), (3, 2)].into_iter().enumerate()
        {
            let mut rng = Rng64::new(seed as u64);
            let mut model = L1Model::new(mesh, sets, ways);
            let mut caches = vec![Cache::new(sets, ways); mesh.node_count() as usize];
            // Line addresses (sparse, as real ones are) by dense id.
            let addrs: Vec<LineAddr> =
                (0..96).map(|_| LineAddr::new(rng.gen_range(1 << 20))).collect();
            for step in 0..2000 {
                if rng.gen_range(500) == 0 {
                    model.reset();
                    caches.iter_mut().for_each(Cache::reset);
                }
                // A skewed stream: small ids recur, so sets fill and hit.
                let span = rng.gen_range(addrs.len() as u64) + 1;
                let id = rng.gen_range(span) as u32;
                let node = mesh.bank_node(rng.gen_range(u64::from(mesh.node_count())) as u32);
                let addr = addrs[id as usize];
                model.touch(node, id, (addr.raw() % u64::from(sets)) as u32);
                caches[mesh.node_index(node) as usize].access(addr);
                for (id, &addr) in addrs.iter().enumerate() {
                    for node in mesh.nodes() {
                        let cached = caches[mesh.node_index(node) as usize].contains(addr);
                        assert_eq!(
                            model.holds(node, id as u32),
                            cached,
                            "{sets}x{ways}, step {step}: line {id} at {node}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn nodes_past_the_first_word_are_held_apart() {
        // Node indices 0, 64 and 99 of a 10×10 mesh: one shift per word,
        // no wrap-around between (0,0) and (4,6).
        let mut m = L1Model::new(Mesh::new(10, 10), 1, 2);
        let (first, wrapped, last) = (n(0, 0), n(4, 6), n(9, 9));
        m.touch(wrapped, 3, 0);
        assert!(m.holds(wrapped, 3));
        assert!(!m.holds(first, 3));
        m.touch(last, 3, 0);
        m.touch(first, 3, 0);
        assert_eq!(holders(&m, 3), [first, wrapped, last]);
        assert_eq!(m.holders(7).count(), 0, "an untouched id holds nothing");
    }
}
