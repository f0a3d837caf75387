//! The compiler's model of L1 contents: the `variable2node` map.
//!
//! When a subcomputation is scheduled onto a node, the data it consumed sits
//! in that node's L1 afterwards; later statements in the same window may
//! exploit this (paper Section 4.3, "multiple statements"). The map is
//! capacity-bounded per node (LRU), which is how the window-size search sees
//! L1 *pollution*: in an oversized window, a reuse candidate may already
//! have been evicted by the time the consumer is scheduled (Section 4.4).
//!
//! Lines are named by the dense ids [`crate::resolve`] interns per nest, so
//! every lookup is an index: a holder set is a bitset over
//! [`Mesh::node_index`] (as many words as the mesh needs), and a window
//! reset clears only the lines some node still holds.

use dmcp_mach::{Mesh, NodeId};

/// Compile-time per-node L1 occupancy plus the line→holders reverse map.
#[derive(Clone, Debug)]
pub struct L1Model {
    mesh: Mesh,
    /// L1 capacity per node, in lines.
    capacity: usize,
    /// Per-node LRU list of line ids, most recently used last, indexed by
    /// [`Mesh::node_index`].
    node_lru: Vec<Vec<u32>>,
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
    /// Creates an empty model of the nodes of `mesh`, each holding
    /// `capacity_lines` lines. Line ids index dense tables that grow to
    /// the largest id touched.
    pub fn new(mesh: Mesh, capacity_lines: u32) -> Self {
        Self {
            mesh,
            capacity: capacity_lines.max(1) as usize,
            node_lru: vec![Vec::new(); mesh.node_count() as usize],
            words: (mesh.node_count() as usize).div_ceil(64),
            holders: Vec::new(),
            touches: Vec::new(),
        }
    }

    fn bits(&self, line: u32) -> &[u64] {
        let first = line as usize * self.words;
        self.holders.get(first..first + self.words).unwrap_or(&[])
    }

    /// Records that `node` fetched (or re-used) `line` into its L1,
    /// evicting its LRU line if full.
    pub fn touch(&mut self, node: NodeId, line: u32) {
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
        let lru = &mut self.node_lru[n];
        if self.holders[l * self.words + word] & bit != 0 {
            let pos = lru.iter().position(|&x| x == line).expect("holders mirror the LRU lists");
            lru.remove(pos);
            lru.push(line);
            return;
        }
        if lru.len() >= self.capacity {
            let victim = lru.remove(0) as usize;
            self.holders[victim * self.words + word] &= !bit;
        }
        lru.push(line);
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

    /// Forgets everything (called at window boundaries: scheduling knowledge
    /// does not cross windows, per the paper's Figure 12c discussion).
    /// Touch counts survive (they describe the program, not the window).
    /// Only lines some node still holds are cleared.
    pub fn reset(&mut self) {
        for lru in &mut self.node_lru {
            for &line in lru.iter() {
                let first = line as usize * self.words;
                self.holders[first..first + self.words].fill(0);
            }
            lru.clear();
        }
    }
}

/// The holders of one line, in [`Mesh::node_index`] order (see
/// [`L1Model::holders`]).
#[derive(Clone, Debug)]
pub struct Holders<'a> {
    mesh: Mesh,
    /// The line's bitset words.
    words: &'a [u64],
    /// Index of the next word of `words` to load.
    word: usize,
    /// Bits of the current word not yet yielded; the word's base index is
    /// `64 * (word - 1)`.
    pending: u64,
}

impl<'a> Holders<'a> {
    fn new(mesh: Mesh, words: &'a [u64]) -> Self {
        Self { mesh, words, word: 0, pending: 0 }
    }
}

impl Iterator for Holders<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.pending == 0 {
            self.pending = *self.words.get(self.word)?;
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

    fn n(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    fn model(capacity_lines: u32) -> L1Model {
        L1Model::new(Mesh::new(3, 3), capacity_lines)
    }

    fn holders(m: &L1Model, line: u32) -> Vec<NodeId> {
        m.holders(line).collect()
    }

    #[test]
    fn touch_registers_holder() {
        let mut m = model(4);
        m.touch(n(1, 1), 10);
        assert!(m.holds(n(1, 1), 10));
        assert_eq!(holders(&m, 10), [n(1, 1)]);
        assert!(!m.holds(n(0, 0), 10));
    }

    #[test]
    fn multiple_holders_tracked() {
        let mut m = model(4);
        m.touch(n(0, 0), 5);
        m.touch(n(1, 0), 5);
        assert_eq!(holders(&m, 5), [n(0, 0), n(1, 0)]);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut m = model(2);
        m.touch(n(0, 0), 1);
        m.touch(n(0, 0), 2);
        m.touch(n(0, 0), 3); // evicts 1
        assert!(!m.holds(n(0, 0), 1));
        assert!(m.holds(n(0, 0), 2));
        assert!(m.holds(n(0, 0), 3));
    }

    #[test]
    fn retouch_refreshes_lru_position() {
        let mut m = model(2);
        m.touch(n(0, 0), 1);
        m.touch(n(0, 0), 2);
        m.touch(n(0, 0), 1); // 2 is now LRU
        m.touch(n(0, 0), 3); // evicts 2
        assert!(m.holds(n(0, 0), 1));
        assert!(!m.holds(n(0, 0), 2));
    }

    #[test]
    fn eviction_is_per_node() {
        let mut m = model(1);
        m.touch(n(0, 0), 1);
        m.touch(n(1, 1), 1);
        m.touch(n(0, 0), 2); // evicts line 1 from node (0,0) only
        assert_eq!(holders(&m, 1), [n(1, 1)]);
    }

    #[test]
    fn hot_holders_require_repeated_touches() {
        let mut m = model(4);
        m.touch(n(0, 0), 1);
        assert_eq!(m.hot_holders(1, 4).count(), 0, "one touch is not hot");
        for _ in 0..3 {
            m.touch(n(0, 0), 1);
        }
        assert_eq!(m.hot_holders(1, 4).collect::<Vec<_>>(), [n(0, 0)]);
        // Touch counts survive a window reset; holders do not.
        m.reset();
        assert_eq!(m.hot_holders(1, 4).count(), 0);
        m.touch(n(2, 2), 1);
        assert_eq!(m.hot_holders(1, 4).collect::<Vec<_>>(), [n(2, 2)]);
    }

    #[test]
    fn reset_clears_facts() {
        let mut m = model(4);
        m.touch(n(0, 0), 1);
        m.touch(n(1, 0), 2);
        assert!(m.holds(n(0, 0), 1) && m.holds(n(1, 0), 2));
        m.reset();
        assert_eq!(m.holders(1).count(), 0);
        assert_eq!(m.holders(2).count(), 0);
        // A reset node starts from an empty LRU list: refilling to
        // capacity evicts nothing.
        for v in 10..14 {
            m.touch(n(0, 0), v);
        }
        assert!((10..14).all(|v| m.holds(n(0, 0), v)));
    }

    #[test]
    fn nodes_past_the_first_word_are_held_apart() {
        // Node indices 0, 64 and 99 of a 10×10 mesh: one shift per word,
        // no wrap-around between (0,0) and (4,6).
        let mut m = L1Model::new(Mesh::new(10, 10), 2);
        let (first, wrapped, last) = (n(0, 0), n(4, 6), n(9, 9));
        m.touch(wrapped, 3);
        assert!(m.holds(wrapped, 3));
        assert!(!m.holds(first, 3));
        m.touch(last, 3);
        m.touch(first, 3);
        assert_eq!(holders(&m, 3), [first, wrapped, last]);
        assert_eq!(m.holders(7).count(), 0, "an untouched id holds nothing");
    }
}
