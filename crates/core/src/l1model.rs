//! The compiler's model of L1 contents: the `variable2node` map.
//!
//! When a subcomputation is scheduled onto a node, the data it consumed sits
//! in that node's L1 afterwards; later statements in the same window may
//! exploit this (paper Section 4.3, "multiple statements"). The map is
//! capacity-bounded per node (LRU), which is how the window-size search sees
//! L1 *pollution*: in an oversized window, a reuse candidate may already
//! have been evicted by the time the consumer is scheduled (Section 4.4).

use dmcp_mach::{Mesh, NodeId};
use dmcp_mem::LineAddr;
use std::collections::HashMap;

/// Compile-time per-node L1 occupancy plus the line→holders reverse map.
#[derive(Clone, Debug)]
pub struct L1Model {
    mesh: Mesh,
    /// L1 capacity per node, in lines.
    capacity: usize,
    /// Per-node LRU list, most recently used last, indexed by
    /// [`Mesh::node_index`].
    node_lru: Vec<Vec<LineAddr>>,
    /// line → nodes believed to hold it in L1 (the `variable2node` map).
    holders: HashMap<LineAddr, Vec<NodeId>>,
    /// line → total touches (distinguishes hot loop-invariant lines from
    /// streaming ones).
    touches: HashMap<LineAddr, u32>,
}

impl L1Model {
    /// Creates an empty model of the nodes of `mesh`, each holding
    /// `capacity_lines` lines.
    pub fn new(mesh: Mesh, capacity_lines: u32) -> Self {
        Self {
            mesh,
            capacity: capacity_lines.max(1) as usize,
            node_lru: vec![Vec::new(); mesh.node_count() as usize],
            holders: HashMap::new(),
            touches: HashMap::new(),
        }
    }

    /// Records that `node` fetched (or re-used) `line` into its L1,
    /// evicting its LRU line if full.
    pub fn touch(&mut self, node: NodeId, line: LineAddr) {
        *self.touches.entry(line).or_insert(0) += 1;
        let lru = &mut self.node_lru[self.mesh.node_index(node) as usize];
        if let Some(pos) = lru.iter().position(|&l| l == line) {
            lru.remove(pos);
            lru.push(line);
            return;
        }
        if lru.len() >= self.capacity {
            let victim = lru.remove(0);
            if let Some(hs) = self.holders.get_mut(&victim) {
                hs.retain(|&n| n != node);
                if hs.is_empty() {
                    self.holders.remove(&victim);
                }
            }
        }
        lru.push(line);
        self.holders.entry(line).or_default().push(node);
    }

    /// Nodes believed to hold `line` in their L1 (may be empty).
    pub fn holders(&self, line: LineAddr) -> &[NodeId] {
        self.holders.get(&line).map_or(&[], Vec::as_slice)
    }

    /// `true` if `node` is believed to hold `line`.
    pub fn holds(&self, node: NodeId, line: LineAddr) -> bool {
        self.holders(line).contains(&node)
    }

    /// Nodes holding `line` where the line is *hot* (touched at least
    /// `min_touches` times) — the register-promotion analogue: only lines
    /// with demonstrated heavy reuse count as durable replicas.
    pub fn hot_holders(&self, line: LineAddr, min_touches: u32) -> &[NodeId] {
        if self.touches.get(&line).copied().unwrap_or(0) >= min_touches {
            self.holders(line)
        } else {
            &[]
        }
    }

    /// Forgets everything (called at window boundaries: scheduling knowledge
    /// does not cross windows, per the paper's Figure 12c discussion).
    /// Touch counts survive (they describe the program, not the window).
    pub fn reset(&mut self) {
        for lru in &mut self.node_lru {
            lru.clear();
        }
        self.holders.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    fn l(v: u64) -> LineAddr {
        LineAddr::new(v)
    }

    fn model(capacity_lines: u32) -> L1Model {
        L1Model::new(Mesh::new(3, 3), capacity_lines)
    }

    #[test]
    fn touch_registers_holder() {
        let mut m = model(4);
        m.touch(n(1, 1), l(10));
        assert!(m.holds(n(1, 1), l(10)));
        assert_eq!(m.holders(l(10)), &[n(1, 1)]);
        assert!(!m.holds(n(0, 0), l(10)));
    }

    #[test]
    fn multiple_holders_tracked() {
        let mut m = model(4);
        m.touch(n(0, 0), l(5));
        m.touch(n(1, 0), l(5));
        assert_eq!(m.holders(l(5)).len(), 2);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut m = model(2);
        m.touch(n(0, 0), l(1));
        m.touch(n(0, 0), l(2));
        m.touch(n(0, 0), l(3)); // evicts 1
        assert!(!m.holds(n(0, 0), l(1)));
        assert!(m.holds(n(0, 0), l(2)));
        assert!(m.holds(n(0, 0), l(3)));
    }

    #[test]
    fn retouch_refreshes_lru_position() {
        let mut m = model(2);
        m.touch(n(0, 0), l(1));
        m.touch(n(0, 0), l(2));
        m.touch(n(0, 0), l(1)); // 2 is now LRU
        m.touch(n(0, 0), l(3)); // evicts 2
        assert!(m.holds(n(0, 0), l(1)));
        assert!(!m.holds(n(0, 0), l(2)));
    }

    #[test]
    fn eviction_is_per_node() {
        let mut m = model(1);
        m.touch(n(0, 0), l(1));
        m.touch(n(1, 1), l(1));
        m.touch(n(0, 0), l(2)); // evicts line 1 from node (0,0) only
        assert_eq!(m.holders(l(1)), &[n(1, 1)]);
    }

    #[test]
    fn hot_holders_require_repeated_touches() {
        let mut m = model(4);
        m.touch(n(0, 0), l(1));
        assert!(m.hot_holders(l(1), 4).is_empty(), "one touch is not hot");
        for _ in 0..3 {
            m.touch(n(0, 0), l(1));
        }
        assert_eq!(m.hot_holders(l(1), 4), &[n(0, 0)]);
        // Touch counts survive a window reset; holders do not.
        m.reset();
        assert!(m.hot_holders(l(1), 4).is_empty());
        m.touch(n(2, 2), l(1));
        assert_eq!(m.hot_holders(l(1), 4), &[n(2, 2)]);
    }

    #[test]
    fn reset_clears_facts() {
        let mut m = model(4);
        m.touch(n(0, 0), l(1));
        m.touch(n(1, 0), l(2));
        assert!(m.holds(n(0, 0), l(1)) && m.holds(n(1, 0), l(2)));
        m.reset();
        assert!(m.holders(l(1)).is_empty());
        assert!(m.holders(l(2)).is_empty());
        // A reset node starts from an empty LRU list: refilling to
        // capacity evicts nothing.
        for v in 10..14 {
            m.touch(n(0, 0), l(v));
        }
        assert!((10..14).all(|v| m.holds(n(0, 0), l(v))));
    }
}
