//! Load balancing across nodes (paper Section 4.5).
//!
//! The scheduler assigns a subcomputation to a node only if the node (1)
//! satisfies the minimum-data-movement requirement and (2) keeps the load
//! balanced: if the assignment would give the node more than `threshold`
//! (10 % by default, configurable) extra load compared to the next
//! most-loaded node, the scheduler skips it and tries the next candidate.
//! Subcomputation cost is measured in operations, division counting 10×.

use dmcp_mach::{Mesh, NodeId};

/// Tracks per-node accumulated load and applies the skip rule.
#[derive(Clone, Debug)]
pub struct LoadTracker {
    mesh: Mesh,
    threshold: f64,
    /// Accumulated load per node, indexed by [`Mesh::node_index`].
    loads: Vec<f64>,
    max_load: f64,
}

impl LoadTracker {
    /// Creates a tracker over the nodes of `mesh` with the given imbalance
    /// threshold (the paper's default is `0.10`).
    pub fn new(mesh: Mesh, threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        Self { mesh, threshold, loads: vec![0.0; mesh.node_count() as usize], max_load: 0.0 }
    }

    fn index(&self, node: NodeId) -> usize {
        self.mesh.node_index(node) as usize
    }

    /// Current load of a node.
    pub fn load(&self, node: NodeId) -> f64 {
        self.loads[self.index(node)]
    }

    /// Adds `cost` to a node's load.
    pub fn add(&mut self, node: NodeId, cost: f64) {
        let i = self.index(node);
        self.loads[i] += cost;
        if self.loads[i] > self.max_load {
            self.max_load = self.loads[i];
        }
    }

    /// Whether assigning `cost` more work to `node` would violate the
    /// balance rule: the node would end up more than `threshold` above the
    /// most-loaded *other* node.
    pub fn would_overload(&self, node: NodeId, cost: f64) -> bool {
        let i = self.index(node);
        let own = self.loads[i];
        // The most-loaded other node: max_load unless `node` itself is the
        // unique maximum, in which case we fall back to a scan. Idle nodes
        // read 0, which the fold's 0 floor already covers.
        let max_other = if own < self.max_load {
            self.max_load
        } else {
            let (before, after) = (&self.loads[..i], &self.loads[i + 1..]);
            before.iter().chain(after).copied().fold(0.0, f64::max)
        };
        own + cost > (1.0 + self.threshold) * max_other + f64::EPSILON && own > 0.0
        // an idle node can always accept work
    }

    /// Chooses the first candidate that doesn't overload; if all would
    /// overload, the least-loaded candidate. Does not record the load —
    /// callers apply it (possibly deferred) via [`LoadTracker::add`].
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn select(&self, candidates: &[NodeId], cost: f64) -> NodeId {
        assert!(!candidates.is_empty(), "need at least one candidate node");
        candidates.iter().copied().find(|&n| !self.would_overload(n, cost)).unwrap_or_else(|| {
            candidates
                .iter()
                .copied()
                .min_by(|a, b| {
                    self.load(*a)
                        .partial_cmp(&self.load(*b))
                        .expect("loads are finite")
                        .then(a.cmp(b))
                })
                .expect("non-empty candidates")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: u16) -> NodeId {
        NodeId::new(x, 0)
    }

    fn tracker(threshold: f64) -> LoadTracker {
        LoadTracker::new(Mesh::new(4, 1), threshold)
    }

    /// [`LoadTracker::select`] followed by recording the cost.
    fn pick(t: &mut LoadTracker, candidates: &[NodeId], cost: f64) -> NodeId {
        let chosen = t.select(candidates, cost);
        t.add(chosen, cost);
        chosen
    }

    #[test]
    fn empty_tracker_never_overloads() {
        let t = tracker(0.1);
        assert!(!t.would_overload(n(0), 100.0));
    }

    #[test]
    fn overload_detected_beyond_threshold() {
        let mut t = tracker(0.1);
        t.add(n(0), 100.0);
        t.add(n(1), 100.0);
        // Adding 20 to node 0 -> 120 > 1.1 * 100.
        assert!(t.would_overload(n(0), 20.0));
        // Adding 5 -> 105 <= 110: fine.
        assert!(!t.would_overload(n(0), 5.0));
    }

    #[test]
    fn unique_maximum_compares_against_the_runner_up() {
        let mut t = tracker(0.1);
        t.add(n(3), 100.0);
        t.add(n(1), 95.0);
        // Node 3 is the unique maximum: the scan finds node 1 at 95.
        assert!(!t.would_overload(n(3), 4.0));
        assert!(t.would_overload(n(3), 10.0));
    }

    #[test]
    fn pick_prefers_first_balanced_candidate() {
        let mut t = tracker(0.1);
        t.add(n(0), 100.0);
        t.add(n(1), 100.0);
        // node 0 would overload with 20, node 1 is checked next… also
        // overloads, node 2 is fresh relative to max 100: 0+20 <= 110.
        let winner = pick(&mut t, &[n(0), n(1), n(2)], 20.0);
        assert_eq!(winner, n(2));
        assert_eq!(t.load(n(2)), 20.0);
    }

    #[test]
    fn pick_falls_back_to_least_loaded() {
        let mut t = tracker(0.0);
        t.add(n(0), 50.0);
        t.add(n(1), 30.0);
        // Huge cost overloads everyone; least-loaded candidate wins.
        let winner = pick(&mut t, &[n(0), n(1)], 1000.0);
        assert_eq!(winner, n(1));
    }

    #[test]
    fn spreads_work_under_zero_threshold() {
        let mut t = tracker(0.0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30 {
            let w = pick(&mut t, &[n(0), n(1), n(2)], 1.0);
            *counts.entry(w).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 3, "work should spread over all candidates");
        let max = counts.values().max().copied().unwrap();
        let min = counts.values().min().copied().unwrap();
        assert!(max - min <= 1, "counts {counts:?} not balanced");
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn pick_requires_candidates() {
        let t = tracker(0.1);
        let _ = t.select(&[], 1.0);
    }
}
