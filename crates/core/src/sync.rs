//! Synchronization-graph minimisation (paper Section 4.5).
//!
//! The compiler builds a synchronization graph over subcomputation
//! instances; an arc (a → b) means b must wait for a. A "transitive
//! closure"-based pass (after Midkiff & Padua (ref. \[51\]), re-targeted from shared
//! data accesses to subcomputations) removes arcs already implied by chains:
//! if a ⇝ b through intermediate subcomputations, a direct a → b arc is
//! redundant and is dropped.

/// Transitive reduction of a DAG given as predecessor lists.
///
/// `preds[i]` lists predecessors of node `i`; every predecessor index must
/// be `< i` (the schedule's step order is already topological). Returns the
/// reduced predecessor lists and the number of arcs removed. `sync_nest`
/// runs the same reduction with its buffers kept across windows.
///
/// # Examples
///
/// ```
/// use dmcp_core::sync::transitive_reduce;
///
/// // 0 -> 1 -> 2 plus a redundant 0 -> 2.
/// let preds = vec![vec![], vec![0], vec![0, 1]];
/// let (reduced, removed) = transitive_reduce(&preds);
/// assert_eq!(reduced[2], vec![1]);
/// assert_eq!(removed, 1);
/// ```
pub fn transitive_reduce(preds: &[Vec<usize>]) -> (Vec<Vec<usize>>, u64) {
    let mut reducer = TransitiveReducer::default();
    let (_, removed) = reducer.reduce(preds);
    (reducer.reduced, removed)
}

/// The buffers of [`transitive_reduce`] — ancestor bitsets, the
/// predecessor list being reduced and the reduced lists — kept across
/// graphs, so reducing window after window allocates only while they grow.
#[derive(Clone, Debug, Default)]
pub(crate) struct TransitiveReducer {
    /// Node `i`'s strict ancestors: bitset `ancestors[i * words..][..words]`.
    ancestors: Vec<u64>,
    /// One node's predecessors, deduplicated, latest first.
    order: Vec<usize>,
    reduced: Vec<Vec<usize>>,
}

impl TransitiveReducer {
    /// Reduces `preds` exactly as [`transitive_reduce`] does; the reduced
    /// lists returned are valid until the next call.
    pub(crate) fn reduce(&mut self, preds: &[Vec<usize>]) -> (&[Vec<usize>], u64) {
        let n = preds.len();
        let words = n.div_ceil(64);
        self.ancestors.clear();
        self.ancestors.resize(n * words, 0);
        if self.reduced.len() < n {
            self.reduced.resize_with(n, Vec::new);
        }
        let mut removed = 0u64;

        for (i, kept) in self.reduced[..n].iter_mut().enumerate() {
            // Sort predecessors descending so "later" (deeper) predecessors
            // are considered first; a later predecessor can imply an earlier
            // one but never vice versa (edges go forward in topological
            // order).
            self.order.clear();
            self.order.extend_from_slice(&preds[i]);
            self.order.sort_unstable_by(|a, b| b.cmp(a));
            self.order.dedup();
            kept.clear();
            for &p in &self.order {
                debug_assert!(p < i, "predecessor {p} of {i} not topologically earlier");
                // p is redundant if it is an ancestor of an already-kept pred.
                let implied = kept
                    .iter()
                    .any(|&k| self.ancestors[k * words + p / 64] & (1u64 << (p % 64)) != 0);
                if implied {
                    removed += 1;
                } else {
                    kept.push(p);
                }
            }
            // Build ancestor set of i from kept arcs (reduction preserves
            // reachability, so kept arcs suffice).
            let (earlier, row) = self.ancestors.split_at_mut(i * words);
            let row = &mut row[..words];
            for &p in kept.iter() {
                row[p / 64] |= 1u64 << (p % 64);
                for (w, a) in row.iter_mut().zip(&earlier[p * words..(p + 1) * words]) {
                    *w |= a;
                }
            }
            kept.sort_unstable();
        }
        (&self.reduced[..n], removed)
    }
}

/// `true` if node `a` can reach node `b` (a < b) through the arcs.
pub fn reaches(preds: &[Vec<usize>], a: usize, b: usize) -> bool {
    if a >= b {
        return false;
    }
    let mut stack = vec![b];
    let mut seen = vec![false; preds.len()];
    while let Some(x) = stack.pop() {
        if x == a {
            return true;
        }
        if seen[x] {
            continue;
        }
        seen[x] = true;
        for &p in &preds[x] {
            if p >= a {
                stack.push(p);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_with_shortcut_reduces() {
        // 0 -> 1 -> 2 -> 3, plus shortcuts 0->3 and 1->3.
        let preds = vec![vec![], vec![0], vec![1], vec![0, 1, 2]];
        let (reduced, removed) = transitive_reduce(&preds);
        assert_eq!(reduced[3], vec![2]);
        assert_eq!(removed, 2);
    }

    #[test]
    fn diamond_keeps_both_branches() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3. Nothing is redundant.
        let preds = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let (reduced, removed) = transitive_reduce(&preds);
        assert_eq!(removed, 0);
        assert_eq!(reduced[3], vec![1, 2]);
        assert_eq!(reduced[1], vec![0]);
    }

    #[test]
    fn diamond_with_apex_shortcut() {
        // Diamond plus 0 -> 3: redundant through both branches.
        let preds = vec![vec![], vec![0], vec![0], vec![0, 1, 2]];
        let (reduced, removed) = transitive_reduce(&preds);
        assert_eq!(removed, 1);
        assert_eq!(reduced[3], vec![1, 2]);
    }

    #[test]
    fn duplicates_are_dropped() {
        let preds = vec![vec![], vec![0, 0, 0]];
        let (reduced, _) = transitive_reduce(&preds);
        assert_eq!(reduced[1], vec![0]);
    }

    #[test]
    fn reachability_preserved() {
        let preds = vec![vec![], vec![0], vec![1], vec![0, 2], vec![0, 1, 3]];
        let (reduced, _) = transitive_reduce(&preds);
        for b in 0..preds.len() {
            for a in 0..b {
                assert_eq!(
                    reaches(&preds, a, b),
                    reaches(&reduced, a, b),
                    "reachability {a}->{b} changed"
                );
            }
        }
    }

    #[test]
    fn a_reused_reducer_matches_fresh_reductions() {
        let graphs: Vec<Vec<Vec<usize>>> = vec![
            vec![vec![], vec![0], vec![1], vec![0, 1, 2]],
            vec![vec![], vec![0, 0]],
            (0..70).map(|i| (0..i).collect()).collect(),
            vec![vec![], vec![0], vec![0], vec![0, 1, 2]],
        ];
        let mut reducer = TransitiveReducer::default();
        for preds in &graphs {
            let (want, want_removed) = transitive_reduce(preds);
            let (got, removed) = reducer.reduce(preds);
            assert_eq!((got, removed), (want.as_slice(), want_removed));
        }
    }

    #[test]
    fn empty_graph() {
        let (reduced, removed) = transitive_reduce(&[]);
        assert!(reduced.is_empty());
        assert_eq!(removed, 0);
    }

    #[test]
    fn large_chain_fully_reduces_shortcuts() {
        // Node i has arcs from ALL earlier nodes; only i-1 survives.
        let n = 200;
        let preds: Vec<Vec<usize>> = (0..n).map(|i| (0..i).collect()).collect();
        let (reduced, removed) = transitive_reduce(&preds);
        for (i, r) in reduced.iter().enumerate().skip(1) {
            assert_eq!(*r, vec![i - 1]);
        }
        let total_arcs: usize = (0..n).sum();
        assert_eq!(removed as usize, total_arcs - (n - 1));
    }
}
