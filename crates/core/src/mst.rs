//! Minimum-spanning-tree machinery (paper Section 3.2).
//!
//! For each statement (or nested operand set), the compiler builds a
//! complete graph whose vertices are the *locations of operands* and whose
//! edge weights are Manhattan distances, then extracts an MST with Kruskal's
//! algorithm; the MST's total weight is the minimum number of network links
//! the statement's data must traverse.
//!
//! A vertex may have several candidate locations (its home bank *plus* L1
//! copies recorded in the `variable2node` map, or all the nodes occupied by
//! an already-processed inner set, which the paper treats as a "single
//! component"). The distance between two vertices is the minimum over their
//! candidate pairs.

use crate::unionfind::UnionFind;
use dmcp_mach::NodeId;

/// A vertex of the statement graph: one operand (or processed component)
/// with one or more candidate locations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstVertex {
    /// Candidate nodes where the vertex's data is available. Non-empty.
    pub locs: Vec<NodeId>,
}

impl MstVertex {
    /// A vertex with a single location.
    pub fn single(node: NodeId) -> Self {
        Self { locs: vec![node] }
    }

    /// A vertex with several candidate locations (replicas).
    ///
    /// # Panics
    ///
    /// Panics if `locs` is empty.
    pub fn multi(locs: Vec<NodeId>) -> Self {
        assert!(!locs.is_empty(), "a vertex needs at least one location");
        Self { locs }
    }

    /// The candidate closest to `target` (deterministic tie-break on node
    /// order), with the distance.
    pub fn nearest_to(&self, target: NodeId) -> (NodeId, u32) {
        self.locs
            .iter()
            .map(|&n| (n, n.manhattan(target)))
            .min_by_key(|&(n, d)| (d, n))
            .expect("non-empty candidate set")
    }
}

/// Minimum distance between two vertices' candidate sets, with the
/// realising node pair `(node_in_a, node_in_b)`.
pub fn vertex_distance(a: &MstVertex, b: &MstVertex) -> (u32, NodeId, NodeId) {
    let mut best = (u32::MAX, NodeId::new(0, 0), NodeId::new(0, 0));
    for &na in &a.locs {
        for &nb in &b.locs {
            let d = na.manhattan(nb);
            if d < best.0 || (d == best.0 && (na, nb) < (best.1, best.2)) {
                best = (d, na, nb);
            }
        }
    }
    best
}

/// An edge of the computed MST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MstEdge {
    /// First vertex index.
    pub a: usize,
    /// Second vertex index.
    pub b: usize,
    /// Manhattan distance realising the edge.
    pub weight: u32,
}

/// Computes an MST over the complete graph of `vertices` using Kruskal's
/// algorithm (paper Algorithm 1, lines 20–29). Edges are sorted by
/// (weight, a, b); the paper breaks weight ties randomly, we break them
/// deterministically for reproducibility.
///
/// Returns `vertices.len().saturating_sub(1)` edges.
///
/// # Examples
///
/// ```
/// use dmcp_core::mst::{kruskal, MstVertex};
/// use dmcp_mach::NodeId;
///
/// let vs = vec![
///     MstVertex::single(NodeId::new(0, 0)),
///     MstVertex::single(NodeId::new(0, 2)),
///     MstVertex::single(NodeId::new(3, 0)),
/// ];
/// let mst = kruskal(&vs);
/// let total: u32 = mst.iter().map(|e| e.weight).sum();
/// assert_eq!(total, 5); // 2 + 3
/// ```
pub fn kruskal(vertices: &[MstVertex]) -> Vec<MstEdge> {
    let n = vertices.len();
    if n < 2 {
        return Vec::new();
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            let (w, _, _) = vertex_distance(&vertices[a], &vertices[b]);
            edges.push(MstEdge { a, b, weight: w });
        }
    }
    edges.sort_by_key(|e| (e.weight, e.a, e.b));
    let mut uf = UnionFind::new(n);
    let mut mst = Vec::with_capacity(n - 1);
    for e in edges {
        if uf.union(e.a, e.b) {
            mst.push(e);
            if mst.len() == n - 1 {
                break;
            }
        }
    }
    mst
}

/// The MST rooted at a chosen vertex, ready for the leaf-to-root scheduling
/// walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    /// Parent of each vertex (`None` for the root).
    pub parent: Vec<Option<usize>>,
    /// Children of each vertex.
    pub children: Vec<Vec<usize>>,
    /// Vertices in post-order (children before parents, root last).
    pub postorder: Vec<usize>,
}

impl RootedTree {
    /// Roots the MST `edges` over `n` vertices at `root`.
    ///
    /// # Panics
    ///
    /// Panics if the edges do not form a spanning tree of `0..n`.
    pub fn build(n: usize, edges: &[MstEdge], root: usize) -> Self {
        assert!(root < n, "root {root} out of range");
        let mut adj = vec![Vec::new(); n];
        for e in edges {
            adj[e.a].push(e.b);
            adj[e.b].push(e.a);
        }
        let mut parent = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut postorder = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Iterative DFS emitting post-order.
        let mut stack = vec![(root, false)];
        while let Some((v, processed)) = stack.pop() {
            if processed {
                postorder.push(v);
                continue;
            }
            if visited[v] {
                continue;
            }
            visited[v] = true;
            stack.push((v, true));
            for &u in &adj[v] {
                if !visited[u] {
                    parent[u] = Some(v);
                    children[v].push(u);
                    stack.push((u, false));
                }
            }
        }
        assert!(visited.iter().all(|&v| v), "MST edges do not span all vertices");
        Self { parent, children, postorder }
    }

    /// `true` if `v` has no children (a leaf of the rooted tree).
    pub fn is_leaf(&self, v: usize) -> bool {
        self.children[v].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u16, y: u16) -> MstVertex {
        MstVertex::single(NodeId::new(x, y))
    }

    /// Brute-force MST weight via Prim's algorithm on singleton vertices.
    fn prim_weight(vertices: &[MstVertex]) -> u32 {
        let n = vertices.len();
        if n < 2 {
            return 0;
        }
        let mut in_tree = vec![false; n];
        in_tree[0] = true;
        let mut total = 0;
        for _ in 1..n {
            let mut best = (u32::MAX, 0);
            for a in 0..n {
                if !in_tree[a] {
                    continue;
                }
                for b in 0..n {
                    if in_tree[b] {
                        continue;
                    }
                    let (d, _, _) = vertex_distance(&vertices[a], &vertices[b]);
                    if d < best.0 {
                        best = (d, b);
                    }
                }
            }
            in_tree[best.1] = true;
            total += best.0;
        }
        total
    }

    #[test]
    fn paper_figure_9_example() {
        // A placement reproducing the paper's arithmetic: fetching all four
        // operands into n_A (the default star) costs 13 links, while the
        // MST costs 8 — B+E computed near B saves 2, C+D near D saves 3.
        let a = NodeId::new(0, 0);
        let b = NodeId::new(2, 0);
        let e = NodeId::new(4, 0);
        let d = NodeId::new(0, 3);
        let c = NodeId::new(1, 3);
        let vs: Vec<MstVertex> = [a, b, c, d, e].iter().map(|&n| MstVertex::single(n)).collect();
        let star: u32 = [b, c, d, e].iter().map(|n| n.manhattan(a)).sum();
        let mst: u32 = kruskal(&vs).iter().map(|e| e.weight).sum();
        assert_eq!(star, 13);
        assert_eq!(mst, 8);
    }

    #[test]
    fn kruskal_matches_prim_on_grids() {
        let vs = vec![v(0, 0), v(5, 1), v(2, 4), v(3, 3), v(1, 1), v(5, 5)];
        let k: u32 = kruskal(&vs).iter().map(|e| e.weight).sum();
        assert_eq!(k, prim_weight(&vs));
    }

    #[test]
    fn multi_location_vertices_use_nearest_replica() {
        // Vertex B has replicas at (0,0) and (4,4); vertex A at (5,4).
        let a = MstVertex::single(NodeId::new(5, 4));
        let b = MstVertex::multi(vec![NodeId::new(0, 0), NodeId::new(4, 4)]);
        let (d, na, nb) = vertex_distance(&a, &b);
        assert_eq!(d, 1);
        assert_eq!(na, NodeId::new(5, 4));
        assert_eq!(nb, NodeId::new(4, 4));
        let mst = kruskal(&[a, b]);
        assert_eq!(mst[0].weight, 1);
    }

    #[test]
    fn single_and_empty_graphs() {
        assert!(kruskal(&[]).is_empty());
        assert!(kruskal(&[v(1, 1)]).is_empty());
    }

    #[test]
    fn colocated_vertices_have_zero_edges() {
        let vs = vec![v(2, 2), v(2, 2), v(2, 2)];
        let mst = kruskal(&vs);
        assert_eq!(mst.len(), 2);
        assert!(mst.iter().all(|e| e.weight == 0));
    }

    #[test]
    fn rooted_tree_postorder_ends_at_root() {
        let vs = vec![v(0, 0), v(0, 1), v(0, 2), v(3, 0)];
        let mst = kruskal(&vs);
        let tree = RootedTree::build(4, &mst, 0);
        assert_eq!(*tree.postorder.last().unwrap(), 0);
        assert_eq!(tree.parent[0], None);
        // Every non-root appears before its parent.
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &x) in tree.postorder.iter().enumerate() {
                p[x] = i;
            }
            p
        };
        for vtx in 1..4 {
            if let Some(par) = tree.parent[vtx] {
                assert!(pos[vtx] < pos[par], "vertex {vtx} after parent {par}");
            }
        }
    }

    #[test]
    fn rooted_tree_children_are_consistent() {
        let vs = vec![v(0, 0), v(1, 0), v(2, 0), v(3, 0), v(4, 0)];
        let mst = kruskal(&vs);
        let tree = RootedTree::build(5, &mst, 2);
        for (p, kids) in tree.children.iter().enumerate() {
            for &k in kids {
                assert_eq!(tree.parent[k], Some(p));
            }
        }
        assert!(tree.is_leaf(0));
        assert!(!tree.is_leaf(2) || tree.children[2].is_empty());
    }

    #[test]
    fn nearest_to_is_deterministic_on_ties() {
        let vtx = MstVertex::multi(vec![NodeId::new(2, 0), NodeId::new(0, 2)]);
        // Both are distance 2 from (0,0) and (2,2)… target (1,1): both dist 1+1=2?
        // (2,0)->(1,1)=2, (0,2)->(1,1)=2: tie broken by node order.
        let (n, d) = vtx.nearest_to(NodeId::new(1, 1));
        assert_eq!(d, 2);
        assert_eq!(n, NodeId::new(0, 2));
    }

    #[test]
    #[should_panic(expected = "span")]
    fn rooted_tree_rejects_forests() {
        let edges = vec![MstEdge { a: 0, b: 1, weight: 1 }];
        let _ = RootedTree::build(3, &edges, 0);
    }
}
