//! Disjoint-set forest (union–find) used by Kruskal's algorithm.

/// A union–find structure over `0..len` with path compression and union by
/// rank.
///
/// # Examples
///
/// ```
/// use dmcp_core::unionfind::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(0, 2));
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        Self { parent: (0..len).collect(), rank: vec![0; len], components: len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint components remaining.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Joins the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_disconnected() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.components(), 3);
        assert!(!uf.connected(0, 2));
        assert_eq!(uf.find(1), 1);
    }

    #[test]
    fn union_reduces_components() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 3);
        assert!(uf.union(1, 3));
        assert_eq!(uf.components(), 2);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new(2);
        assert!(uf.union(0, 1));
        assert!(!uf.union(0, 1));
        assert_eq!(uf.components(), 1);
    }

    #[test]
    fn transitive_chains() {
        let mut uf = UnionFind::new(10);
        for i in 0..9 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(0, 9));
    }

    #[test]
    fn empty_is_fine() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
    }
}
