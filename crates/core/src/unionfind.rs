//! Disjoint-set forest (union–find) used by Kruskal's algorithm.

/// A union–find structure over `0..len` with path halving: `u32` parent
/// links and no rank, since Kruskal's sets are a handful of vertices and
/// the smaller root always becomes the parent.
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
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX`.
    pub fn new(len: usize) -> Self {
        let mut uf = Self::default();
        uf.reset(len);
        uf
    }

    /// Makes this `len` singleton sets again, reusing the buffer.
    pub(crate) fn reset(&mut self, len: usize) {
        let len32 = u32::try_from(len).expect("a union-find over at most u32::MAX elements");
        self.parent.clear();
        self.parent.extend(0..len32);
        self.components = len;
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
        let mut x = x as u32;
        loop {
            let parent = self.parent[x as usize];
            if parent == x {
                return x as usize;
            }
            // Path halving: point `x` at its grandparent and move there.
            let grandparent = self.parent[parent as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
    }

    /// Joins the sets of `a` and `b`; returns `false` if already joined.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        let (root, child) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[child] = root as u32;
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
    fn reset_forgets_every_union() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(6);
        assert_eq!(uf.len(), 6);
        assert_eq!(uf.components(), 6);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(4, 5));
    }

    #[test]
    fn empty_is_fine() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.components(), 0);
    }
}
