//! Deterministic XY (dimension-ordered) routing over the mesh.
//!
//! The paper counts data movement in units of *links traversed*. This module
//! makes those links concrete: [`route`] returns the exact sequence of
//! directed [`Link`]s a message takes under XY routing (first travel along
//! the x dimension, then along y), which the simulator uses for per-link
//! contention accounting.

use crate::node::NodeId;
use std::fmt;

/// A directed link between two adjacent mesh nodes.
///
/// # Examples
///
/// ```
/// use dmcp_mach::{Link, NodeId};
///
/// let l = Link::new(NodeId::new(0, 0), NodeId::new(1, 0));
/// assert_eq!(l.src(), NodeId::new(0, 0));
/// assert_eq!(l.dst(), NodeId::new(1, 0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    src: NodeId,
    dst: NodeId,
}

impl Link {
    /// Creates a directed link, returning `None` when `src` and `dst` are
    /// not adjacent on the mesh.
    ///
    /// This is the probing constructor the fault-aware detour router uses
    /// to test candidate hops without panicking.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmcp_mach::{Link, NodeId};
    ///
    /// assert!(Link::try_new(NodeId::new(0, 0), NodeId::new(1, 0)).is_some());
    /// assert!(Link::try_new(NodeId::new(0, 0), NodeId::new(2, 0)).is_none());
    /// ```
    pub fn try_new(src: NodeId, dst: NodeId) -> Option<Self> {
        src.is_adjacent(dst).then_some(Self { src, dst })
    }

    /// Creates a directed link.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` are not adjacent on the mesh. Use
    /// [`Link::try_new`] to probe without panicking.
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        match Self::try_new(src, dst) {
            Some(l) => l,
            None => panic!("link endpoints {src}->{dst} not adjacent"),
        }
    }

    /// Source endpoint.
    pub const fn src(self) -> NodeId {
        self.src
    }

    /// Destination endpoint.
    pub const fn dst(self) -> NodeId {
        self.dst
    }

    /// The same link in the opposite direction.
    pub fn reversed(self) -> Link {
        Link { src: self.dst, dst: self.src }
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// The path a message takes between two nodes: the ordered list of links.
///
/// An empty path means source and destination coincide.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RoutePath {
    links: Vec<Link>,
}

impl RoutePath {
    /// Builds a path from an explicit link sequence (used by the
    /// fault-aware detour router, whose paths are not dimension-ordered).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if consecutive links are not contiguous.
    pub fn from_links(links: Vec<Link>) -> Self {
        debug_assert!(
            links.windows(2).all(|w| w[0].dst() == w[1].src()),
            "route links must be contiguous"
        );
        Self { links }
    }

    /// The links in traversal order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links traversed (equals the Manhattan distance under XY
    /// routing, which is minimal).
    pub fn len(&self) -> u32 {
        self.links.len() as u32
    }

    /// `true` when source and destination coincide.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

impl IntoIterator for RoutePath {
    type Item = Link;
    type IntoIter = std::vec::IntoIter<Link>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.into_iter()
    }
}

impl<'a> IntoIterator for &'a RoutePath {
    type Item = &'a Link;
    type IntoIter = std::slice::Iter<'a, Link>;

    fn into_iter(self) -> Self::IntoIter {
        self.links.iter()
    }
}

/// Deterministic routing dimension order.
///
/// The simulator uses XY throughout; YX exists because the paper claims the
/// approach "can work with any type of on-chip network topology" — the
/// movement metric only depends on hop *counts*, which are identical for
/// any minimal dimension-ordered route.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RouteOrder {
    /// Travel the x dimension first (the mesh default).
    #[default]
    XY,
    /// Travel the y dimension first.
    YX,
}

/// Computes a minimal dimension-ordered route with the given order.
pub fn route_with(src: NodeId, dst: NodeId, order: RouteOrder) -> RoutePath {
    match order {
        RouteOrder::XY => route(src, dst),
        RouteOrder::YX => {
            let mut links = Vec::with_capacity(src.manhattan(dst) as usize);
            let mut cur = src;
            while cur.y() != dst.y() {
                let ny = if dst.y() > cur.y() { cur.y() + 1 } else { cur.y() - 1 };
                let next = NodeId::new(cur.x(), ny);
                links.push(Link::new(cur, next));
                cur = next;
            }
            while cur.x() != dst.x() {
                let nx = if dst.x() > cur.x() { cur.x() + 1 } else { cur.x() - 1 };
                let next = NodeId::new(nx, cur.y());
                links.push(Link::new(cur, next));
                cur = next;
            }
            RoutePath { links }
        }
    }
}

/// Computes the XY route from `src` to `dst`: move along x until the columns
/// match, then along y.
///
/// The returned path always has exactly `src.manhattan(dst)` links — XY
/// routing is minimal.
///
/// # Examples
///
/// ```
/// use dmcp_mach::{routing, NodeId};
///
/// let path = routing::route(NodeId::new(0, 0), NodeId::new(2, 1));
/// assert_eq!(path.len(), 3);
/// ```
pub fn route(src: NodeId, dst: NodeId) -> RoutePath {
    let mut links = Vec::with_capacity(src.manhattan(dst) as usize);
    let mut cur = src;
    while cur != dst {
        let next = xy_next(cur, dst);
        links.push(Link::new(cur, next));
        cur = next;
    }
    RoutePath { links }
}

/// The node after `cur` on the XY route to `dst` (`cur ≠ dst`): one step
/// along x until the columns match, then along y.
pub(crate) fn xy_next(cur: NodeId, dst: NodeId) -> NodeId {
    if cur.x() != dst.x() {
        let nx = if dst.x() > cur.x() { cur.x() + 1 } else { cur.x() - 1 };
        NodeId::new(nx, cur.y())
    } else {
        let ny = if dst.y() > cur.y() { cur.y() + 1 } else { cur.y() - 1 };
        NodeId::new(cur.x(), ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_minimal() {
        let a = NodeId::new(1, 4);
        let b = NodeId::new(5, 0);
        assert_eq!(route(a, b).len(), a.manhattan(b));
    }

    #[test]
    fn route_to_self_is_empty() {
        let n = NodeId::new(2, 2);
        let p = route(n, n);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn route_goes_x_first() {
        let p = route(NodeId::new(0, 0), NodeId::new(2, 2));
        let first: Vec<_> = p.links().iter().take(2).map(|l| l.dst()).collect();
        assert_eq!(first, vec![NodeId::new(1, 0), NodeId::new(2, 0)]);
    }

    #[test]
    fn route_links_are_contiguous() {
        let p = route(NodeId::new(3, 1), NodeId::new(0, 4));
        let mut prev = NodeId::new(3, 1);
        for l in &p {
            assert_eq!(l.src(), prev);
            assert!(l.src().is_adjacent(l.dst()));
            prev = l.dst();
        }
        assert_eq!(prev, NodeId::new(0, 4));
    }

    #[test]
    fn reversed_link() {
        let l = Link::new(NodeId::new(1, 1), NodeId::new(1, 2));
        assert_eq!(l.reversed().src(), NodeId::new(1, 2));
        assert_eq!(l.reversed().reversed(), l);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_link_panics() {
        let _ = Link::new(NodeId::new(0, 0), NodeId::new(2, 0));
    }

    #[test]
    fn yx_routes_are_minimal_and_y_first() {
        let a = NodeId::new(1, 4);
        let b = NodeId::new(4, 0);
        let p = route_with(a, b, RouteOrder::YX);
        assert_eq!(p.len(), a.manhattan(b));
        assert_eq!(p.links()[0].dst(), NodeId::new(1, 3), "y moves first");
        let mut cur = a;
        for l in &p {
            assert_eq!(l.src(), cur);
            cur = l.dst();
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn xy_and_yx_agree_on_hop_count() {
        for (sx, sy, dx, dy) in [(0u16, 0u16, 5u16, 5u16), (3, 1, 3, 4), (2, 2, 0, 2)] {
            let s = NodeId::new(sx, sy);
            let d = NodeId::new(dx, dy);
            assert_eq!(
                route_with(s, d, RouteOrder::XY).len(),
                route_with(s, d, RouteOrder::YX).len()
            );
        }
    }

    #[test]
    fn into_iterator_yields_all_links() {
        let p = route(NodeId::new(0, 0), NodeId::new(1, 1));
        assert_eq!(p.clone().into_iter().count(), 2);
        assert_eq!((&p).into_iter().count(), 2);
    }
}
