//! The `M × N` mesh topology: enumeration, bank indexing, MCs, quadrants.

use crate::node::NodeId;
use crate::routing::Link;
use std::fmt;

/// The direction toward +x, as numbered in dense link ids
/// ([`Mesh::link_id`]).
pub const PLUS_X: u32 = 0;
/// The direction toward −x (see [`PLUS_X`]).
pub const MINUS_X: u32 = 1;
/// The direction toward +y (see [`PLUS_X`]).
pub const PLUS_Y: u32 = 2;
/// The direction toward −y (see [`PLUS_X`]).
pub const MINUS_Y: u32 = 3;

/// One of the four sections of the mesh used by the quadrant/SNC-4 cluster
/// modes (Section 6.1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Quadrant {
    /// Low-x, low-y corner.
    NorthWest,
    /// High-x, low-y corner.
    NorthEast,
    /// Low-x, high-y corner.
    SouthWest,
    /// High-x, high-y corner.
    SouthEast,
}

impl Quadrant {
    /// All four quadrants, in a fixed order.
    pub const ALL: [Quadrant; 4] =
        [Quadrant::NorthWest, Quadrant::NorthEast, Quadrant::SouthWest, Quadrant::SouthEast];
}

impl fmt::Display for Quadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Quadrant::NorthWest => "NW",
            Quadrant::NorthEast => "NE",
            Quadrant::SouthWest => "SW",
            Quadrant::SouthEast => "SE",
        };
        f.write_str(s)
    }
}

/// A 2D mesh of `cols × rows` tiles.
///
/// Each tile holds a core, a private L1 and one bank of the shared L2
/// (SNUCA). L2 banks are numbered row-major, so bank index `b` lives on node
/// `(b % cols, b / cols)`. Memory controllers are attached to the four corner
/// nodes, as in the paper's Figure 1.
///
/// # Examples
///
/// ```
/// use dmcp_mach::{Mesh, NodeId};
///
/// let mesh = Mesh::new(6, 6);
/// assert_eq!(mesh.node_count(), 36);
/// assert_eq!(mesh.bank_node(7), NodeId::new(1, 1));
/// assert_eq!(mesh.memory_controllers().len(), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Mesh {
    cols: u16,
    rows: u16,
}

impl Mesh {
    /// Creates a mesh with `cols` columns and `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or if the mesh has fewer than four
    /// nodes (memory controllers occupy the four corners).
    pub fn new(cols: u16, rows: u16) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
        assert!(
            u32::from(cols) * u32::from(rows) >= 4,
            "mesh must have at least 4 nodes to host corner memory controllers"
        );
        Self { cols, rows }
    }

    /// Number of columns (the `M` in `M × N`).
    pub const fn cols(self) -> u16 {
        self.cols
    }

    /// Number of rows (the `N` in `M × N`).
    pub const fn rows(self) -> u16 {
        self.rows
    }

    /// Total number of tiles.
    pub const fn node_count(self) -> u32 {
        self.cols as u32 * self.rows as u32
    }

    /// `true` if `node` lies on this mesh.
    pub fn contains(self, node: NodeId) -> bool {
        node.x() < self.cols && node.y() < self.rows
    }

    /// Iterates over all nodes in row-major order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        let cols = self.cols;
        (0..self.rows).flat_map(move |y| (0..cols).map(move |x| NodeId::new(x, y)))
    }

    /// Row-major index of a node (also its L2 bank number).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not on the mesh.
    pub fn node_index(self, node: NodeId) -> u32 {
        assert!(self.contains(node), "{node} outside {self:?}");
        u32::from(node.y()) * u32::from(self.cols) + u32::from(node.x())
    }

    /// Node that hosts L2 bank `bank` (row-major numbering, wrapped modulo
    /// the node count so any bank id maps onto the mesh).
    pub fn bank_node(self, bank: u32) -> NodeId {
        let b = bank % self.node_count();
        NodeId::new((b % u32::from(self.cols)) as u16, (b / u32::from(self.cols)) as u16)
    }

    /// The four corner nodes hosting memory controllers, in the order
    /// NW, NE, SW, SE. Channel `c` is served by `memory_controllers()[c % 4]`.
    pub fn memory_controllers(self) -> [NodeId; 4] {
        [
            NodeId::new(0, 0),
            NodeId::new(self.cols - 1, 0),
            NodeId::new(0, self.rows - 1),
            NodeId::new(self.cols - 1, self.rows - 1),
        ]
    }

    /// Memory-controller node for a channel id.
    pub fn controller_for_channel(self, channel: u32) -> NodeId {
        self.memory_controllers()[(channel % 4) as usize]
    }

    /// The quadrant a node belongs to (used by the quadrant and SNC-4
    /// cluster modes).
    pub fn quadrant_of(self, node: NodeId) -> Quadrant {
        let west = node.x() < self.cols.div_ceil(2);
        let north = node.y() < self.rows.div_ceil(2);
        match (west, north) {
            (true, true) => Quadrant::NorthWest,
            (false, true) => Quadrant::NorthEast,
            (true, false) => Quadrant::SouthWest,
            (false, false) => Quadrant::SouthEast,
        }
    }

    /// The memory controller located inside a quadrant.
    pub fn controller_in_quadrant(self, q: Quadrant) -> NodeId {
        match q {
            Quadrant::NorthWest => NodeId::new(0, 0),
            Quadrant::NorthEast => NodeId::new(self.cols - 1, 0),
            Quadrant::SouthWest => NodeId::new(0, self.rows - 1),
            Quadrant::SouthEast => NodeId::new(self.cols - 1, self.rows - 1),
        }
    }

    /// Nodes belonging to quadrant `q`, in row-major order.
    pub fn nodes_in_quadrant(self, q: Quadrant) -> Vec<NodeId> {
        self.nodes().filter(|&n| self.quadrant_of(n) == q).collect()
    }

    /// The largest possible Manhattan distance on this mesh (corner to
    /// opposite corner).
    pub fn diameter(self) -> u32 {
        u32::from(self.cols - 1) + u32::from(self.rows - 1)
    }

    /// Number of dense link ids: four per node, one per direction a link
    /// can leave it in (edge nodes leave some unused).
    pub const fn link_slots(self) -> usize {
        self.node_count() as usize * 4
    }

    /// Dense id of a directed link: `node_index(src) × 4 + d`, where `d`
    /// is the direction the link leaves `src` in ([`PLUS_X`], [`MINUS_X`],
    /// [`PLUS_Y`] or [`MINUS_Y`]). Ids are below [`Mesh::link_slots`], so
    /// per-link state can live in a plain vector.
    ///
    /// # Panics
    ///
    /// Panics if the link's source is not on the mesh.
    pub fn link_id(self, link: Link) -> u32 {
        let (src, dst) = (link.src(), link.dst());
        let dir = if dst.x() > src.x() {
            PLUS_X
        } else if dst.x() < src.x() {
            MINUS_X
        } else if dst.y() > src.y() {
            PLUS_Y
        } else {
            MINUS_Y
        };
        self.node_index(src) * 4 + dir
    }

    /// The directed link with dense id `id` (the inverse of
    /// [`Mesh::link_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` names no link of this mesh.
    pub fn link_at(self, id: u32) -> Link {
        let node = id / 4;
        let cols = u32::from(self.cols);
        let src = NodeId::new((node % cols) as u16, (node / cols) as u16);
        let (x, y) = (src.x(), src.y());
        let dst = match id % 4 {
            PLUS_X => NodeId::new(x + 1, y),
            MINUS_X => NodeId::new(x.wrapping_sub(1), y),
            PLUS_Y => NodeId::new(x, y + 1),
            _ => NodeId::new(x, y.wrapping_sub(1)),
        };
        assert!(self.contains(src) && self.contains(dst), "link id {id} outside {self:?}");
        Link::new(src, dst)
    }

    /// The mesh neighbours of `node`, in the fixed order +x, −x, +y, −y
    /// (edge nodes have fewer). The deterministic order matters: the
    /// detour router's BFS tie-breaks by expansion order.
    pub fn neighbors(self, node: NodeId) -> impl Iterator<Item = NodeId> {
        let (x, y) = (node.x(), node.y());
        let candidates = [
            (x < self.cols - 1).then(|| NodeId::new(x + 1, y)),
            (x > 0).then(|| NodeId::new(x - 1, y)),
            (y < self.rows - 1).then(|| NodeId::new(x, y + 1)),
            (y > 0).then(|| NodeId::new(x, y - 1)),
        ];
        candidates.into_iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_ids_are_dense_and_invert() {
        let mesh = Mesh::new(4, 3);
        let mut seen = vec![false; mesh.link_slots()];
        for a in mesh.nodes() {
            for b in mesh.neighbors(a) {
                let link = Link::new(a, b);
                let id = mesh.link_id(link);
                assert!(!std::mem::replace(&mut seen[id as usize], true), "{link:?} shares an id");
                assert_eq!(mesh.link_at(id), link);
            }
        }
        // Every slot but the edge nodes' missing directions is used.
        let edge_slots = 2 * (4 + 3);
        assert_eq!(seen.iter().filter(|&&s| s).count(), mesh.link_slots() - edge_slots);
    }

    #[test]
    fn node_enumeration_is_row_major_and_complete() {
        let mesh = Mesh::new(3, 2);
        let nodes: Vec<_> = mesh.nodes().collect();
        assert_eq!(
            nodes,
            vec![
                NodeId::new(0, 0),
                NodeId::new(1, 0),
                NodeId::new(2, 0),
                NodeId::new(0, 1),
                NodeId::new(1, 1),
                NodeId::new(2, 1),
            ]
        );
    }

    #[test]
    fn bank_and_index_roundtrip() {
        let mesh = Mesh::new(6, 6);
        for n in mesh.nodes() {
            assert_eq!(mesh.bank_node(mesh.node_index(n)), n);
        }
    }

    #[test]
    fn bank_wraps_modulo_node_count() {
        let mesh = Mesh::new(4, 4);
        assert_eq!(mesh.bank_node(16), mesh.bank_node(0));
        assert_eq!(mesh.bank_node(17), mesh.bank_node(1));
    }

    #[test]
    fn controllers_are_corners() {
        let mesh = Mesh::new(6, 6);
        let [nw, ne, sw, se] = mesh.memory_controllers();
        assert_eq!(nw, NodeId::new(0, 0));
        assert_eq!(ne, NodeId::new(5, 0));
        assert_eq!(sw, NodeId::new(0, 5));
        assert_eq!(se, NodeId::new(5, 5));
    }

    #[test]
    fn quadrants_partition_the_mesh() {
        let mesh = Mesh::new(6, 6);
        let total: usize = Quadrant::ALL.iter().map(|&q| mesh.nodes_in_quadrant(q).len()).sum();
        assert_eq!(total as u32, mesh.node_count());
        // Each quadrant of a 6x6 mesh holds exactly 9 nodes.
        for q in Quadrant::ALL {
            assert_eq!(mesh.nodes_in_quadrant(q).len(), 9);
        }
    }

    #[test]
    fn quadrant_controller_is_inside_its_quadrant() {
        let mesh = Mesh::new(6, 6);
        for q in Quadrant::ALL {
            let mc = mesh.controller_in_quadrant(q);
            assert_eq!(mesh.quadrant_of(mc), q);
        }
    }

    #[test]
    fn odd_meshes_still_partition() {
        let mesh = Mesh::new(5, 3);
        let total: usize = Quadrant::ALL.iter().map(|&q| mesh.nodes_in_quadrant(q).len()).sum();
        assert_eq!(total as u32, mesh.node_count());
    }

    #[test]
    fn diameter() {
        assert_eq!(Mesh::new(6, 6).diameter(), 10);
        assert_eq!(Mesh::new(2, 2).diameter(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 4 nodes")]
    fn too_small_mesh_panics() {
        let _ = Mesh::new(1, 2);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn node_index_panics_off_mesh() {
        let _ = Mesh::new(2, 2).node_index(NodeId::new(5, 5));
    }
}
