//! KNL-style cluster modes (Section 6.1 of the paper).
//!
//! The cluster mode decides *which memory controller* services an L2 miss,
//! i.e. it encodes the "address affinity" between the requesting tile, the
//! tag directory and the memory:
//!
//! - **All-to-all** — addresses are uniformly hashed over all memory; a miss
//!   may be serviced by any controller, however far away.
//! - **Quadrant** — the directory and the target memory are in the same mesh
//!   section, so the miss path stays within the home bank's quadrant.
//! - **SNC-4** — requester, directory and memory are all in the same
//!   quadrant.

use crate::mesh::Mesh;
use crate::node::NodeId;
use std::fmt;

/// The three clustered operation modes of the target manycore.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ClusterMode {
    /// Uniform hashing of addresses across all controllers.
    AllToAll,
    /// Directory and memory co-located in the same mesh section. This is the
    /// machine's default mode, and the default here too.
    #[default]
    Quadrant,
    /// Requester, directory and memory all in one quadrant (sub-NUMA).
    Snc4,
}

impl ClusterMode {
    /// All modes, in the order the paper's Figure 22 labels them
    /// (A: all-to-all, B: quadrant, C: SNC-4).
    pub const ALL: [ClusterMode; 3] =
        [ClusterMode::AllToAll, ClusterMode::Quadrant, ClusterMode::Snc4];

    /// Single-letter label used by the paper's Figure 22.
    pub fn letter(self) -> char {
        match self {
            ClusterMode::AllToAll => 'A',
            ClusterMode::Quadrant => 'B',
            ClusterMode::Snc4 => 'C',
        }
    }

    /// Picks the memory controller that services a miss.
    ///
    /// `requester` is the tile whose L1/L2 access missed, `home` is the node
    /// holding the home L2 bank of the missing line, and `channel` is the
    /// channel id hashed from the physical address.
    ///
    /// - All-to-all: the channel hash alone decides — any controller.
    /// - Quadrant: the controller in the *home bank's* quadrant.
    /// - SNC-4: the controller in the *requester's* quadrant.
    pub fn controller(self, mesh: Mesh, requester: NodeId, home: NodeId, channel: u32) -> NodeId {
        match self {
            ClusterMode::AllToAll => mesh.controller_for_channel(channel),
            ClusterMode::Quadrant => mesh.controller_in_quadrant(mesh.quadrant_of(home)),
            ClusterMode::Snc4 => mesh.controller_in_quadrant(mesh.quadrant_of(requester)),
        }
    }

    /// Picks the home L2 bank node for a line, given its globally hashed bank
    /// index.
    ///
    /// Under SNC-4 the shared L2 is effectively partitioned: a line requested
    /// by `requester` homes within the requester's quadrant (the global bank
    /// index is re-hashed into that quadrant). The other modes use the global
    /// SNUCA bank placement.
    pub fn home_bank(self, mesh: Mesh, requester: NodeId, global_bank: u32) -> NodeId {
        match self {
            ClusterMode::AllToAll | ClusterMode::Quadrant => mesh.bank_node(global_bank),
            ClusterMode::Snc4 => mesh.quadrant_node(mesh.quadrant_of(requester), global_bank),
        }
    }
}

impl fmt::Display for ClusterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClusterMode::AllToAll => "all-to-all",
            ClusterMode::Quadrant => "quadrant",
            ClusterMode::Snc4 => "SNC-4",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(6, 6)
    }

    #[test]
    fn quadrant_mode_keeps_controller_near_home() {
        let m = mesh();
        let home = NodeId::new(4, 1); // NE quadrant
        let mc = ClusterMode::Quadrant.controller(m, NodeId::new(0, 5), home, 2);
        assert_eq!(m.quadrant_of(mc), m.quadrant_of(home));
    }

    #[test]
    fn snc4_keeps_controller_near_requester() {
        let m = mesh();
        let req = NodeId::new(1, 4); // SW quadrant
        let mc = ClusterMode::Snc4.controller(m, req, NodeId::new(5, 0), 3);
        assert_eq!(m.quadrant_of(mc), m.quadrant_of(req));
    }

    #[test]
    fn all_to_all_uses_channel_hash() {
        let m = mesh();
        let req = NodeId::new(0, 0);
        let home = NodeId::new(0, 0);
        let mcs: Vec<_> =
            (0..4).map(|c| ClusterMode::AllToAll.controller(m, req, home, c)).collect();
        // All four controllers are reachable regardless of requester/home.
        assert_eq!(mcs.len(), 4);
        assert!(mcs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn snc4_homes_banks_in_requester_quadrant() {
        let m = mesh();
        let req = NodeId::new(5, 5);
        for bank in 0..64 {
            let home = ClusterMode::Snc4.home_bank(m, req, bank);
            assert_eq!(m.quadrant_of(home), m.quadrant_of(req));
        }
    }

    #[test]
    fn global_modes_use_snuca_bank() {
        let m = mesh();
        for bank in 0..36 {
            assert_eq!(
                ClusterMode::Quadrant.home_bank(m, NodeId::new(0, 0), bank),
                m.bank_node(bank)
            );
            assert_eq!(
                ClusterMode::AllToAll.home_bank(m, NodeId::new(3, 3), bank),
                m.bank_node(bank)
            );
        }
    }

    #[test]
    fn letters_match_figure_22() {
        assert_eq!(ClusterMode::AllToAll.letter(), 'A');
        assert_eq!(ClusterMode::Quadrant.letter(), 'B');
        assert_eq!(ClusterMode::Snc4.letter(), 'C');
    }

    #[test]
    fn default_is_quadrant() {
        assert_eq!(ClusterMode::default(), ClusterMode::Quadrant);
    }
}
