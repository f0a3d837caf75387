//! Static-NUCA (SNUCA) location lookup.
//!
//! In SNUCA every physical line is statically mapped to a *home* L2 bank by
//! its address bits; a node requesting the line brings it from that home
//! bank (paper Section 2). This module combines the [`AddressMap`] with the
//! mesh and cluster mode to answer the two location questions the compiler
//! and simulator ask: *which node is the home bank?* and *which memory
//! controller services a miss?*

use crate::addr::{AddressMap, PhysAddr};
use dmcp_mach::{ClusterMode, Mesh, NodeId};

/// SNUCA lookup: physical address → home node / memory controller.
///
/// # Examples
///
/// ```
/// use dmcp_mach::{ClusterMode, Mesh, NodeId};
/// use dmcp_mem::{AddressMap, PhysAddr, Snuca};
///
/// let mesh = Mesh::new(6, 6);
/// let map = AddressMap::new(64, 4096, mesh.node_count());
/// let snuca = Snuca::new(mesh, ClusterMode::Quadrant, map);
/// let home = snuca.home_node(PhysAddr::new(0x80), NodeId::new(0, 0));
/// assert!(mesh.contains(home));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Snuca {
    mesh: Mesh,
    cluster: ClusterMode,
    map: AddressMap,
}

impl Snuca {
    /// Creates a lookup for the given topology, cluster mode and address map.
    pub fn new(mesh: Mesh, cluster: ClusterMode, map: AddressMap) -> Self {
        Self { mesh, cluster, map }
    }

    /// The address map in use.
    pub fn map(&self) -> AddressMap {
        self.map
    }

    /// The mesh in use.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The cluster mode in use.
    pub fn cluster(&self) -> ClusterMode {
        self.cluster
    }

    /// Home L2 bank node of the line containing `pa`, as seen from
    /// `requester` (the requester matters only under SNC-4, where the shared
    /// L2 is partitioned per quadrant).
    pub fn home_node(&self, pa: PhysAddr, requester: NodeId) -> NodeId {
        self.cluster.home_bank(self.mesh, requester, self.map.bank_of(pa))
    }

    /// Memory controller that services an L2 miss on `pa`.
    pub fn controller_node(&self, pa: PhysAddr, requester: NodeId) -> NodeId {
        let home = self.home_node(pa, requester);
        self.cluster.controller(self.mesh, requester, home, self.map.channel_of_phys(pa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snuca(cluster: ClusterMode) -> Snuca {
        let mesh = Mesh::new(6, 6);
        Snuca::new(mesh, cluster, AddressMap::new(64, 4096, mesh.node_count()))
    }

    #[test]
    fn consecutive_lines_spread_over_banks() {
        let s = snuca(ClusterMode::Quadrant);
        let req = NodeId::new(0, 0);
        let homes: std::collections::HashSet<_> =
            (0..36u64).map(|i| s.home_node(PhysAddr::new(i * 64), req)).collect();
        assert_eq!(homes.len(), 36, "36 consecutive lines should hit 36 banks");
    }

    #[test]
    fn home_is_requester_independent_outside_snc4() {
        let s = snuca(ClusterMode::Quadrant);
        let pa = PhysAddr::new(0x1_2345);
        assert_eq!(s.home_node(pa, NodeId::new(0, 0)), s.home_node(pa, NodeId::new(5, 5)));
    }

    #[test]
    fn snc4_home_follows_requester_quadrant() {
        let s = snuca(ClusterMode::Snc4);
        let pa = PhysAddr::new(0x1_2345);
        let mesh = s.mesh();
        for req in [NodeId::new(0, 0), NodeId::new(5, 0), NodeId::new(0, 5), NodeId::new(5, 5)] {
            assert_eq!(mesh.quadrant_of(s.home_node(pa, req)), mesh.quadrant_of(req));
        }
    }

    #[test]
    fn controller_is_a_corner() {
        let s = snuca(ClusterMode::AllToAll);
        let corners = s.mesh().memory_controllers();
        for i in 0..32u64 {
            let mc = s.controller_node(PhysAddr::new(i << 12), NodeId::new(2, 3));
            assert!(corners.contains(&mc));
        }
    }
}
