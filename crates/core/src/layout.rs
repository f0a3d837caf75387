//! Data-location detection (paper Section 4.1).
//!
//! Combines the page translation (with the paper's colour-preserving OS
//! support), the SNUCA bank mapping and the machine description into one
//! oracle that answers: *for array element `e`, which node is its home L2
//! bank, and which memory controller services a miss?*
//!
//! Pages are allocated **eagerly** in array-declaration order, so the layout
//! is identical no matter in which order the compiler and the simulator
//! ask questions — everything stays reproducible.
//! Every array's pages sit in one dense table, in the order a demand-paging
//! [`dmcp_mem::PageTable`] would allocate them, so translating an element
//! is an index, not a hash probe.

use dmcp_ir::{ArrayId, Program};
use dmcp_mach::{ClusterMode, FaultState, MachineConfig, NodeId, Quadrant};
use dmcp_mem::page::{FrameAllocator, PagePolicy};
use dmcp_mem::{AddressMap, LineAddr, PhysAddr, VirtAddr};

/// Location of one array element in the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElemInfo {
    /// Physical cache line holding the element.
    pub line: LineAddr,
    /// Home L2 bank node.
    pub home: NodeId,
    /// Memory controller servicing an L2 miss on the line.
    pub mc: NodeId,
    /// Whether the owning array is flat-placed in fast memory.
    pub hot: bool,
}

/// The degraded-mode view of the mesh: which nodes survive and where dead
/// banks' data is re-homed. Installed by [`Layout::apply_faults`]; absent on
/// a healthy machine, keeping the healthy paths bit-identical.
#[derive(Clone, Debug)]
struct DegradedView {
    /// Usable nodes, row-major. Never empty.
    live: Vec<NodeId>,
    /// Per node, indexed by [`dmcp_mach::Mesh::node_index`]: the node itself
    /// if usable, else its nearest usable node (re-homing rule for pages
    /// whose home bank or controller died).
    rehome: Vec<NodeId>,
}

/// One declared array: what [`dmcp_ir::ArrayDecl::va_of`] needs, its hot
/// flag, and where its pages start in [`Layout`]'s page table.
#[derive(Clone, Copy, Debug)]
struct ArrayPages {
    base_va: u64,
    /// Elements; an empty array keeps 1, as `va_of` wraps onto its base.
    len: u64,
    elem_size: u64,
    hot: bool,
    /// Virtual page numbers of the first and the last byte.
    first_vpn: u64,
    last_vpn: u64,
    /// Index in the page table of the entry for `first_vpn`.
    first_entry: usize,
}

/// One virtual page of an array.
#[derive(Clone, Copy, Debug)]
struct PageEntry {
    /// Physical page number.
    ppn: u64,
    /// The controller installed for the physical page by the profile-based
    /// data-to-MC mapping (paper Section 6.5 / Figure 23), if any.
    mc: Option<NodeId>,
}

/// Where a line homes and which controller serves its misses, re-homed
/// under the installed faults, as tables over everything the answer
/// depends on: the bank, the requester's quadrant under SNC-4, and the
/// channel. Built by [`Layout::new`] and rebuilt by
/// [`Layout::apply_faults`].
#[derive(Clone, Debug)]
struct HomeTables {
    /// Banks per requester quadrant in `homes`.
    banks: usize,
    /// Re-homed home node by `q * banks + bank`, where `q` is the
    /// requester's quadrant under SNC-4 and 0 otherwise, with the quadrant
    /// of the home before re-homing (which picks the controller in
    /// quadrant mode).
    homes: Vec<(NodeId, u8)>,
    /// Re-homed controller by quadrant: the home's in quadrant mode, the
    /// requester's under SNC-4.
    quadrant_mc: [NodeId; 4],
    /// Re-homed controller by channel (all-to-all).
    channel_mc: Vec<NodeId>,
}

impl HomeTables {
    fn new(machine: &MachineConfig, map: AddressMap, rehome: impl Fn(NodeId) -> NodeId) -> Self {
        let (mesh, cluster) = (machine.mesh, machine.cluster);
        let banks = map.banks() as usize;
        let quadrants: &[Quadrant] =
            if cluster == ClusterMode::Snc4 { &Quadrant::ALL } else { &Quadrant::ALL[..1] };
        let mut homes = Vec::with_capacity(quadrants.len() * banks);
        for &q in quadrants {
            // Every node of quadrant `q` sees the homes its first node
            // does; a quadrant no node lies in has no requester to answer.
            let requester = mesh.nodes().find(|&n| mesh.quadrant_of(n) == q);
            for bank in 0..map.banks() {
                let home = match requester {
                    Some(r) => cluster.home_bank(mesh, r, bank),
                    None => mesh.bank_node(bank),
                };
                homes.push((rehome(home), mesh.quadrant_of(home) as u8));
            }
        }
        Self {
            banks,
            homes,
            quadrant_mc: Quadrant::ALL.map(|q| rehome(mesh.controller_in_quadrant(q))),
            channel_mc: (0..map.channels())
                .map(|c| rehome(mesh.controller_for_channel(c)))
                .collect(),
        }
    }
}

/// The machine-wide memory layout: VA→PA→(home bank, controller).
#[derive(Clone, Debug)]
pub struct Layout {
    machine: MachineConfig,
    map: AddressMap,
    arrays: Vec<ArrayPages>,
    /// Every array's pages, array after array: array `a`'s virtual page
    /// `vpn` is `pages[a.first_entry + (vpn - a.first_vpn)]`. A page two
    /// arrays share appears under both, with one frame.
    pages: Vec<PageEntry>,
    /// Physical pages with a controller override.
    overrides: usize,
    /// Fault-induced re-homing; `None` on a healthy machine.
    degraded: Option<DegradedView>,
    /// Homes and controllers under `degraded`.
    tables: HomeTables,
}

impl Layout {
    /// Builds the layout for `machine`, eagerly allocating every page of
    /// every array in `program` under the given allocation policy: array
    /// after array in declaration order, each array's pages in address
    /// order, a page an earlier array already holds keeping its frame.
    pub fn new(machine: &MachineConfig, program: &Program, policy: PagePolicy) -> Self {
        let map = AddressMap::for_machine(machine);
        let mut frames = FrameAllocator::new(map, policy);
        let mut arrays: Vec<ArrayPages> = Vec::with_capacity(program.arrays().len());
        let mut pages = Vec::new();
        // The highest virtual page an earlier array holds: only a page at
        // or below it can already have a frame.
        let mut allocated_to = None;
        for decl in program.arrays() {
            let bytes = decl.len() * u64::from(decl.elem_size);
            let first_vpn = map.virt_page(VirtAddr::new(decl.base_va));
            let last_vpn = map.virt_page(VirtAddr::new(decl.base_va + bytes.saturating_sub(1)));
            let first_entry = pages.len();
            for vpn in first_vpn..=last_vpn {
                let earlier = if allocated_to.is_some_and(|top| vpn <= top) {
                    arrays.iter().rev().find(|a| (a.first_vpn..=a.last_vpn).contains(&vpn))
                } else {
                    None
                };
                let page = match earlier {
                    Some(a) => pages[a.first_entry + (vpn - a.first_vpn) as usize],
                    None => PageEntry { ppn: frames.allocate(vpn), mc: None },
                };
                pages.push(page);
            }
            allocated_to = allocated_to.max(Some(last_vpn));
            arrays.push(ArrayPages {
                base_va: decl.base_va,
                len: decl.len().max(1),
                elem_size: u64::from(decl.elem_size),
                hot: decl.hot,
                first_vpn,
                last_vpn,
                first_entry,
            });
        }
        let tables = HomeTables::new(machine, map, |n| n);
        Self { machine: machine.clone(), map, arrays, pages, overrides: 0, degraded: None, tables }
    }

    /// Installs a degraded-mode view: every page homed on a node the faults
    /// made unusable is re-homed to its nearest usable node, and
    /// [`Layout::is_live`] starts reporting unusable nodes as dead so the
    /// partitioner excludes them from every placement decision.
    ///
    /// A trivial (empty) fault state is a no-op — the layout stays on its
    /// healthy code paths and answers are bit-identical to before.
    pub fn apply_faults(&mut self, faults: &FaultState) {
        if faults.is_trivial() {
            self.degraded = None;
        } else {
            let rehome = self
                .machine
                .mesh
                .nodes()
                .map(|n| if faults.is_usable(n) { n } else { faults.nearest_live(n) })
                .collect();
            self.degraded = Some(DegradedView { live: faults.live_nodes().to_vec(), rehome });
        }
        self.tables = HomeTables::new(&self.machine, self.map, |n| self.rehomed(n));
    }

    /// `true` when a degraded-mode view is installed.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// `true` if `node` is usable for computation and data under the
    /// installed fault view (always `true` on a healthy machine).
    pub fn is_live(&self, node: NodeId) -> bool {
        self.rehomed(node) == node
    }

    /// The usable nodes in row-major order, or `None` on a healthy machine
    /// (meaning: all of them).
    pub fn live_nodes(&self) -> Option<&[NodeId]> {
        self.degraded.as_ref().map(|d| d.live.as_slice())
    }

    /// Applies the fault re-homing rule to a home/controller node.
    fn rehomed(&self, node: NodeId) -> NodeId {
        match &self.degraded {
            None => node,
            Some(d) => d.rehome[self.machine.mesh.node_index(node) as usize],
        }
    }

    /// The machine this layout belongs to.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The address map in use.
    pub fn map(&self) -> AddressMap {
        self.map
    }

    /// An element's virtual address (as [`dmcp_ir::ArrayDecl::va_of`]
    /// gives it), physical address and page entry.
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array of the layout's program.
    fn translate(&self, array: ArrayId, elem: u64) -> (VirtAddr, PhysAddr, &PageEntry, bool) {
        let a = &self.arrays[array.index()];
        let elem = if elem < a.len { elem } else { elem % a.len };
        let va = a.base_va + elem * a.elem_size;
        let vpn = self.map.virt_page(VirtAddr::new(va));
        let page = &self.pages[a.first_entry + (vpn - a.first_vpn) as usize];
        let pa = self.map.compose(page.ppn, self.map.page_offset(va));
        (VirtAddr::new(va), pa, page, a.hot)
    }

    /// Translates an element of an array to its physical address.
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array of the layout's program.
    pub fn phys_of(&self, array: ArrayId, elem: u64) -> PhysAddr {
        self.translate(array, elem).1
    }

    /// The home bank and controller of `pa` as `requester` sees them
    /// (requester only matters under SNC-4), re-homed under faults; `mc`
    /// overrides the controller. Both are lookups in [`HomeTables`], which
    /// hold what [`dmcp_mem::Snuca::home_node`] and
    /// [`dmcp_mem::Snuca::controller_node`] answer.
    fn home_and_mc(&self, pa: PhysAddr, requester: NodeId, mc: Option<NodeId>) -> (NodeId, NodeId) {
        let t = &self.tables;
        let cluster = self.machine.cluster;
        let q = match cluster {
            ClusterMode::Snc4 => self.machine.mesh.quadrant_of(requester) as usize,
            ClusterMode::AllToAll | ClusterMode::Quadrant => 0,
        };
        let (home, home_quadrant) = t.homes[q * t.banks + self.map.bank_of(pa) as usize];
        let mc = match mc {
            Some(mc) => self.rehomed(mc),
            None => match cluster {
                ClusterMode::AllToAll => t.channel_mc[self.map.channel_of_phys(pa) as usize],
                ClusterMode::Quadrant => t.quadrant_mc[usize::from(home_quadrant)],
                ClusterMode::Snc4 => t.quadrant_mc[q],
            },
        };
        (home, mc)
    }

    /// Full location info of one array element, as seen by `requester`
    /// (requester only matters under SNC-4).
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array of the layout's program.
    pub fn locate(&self, array: ArrayId, elem: u64, requester: NodeId) -> ElemInfo {
        let (_, pa, page, hot) = self.translate(array, elem);
        let (home, mc) = self.home_and_mc(pa, requester, page.mc);
        ElemInfo { line: self.map.line_of(pa), home, mc, hot }
    }

    /// The compiler's *belief* about an element's location, inferred from
    /// its virtual address (paper Section 4.1: the OS support guarantees
    /// the compiler can read the location off the VA). Under the
    /// colour-preserving policy the belief matches reality; under a stock
    /// (scrambled) allocator the bank-hash and channel bits differ and the
    /// compiler plans against wrong locations — exactly the failure mode
    /// the paper's modified OS API exists to prevent. The line is always
    /// the real one, and no controller override is visible in a VA.
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array of the layout's program.
    pub fn believed(&self, array: ArrayId, elem: u64, requester: NodeId) -> ElemInfo {
        let (va, pa, _, hot) = self.translate(array, elem);
        self.believe(va, pa, requester, hot)
    }

    /// [`Layout::believed`] of the element at `va`, which translates to
    /// `pa`.
    fn believe(&self, va: VirtAddr, pa: PhysAddr, requester: NodeId, hot: bool) -> ElemInfo {
        // Interpret the VA as if translation were the identity.
        let (home, mc) = self.home_and_mc(PhysAddr::new(va.raw()), requester, None);
        ElemInfo { line: self.map.line_of(pa), home, mc, hot }
    }

    /// Installs a page→controller override (profile-guided data-to-MC
    /// mapping) on every virtual page the layout maps to physical page
    /// `ppn`; a page the layout does not map is ignored.
    pub fn override_page_controller(&mut self, ppn: u64, mc: NodeId) {
        let mut fresh = false;
        for page in self.pages.iter_mut().filter(|p| p.ppn == ppn) {
            fresh = page.mc.replace(mc).is_none();
        }
        self.overrides += usize::from(fresh);
    }

    /// Number of physical pages with a controller override installed.
    pub fn override_count(&self) -> usize {
        self.overrides
    }

    /// Physical page number of an element (for building overrides).
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an array of the layout's program.
    pub fn page_of(&self, array: ArrayId, elem: u64) -> u64 {
        self.translate(array, elem).2.ppn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::ProgramBuilder;

    fn setup() -> (MachineConfig, Program) {
        let mut b = ProgramBuilder::new();
        b.array("A", &[512], 8);
        b.hot_array("B", &[512], 8);
        b.nest(&[("i", 0, 512)], &["A[i] = B[i] + 1"]).unwrap();
        (MachineConfig::knl_like(), b.build())
    }

    #[test]
    fn locations_are_stable() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        let first = layout.locate(a, 17, req);
        let second = layout.locate(a, 17, req);
        assert_eq!(first, second);
    }

    #[test]
    fn consecutive_elements_share_lines_then_move_banks() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        // 8-byte elements, 64-byte lines: elements 0..8 share a line.
        let l0 = layout.locate(a, 0, req);
        let l7 = layout.locate(a, 7, req);
        let l8 = layout.locate(a, 8, req);
        assert_eq!(l0.line, l7.line);
        assert_ne!(l0.line, l8.line);
        assert_ne!(l0.home, l8.home, "adjacent lines should home differently");
    }

    #[test]
    fn hot_flag_follows_declaration() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let req = NodeId::new(0, 0);
        assert!(!layout.locate(dmcp_ir::ArrayId::from_index(0), 0, req).hot);
        assert!(layout.locate(dmcp_ir::ArrayId::from_index(1), 0, req).hot);
    }

    #[test]
    fn homes_cover_many_banks() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        let homes: std::collections::HashSet<_> =
            (0..512).map(|e| layout.locate(a, e, req).home).collect();
        assert!(homes.len() >= 30, "only {} distinct home banks", homes.len());
    }

    #[test]
    fn controller_override_takes_effect() {
        let (m, p) = setup();
        let mut layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(3, 3);
        let before = layout.locate(a, 0, req);
        let target = NodeId::new(5, 5);
        layout.override_page_controller(layout.page_of(a, 0), target);
        let after = layout.locate(a, 0, req);
        assert_eq!(after.mc, target);
        assert_eq!(after.home, before.home, "override must not move the home bank");
        assert_eq!(layout.override_count(), 1);
    }

    #[test]
    fn color_preservation_makes_mc_predictable_from_va() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        // Channel bits of PA equal channel bits of VA under colour
        // preservation.
        for e in [0u64, 100, 300, 511] {
            let va = p.array(a).va_of(e);
            let pa = layout.phys_of(a, e);
            assert_eq!(
                layout.map().channel_of_phys(pa),
                layout.map().channel_of_virt(VirtAddr::new(va))
            );
        }
    }

    #[test]
    fn trivial_faults_change_nothing() {
        let (m, p) = setup();
        let mut layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(2, 1);
        let before: Vec<_> = (0..64).map(|e| layout.locate(a, e, req)).collect();
        let faults = dmcp_mach::FaultState::new(dmcp_mach::FaultPlan::healthy(), m.mesh).unwrap();
        layout.apply_faults(&faults);
        assert!(!layout.is_degraded());
        assert!(layout.live_nodes().is_none());
        let after: Vec<_> = (0..64).map(|e| layout.locate(a, e, req)).collect();
        assert_eq!(before, after, "healthy fault state must be a strict no-op");
    }

    #[test]
    fn dead_banks_are_rehomed_to_live_nodes() {
        let (m, p) = setup();
        let mut layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        let mut plan = dmcp_mach::FaultPlan::healthy();
        // Kill a node that certainly homes some lines (homes cover >= 30
        // of 36 banks for this array).
        let victim = NodeId::new(3, 3);
        plan.kill_node(victim);
        let faults = dmcp_mach::FaultState::new(plan, m.mesh).unwrap();
        layout.apply_faults(&faults);
        assert!(layout.is_degraded());
        assert!(!layout.is_live(victim));
        assert_eq!(layout.live_nodes().unwrap().len(), 35);
        for e in 0..512 {
            let info = layout.locate(a, e, req);
            assert!(layout.is_live(info.home), "element {e} homed on dead node");
            assert!(layout.is_live(info.mc), "element {e} serviced by dead MC");
            let believed = layout.believed(a, e, req);
            assert!(layout.is_live(believed.home));
            assert!(layout.is_live(believed.mc));
        }
    }

    #[test]
    fn rehoming_moves_to_the_nearest_live_node() {
        let (m, p) = setup();
        let mut layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        // Find an element homed on the victim before faults.
        let victim = NodeId::new(3, 3);
        let elem = (0..512)
            .find(|&e| layout.locate(a, e, req).home == victim)
            .expect("some element homes on (3,3)");
        let mut plan = dmcp_mach::FaultPlan::healthy();
        plan.kill_node(victim);
        let faults = dmcp_mach::FaultState::new(plan, m.mesh).unwrap();
        layout.apply_faults(&faults);
        let new_home = layout.locate(a, elem, req).home;
        assert_eq!(victim.manhattan(new_home), 1, "re-home must be the nearest live node");
    }
}
