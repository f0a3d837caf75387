//! Data-location detection (paper Section 4.1).
//!
//! Combines the page table (with the paper's colour-preserving OS support),
//! the SNUCA bank mapping and the machine description into one oracle that
//! answers: *for array element `e`, which node is its home L2 bank, and which
//! memory controller services a miss?*
//!
//! Pages are allocated **eagerly** in array-declaration order, so the layout
//! is identical no matter in which order the compiler, the window-size
//! search and the simulator ask questions — everything stays reproducible.

use dmcp_ir::{ArrayId, Program};
use dmcp_mach::{FaultState, MachineConfig, NodeId};
use dmcp_mem::page::{PagePolicy, PageTable};
use dmcp_mem::{AddressMap, LineAddr, PhysAddr, Snuca, VirtAddr};
use std::collections::HashMap;

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

/// The machine-wide memory layout: VA→PA→(home bank, controller).
#[derive(Clone, Debug)]
pub struct Layout {
    machine: MachineConfig,
    map: AddressMap,
    pages: PageTable,
    snuca: Snuca,
    /// Page→controller overrides installed by the profile-based data-to-MC
    /// mapping scheme (paper Section 6.5 / Figure 23).
    mc_override: HashMap<u64, NodeId>,
    /// Fault-induced re-homing; `None` on a healthy machine.
    degraded: Option<DegradedView>,
}

impl Layout {
    /// Builds the layout for `machine`, eagerly allocating every page of
    /// every array in `program` under the given allocation policy.
    pub fn new(machine: &MachineConfig, program: &Program, policy: PagePolicy) -> Self {
        let map = AddressMap::for_machine(machine);
        let mut pages = PageTable::new(map, policy);
        for decl in program.arrays() {
            let bytes = decl.len() * u64::from(decl.elem_size);
            let mut va = decl.base_va;
            while va < decl.base_va + bytes {
                pages.translate(VirtAddr::new(va));
                va += u64::from(machine.page_size);
            }
            // The last element may share the final page; make sure.
            pages.translate(VirtAddr::new(decl.base_va + bytes.saturating_sub(1)));
        }
        let snuca = Snuca::new(machine.mesh, machine.cluster, map);
        Self {
            machine: machine.clone(),
            map,
            pages,
            snuca,
            mc_override: HashMap::new(),
            degraded: None,
        }
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
            return;
        }
        let rehome = self
            .machine
            .mesh
            .nodes()
            .map(|n| if faults.is_usable(n) { n } else { faults.nearest_live(n) })
            .collect();
        self.degraded = Some(DegradedView { live: faults.live_nodes().to_vec(), rehome });
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

    /// Translates an element of an array to its physical address.
    ///
    /// # Panics
    ///
    /// Panics if the page was not pre-allocated (cannot happen for addresses
    /// inside declared arrays).
    pub fn phys_of(&self, program: &Program, array: ArrayId, elem: u64) -> PhysAddr {
        let va = program.array(array).va_of(elem);
        self.pages.lookup(VirtAddr::new(va)).expect("page pre-allocated for declared arrays")
    }

    /// Full location info of one array element, as seen by `requester`
    /// (requester only matters under SNC-4).
    pub fn locate(
        &self,
        program: &Program,
        array: ArrayId,
        elem: u64,
        requester: NodeId,
    ) -> ElemInfo {
        let pa = self.phys_of(program, array, elem);
        let line = self.map.line_of(pa);
        let home = self.rehomed(self.snuca.home_node(pa, requester));
        let mc = self.rehomed(match self.mc_override.get(&self.map.phys_page(pa)) {
            Some(&n) => n,
            None => self.snuca.controller_node(pa, requester),
        });
        ElemInfo { line, home, mc, hot: program.array(array).hot }
    }

    /// The compiler's *belief* about an element's location, inferred from
    /// its virtual address (paper Section 4.1: the OS support guarantees
    /// the compiler can read the location off the VA). Under the
    /// colour-preserving policy the belief matches reality; under a stock
    /// (scrambled) allocator the bank-hash and channel bits differ and the
    /// compiler plans against wrong locations — exactly the failure mode
    /// the paper's modified OS API exists to prevent.
    pub fn believed(
        &self,
        program: &Program,
        array: ArrayId,
        elem: u64,
        requester: NodeId,
    ) -> ElemInfo {
        self.locate_and_believe(program, array, elem, requester).1
    }

    /// [`Layout::locate`] and [`Layout::believed`] together, from one
    /// page-table lookup: `(real, believed)`.
    pub fn locate_and_believe(
        &self,
        program: &Program,
        array: ArrayId,
        elem: u64,
        requester: NodeId,
    ) -> (ElemInfo, ElemInfo) {
        let real = self.locate(program, array, elem, requester);
        // Interpret the VA as if translation were the identity.
        let pa_guess = PhysAddr::new(program.array(array).va_of(elem));
        let believed = ElemInfo {
            home: self.rehomed(self.snuca.home_node(pa_guess, requester)),
            mc: self.rehomed(self.snuca.controller_node(pa_guess, requester)),
            ..real // the *identity* of the line is always real
        };
        (real, believed)
    }

    /// Installs a page→controller override (profile-guided data-to-MC
    /// mapping). `ppn` is the physical page number.
    pub fn override_page_controller(&mut self, ppn: u64, mc: NodeId) {
        self.mc_override.insert(ppn, mc);
    }

    /// Number of page→controller overrides installed.
    pub fn override_count(&self) -> usize {
        self.mc_override.len()
    }

    /// Physical page number of an element (for building overrides).
    pub fn page_of(&self, program: &Program, array: ArrayId, elem: u64) -> u64 {
        self.map.phys_page(self.phys_of(program, array, elem))
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
        let first = layout.locate(&p, a, 17, req);
        let second = layout.locate(&p, a, 17, req);
        assert_eq!(first, second);
    }

    #[test]
    fn consecutive_elements_share_lines_then_move_banks() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        // 8-byte elements, 64-byte lines: elements 0..8 share a line.
        let l0 = layout.locate(&p, a, 0, req);
        let l7 = layout.locate(&p, a, 7, req);
        let l8 = layout.locate(&p, a, 8, req);
        assert_eq!(l0.line, l7.line);
        assert_ne!(l0.line, l8.line);
        assert_ne!(l0.home, l8.home, "adjacent lines should home differently");
    }

    #[test]
    fn hot_flag_follows_declaration() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let req = NodeId::new(0, 0);
        assert!(!layout.locate(&p, dmcp_ir::ArrayId::from_index(0), 0, req).hot);
        assert!(layout.locate(&p, dmcp_ir::ArrayId::from_index(1), 0, req).hot);
    }

    #[test]
    fn homes_cover_many_banks() {
        let (m, p) = setup();
        let layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(0, 0);
        let homes: std::collections::HashSet<_> =
            (0..512).map(|e| layout.locate(&p, a, e, req).home).collect();
        assert!(homes.len() >= 30, "only {} distinct home banks", homes.len());
    }

    #[test]
    fn controller_override_takes_effect() {
        let (m, p) = setup();
        let mut layout = Layout::new(&m, &p, PagePolicy::ColorPreserving);
        let a = dmcp_ir::ArrayId::from_index(0);
        let req = NodeId::new(3, 3);
        let before = layout.locate(&p, a, 0, req);
        let target = NodeId::new(5, 5);
        layout.override_page_controller(layout.page_of(&p, a, 0), target);
        let after = layout.locate(&p, a, 0, req);
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
            let pa = layout.phys_of(&p, a, e);
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
        let before: Vec<_> = (0..64).map(|e| layout.locate(&p, a, e, req)).collect();
        let faults = dmcp_mach::FaultState::new(dmcp_mach::FaultPlan::healthy(), m.mesh).unwrap();
        layout.apply_faults(&faults);
        assert!(!layout.is_degraded());
        assert!(layout.live_nodes().is_none());
        let after: Vec<_> = (0..64).map(|e| layout.locate(&p, a, e, req)).collect();
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
            let info = layout.locate(&p, a, e, req);
            assert!(layout.is_live(info.home), "element {e} homed on dead node");
            assert!(layout.is_live(info.mc), "element {e} serviced by dead MC");
            let believed = layout.believed(&p, a, e, req);
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
            .find(|&e| layout.locate(&p, a, e, req).home == victim)
            .expect("some element homes on (3,3)");
        let mut plan = dmcp_mach::FaultPlan::healthy();
        plan.kill_node(victim);
        let faults = dmcp_mach::FaultState::new(plan, m.mesh).unwrap();
        layout.apply_faults(&faults);
        let new_home = layout.locate(&p, a, elem, req).home;
        assert_eq!(victim.manhattan(new_home), 1, "re-home must be the nearest live node");
    }
}
