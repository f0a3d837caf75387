//! Statement-instance resolution: the schedule-independent half of a
//! nest's access stream, computed once per nest.
//!
//! Placing a nest (paper Sections 4.3–4.5) needs, for every statement
//! instance in execution order, facts that no placement decision can
//! change: which core the iteration is assigned to, where the store
//! target lives, where each operand lives (Section 4.1), whether the L2
//! predictor expects a hit, and what default execution would move. The
//! predictor and the default-execution L1 mirror see the same line stream
//! at every window size and under `force_default`, so one resolution
//! serves every placement of the nest exactly — the full placement and
//! the split pass's default replan.
//!
//! What stays placement-dependent — the windowed `variable2node` holders
//! and the persistent hot holders — is looked up by the
//! [`crate::split`] planner as it walks the resolution.
//!
//! Every operand and store line is interned to a dense id here, once per
//! access, so the planner's L1 models ([`L1Model`]) and the L2 predictor
//! index tables instead of hashing line addresses on every lookup; each
//! id's L1 set is computed once, when the id is made. The intern is the
//! access's one hash probe, with the per-process [`KeyedState`]: in the
//! server, indirection arrays in the request choose the lines.

use crate::l1model::L1Model;
use crate::layout::Layout;
use crate::split::{emission_bound, PlanOptions};
use crate::step::{ElemLoc, StoreTarget};
use dmcp_hash::KeyedState;
use dmcp_ir::nested::Group;
use dmcp_ir::program::{DataStore, Program};
use dmcp_ir::ArrayRef;
use dmcp_mach::NodeId;
use dmcp_mem::{LineAddr, MissPredictor};
use std::collections::HashMap;

/// How the planner predicts L2 hits when locating data (Section 4.1).
#[derive(Clone, Debug)]
pub enum HitPredictor {
    /// The realistic reuse-distance predictor of [`dmcp_mem::predictor`]
    /// (imperfect; its accuracy is the paper's Table 2).
    Reuse(MissPredictor),
    /// Pretends everything hits on-chip (for tests and ablations).
    AlwaysHit,
}

impl HitPredictor {
    /// Predicts whether an access to the line with dense id `line` is
    /// served on-chip, updating the predictor's internal model.
    pub fn predict(&mut self, line: u32) -> bool {
        match self {
            HitPredictor::Reuse(p) => p.predict_hit(line),
            HitPredictor::AlwaysHit => true,
        }
    }
}

/// One operand of one statement instance, as `GetNode` (Algorithm 1,
/// line 11) resolves it before any placement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedLeaf {
    /// The element; `elem.believed` is its primary (network) source under
    /// default execution: the believed home bank on a predicted hit, the
    /// believed controller on a predicted miss, the assigned core for an
    /// unanalyzable reference (see [`ResolvedLeaf::source`]).
    pub elem: ElemLoc,
    /// Dense id of `elem.line` within the nest.
    pub line: u32,
    /// Whether the compiler may place a subcomputation near the operand.
    pub analyzable: bool,
    /// The believed home bank when an analyzable operand is predicted to
    /// miss: the line passes through the controller *and* is installed in
    /// its home bank, so both are near-data sites; listing both also gives
    /// the balance rule room to spread load away from the (few)
    /// controller tiles.
    pub miss_home: Option<NodeId>,
}

impl ResolvedLeaf {
    /// Where a placement fetches the operand from when its statement
    /// sources unanalyzable operands at `anchor`: the believed primary of
    /// an analyzable operand, else `anchor`. Nothing at compile time places
    /// an unanalyzable operand nearer one consumer than another, so a split
    /// statement anchors it at its store home, where the statement's tree
    /// is rooted anyway, and a fallback or forced statement at its core.
    pub fn source(&self, anchor: NodeId) -> NodeId {
        if self.analyzable {
            self.elem.believed
        } else {
            anchor
        }
    }
}

/// One statement instance.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResolvedInstance {
    /// The node default (iteration-granularity) placement gives the
    /// instance's iteration.
    pub core: NodeId,
    /// The store target; `store.home` is the paper's store node.
    pub store: StoreTarget,
    /// Dense id of `store.line` within the nest.
    pub store_line: u32,
    /// Whether the compiler can analyse the store target.
    pub lhs_known: bool,
    /// Planned movement of default execution on `core`.
    pub default_movement: u64,
    /// The instance's operands start at this index of the resolution's
    /// operand list, in the planner's nested-set order.
    pub first_leaf: usize,
}

/// The resolved statement-instance stream of one nest (see the module
/// docs): built once by [`resolve_nest`], read by every
/// [`crate::window::place_nest`] of the nest.
#[derive(Clone, Debug)]
pub struct NestResolution {
    nest: usize,
    /// Nested-set form of each body statement's right-hand side.
    groups: Vec<Group>,
    /// Every statement instance, in execution order.
    instances: Vec<ResolvedInstance>,
    /// Every instance's operands, instance after instance.
    leaves: Vec<ResolvedLeaf>,
    /// Dense line id → the L1 set its line maps to on the machine.
    line_sets: Vec<u32>,
}

impl NestResolution {
    /// Index of the nest within the program.
    pub(crate) fn nest(&self) -> usize {
        self.nest
    }

    /// Number of statement instances resolved (the whole nest).
    pub(crate) fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// One more than the largest dense line id the nest touches (0 if it
    /// touches none).
    pub(crate) fn lines_touched(&self) -> u32 {
        let stores = self.instances.iter().map(|i| i.store_line);
        let operands = self.leaves.iter().map(|l| l.line);
        stores.chain(operands).max().map_or(0, |m| m + 1)
    }

    /// An upper bound on the `(steps, inputs)` placing the nest emits
    /// ([`crate::split::emission_bound`] per instance).
    pub(crate) fn emission_bound(&self) -> (usize, usize) {
        let (body, end) = (self.groups.len(), self.instances.len());
        let (mut steps, mut inputs) = (0, 0);
        for (stmt, group) in self.groups.iter().enumerate() {
            // Instances `i ≡ stmt (mod body)` below `end`.
            let count = (end + body - 1 - stmt) / body;
            let (s, i) = emission_bound(group, true);
            (steps, inputs) = (steps + count * s, inputs + count * i);
        }
        (steps, inputs)
    }

    /// Dense line id → L1 set, for every line the nest touches.
    pub(crate) fn line_sets(&self) -> &[u32] {
        &self.line_sets
    }

    /// Index within the nest body of instance `i`'s statement.
    pub(crate) fn statement_of(&self, i: usize) -> usize {
        i % self.groups.len()
    }

    /// Instance `i`: its record, its operands and its statement's nested
    /// sets.
    pub(crate) fn instance(&self, i: usize) -> (&ResolvedInstance, &[ResolvedLeaf], &Group) {
        let inst = &self.instances[i];
        let end = self.instances.get(i + 1).map_or(self.leaves.len(), |next| next.first_leaf);
        (inst, &self.leaves[inst.first_leaf..end], &self.groups[self.statement_of(i)])
    }
}

/// Resolves every statement instance of nest `nest_index`, in execution
/// order: the assigned core (`assignment[it % assignment.len()]` for
/// iteration `it`), the store target, each operand's location and
/// predicted-hit source (one `predictor` for the whole nest), each line's
/// L1 set, and the default-execution movement against a per-core L1
/// mirror of the machine's geometry. Indirect
/// references are resolved through `data`; `opts.ideal_analysis` treats
/// every reference as analyzable.
///
/// # Panics
///
/// Panics if `assignment` is empty.
pub fn resolve_nest(
    program: &Program,
    nest_index: usize,
    layout: &Layout,
    data: &DataStore,
    mut predictor: HitPredictor,
    opts: PlanOptions,
    assignment: &[NodeId],
) -> NestResolution {
    assert!(!assignment.is_empty(), "need a default core assignment");
    let nest = &program.nests()[nest_index];
    let groups: Vec<Group> = nest.body.iter().map(|s| Group::of_expr(&s.rhs)).collect();
    // Each statement's operands in the planner's nested-set order (inner
    // sets are visited where they appear), which is also the order the
    // predictor and the mirror see them in.
    let operands: Vec<Vec<&ArrayRef>> = groups.iter().map(Group::all_leaves).collect();
    let machine = layout.machine();
    // What the default execution's per-core L1s would hold, so the
    // split-vs-default comparison is honest.
    let sets = machine.l1_sets();
    let mut l1_default = L1Model::new(machine.mesh, sets, machine.l1_ways);
    let mut line_ids: HashMap<LineAddr, u32, KeyedState> = HashMap::default();
    let mut line_sets = Vec::new();
    // A line's dense id and its L1 set (the simulated cache's mapping,
    // `line mod sets`), computed when the id is made, and the predictor's
    // verdict on the access: the access's one hash probe.
    let mut access = |line: LineAddr| {
        let next = u32::try_from(line_ids.len()).expect("fewer than 2^32 lines per nest");
        let id = *line_ids.entry(line).or_insert(next);
        if id == next {
            line_sets.push((line.raw() % u64::from(sets)) as u32);
        }
        (id, line_sets[id as usize], predictor.predict(id))
    };
    let mut instances = Vec::new();
    let mut leaves = Vec::new();
    for (it, iter) in nest.iterations().enumerate() {
        let core = assignment[it % assignment.len()];
        for (stmt, refs) in nest.body.iter().zip(&operands) {
            let lhs_elem = program.element_of(&stmt.lhs, &iter, data);
            let lhs = layout.locate(stmt.lhs.array, lhs_elem, core);
            let store = StoreTarget {
                array: stmt.lhs.array,
                elem: lhs_elem,
                line: lhs.line,
                home: lhs.home,
                hot: lhs.hot,
            };
            let first_leaf = leaves.len();
            let mut default_movement = 0u64;
            for &r in refs {
                let elem = program.element_of(r, &iter, data);
                // The compiler reads locations off the virtual address; with
                // the paper's colour-preserving OS support the belief equals
                // reality. The belief carries the real line.
                let belief = layout.believed(r.array, elem, core);
                let analyzable = r.analyzable || opts.ideal_analysis;
                let (line, set, predicted_hit) = access(belief.line);
                let primary = match (analyzable, predicted_hit) {
                    // Unplaceable: the compiler assumes the data must come
                    // to the requesting core, exactly as in default
                    // execution.
                    (false, _) => core,
                    (true, true) => belief.home,
                    (true, false) => belief.mc,
                };
                // Default execution fetches the operand to the assigned
                // core (its private L1 may already hold the line).
                if !l1_default.holds(core, line) {
                    default_movement += u64::from(primary.manhattan(core));
                }
                l1_default.touch(core, line, set);
                leaves.push(ResolvedLeaf {
                    elem: ElemLoc {
                        array: r.array,
                        elem,
                        line: belief.line,
                        believed: primary,
                        hot: belief.hot,
                    },
                    line,
                    analyzable,
                    miss_home: (analyzable && !predicted_hit).then_some(belief.home),
                });
            }
            // Default execution also ships the result from the core to the
            // store node, and the store line is write-allocated into L2.
            default_movement += u64::from(core.manhattan(store.home));
            let (store_line, store_set, _) = access(store.line);
            l1_default.touch(core, store_line, store_set);
            instances.push(ResolvedInstance {
                core,
                store,
                store_line,
                lhs_known: stmt.lhs.analyzable || opts.ideal_analysis,
                default_movement,
                first_leaf,
            });
        }
    }
    NestResolution { nest: nest_index, groups, instances, leaves, line_sets }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;
    use dmcp_mem::page::PagePolicy;

    fn resolve(stmts: &[&str], iters: i64, opts: PlanOptions) -> NestResolution {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "X"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, iters)], stmts).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like();
        let layout = Layout::new(&machine, &program, PagePolicy::ColorPreserving);
        let data = program.initial_data();
        let asg = [NodeId::new(2, 3), NodeId::new(4, 1)];
        resolve_nest(&program, 0, &layout, &data, HitPredictor::AlwaysHit, opts, &asg)
    }

    #[test]
    fn instances_follow_execution_order_and_cycle_the_assignment() {
        let r =
            resolve(&["A[i] = B[i] + C[i]", "X[i] = (A[i] * 2) - B[i]"], 3, PlanOptions::default());
        assert_eq!(r.instance_count(), 6);
        for i in 0..6 {
            let (inst, leaves, group) = r.instance(i);
            let want_core = if (i / 2) % 2 == 0 { NodeId::new(2, 3) } else { NodeId::new(4, 1) };
            assert_eq!(inst.core, want_core);
            assert_eq!(leaves.len(), 2, "both statements read two elements");
            assert_eq!(leaves.len(), group.all_leaves().len());
            assert_eq!(inst.store.elem, (i / 2) as u64);
        }
    }

    #[test]
    fn unanalyzable_operands_are_sourced_from_the_core() {
        let r = resolve(&["A[i] = B[X[i]] + C[i]"], 2, PlanOptions::default());
        let (inst, leaves, _) = r.instance(0);
        let indirect = leaves.iter().find(|l| !l.analyzable).expect("B[X[i]] is indirect");
        assert_eq!(indirect.elem.believed, inst.core);
        assert_eq!(indirect.miss_home, None);
        let ideal = resolve(
            &["A[i] = B[X[i]] + C[i]"],
            2,
            PlanOptions { ideal_analysis: true, ..PlanOptions::default() },
        );
        assert!(ideal.instance(0).1.iter().all(|l| l.analyzable));
    }

    #[test]
    fn lines_are_interned_densely_in_order_of_first_access() {
        let r = resolve(&["A[i] = B[i] + C[i]", "X[i] = A[i] * 2"], 2, PlanOptions::default());
        let sets = u64::from(MachineConfig::knl_like().l1_sets());
        let mut ids = std::collections::HashMap::new();
        let mut next = 0;
        for i in 0..r.instance_count() {
            let (inst, leaves, _) = r.instance(i);
            let accesses = leaves.iter().map(|l| (l.elem.line, l.line));
            for (addr, id) in accesses.chain([(inst.store.line, inst.store_line)]) {
                let want = *ids.entry(addr).or_insert_with(|| {
                    next += 1;
                    next - 1
                });
                assert_eq!(id, want, "instance {i}: line {addr:?}");
                // Each id maps to its line's set in the simulated L1.
                assert_eq!(u64::from(r.line_sets()[id as usize]), addr.raw() % sets);
            }
        }
        assert!(next > 0);
        assert_eq!(r.line_sets().len(), next as usize);
    }

    #[test]
    fn default_movement_credits_lines_the_core_already_holds() {
        // Both statements read B[i] on the same core: the second read rides
        // the first one's default L1 copy.
        let r = resolve(&["A[i] = B[i] + 1", "C[i] = B[i] + 1"], 1, PlanOptions::default());
        let (first, leaves, _) = r.instance(0);
        let (second, _, _) = r.instance(1);
        let fetch = u64::from(leaves[0].elem.believed.manhattan(first.core));
        assert_eq!(
            first.default_movement,
            fetch + u64::from(first.core.manhattan(first.store.home))
        );
        assert_eq!(second.default_movement, u64::from(second.core.manhattan(second.store.home)));
    }
}
