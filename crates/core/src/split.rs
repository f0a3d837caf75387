//! Single-statement splitting and subcomputation placement
//! (paper Algorithm 1 + Section 4.3).
//!
//! For one statement instance the planner:
//!
//! 1. locates every operand (`GetNode`): home L2 bank, or the memory
//!    controller on a predicted L2 miss (both resolved once per nest by
//!    [`crate::resolve`]), or L1 copies recorded in the `variable2node`
//!    map ([`crate::l1model::L1Model`]);
//! 2. classifies the operands into nested sets by priority/parentheses and
//!    builds an MST per set, innermost first, treating processed sets as
//!    single multi-located components ([`crate::mst`]);
//! 3. walks each MST from the leaves towards the store node, emitting one
//!    subcomputation ([`crate::step::Step`]) per internal tree vertex on the
//!    vertex's node (subject to the load-balance skip rule), so every MST
//!    edge is traversed exactly once — by raw data or by a partial result.
//!
//! L1 copies are *private*: a recorded copy on node `n` only saves movement
//! when the consuming subcomputation itself runs on `n`; it never serves a
//! remote fetch. This is why L1 reuse pulls subcomputations *to* data
//! (near-data processing) rather than data to subcomputations.
//!
//! Statements whose store target the compiler cannot analyse fall back to
//! default-style execution on the iteration's assigned core; the same
//! mechanism (a forced execution node) also generates the baseline
//! schedules.

use crate::balance::LoadTracker;
use crate::l1model::L1Model;
use crate::layout::Layout;
use crate::mst::{kruskal, MstEdge, MstVertex, RootedTree};
use crate::resolve::{ResolvedInstance, ResolvedLeaf};
use crate::stats::{OpMix, StmtRecord};
use crate::step::{ElemLoc, Operand, Step, StepInput, StmtTag, StoreTarget, SubId};
use dmcp_ir::nested::{Element, Group, OpClass, Term};
use dmcp_ir::BinOp;
use dmcp_mach::NodeId;
use dmcp_mem::LineAddr;

/// Planner knobs.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Consult the `variable2node` map for L1 reuse (Section 4.3). Turning
    /// this off gives the paper's "reuse-agnostic" ablation.
    pub reuse_aware: bool,
    /// Treat every reference as analyzable (the "ideal data analysis"
    /// scenario). Pair with [`crate::HitPredictor::L2Model`].
    pub ideal_analysis: bool,
    /// Load-balance skip threshold (paper default 10 %).
    pub balance_threshold: f64,
    /// Split a statement only when the planned movement of the split
    /// schedule is below this fraction of the default execution's
    /// (hysteresis compensating for the synchronization overhead splitting
    /// introduces; 1.0 splits on any planned win).
    pub split_threshold: f64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            reuse_aware: true,
            ideal_analysis: false,
            balance_threshold: 0.10,
            split_threshold: 0.75,
        }
    }
}

/// Plans the statement instances of one nest placement into
/// subcomputation steps, walking a [`crate::NestResolution`].
pub(crate) struct Planner<'a> {
    layout: &'a Layout,
    opts: PlanOptions,
    /// Where location-free operands (constants and constants-only
    /// subgroups) anchor: the origin tile, or the live node nearest it on
    /// a degraded machine. Anchor locations can become execution sites,
    /// so the anchor must be somewhere a step may actually run.
    const_anchor: NodeId,
    /// Compile-time L1 model (`variable2node` map).
    pub l1: L1Model,
    /// Persistent residency estimator for the *split* execution: real L1s
    /// do not forget at window boundaries, so movement accounting may
    /// credit hits the window-scoped `variable2node` map no longer records
    /// (placement decisions still use only the windowed map, as in the
    /// paper).
    l1_persist: L1Model,
    /// Load tracker for the balance rule.
    loads: LoadTracker,
    /// Side effects (L1 touches, load additions) buffered during one
    /// statement's planning (applied when the statement commits).
    pending_touches: Vec<(NodeId, LineAddr)>,
    pending_loads: Vec<(NodeId, f64)>,
    /// `choose_node`'s scored candidates, reused across calls.
    scored: Vec<(u32, u32, NodeId)>,
    /// `choose_node`'s candidate list, reused across calls.
    shortlist: Vec<NodeId>,
}

/// One operand location resolved by `GetNode`.
#[derive(Clone)]
struct LeafInfo {
    /// The element; `elem.believed` is its primary (network) source.
    elem: ElemLoc,
    /// Candidate compute sites where the data is locally available:
    /// the believed primary source plus any L1-copy holders.
    candidates: Vec<NodeId>,
    /// The subset of `candidates` that are L1 copies.
    l1_candidates: Vec<NodeId>,
}

/// A node of the (recursive) group plan.
enum PlanNode {
    Leaf {
        op: BinOp,
        info: LeafInfo,
    },
    Sub {
        op: BinOp,
        plan: GroupPlan,
    },
    /// Constants appear as plan nodes only inside non-reorderable (shift)
    /// groups, where operand order must be preserved.
    Const {
        op: BinOp,
        value: f64,
    },
}

/// A planned nested set: its vertices, MST and constants.
struct GroupPlan {
    class: OpClass,
    nodes: Vec<PlanNode>,
    /// Constants of reorderable groups (they have no location; they attach
    /// to the group's root step).
    consts: Vec<(BinOp, f64)>,
    /// MST vertices aligned with `nodes` (plus possibly an extra store
    /// vertex appended by the outermost level).
    vertices: Vec<MstVertex>,
    edges: Vec<MstEdge>,
}

/// Outcome of emitting a group: where its value is and what it cost.
struct Emitted {
    operand: Operand,
    node: NodeId,
    movement: u64,
    l1_hits: u32,
}

impl<'a> Planner<'a> {
    /// Creates a planner for one nest placement.
    pub fn new(layout: &'a Layout, opts: PlanOptions) -> Self {
        let machine = layout.machine();
        let origin = NodeId::new(0, 0);
        let const_anchor = match layout.live_nodes() {
            None => origin,
            Some(live) => live
                .iter()
                .copied()
                .min_by_key(|n| (n.manhattan(origin), *n))
                .expect("degraded layouts keep at least one live node"),
        };
        Self {
            layout,
            opts,
            const_anchor,
            l1: L1Model::new(machine.mesh, machine.l1_lines()),
            l1_persist: L1Model::new(machine.mesh, machine.l1_lines()),
            loads: LoadTracker::new(machine.mesh, opts.balance_threshold),
            pending_touches: Vec::new(),
            pending_loads: Vec::new(),
            scored: Vec::new(),
            shortlist: Vec::new(),
        }
    }

    fn apply_pending(&mut self) {
        for (node, line) in self.pending_touches.drain(..) {
            self.l1.touch(node, line);
            self.l1_persist.touch(node, line);
        }
        for (node, cost) in self.pending_loads.drain(..) {
            self.loads.add(node, cost);
        }
    }

    /// Plans one resolved statement instance (`inst`, its operands
    /// `leaves` and its statement's nested sets `group`), appending its
    /// steps to `steps`.
    ///
    /// `inst.core` is the node the default (iteration-granularity)
    /// placement gives this iteration; it anchors unanalyzable references
    /// and fallback execution. With `force_default = true` the whole
    /// statement executes default-style on the assigned core (this is how
    /// baseline schedules and rolled-back nests are generated).
    ///
    /// The split-vs-default decision is made per *nest* by the pipeline's
    /// split pass: it compares the nest's planned warm-phase movement
    /// against default execution and re-plans the whole nest
    /// default-style when splitting is not worth it — mixed placements
    /// destroy each other's L1 locality, so the choice is all-or-nothing
    /// per nest.
    pub fn plan_statement(
        &mut self,
        steps: &mut Vec<Step>,
        tag: StmtTag,
        inst: &ResolvedInstance,
        leaves: &[ResolvedLeaf],
        group: &Group,
        force_default: bool,
    ) -> StmtRecord {
        let first_step = steps.len() as u32;
        let store = inst.store;
        let fallback = force_default || !inst.lhs_known;
        // When the store target is unknown the compiler cannot do better
        // than default placement on the assigned core.
        let force: Option<NodeId> = if fallback { Some(inst.core) } else { None };

        // --- Build the nested-set plan (innermost MSTs first) ----------
        let mut leaves = leaves.iter();
        let mut plan = self.plan_group(group, &mut leaves);
        debug_assert!(leaves.next().is_none(), "every resolved operand is planned");

        // The outermost MST includes the store node as a vertex
        // (paper Figure 9c) and is rooted there.
        plan.vertices.push(MstVertex::single(store.home));
        plan.edges = kruskal(&plan.vertices);

        // --- Emit subcomputations ---------------------------------------
        let emitted = self.emit_group(steps, &plan, store.home, Some(store), tag, force);
        // Ship the result to the store node (zero unless forced elsewhere).
        // A fallback/forced statement IS default execution; its planned
        // movement is the default estimate by definition.
        let movement_opt = if fallback {
            inst.default_movement
        } else {
            emitted.movement + u64::from(emitted.node.manhattan(store.home))
        };
        self.pending_touches.push((store.home, store.line));
        self.apply_pending();

        // --- Statistics --------------------------------------------------
        let stmt_steps = &steps[first_step as usize..];
        let parallelism = dag_width(stmt_steps, first_step);
        let mut remapped = OpMix::default();
        for s in stmt_steps {
            if s.node != inst.core {
                for i in &s.inputs {
                    remapped.record(i.op.category());
                }
            }
        }
        StmtRecord {
            tag,
            movement_opt,
            movement_default: inst.default_movement,
            parallelism,
            step_count: stmt_steps.len() as u32,
            planned_l1_hits: emitted.l1_hits,
            remapped,
            fallback,
            first_step,
            last_step: steps.len() as u32,
        }
    }

    /// `GetNode` (Algorithm 1, line 11), placement-dependent half: adds the
    /// L1-copy holders to a resolved operand's candidate sites.
    fn locate_leaf(&self, leaf: &ResolvedLeaf) -> LeafInfo {
        let mut candidates = vec![leaf.elem.believed];
        candidates.extend(leaf.miss_home);
        let mut l1_candidates = Vec::new();
        if self.opts.reuse_aware && leaf.analyzable {
            // Window-scoped reuse knowledge (the paper's variable2node map)
            // plus the persistent residency estimator: short-reuse-distance
            // lines (loop-invariant operands) stay cached at their past
            // consumers across windows, like register-promoted scalars.
            let line = leaf.elem.line;
            let hot = self.l1_persist.hot_holders(line, 4);
            for &h in self.l1.holders(line).iter().chain(hot) {
                if !candidates.contains(&h) {
                    candidates.push(h);
                    l1_candidates.push(h);
                }
            }
        }
        LeafInfo { elem: leaf.elem, candidates, l1_candidates }
    }

    /// Recursively plans a group: locates leaves, recurses into sub-groups
    /// (innermost sets are therefore processed first) and builds this
    /// level's MST.
    fn plan_group(
        &mut self,
        group: &Group,
        leaves: &mut std::slice::Iter<'_, ResolvedLeaf>,
    ) -> GroupPlan {
        let ordered = matches!(group.class, OpClass::Fixed(_));
        let mut nodes = Vec::new();
        let mut consts = Vec::new();
        for Element { term, inverted } in &group.elems {
            let op = group.class.op_for(*inverted);
            match term {
                Term::Const(v) => {
                    if ordered {
                        nodes.push(PlanNode::Const { op, value: *v });
                    } else {
                        consts.push((op, *v));
                    }
                }
                Term::Leaf(_) => {
                    let leaf = leaves.next().expect("one resolved operand per leaf");
                    nodes.push(PlanNode::Leaf { op, info: self.locate_leaf(leaf) });
                }
                Term::Group(g) => {
                    let plan = self.plan_group(g, leaves);
                    nodes.push(PlanNode::Sub { op, plan });
                }
            }
        }
        let vertices: Vec<MstVertex> =
            nodes.iter().map(|n| plan_vertex(n, self.const_anchor)).collect();
        let edges = kruskal(&vertices);
        GroupPlan { class: group.class, nodes, consts, vertices, edges }
    }

    /// Emits the steps of a planned group, directing its result towards
    /// `target`. With `store` set this is the statement's outermost group:
    /// the extra store vertex is the tree root and the final step writes the
    /// result.
    fn emit_group(
        &mut self,
        steps: &mut Vec<Step>,
        plan: &GroupPlan,
        target: NodeId,
        store: Option<StoreTarget>,
        tag: StmtTag,
        force: Option<NodeId>,
    ) -> Emitted {
        // Pass-through: a single non-inverted element with no constants
        // needs no step of its own (its consumer folds it directly).
        if store.is_none() && plan.consts.is_empty() && plan.nodes.len() == 1 {
            let base_op = plan.class.op_for(false);
            match &plan.nodes[0] {
                PlanNode::Leaf { op, info } if *op == base_op => {
                    let node = info
                        .candidates
                        .iter()
                        .copied()
                        .min_by_key(|&c| (c.manhattan(target), c))
                        .expect("candidates non-empty");
                    return Emitted {
                        operand: Operand::Elem(info.elem),
                        node,
                        movement: 0,
                        l1_hits: 0,
                    };
                }
                PlanNode::Sub { op, plan: sub } if *op == base_op => {
                    return self.emit_group(steps, sub, target, None, tag, force);
                }
                _ => {}
            }
        }

        if let OpClass::Fixed(_) = plan.class {
            return self.emit_fixed(steps, plan, target, store, tag, force);
        }

        let n = plan.vertices.len();
        if n == 0 {
            // Constants only. As a nested subgroup (e.g. the `(2 + 3)` in
            // `A[i] = (2 + 3) & 63`) the group folds to a compile-time
            // value: no step, no movement — the consumer folds the
            // constant directly.
            let Some(st) = store else {
                let mut value = plan.class.identity();
                for &(op, v) in &plan.consts {
                    value = op.apply(value, v);
                }
                return Emitted {
                    operand: Operand::Const(value),
                    node: target,
                    movement: 0,
                    l1_hits: 0,
                };
            };
            // At statement level (e.g. `A[i] = 3`): a single store step.
            let node = force.unwrap_or(st.home);
            let id = SubId(steps.len() as u32);
            let step = Step {
                id,
                node,
                seed: Some(plan.class.identity()),
                inputs: plan
                    .consts
                    .iter()
                    .map(|&(op, v)| StepInput { op, operand: Operand::Const(v) })
                    .collect(),
                store: Some(st),
                waits: Vec::new(),
                tag,
            };
            self.pending_loads.push((node, step_load(&step, self.div_factor())));
            steps.push(step);
            return Emitted { operand: Operand::Temp(id), node, movement: 0, l1_hits: 0 };
        }

        // Root selection: the store vertex if present, else the vertex
        // nearest to the requested target.
        let root = if store.is_some() {
            n - 1 // the appended store vertex
        } else {
            (0..n)
                .min_by_key(|&i| {
                    let (node, d) = plan.vertices[i].nearest_to(target);
                    (d, node, i)
                })
                .expect("non-empty vertex set")
        };
        let tree = RootedTree::build(n, &plan.edges, root);

        // Top-down concrete node assignment. Steps are emitted by internal
        // vertices and by the root; only those are forced/balanced.
        let mut node_of = vec![NodeId::new(0, 0); n];
        let preorder: Vec<usize> = tree.postorder.iter().rev().copied().collect();
        for &v in &preorder {
            let anchor = match tree.parent[v] {
                None => target,
                Some(p) => node_of[p],
            };
            let emits_step = !tree.is_leaf(v) || v == root;
            node_of[v] = match force {
                Some(f) if emits_step => f,
                _ => {
                    if emits_step {
                        self.choose_node(&plan.vertices[v], anchor, cost_estimate(plan, v))
                    } else {
                        plan.vertices[v].nearest_to(anchor).0
                    }
                }
            };
        }
        if store.is_some() && force.is_none() {
            // The final subcomputation always runs at the store node: the
            // result is never migrated (Section 4.5).
            node_of[root] = plan.vertices[root].locs[0];
        }

        // Bottom-up emission: one step per internal vertex (plus the root).
        let mut produced: Vec<Option<Emitted>> = (0..n).map(|_| None).collect();
        let mut total_movement = 0u64;
        let mut total_l1 = 0u32;
        for &v in &tree.postorder {
            let is_root = v == root;
            let is_store_root = is_root && store.is_some();
            if tree.is_leaf(v) && !is_root {
                continue; // folded into the parent's step
            }

            let exec = node_of[v];
            let mut inputs = Vec::new();
            // Own element (absent for the synthetic store vertex).
            if !is_store_root {
                let (op, operand, fetch, l1h) =
                    self.vertex_operand(steps, plan, v, exec, tag, force);
                total_movement += fetch;
                total_l1 += l1h;
                inputs.push(StepInput { op, operand });
            }
            // Children contributions.
            for &c in &tree.children[v] {
                match produced[c].take() {
                    Some(e) => {
                        // A sub-result produced by an earlier step travels
                        // from its node to here. Its own inversion (if any)
                        // already happened inside that step, so the class's
                        // base operator folds it in.
                        total_movement += u64::from(e.node.manhattan(exec));
                        inputs.push(StepInput { op: plan.class.op_for(false), operand: e.operand });
                    }
                    None => {
                        // A tree-leaf child: fetch its element or emit its
                        // sub-group directed at us.
                        let (op, operand, fetch, l1h) =
                            self.vertex_operand(steps, plan, c, exec, tag, force);
                        total_movement += fetch;
                        total_l1 += l1h;
                        inputs.push(StepInput { op, operand });
                    }
                }
            }
            // Constants attach to the root step of their group.
            if is_root {
                inputs.extend(
                    plan.consts.iter().map(|&(op, c)| StepInput { op, operand: Operand::Const(c) }),
                );
            }
            let id = SubId(steps.len() as u32);
            let step = Step {
                id,
                node: exec,
                seed: Some(plan.class.identity()),
                inputs,
                store: if is_store_root { store } else { None },
                waits: Vec::new(),
                tag,
            };
            self.pending_loads.push((exec, step_load(&step, self.div_factor())));
            steps.push(step);
            produced[v] =
                Some(Emitted { operand: Operand::Temp(id), node: exec, movement: 0, l1_hits: 0 });
        }

        let root_emit = produced[root].take().expect("root emitted a step");
        Emitted {
            operand: root_emit.operand,
            node: root_emit.node,
            movement: total_movement,
            l1_hits: total_l1,
        }
    }

    /// Emits a non-reorderable (shift) group as a single ordered step.
    fn emit_fixed(
        &mut self,
        steps: &mut Vec<Step>,
        plan: &GroupPlan,
        target: NodeId,
        store: Option<StoreTarget>,
        tag: StmtTag,
        force: Option<NodeId>,
    ) -> Emitted {
        debug_assert_eq!(plan.nodes.len(), 2, "fixed groups have exactly two elements");
        let exec = match (force, &store) {
            (Some(f), _) => f,
            (None, Some(st)) => st.home,
            (None, None) => {
                // Cheapest located node among the operands w.r.t. the target.
                let mut cands: Vec<NodeId> = plan
                    .nodes
                    .iter()
                    .zip(&plan.vertices)
                    .filter(|(n, _)| !matches!(n, PlanNode::Const { .. }))
                    .flat_map(|(_, v)| v.locs.iter().copied())
                    .collect();
                cands.sort();
                cands.dedup();
                cands.into_iter().min_by_key(|&c| (c.manhattan(target), c)).unwrap_or(target)
            }
        };
        let mut movement = 0u64;
        let mut l1_hits = 0u32;
        let mut inputs = Vec::new();
        for v in 0..plan.nodes.len() {
            let (op, operand, fetch, l1h) = self.vertex_operand(steps, plan, v, exec, tag, force);
            movement += fetch;
            l1_hits += l1h;
            // The first operand seeds the accumulator (seed: None), its op
            // is ignored; the second applies the fixed operator.
            let applied = if inputs.is_empty() { BinOp::Add } else { op };
            inputs.push(StepInput { op: applied, operand });
        }
        let id = SubId(steps.len() as u32);
        let step = Step { id, node: exec, seed: None, inputs, store, waits: Vec::new(), tag };
        self.pending_loads.push((exec, step_load(&step, self.div_factor())));
        steps.push(step);
        Emitted { operand: Operand::Temp(id), node: exec, movement, l1_hits }
    }

    /// The operand contributed by plan vertex `v` to a step executing at
    /// `exec`: `(fold op, operand, movement, planned L1 hits)`.
    fn vertex_operand(
        &mut self,
        steps: &mut Vec<Step>,
        plan: &GroupPlan,
        v: usize,
        exec: NodeId,
        tag: StmtTag,
        force: Option<NodeId>,
    ) -> (BinOp, Operand, u64, u32) {
        match &plan.nodes[v] {
            PlanNode::Leaf { op, info } => {
                let (src, l1h) = self.fetch_source(info, exec);
                self.pending_touches.push((exec, info.elem.line));
                (*op, Operand::Elem(info.elem), u64::from(src.manhattan(exec)), l1h)
            }
            PlanNode::Sub { op, plan: sub } => {
                let e = self.emit_group(steps, sub, exec, None, tag, force);
                if let Operand::Elem(el) = e.operand {
                    // Pass-through element: `e.node` is its replica nearest
                    // to us. A local replica (our own L1 copy, or we are the
                    // home/primary) costs nothing; otherwise the fetch comes
                    // over the network from the believed primary source.
                    let (src, hit) = if e.node == exec {
                        (exec, u32::from(el.believed != exec))
                    } else {
                        (el.believed, 0)
                    };
                    self.pending_touches.push((exec, el.line));
                    (*op, e.operand, e.movement + u64::from(src.manhattan(exec)), e.l1_hits + hit)
                } else {
                    (*op, e.operand, e.movement + u64::from(e.node.manhattan(exec)), e.l1_hits)
                }
            }
            PlanNode::Const { op, value } => (*op, Operand::Const(*value), 0, 0),
        }
    }

    /// Where a leaf's data actually comes from when consumed at `exec`.
    /// L1 copies are private: they only help when `exec` itself holds the
    /// line; otherwise the fetch goes over the network from the believed
    /// primary source (or is free if `exec` *is* the primary).
    fn fetch_source(&self, info: &LeafInfo, exec: NodeId) -> (NodeId, u32) {
        if info.l1_candidates.contains(&exec)
            || (self.opts.reuse_aware && self.l1_persist.holds(exec, info.elem.line))
        {
            (exec, 1)
        } else {
            (info.elem.believed, 0)
        }
    }

    /// Chooses the concrete node for a step-emitting MST vertex: candidates
    /// are tried in order of distance from `anchor`; an overloaded node is
    /// skipped in favour of the next one (paper Section 4.5), falling back
    /// to the least-loaded candidate when all would overload.
    fn choose_node(&mut self, vertex: &MstVertex, anchor: NodeId, cost: f64) -> NodeId {
        // Candidates: every mesh node, ordered by the true movement cost of
        // executing the subcomputation there — fetching the vertex's datum
        // from its nearest replica plus forwarding the result toward the
        // anchor. Data-local sites come first; the balance rule walks down
        // the list ("skips this node and moves to the next one",
        // Section 4.5), trading bounded extra links for balance.
        let mesh = self.layout.machine().mesh;
        // Ties on total cost break toward the smaller *fetch* leg: every
        // node on the data→anchor path has the same total, but near-data
        // processing wants the subcomputation at the data.
        // Under degraded mode dead nodes are excluded outright — a step may
        // never execute there. On a healthy machine the filter passes every
        // node, leaving the candidate order untouched.
        self.scored.clear();
        let mut best = u32::MAX;
        for n in mesh.nodes().filter(|&n| self.layout.is_live(n)) {
            let fetch =
                vertex.locs.iter().map(|&l| l.manhattan(n)).min().expect("vertex has locations");
            let total = fetch + n.manhattan(anchor);
            best = best.min(total);
            self.scored.push((total, fetch, n));
        }
        // Only consider detours of up to 3 extra links — beyond that the
        // movement penalty outweighs balance. `(cost, fetch, node)` is a
        // total order, so sorting only the kept subset gives the same list
        // as sorting everything.
        self.scored.retain(|&(c, _, _)| c <= best + 3);
        self.scored.sort_unstable();
        self.shortlist.clear();
        self.shortlist.extend(self.scored.iter().map(|&(_, _, n)| n));
        let chosen = self.loads.select(&self.shortlist, cost);
        self.pending_loads.push((chosen, cost));
        chosen
    }

    fn div_factor(&self) -> f64 {
        self.layout.machine().latency.div_factor
    }
}

/// Load-units of one step: its ALU cost plus an estimated service time for
/// its operand fetches (the balance rule must see fetch-dominated reality,
/// not just op counts).
fn step_load(step: &Step, div_factor: f64) -> f64 {
    let elems = step.inputs.iter().filter(|i| matches!(i.operand, Operand::Elem(_))).count() as f64;
    step.op_cost(div_factor) + 12.0 * elems + 4.0
}

/// Rough op-cost estimate of the step a vertex will emit (for the balance
/// rule, before the step is actually built).
fn cost_estimate(plan: &GroupPlan, v: usize) -> f64 {
    match &plan.nodes.get(v) {
        Some(PlanNode::Leaf { op, .. })
        | Some(PlanNode::Sub { op, .. })
        | Some(PlanNode::Const { op, .. }) => op.cost(10.0) + 16.0,
        None => 16.0, // the synthetic store vertex
    }
}

/// `const_anchor` is the site location-free operands (constants,
/// constants-only subgroups) are anchored at (see `Planner::const_anchor`):
/// a dead anchor would leak dead nodes into the schedule.
fn plan_vertex(node: &PlanNode, const_anchor: NodeId) -> MstVertex {
    match node {
        PlanNode::Leaf { info, .. } => MstVertex::multi(info.candidates.clone()),
        PlanNode::Sub { plan, .. } => {
            let mut locs: Vec<NodeId> =
                plan.vertices.iter().flat_map(|v| v.locs.iter().copied()).collect();
            locs.sort();
            locs.dedup();
            if locs.is_empty() {
                // A constants-only subgroup has no location; it can be
                // computed anywhere.
                locs.push(const_anchor);
            }
            MstVertex::multi(locs)
        }
        PlanNode::Const { .. } => MstVertex::single(const_anchor),
    }
}

/// Degree of subcomputation parallelism of one statement (Figure 14): the
/// widest antichain of its step DAG, counting *distinct nodes* per level —
/// two subcomputations on the same node serialize and are not parallel.
fn dag_width(stmt_steps: &[Step], first_id: u32) -> u32 {
    if stmt_steps.is_empty() {
        return 0;
    }
    let mut level = vec![0u32; stmt_steps.len()];
    let mut at_level: Vec<(u32, NodeId)> = Vec::with_capacity(stmt_steps.len());
    for (k, s) in stmt_steps.iter().enumerate() {
        let mut lvl = 0;
        for input in &s.inputs {
            if let Operand::Temp(t) = input.operand {
                if t.0 >= first_id {
                    lvl = lvl.max(level[(t.0 - first_id) as usize] + 1);
                }
            }
        }
        level[k] = lvl;
        at_level.push((lvl, s.node));
    }
    at_level.sort_unstable();
    at_level.dedup();
    at_level.chunk_by(|a, b| a.0 == b.0).map(|nodes| nodes.len() as u32).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{resolve_nest, HitPredictor};
    use crate::step::Schedule;
    use crate::window::{place_nest, NestPlan};
    use dmcp_ir::exec::run_sequential;
    use dmcp_ir::{Program, ProgramBuilder};
    use dmcp_mach::MachineConfig;
    use dmcp_mem::page::PagePolicy;

    /// Resolves nest 0 of `program` under the always-hit predictor and
    /// places it (the first `limit` instances) in one window spanning the
    /// whole nest, so the `variable2node` map is never reset.
    fn place(
        program: &Program,
        opts: PlanOptions,
        assignment: &[NodeId],
        limit: Option<u64>,
        force_default: bool,
    ) -> NestPlan {
        let machine = MachineConfig::knl_like();
        let layout = Layout::new(&machine, program, PagePolicy::ColorPreserving);
        let data = program.initial_data();
        let resolution =
            resolve_nest(program, 0, &layout, &data, HitPredictor::AlwaysHit, opts, assignment);
        place_nest(&resolution, &layout, opts, usize::MAX, limit, force_default)
    }

    fn plan_program(stmts: &[&str], opts: PlanOptions) -> (Program, Schedule, Vec<StmtRecord>) {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E", "X", "Y", "Z"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, 16)], stmts).unwrap();
        let program = b.build();
        // Iteration `it` runs on node `it mod 36`, row-major.
        let assignment: Vec<NodeId> = MachineConfig::knl_like().mesh.nodes().collect();
        let NestPlan { schedule, stats } = place(&program, opts, &assignment, None, false);
        (program, schedule, stats.records)
    }

    fn check_correct(program: &Program, sched: &Schedule) {
        sched.validate().unwrap();
        let mut got = program.initial_data();
        sched.execute_values(&mut got);
        let mut want = program.initial_data();
        run_sequential(program, &mut want);
        // Reordered division chains are only equal up to rounding.
        assert!(got.approx_eq(&want, 1e-12), "schedule values diverge from reference");
    }

    #[test]
    fn schedules_validate_and_compute_correct_values() {
        let (program, sched, _) = plan_program(
            &[
                "A[i] = B[i] + C[i] + D[i] + E[i]",
                "X[i] = Y[i] + C[i]",
                "Z[i] = B[i] * (C[i] + D[i]) - E[i] / 2",
            ],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }

    #[test]
    fn cold_instances_respect_the_mst_bound() {
        // On a cold machine (no residency credit anywhere, no balance
        // spill pressure yet) the realized plan equals the MST, which can
        // never exceed the default star through the assigned core.
        let opts = PlanOptions { reuse_aware: false, ..PlanOptions::default() };
        let (_, _, records) = plan_program(&["A[i] = B[i] + C[i] + D[i] + E[i]"], opts);
        let first = &records[0];
        assert!(
            first.movement_opt <= first.movement_default,
            "cold instance: opt {} > default {}",
            first.movement_opt,
            first.movement_default
        );
    }

    #[test]
    fn long_statements_split_into_multiple_steps() {
        let (_, sched, records) = plan_program(
            &["A[i] = B[i] + C[i] + D[i] + E[i] + X[i] + Y[i]"],
            PlanOptions::default(),
        );
        assert!(records.iter().any(|r| r.step_count >= 2), "no statement split");
        assert!(sched.len() >= 16);
    }

    #[test]
    fn parallelism_reported_for_independent_subgroups() {
        // Three independent parenthesised groups can run in parallel.
        let (_, _, records) = plan_program(
            &["A[i] = (B[i] + C[i]) * (D[i] + E[i]) + (X[i] - Y[i])"],
            PlanOptions::default(),
        );
        let max_par = records.iter().map(|r| r.parallelism).max().unwrap();
        assert!(max_par >= 2, "expected parallel subcomputations, got {max_par}");
    }

    #[test]
    fn parenthesised_statements_stay_correct() {
        let (program, sched, _) = plan_program(
            &["A[i] = B[i] * (C[i] + D[i] + E[i])", "X[i] = (Y[i] - Z[i]) * (B[i] + 1)"],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }

    #[test]
    fn division_and_subtraction_chains_stay_correct() {
        let (program, sched, _) = plan_program(
            &["A[i] = B[i] - C[i] - D[i] + E[i]", "X[i] = B[i] / C[i] / 2"],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }

    #[test]
    fn shifts_preserve_order() {
        let (program, sched, _) = plan_program(
            &["A[i] = B[i] << 2", "X[i] = Y[i] >> 1", "Z[i] = (B[i] + C[i]) << 1"],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }

    #[test]
    fn deep_nesting_stays_correct() {
        let (program, sched, _) = plan_program(
            &["A[i] = ((B[i] + C[i]) * (D[i] - 1) + X[i]) / (Y[i] + Z[i] + 1)"],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }

    #[test]
    fn const_only_statement_stores() {
        let (program, sched, _) = plan_program(&["A[i] = 7"], PlanOptions::default());
        let mut got = program.initial_data();
        sched.execute_values(&mut got);
        assert_eq!(got.get(dmcp_ir::ArrayId::from_index(0), 3), 7.0);
    }

    #[test]
    fn fallback_executes_on_assigned_core() {
        let mut b = ProgramBuilder::new();
        b.array("X", &[64], 8);
        b.array("Y", &[64], 8);
        b.array("Z", &[64], 8);
        b.nest(&[("i", 0, 4)], &["X[Y[i]] = Z[i] + 1"]).unwrap();
        let program = b.build();
        let core = NodeId::new(3, 2);
        let plan = place(&program, PlanOptions::default(), &[core], Some(1), false);
        let rec = &plan.stats.records[0];
        assert!(rec.fallback);
        let steps = &plan.schedule.steps;
        assert!(steps.iter().all(|s| s.node == core), "fallback steps must stay on the core");
        assert_eq!(rec.movement_opt, rec.movement_default);
    }

    #[test]
    fn force_default_mimics_baseline() {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, 4)], &["A[i] = B[i] + C[i]"]).unwrap();
        let program = b.build();
        let core = NodeId::new(4, 4);
        let plan = place(&program, PlanOptions::default(), &[core], None, true);
        assert!(plan.schedule.steps.iter().all(|s| s.node == core));
        for rec in &plan.stats.records {
            assert!(rec.fallback);
            assert_eq!(rec.movement_opt, rec.movement_default);
        }
    }

    #[test]
    fn reuse_produces_planned_l1_hits() {
        // C[i] is shared by both statements: with reuse awareness the second
        // statement should sometimes find it in an L1.
        let (_, _, records) = plan_program(
            &["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"],
            PlanOptions::default(),
        );
        let hits: u32 = records.iter().map(|r| r.planned_l1_hits).sum();
        assert!(hits > 0, "no planned L1 reuse found");
    }

    #[test]
    fn remapped_ops_counted() {
        let (_, _, records) =
            plan_program(&["A[i] = B[i] * C[i] + D[i] / E[i] + X[i]"], PlanOptions::default());
        let mut mix = OpMix::default();
        for r in &records {
            mix.merge(r.remapped);
        }
        assert!(mix.total() > 0, "nothing was re-mapped");
        assert!(mix.mul_div > 0, "expected re-mapped mul/div ops: {mix:?}");
    }

    #[test]
    fn const_only_subgroups_fold_without_panicking() {
        // Shrunken fuzz counterexamples: a constants-only subexpression
        // nested inside another group used to hit the statement-level
        // store expectation and panic. It must fold to a compile-time
        // constant instead.
        let (program, sched, _) = plan_program(
            &["A[i] = (2 + 3) & 63", "X[i] = (2 * 3) - B[i]", "Y[i] = (1 + 1) << 2"],
            PlanOptions::default(),
        );
        check_correct(&program, &sched);
    }
}
