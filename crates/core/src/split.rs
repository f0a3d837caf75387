//! Single-statement splitting and subcomputation placement
//! (paper Algorithm 1 + Section 4.3).
//!
//! For one statement instance the planner:
//!
//! 1. locates every operand (`GetNode`): home L2 bank, or the memory
//!    controller on a predicted L2 miss (both resolved once per nest by
//!    [`crate::resolve`]), or L1 copies recorded in the `variable2node`
//!    map ([`crate::l1model::L1Model`]); an operand the compiler cannot
//!    analyse has no known home and is sourced at the statement's store
//!    node;
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
use crate::mst::{loc_distance, nearest, KruskalScratch, MstEdge, RootedTree};
use crate::resolve::{NestResolution, ResolvedLeaf};
use crate::stats::{OpMix, StmtRecord};
use crate::step::{Operand, Schedule, StepInput, StmtTag, StoreTarget, SubId};
use dmcp_ir::nested::{Element, Group, OpClass, Term};
use dmcp_ir::BinOp;
use dmcp_mach::NodeId;

/// Planner knobs.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Consult the `variable2node` map for L1 reuse (Section 4.3). Turning
    /// this off gives the paper's "reuse-agnostic" ablation.
    pub reuse_aware: bool,
    /// Treat every reference as analyzable (the "ideal data analysis"
    /// scenario).
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
///
/// Planning an instance allocates nothing once the planner's buffers and
/// the schedule's have grown: the nested-set plan ([`PlanArena`]),
/// Kruskal's candidate edges and forest, one rooted tree, node assignment
/// and staged step inputs per nesting depth, and `dag_width`'s levels are
/// all kept across instances, and steps append to the schedule's flat
/// buffers.
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
    /// paper). Only its hot holders are read.
    l1_persist: L1Model,
    /// Load tracker for the balance rule.
    loads: LoadTracker,
    /// Side effects (L1 touches by dense line id, load additions) buffered
    /// during one statement's planning (applied when the statement
    /// commits).
    pending_touches: Vec<(NodeId, u32)>,
    pending_loads: Vec<(NodeId, f64)>,
    /// `choose_node`'s scored candidates, reused across calls.
    scored: Vec<(u32, u32, NodeId)>,
    /// `choose_node`'s candidate list, reused across calls.
    shortlist: Vec<NodeId>,
    /// The nested-set plan of the statement being planned.
    arena: PlanArena,
    /// Kruskal's buffers, shared by every nested set.
    kruskal: KruskalScratch,
    /// `emit_group`'s and `emit_fixed`'s buffers, one set per nesting
    /// depth.
    emit: Vec<EmitScratch>,
    /// `dag_width`'s per-step levels and `(level, node)` pairs.
    levels: Vec<u32>,
    at_level: Vec<(u32, NodeId)>,
    /// A bitset over the mesh's nodes, empty between uses: where
    /// `union_sites` gathers a processed sub-group's sites.
    sites: Vec<u64>,
}

/// What one MST vertex of a nested set stands for.
#[derive(Clone, Copy)]
enum VertexKind {
    /// Operand `leaf` of the statement instance (an index into its
    /// resolved operands).
    Leaf { op: BinOp, leaf: usize },
    /// The processed inner set `group` (an index into
    /// [`PlanArena::groups`]), treated as one multi-located component.
    Sub { op: BinOp, group: usize },
    /// A constant. Constants are vertices only inside non-reorderable
    /// (shift) groups, where operand order must be preserved.
    Const { op: BinOp, value: f64 },
    /// The outermost set's store node (paper Figure 9c): its MST root.
    Store,
}

/// An MST vertex of a nested set.
#[derive(Clone, Copy)]
struct Vertex {
    kind: VertexKind,
    /// Candidate locations, `PlanArena::locs[locs.0..locs.1]`. A leaf lists
    /// its believed primary source (plus the home bank of a predicted
    /// miss) and then its L1-copy holders, which start at `l1_from`.
    locs: (usize, usize),
    l1_from: usize,
}

/// A planned nested set.
#[derive(Clone, Copy)]
struct GroupSlot {
    class: OpClass,
    /// Its vertices in element order, `PlanArena::vertices[vertices.0..
    /// vertices.1]`; the outermost set's store vertex comes last.
    vertices: (usize, usize),
    /// Constants of a reorderable group, `PlanArena::consts[consts.0..
    /// consts.1]`: they have no location and attach to the group's root
    /// step.
    consts: (usize, usize),
    /// The MST over the vertices (indices relative to `vertices.0`),
    /// `PlanArena::edges[edges.0..edges.1]`.
    edges: (usize, usize),
}

/// One statement instance's nested-set plan as flat arenas, cleared (not
/// freed) per instance.
#[derive(Default)]
struct PlanArena {
    groups: Vec<GroupSlot>,
    vertices: Vec<Vertex>,
    locs: Vec<NodeId>,
    consts: Vec<(BinOp, f64)>,
    edges: Vec<MstEdge>,
}

impl PlanArena {
    fn clear(&mut self) {
        self.groups.clear();
        self.vertices.clear();
        self.locs.clear();
        self.consts.clear();
        self.edges.clear();
    }

    fn vertices(&self, g: &GroupSlot) -> &[Vertex] {
        &self.vertices[g.vertices.0..g.vertices.1]
    }

    fn consts(&self, g: &GroupSlot) -> &[(BinOp, f64)] {
        &self.consts[g.consts.0..g.consts.1]
    }

    fn edges(&self, g: &GroupSlot) -> &[MstEdge] {
        &self.edges[g.edges.0..g.edges.1]
    }

    fn locs(&self, v: &Vertex) -> &[NodeId] {
        &self.locs[v.locs.0..v.locs.1]
    }

    /// The L1-copy holders among a leaf's candidate locations.
    fn l1_locs(&self, v: &Vertex) -> &[NodeId] {
        &self.locs[v.l1_from..v.locs.1]
    }
}

/// The statement instance being emitted: its plan and what every one of
/// its groups shares.
struct StmtCx<'p> {
    arena: &'p PlanArena,
    leaves: &'p [ResolvedLeaf],
    /// Where the statement sources its unanalyzable operands.
    anchor: NodeId,
    store: StoreTarget,
    tag: StmtTag,
    force: Option<NodeId>,
}

/// The emission buffers of one nesting depth.
#[derive(Default)]
struct EmitScratch {
    tree: RootedTree,
    node_of: Vec<NodeId>,
    produced: Vec<Option<Emitted>>,
    /// The inputs of the step being gathered. They are staged here, not
    /// appended to the schedule, because gathering an input may emit a
    /// nested group's steps first.
    inputs: Vec<StepInput>,
}

/// Outcome of emitting a group: where its value is and what it cost.
#[derive(Clone, Copy)]
struct Emitted {
    operand: Operand,
    node: NodeId,
    movement: u64,
    l1_hits: u32,
    /// The operand (an index into the resolved operands) a pass-through
    /// group hands on as its value.
    passed: Option<usize>,
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
            l1: L1Model::new(machine.mesh, machine.l1_sets(), machine.l1_ways),
            l1_persist: L1Model::new(machine.mesh, machine.l1_sets(), machine.l1_ways),
            loads: LoadTracker::new(machine.mesh, opts.balance_threshold),
            pending_touches: Vec::new(),
            pending_loads: Vec::new(),
            scored: Vec::new(),
            shortlist: Vec::new(),
            arena: PlanArena::default(),
            kruskal: KruskalScratch::default(),
            emit: Vec::new(),
            levels: Vec::new(),
            at_level: Vec::new(),
            sites: vec![0; (machine.mesh.node_count() as usize).div_ceil(64)],
        }
    }

    /// Sizes the L1 models' line tables for every dense line id below
    /// `lines`.
    pub fn reserve_lines(&mut self, lines: u32) {
        self.l1.reserve_lines(lines);
        self.l1_persist.reserve_lines(lines);
    }

    /// Applies the buffered side effects; `line_sets` maps each dense
    /// line id to its L1 set.
    fn apply_pending(&mut self, line_sets: &[u32]) {
        for (node, line) in self.pending_touches.drain(..) {
            let set = line_sets[line as usize];
            self.l1.touch(node, line, set);
            self.l1_persist.touch(node, line, set);
        }
        for (node, cost) in self.pending_loads.drain(..) {
            self.loads.add(node, cost);
        }
    }

    /// Plans statement instance `i` of `resolution`, appending its steps
    /// to `sched`.
    ///
    /// The instance's core is the node the default (iteration-granularity)
    /// placement gives its iteration; fallback execution runs there. With
    /// `force_default = true` the whole statement executes default-style
    /// on the assigned core (this is how baseline schedules and
    /// rolled-back nests are generated). Unanalyzable operands are sourced
    /// at the store node in a split statement and at the core in a
    /// fallback or forced one ([`ResolvedLeaf::source`]).
    ///
    /// The split-vs-default decision is made per *nest* by the pipeline's
    /// split pass: it compares the nest's planned warm-phase movement
    /// against default execution and re-plans the whole nest
    /// default-style when splitting is not worth it — mixed placements
    /// destroy each other's L1 locality, so the choice is all-or-nothing
    /// per nest.
    pub fn plan_statement(
        &mut self,
        sched: &mut Schedule,
        resolution: &NestResolution,
        i: usize,
        force_default: bool,
    ) -> StmtRecord {
        let (inst, leaves, group) = resolution.instance(i);
        let tag = StmtTag {
            nest: resolution.nest() as u32,
            stmt: resolution.statement_of(i) as u32,
            instance: i as u64,
        };
        let first_step = sched.steps.len() as u32;
        let store = inst.store;
        let fallback = force_default || !inst.lhs_known;
        // When the store target is unknown the compiler cannot do better
        // than default placement on the assigned core.
        let force: Option<NodeId> = if fallback { Some(inst.core) } else { None };
        let anchor = force.unwrap_or(store.home);

        // --- Build the nested-set plan (innermost MSTs first) ----------
        // The outermost MST includes the store node as a vertex (paper
        // Figure 9c) and is rooted there.
        let mut arena = std::mem::take(&mut self.arena);
        arena.clear();
        let mut next_leaf = 0;
        let outermost =
            self.plan_group(&mut arena, group, leaves, anchor, &mut next_leaf, Some(store.home));
        debug_assert_eq!(next_leaf, leaves.len(), "every resolved operand is planned");

        // --- Emit subcomputations ---------------------------------------
        // A nesting depth never exceeds the number of sets.
        let mut emit = std::mem::take(&mut self.emit);
        if emit.len() < arena.groups.len() {
            emit.resize_with(arena.groups.len(), EmitScratch::default);
        }
        let cx = StmtCx { arena: &arena, leaves, anchor, store, tag, force };
        let emitted = self.emit_group(sched, &cx, outermost, store.home, true, &mut emit);
        self.arena = arena;
        self.emit = emit;
        // Ship the result to the store node (zero unless forced elsewhere).
        // A fallback/forced statement IS default execution; its planned
        // movement is the default estimate by definition.
        let movement_opt = if fallback {
            inst.default_movement
        } else {
            emitted.movement + u64::from(emitted.node.manhattan(store.home))
        };
        self.pending_touches.push((store.home, inst.store_line));
        self.apply_pending(resolution.line_sets());

        // --- Statistics --------------------------------------------------
        let parallelism = dag_width(sched, first_step, &mut self.levels, &mut self.at_level);
        let stmt_steps = &sched.steps[first_step as usize..];
        let mut remapped = OpMix::default();
        for s in stmt_steps {
            if s.node != inst.core {
                for i in sched.inputs_of(s) {
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
            last_step: sched.steps.len() as u32,
        }
    }

    /// `GetNode` (Algorithm 1, line 11), placement-dependent half: appends
    /// a resolved operand's candidate sites to `locs` — its source under
    /// `anchor` ([`ResolvedLeaf::source`], plus the home bank of a
    /// predicted miss), then the L1-copy holders that are not among those
    /// — and returns where the holders start.
    ///
    /// The holders come in node order. Their order must stay unobservable:
    /// every reader of a vertex's sites (`loc_distance`, `nearest`,
    /// `cheapest_site`, `first_balanced_site`, `emit_fixed`,
    /// `fetch_source` and a sub-group's union) depends on the set
    /// alone, breaking ties by node, not by position.
    fn locate_leaf(&self, leaf: &ResolvedLeaf, anchor: NodeId, locs: &mut Vec<NodeId>) -> usize {
        let source = leaf.source(anchor);
        locs.push(source);
        locs.extend(leaf.miss_home);
        let l1_from = locs.len();
        if self.opts.reuse_aware && leaf.analyzable {
            // Window-scoped reuse knowledge (the paper's variable2node map)
            // plus the persistent residency estimator: short-reuse-distance
            // lines (loop-invariant operands) stay cached at their past
            // consumers across windows, like register-promoted scalars.
            let holders = self.l1.holders_or_hot(&self.l1_persist, leaf.line, 4);
            locs.extend(holders.filter(|&h| h != source && Some(h) != leaf.miss_home));
        }
        l1_from
    }

    /// Appends the union of `vertices`' sites to `locs`, each node once,
    /// in [`dmcp_mach::Mesh::node_index`] order: the sites are OR-ed into
    /// the planner's mesh bitset, which the walk leaves empty again.
    fn union_sites(&mut self, vertices: &[Vertex], locs: &mut Vec<NodeId>) {
        let mesh = self.layout.machine().mesh;
        for v in vertices {
            for &n in &locs[v.locs.0..v.locs.1] {
                let i = mesh.node_index(n) as usize;
                self.sites[i / 64] |= 1 << (i % 64);
            }
        }
        for (w, word) in self.sites.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                locs.push(mesh.bank_node(64 * w as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
    }

    /// Recursively plans a group into `arena`: locates leaves (sourcing
    /// unanalyzable ones at `anchor`), recurses into sub-groups (innermost
    /// sets are therefore processed first) and builds this level's MST, in
    /// the outermost set (`store` given) over the store vertex too. Returns
    /// the group's index in `arena.groups`.
    fn plan_group(
        &mut self,
        arena: &mut PlanArena,
        group: &Group,
        leaves: &[ResolvedLeaf],
        anchor: NodeId,
        next_leaf: &mut usize,
        store: Option<NodeId>,
    ) -> usize {
        let ordered = matches!(group.class, OpClass::Fixed(_));
        let consts_first = arena.consts.len();
        if !ordered {
            for Element { term, inverted } in &group.elems {
                if let Term::Const(v) = term {
                    arena.consts.push((group.class.op_for(*inverted), *v));
                }
            }
        }
        // This level's vertex slots are reserved before the sub-groups
        // append theirs, so they stay contiguous.
        let count =
            group.elems.iter().filter(|e| ordered || !matches!(e.term, Term::Const(_))).count()
                + usize::from(store.is_some());
        let first = arena.vertices.len();
        arena
            .vertices
            .resize(first + count, Vertex { kind: VertexKind::Store, locs: (0, 0), l1_from: 0 });
        let gi = arena.groups.len();
        arena.groups.push(GroupSlot {
            class: group.class,
            vertices: (first, first + count),
            consts: (consts_first, arena.consts.len()),
            edges: (0, 0),
        });

        let mut slot = first;
        for Element { term, inverted } in &group.elems {
            let op = group.class.op_for(*inverted);
            let vertex = match term {
                Term::Const(_) if !ordered => continue,
                Term::Const(value) => {
                    let at = arena.locs.len();
                    arena.locs.push(self.const_anchor);
                    Vertex {
                        kind: VertexKind::Const { op, value: *value },
                        locs: (at, at + 1),
                        l1_from: at + 1,
                    }
                }
                Term::Leaf(_) => {
                    let leaf = *next_leaf;
                    *next_leaf += 1;
                    let at = arena.locs.len();
                    let l1_from = self.locate_leaf(&leaves[leaf], anchor, &mut arena.locs);
                    Vertex {
                        kind: VertexKind::Leaf { op, leaf },
                        locs: (at, arena.locs.len()),
                        l1_from,
                    }
                }
                Term::Group(g) => {
                    let sub = self.plan_group(arena, g, leaves, anchor, next_leaf, None);
                    // A processed set is located wherever any of its
                    // vertices is.
                    let at = arena.locs.len();
                    let (from, to) = arena.groups[sub].vertices;
                    let PlanArena { vertices, locs, .. } = arena;
                    self.union_sites(&vertices[from..to], locs);
                    if arena.locs.len() == at {
                        // A constants-only subgroup has no location; it can
                        // be computed anywhere.
                        arena.locs.push(self.const_anchor);
                    }
                    let end = arena.locs.len();
                    Vertex {
                        kind: VertexKind::Sub { op, group: sub },
                        locs: (at, end),
                        l1_from: end,
                    }
                }
            };
            arena.vertices[slot] = vertex;
            slot += 1;
        }
        if let Some(home) = store {
            let at = arena.locs.len();
            arena.locs.push(home);
            arena.vertices[slot] =
                Vertex { kind: VertexKind::Store, locs: (at, at + 1), l1_from: at + 1 };
        }

        let edges_first = arena.edges.len();
        let PlanArena { vertices, locs, edges, .. } = arena;
        let vs = &vertices[first..first + count];
        self.kruskal.run(
            count,
            |a, b| {
                loc_distance(&locs[vs[a].locs.0..vs[a].locs.1], &locs[vs[b].locs.0..vs[b].locs.1])
            },
            edges,
        );
        arena.groups[gi].edges = (edges_first, arena.edges.len());
        gi
    }

    /// Emits the steps of planned group `gi`, directing its result towards
    /// `target`. In the `outermost` group the store vertex is the tree root
    /// and the final step writes the result. `emit` holds the emission
    /// buffers from the group's nesting depth down: `emit[0]` is its own.
    fn emit_group(
        &mut self,
        sched: &mut Schedule,
        cx: &StmtCx<'_>,
        gi: usize,
        target: NodeId,
        outermost: bool,
        emit: &mut [EmitScratch],
    ) -> Emitted {
        let arena = cx.arena;
        let g = arena.groups[gi];
        let vertices = arena.vertices(&g);
        // Pass-through: a single non-inverted element with no constants
        // needs no step of its own (its consumer folds it directly).
        if !outermost && arena.consts(&g).is_empty() && vertices.len() == 1 {
            let base_op = g.class.op_for(false);
            match vertices[0].kind {
                VertexKind::Leaf { op, leaf } if op == base_op => {
                    let (node, _) = nearest(arena.locs(&vertices[0]), target);
                    return Emitted {
                        operand: Operand::Elem(cx.leaves[leaf].elem),
                        node,
                        movement: 0,
                        l1_hits: 0,
                        passed: Some(leaf),
                    };
                }
                VertexKind::Sub { op, group } if op == base_op => {
                    return self.emit_group(sched, cx, group, target, false, &mut emit[1..]);
                }
                _ => {}
            }
        }

        if let OpClass::Fixed(_) = g.class {
            return self.emit_fixed(sched, cx, &g, target, outermost, emit);
        }

        let n = vertices.len();
        if n == 0 {
            // Constants only (the outermost set always has its store
            // vertex, so this is a nested subgroup, e.g. the `(2 + 3)` in
            // `A[i] = (2 + 3) & 63`): the group folds to a compile-time
            // value: no step, no movement — the consumer folds the
            // constant directly.
            let mut value = g.class.identity();
            for &(op, v) in arena.consts(&g) {
                value = op.apply(value, v);
            }
            return Emitted {
                operand: Operand::Const(value),
                node: target,
                movement: 0,
                l1_hits: 0,
                passed: None,
            };
        }

        // Root selection: the store vertex if present, else the vertex
        // nearest to the requested target.
        let root = if outermost {
            n - 1 // the appended store vertex
        } else {
            (0..n)
                .min_by_key(|&i| {
                    let (node, d) = nearest(arena.locs(&vertices[i]), target);
                    (d, node, i)
                })
                .expect("non-empty vertex set")
        };
        let (s, deeper) = emit.split_first_mut().expect("one emission scratch per nesting depth");
        s.tree.rebuild(n, arena.edges(&g), root);

        // Top-down concrete node assignment. Steps are emitted by internal
        // vertices and by the root; only those are forced/balanced.
        s.node_of.clear();
        s.node_of.resize(n, NodeId::default());
        for &v in s.tree.postorder().iter().rev() {
            let anchor = match s.tree.parent(v) {
                None => target,
                Some(p) => s.node_of[p],
            };
            let emits_step = !s.tree.is_leaf(v) || v == root;
            let locs = arena.locs(&vertices[v]);
            s.node_of[v] = match cx.force {
                Some(f) if emits_step => f,
                _ if emits_step => self.choose_node(locs, anchor, cost_estimate(vertices[v].kind)),
                _ => nearest(locs, anchor).0,
            };
        }
        if outermost && cx.force.is_none() {
            // The final subcomputation always runs at the store node: the
            // result is never migrated (Section 4.5).
            s.node_of[root] = cx.store.home;
        }

        // Bottom-up emission: one step per internal vertex (plus the root).
        s.produced.clear();
        s.produced.resize(n, None);
        let mut total_movement = 0u64;
        let mut total_l1 = 0u32;
        for &v in s.tree.postorder() {
            let is_root = v == root;
            let is_store_root = is_root && outermost;
            if s.tree.is_leaf(v) && !is_root {
                continue; // folded into the parent's step
            }

            let exec = s.node_of[v];
            let children = s.tree.children(v);
            let consts = if is_root { arena.consts(&g) } else { &[] };
            s.inputs.clear();
            // Own element (absent for the synthetic store vertex).
            if !is_store_root {
                let (op, operand, fetch, l1h) =
                    self.vertex_operand(sched, cx, &vertices[v], exec, deeper);
                total_movement += fetch;
                total_l1 += l1h;
                s.inputs.push(StepInput { op, operand });
            }
            // Children contributions.
            for &c in children {
                match s.produced[c].take() {
                    Some(e) => {
                        // A sub-result produced by an earlier step travels
                        // from its node to here. Its own inversion (if any)
                        // already happened inside that step, so the class's
                        // base operator folds it in.
                        total_movement += u64::from(e.node.manhattan(exec));
                        s.inputs.push(StepInput { op: g.class.op_for(false), operand: e.operand });
                    }
                    None => {
                        // A tree-leaf child: fetch its element or emit its
                        // sub-group directed at us.
                        let (op, operand, fetch, l1h) =
                            self.vertex_operand(sched, cx, &vertices[c], exec, deeper);
                        total_movement += fetch;
                        total_l1 += l1h;
                        s.inputs.push(StepInput { op, operand });
                    }
                }
            }
            // Constants attach to the root step of their group.
            s.inputs
                .extend(consts.iter().map(|&(op, c)| StepInput { op, operand: Operand::Const(c) }));
            let store = is_store_root.then_some(cx.store);
            let id = self.push_step(sched, exec, Some(g.class.identity()), &s.inputs, store, cx);
            s.produced[v] = Some(Emitted {
                operand: Operand::Temp(id),
                node: exec,
                movement: 0,
                l1_hits: 0,
                passed: None,
            });
        }

        let root_emit = s.produced[root].take().expect("root emitted a step");
        Emitted {
            operand: root_emit.operand,
            node: root_emit.node,
            movement: total_movement,
            l1_hits: total_l1,
            passed: None,
        }
    }

    /// Emits a non-reorderable (shift) group as a single ordered step.
    fn emit_fixed(
        &mut self,
        sched: &mut Schedule,
        cx: &StmtCx<'_>,
        g: &GroupSlot,
        target: NodeId,
        outermost: bool,
        emit: &mut [EmitScratch],
    ) -> Emitted {
        let arena = cx.arena;
        let vertices = arena.vertices(g);
        // The outermost set's store vertex is no operand.
        let operands = &vertices[..vertices.len() - usize::from(outermost)];
        debug_assert_eq!(operands.len(), 2, "fixed groups have exactly two elements");
        let exec = match (cx.force, outermost) {
            (Some(f), _) => f,
            (None, true) => cx.store.home,
            (None, false) => {
                // Cheapest located node among the operands w.r.t. the target.
                operands
                    .iter()
                    .filter(|v| !matches!(v.kind, VertexKind::Const { .. }))
                    .flat_map(|v| arena.locs(v).iter().copied())
                    .min_by_key(|&c| (c.manhattan(target), c))
                    .unwrap_or(target)
            }
        };
        let mut movement = 0u64;
        let mut l1_hits = 0u32;
        let (s, deeper) = emit.split_first_mut().expect("one emission scratch per nesting depth");
        let inputs = &mut s.inputs;
        inputs.clear();
        for v in operands {
            let (op, operand, fetch, l1h) = self.vertex_operand(sched, cx, v, exec, deeper);
            movement += fetch;
            l1_hits += l1h;
            // The first operand seeds the accumulator (seed: None), its op
            // is ignored; the second applies the fixed operator.
            let applied = if inputs.is_empty() { BinOp::Add } else { op };
            inputs.push(StepInput { op: applied, operand });
        }
        let store = outermost.then_some(cx.store);
        let id = self.push_step(sched, exec, None, inputs, store, cx);
        Emitted { operand: Operand::Temp(id), node: exec, movement, l1_hits, passed: None }
    }

    /// Appends a step of the statement `cx` on `exec` folding `inputs`
    /// (staged by the caller) and buffers its load.
    fn push_step(
        &mut self,
        sched: &mut Schedule,
        exec: NodeId,
        seed: Option<f64>,
        inputs: &[StepInput],
        store: Option<StoreTarget>,
        cx: &StmtCx<'_>,
    ) -> SubId {
        self.pending_loads.push((exec, step_load(inputs, self.div_factor())));
        sched.inputs.extend_from_slice(inputs);
        sched.push_step(exec, seed, store, cx.tag)
    }

    /// The operand contributed by `vertex` to a step executing at `exec`:
    /// `(fold op, operand, movement, planned L1 hits)`. `deeper` holds the
    /// emission buffers of the nesting depths below the vertex's group.
    fn vertex_operand(
        &mut self,
        sched: &mut Schedule,
        cx: &StmtCx<'_>,
        vertex: &Vertex,
        exec: NodeId,
        deeper: &mut [EmitScratch],
    ) -> (BinOp, Operand, u64, u32) {
        match vertex.kind {
            VertexKind::Leaf { op, leaf } => {
                let leaf = &cx.leaves[leaf];
                let source = leaf.source(cx.anchor);
                let (src, l1h) = self.fetch_source(cx.arena.l1_locs(vertex), leaf, source, exec);
                self.pending_touches.push((exec, leaf.line));
                (op, Operand::Elem(leaf.elem), u64::from(src.manhattan(exec)), l1h)
            }
            VertexKind::Sub { op, group } => {
                let e = self.emit_group(sched, cx, group, exec, false, deeper);
                if let Some(leaf) = e.passed {
                    // Pass-through element: `e.node` is its replica nearest
                    // to us. A local replica (our own L1 copy, or we are the
                    // home/primary) costs nothing; otherwise the fetch comes
                    // over the network from the operand's source.
                    let leaf = &cx.leaves[leaf];
                    let source = leaf.source(cx.anchor);
                    let (src, hit) = if e.node == exec {
                        (exec, u32::from(source != exec))
                    } else {
                        (source, 0)
                    };
                    self.pending_touches.push((exec, leaf.line));
                    (op, e.operand, e.movement + u64::from(src.manhattan(exec)), e.l1_hits + hit)
                } else {
                    (op, e.operand, e.movement + u64::from(e.node.manhattan(exec)), e.l1_hits)
                }
            }
            VertexKind::Const { op, value } => (op, Operand::Const(value), 0, 0),
            VertexKind::Store => unreachable!("the store vertex is the root and brings no operand"),
        }
    }

    /// Where a leaf's data actually comes from when consumed at `exec`.
    /// L1 copies (`l1_candidates`) are private: they only help when `exec`
    /// itself holds the line; otherwise the fetch goes over the network
    /// from the leaf's `source` (or is free if `exec` *is* the source).
    fn fetch_source(
        &self,
        l1_candidates: &[NodeId],
        leaf: &ResolvedLeaf,
        source: NodeId,
        exec: NodeId,
    ) -> (NodeId, u32) {
        if l1_candidates.contains(&exec)
            || (self.opts.reuse_aware && self.l1_persist.holds(exec, leaf.line))
        {
            (exec, 1)
        } else {
            (source, 0)
        }
    }

    /// Chooses the concrete node for a step-emitting MST vertex located at
    /// `locs`: candidates are tried in order of distance from `anchor`; an
    /// overloaded node is skipped in favour of the next one (paper Section
    /// 4.5), falling back to the least-loaded candidate when all would
    /// overload.
    ///
    /// Candidates: every live mesh node, ordered by `(cost, fetch, node)`:
    /// the true movement cost of executing the subcomputation there —
    /// fetching the vertex's datum from its nearest replica plus
    /// forwarding the result toward the anchor — with ties broken toward
    /// the smaller *fetch* leg (every node on the data→anchor path has the
    /// same total, but near-data processing wants the subcomputation at
    /// the data). Data-local sites come first; the balance rule walks down
    /// the list ("skips this node and moves to the next one", Section
    /// 4.5), trading bounded extra links for balance.
    fn choose_node(&mut self, locs: &[NodeId], anchor: NodeId, cost: f64) -> NodeId {
        let chosen = match self.cheapest_site(locs, anchor) {
            Some(n) if !self.loads.would_overload(n, cost) => n,
            _ => self.first_balanced_site(locs, anchor, cost),
        };
        self.pending_loads.push((chosen, cost));
        chosen
    }

    /// The head of `choose_node`'s candidate list, found without scoring
    /// the mesh: no node costs less than the locations' own distance to
    /// the anchor (its fetch leg plus its forward leg cover at least that,
    /// by the triangle inequality), and a location reaches it with a zero
    /// fetch leg. So the head is the smallest live location at the least
    /// distance — `None` only when those locations are all dead.
    fn cheapest_site(&self, locs: &[NodeId], anchor: NodeId) -> Option<NodeId> {
        let least = locs.iter().map(|l| l.manhattan(anchor)).min()?;
        locs.iter()
            .copied()
            .filter(|&l| l.manhattan(anchor) == least && self.layout.is_live(l))
            .min()
    }

    /// `choose_node`'s full walk: scores every live node (dead nodes are
    /// excluded outright — a step may never execute there), keeps detours
    /// of up to 3 extra links and lets the balance rule pick.
    fn first_balanced_site(&mut self, locs: &[NodeId], anchor: NodeId, cost: f64) -> NodeId {
        let mesh = self.layout.machine().mesh;
        self.scored.clear();
        for n in mesh.nodes().filter(|&n| self.layout.is_live(n)) {
            let fetch = locs.iter().map(|&l| l.manhattan(n)).min().expect("vertex has locations");
            self.scored.push((fetch + n.manhattan(anchor), fetch, n));
        }
        // Beyond 3 extra links the movement penalty outweighs balance.
        // `(cost, fetch, node)` is a total order, so sorting only the kept
        // subset gives the same list as sorting everything.
        let best = self.scored.iter().map(|&(c, _, _)| c).min().unwrap_or(0);
        self.scored.retain(|&(c, _, _)| c <= best + 3);
        self.scored.sort_unstable();
        self.shortlist.clear();
        self.shortlist.extend(self.scored.iter().map(|&(_, _, n)| n));
        self.loads.select(&self.shortlist, cost)
    }

    fn div_factor(&self) -> f64 {
        self.layout.machine().latency.div_factor
    }
}

/// An upper bound on the `(steps, inputs)` that
/// [`Planner::plan_statement`] emits for one instance of a statement whose
/// right-hand side has the nested sets `group` (`outermost` adds the store
/// vertex). A set of `n ≥ 1` MST vertices emits at most `max(1, n − 1)`
/// steps — one per vertex with children, or the lone root — which fold
/// one input per non-root vertex, one own element each and the set's
/// constants; a fixed set's single step is within that too.
pub(crate) fn emission_bound(group: &Group, outermost: bool) -> (usize, usize) {
    let ordered = matches!(group.class, OpClass::Fixed(_));
    let (mut vertices, mut steps, mut inputs) = (usize::from(outermost), 0, 0);
    for Element { term, .. } in &group.elems {
        match term {
            Term::Const(_) if !ordered => inputs += 1,
            Term::Group(sub) => {
                let (s, i) = emission_bound(sub, false);
                (steps, inputs, vertices) = (steps + s, inputs + i, vertices + 1);
            }
            _ => vertices += 1,
        }
    }
    if vertices > 0 {
        let own = (vertices - 1).max(1);
        (steps, inputs) = (steps + own, inputs + vertices - 1 + own);
    }
    (steps, inputs)
}

/// Load-units of a step folding `inputs`: its ALU cost plus an estimated
/// service time for its operand fetches (the balance rule must see
/// fetch-dominated reality, not just op counts).
fn step_load(inputs: &[StepInput], div_factor: f64) -> f64 {
    let elems = inputs.iter().filter(|i| matches!(i.operand, Operand::Elem(_))).count() as f64;
    inputs.iter().map(|i| i.op.cost(div_factor)).sum::<f64>() + 12.0 * elems + 4.0
}

/// Rough op-cost estimate of the step a vertex will emit (for the balance
/// rule, before the step is actually built).
fn cost_estimate(kind: VertexKind) -> f64 {
    match kind {
        VertexKind::Leaf { op, .. } | VertexKind::Sub { op, .. } | VertexKind::Const { op, .. } => {
            op.cost(10.0) + 16.0
        }
        VertexKind::Store => 16.0,
    }
}

/// Degree of subcomputation parallelism of one statement, the steps of
/// `sched` from `first_id` on (Figure 14): the widest antichain of its
/// step DAG, counting *distinct nodes* per level — two subcomputations on
/// the same node serialize and are not parallel. `level` and `at_level`
/// are reused buffers.
fn dag_width(
    sched: &Schedule,
    first_id: u32,
    level: &mut Vec<u32>,
    at_level: &mut Vec<(u32, NodeId)>,
) -> u32 {
    let stmt_steps = &sched.steps[first_id as usize..];
    if stmt_steps.is_empty() {
        return 0;
    }
    level.clear();
    level.resize(stmt_steps.len(), 0);
    at_level.clear();
    for (k, s) in stmt_steps.iter().enumerate() {
        let mut lvl = 0;
        for input in sched.inputs_of(s) {
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
    /// places it in one window spanning the whole nest, so the
    /// `variable2node` map is never reset.
    fn place(
        program: &Program,
        opts: PlanOptions,
        assignment: &[NodeId],
        force_default: bool,
    ) -> NestPlan {
        let machine = MachineConfig::knl_like();
        let layout = Layout::new(&machine, program, PagePolicy::ColorPreserving);
        let data = program.initial_data();
        let resolution =
            resolve_nest(program, 0, &layout, &data, HitPredictor::AlwaysHit, opts, assignment);
        place_nest(&resolution, &layout, opts, usize::MAX, force_default)
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
        let NestPlan { schedule, stats } = place(&program, opts, &assignment, false);
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
        let plan = place(&program, PlanOptions::default(), &[core], false);
        let rec = &plan.stats.records[0];
        assert!(rec.fallback);
        let steps = &plan.schedule.steps;
        assert!(steps.iter().all(|s| s.node == core), "fallback steps must stay on the core");
        assert_eq!(rec.movement_opt, rec.movement_default);
    }

    /// Plans instance 0 of `stmt` (on a one-node assignment, (5, 5)) and
    /// returns where its unanalyzable operand is sourced — its leaf
    /// vertex's first candidate location — with the instance's store home,
    /// core, the operand's resolved `believed` and the planned movement.
    fn unanalyzable_source(stmt: &str, force_default: bool) -> [NodeId; 4] {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "X"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, 4)], &[stmt]).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like();
        let layout = Layout::new(&machine, &program, PagePolicy::ColorPreserving);
        let data = program.initial_data();
        let opts = PlanOptions::default();
        let core = [NodeId::new(5, 5)];
        let resolution =
            resolve_nest(&program, 0, &layout, &data, HitPredictor::AlwaysHit, opts, &core);
        let mut planner = Planner::new(&layout, opts);
        let mut sched = Schedule::default();
        planner.plan_statement(&mut sched, &resolution, 0, force_default);
        let (inst, leaves, _) = resolution.instance(0);
        let leaf = leaves.iter().position(|l| !l.analyzable).expect("B[X[i]] is indirect");
        let arena = &planner.arena;
        let vertex = arena
            .vertices
            .iter()
            .find(|v| matches!(v.kind, VertexKind::Leaf { leaf: l, .. } if l == leaf))
            .expect("the operand is a vertex");
        [arena.locs(vertex)[0], inst.store.home, inst.core, leaves[leaf].elem.believed]
    }

    #[test]
    fn unanalyzable_operands_anchor_at_the_store_home_only_in_split_statements() {
        // Split: sourced at the store home, where the final step runs, so
        // the operand costs no planned movement; the resolution's belief
        // (what default execution and the simulator's predictor read)
        // stays the core.
        let [source, home, core, believed] = unanalyzable_source("A[i] = B[X[i]] + 1", false);
        assert_ne!(home, core, "the test needs a core away from the store home");
        assert_eq!((source, believed), (home, core));
        // Forced default (baselines, rolled-back nests): the core.
        let [source, _, core, _] = unanalyzable_source("A[i] = B[X[i]] + 1", true);
        assert_eq!(source, core);
        // Fallback (the store target is unanalyzable): the core.
        let [source, _, core, _] = unanalyzable_source("A[X[i]] = B[X[i]] + 1", false);
        assert_eq!(source, core);
    }

    #[test]
    fn a_split_statement_fetches_its_unanalyzable_operand_from_the_store_home() {
        // `A[i] = B[X[i]]`: one leaf and the store vertex, so the split
        // plan computes at the store home and plans no movement at all;
        // default execution ships the result from the core.
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "X"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, 4)], &["A[i] = B[X[i]] * 3"]).unwrap();
        let program = b.build();
        let plan = place(&program, PlanOptions::default(), &[NodeId::new(5, 5)], false);
        for rec in &plan.stats.records {
            assert!(!rec.fallback);
            assert_eq!(rec.movement_opt, 0, "{rec:?}");
        }
        check_correct(&program, &plan.schedule);
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
        let plan = place(&program, PlanOptions::default(), &[core], true);
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
