//! Property-style tests over the core data structures and invariants.
//!
//! The repo builds fully offline, so instead of a property-testing crate
//! these run each property over a few hundred seeded-random cases from the
//! in-tree [`Rng64`] — deterministic, reproducible, and with the failing
//! seed printed in the assertion message.

use dmcp::check::gencase::{gen_mask_case, BuiltCase};
use dmcp::core::l1model::L1Model;
use dmcp::core::mst::{kruskal, vertex_distance, KruskalScratch, MstEdge, MstVertex, RootedTree};
use dmcp::core::sync::{reaches, transitive_reduce};
use dmcp::core::unionfind::UnionFind;
use dmcp::core::{
    nest_assignment, passes, place_nest, resolve_nest, sync_nest, ElemInfo, Layout, NestPlan,
    NestResolution, PartitionConfig, Partitioner, PlanCtx,
};
use dmcp::ir::nested::Group;
use dmcp::ir::{ArrayId, BinOp, Expr, Program};
use dmcp::mach::rng::Rng64;
use dmcp::mach::{
    route_avoiding, routing, ClusterMode, FaultPlan, FaultState, LatencyModel, Link, MachineConfig,
    Mesh, NodeId, RouteError, RoutePath,
};
use dmcp::mem::page::PagePolicy;
use dmcp::mem::{AddressMap, Cache, LineAddr, MissPredictor, PageTable, PhysAddr, Snuca, VirtAddr};
use dmcp::pool::Pool;
use dmcp::sim::Network;
use dmcp::workloads::{all, Scale};
use std::collections::{HashMap, VecDeque};

fn random_node(rng: &mut Rng64) -> NodeId {
    NodeId::new(rng.gen_range(8) as u16, rng.gen_range(8) as u16)
}

fn random_nodes(rng: &mut Rng64, min: u64, max: u64) -> Vec<NodeId> {
    let n = min + rng.gen_range(max - min);
    (0..n).map(|_| random_node(rng)).collect()
}

/// Reference MST via Prim's algorithm.
fn prim_weight(vertices: &[MstVertex]) -> u32 {
    let n = vertices.len();
    if n < 2 {
        return 0;
    }
    let mut in_tree = vec![false; n];
    in_tree[0] = true;
    let mut total = 0;
    for _ in 1..n {
        let mut best = (u32::MAX, 0);
        for a in 0..n {
            if !in_tree[a] {
                continue;
            }
            for b in 0..n {
                if in_tree[b] {
                    continue;
                }
                let (d, _, _) = vertex_distance(&vertices[a], &vertices[b]);
                if d < best.0 {
                    best = (d, b);
                }
            }
        }
        in_tree[best.1] = true;
        total += best.0;
    }
    total
}

/// Kruskal and Prim agree on the MST weight for any vertex set.
#[test]
fn kruskal_matches_prim() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let nodes = random_nodes(&mut rng, 2, 10);
        let vs: Vec<MstVertex> = nodes.into_iter().map(MstVertex::single).collect();
        let k: u32 = kruskal(&vs).iter().map(|e| e.weight).sum();
        assert_eq!(k, prim_weight(&vs), "seed {seed}");
    }
}

/// The MST never costs more than the default star (fetch everything to the
/// first vertex) — the paper's core claim in Section 3.2.
#[test]
fn mst_never_beats_star() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let nodes = random_nodes(&mut rng, 2, 10);
        let star: u32 = nodes[1..].iter().map(|n| n.manhattan(nodes[0])).sum();
        let vs: Vec<MstVertex> = nodes.into_iter().map(MstVertex::single).collect();
        let mst: u32 = kruskal(&vs).iter().map(|e| e.weight).sum();
        assert!(mst <= star, "seed {seed}: mst {mst} > star {star}");
    }
}

/// Adding replica locations to a vertex can only shrink the MST.
#[test]
fn replicas_never_hurt() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let nodes = random_nodes(&mut rng, 3, 8);
        let extra = random_node(&mut rng);
        let vs: Vec<MstVertex> = nodes.iter().copied().map(MstVertex::single).collect();
        let before: u32 = kruskal(&vs).iter().map(|e| e.weight).sum();
        let mut with = vs.clone();
        with[0] = MstVertex::multi(vec![nodes[0], extra]);
        let after: u32 = kruskal(&with).iter().map(|e| e.weight).sum();
        assert!(after <= before, "seed {seed}: {after} > {before}");
    }
}

/// Kruskal as it was before its buffers were kept across runs: the
/// reference [`KruskalScratch`] must reproduce edge for edge.
fn reference_kruskal(vertices: &[MstVertex]) -> Vec<MstEdge> {
    let n = vertices.len();
    if n < 2 {
        return Vec::new();
    }
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            let (w, _, _) = vertex_distance(&vertices[a], &vertices[b]);
            edges.push(MstEdge { a, b, weight: w });
        }
    }
    edges.sort_by_key(|e| (e.weight, e.a, e.b));
    let mut uf = UnionFind::new(n);
    let mut mst = Vec::with_capacity(n - 1);
    for e in edges {
        if uf.union(e.a, e.b) {
            mst.push(e);
            if mst.len() == n - 1 {
                break;
            }
        }
    }
    mst
}

/// `(parent, children, postorder)` of the MST `edges` rooted at `root`, as
/// `RootedTree::build` computed them before it rebuilt in place.
type ReferenceTree = (Vec<Option<usize>>, Vec<Vec<usize>>, Vec<usize>);

fn reference_tree(n: usize, edges: &[MstEdge], root: usize) -> ReferenceTree {
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        adj[e.a].push(e.b);
        adj[e.b].push(e.a);
    }
    let mut parent = vec![None; n];
    let mut children = vec![Vec::new(); n];
    let mut postorder = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut stack = vec![(root, false)];
    while let Some((v, processed)) = stack.pop() {
        if processed {
            postorder.push(v);
            continue;
        }
        if visited[v] {
            continue;
        }
        visited[v] = true;
        stack.push((v, true));
        for &u in &adj[v] {
            if !visited[u] {
                parent[u] = Some(v);
                children[v].push(u);
                stack.push((u, false));
            }
        }
    }
    (parent, children, postorder)
}

/// 0–16 vertices of 1–4 candidate locations each, drawn from the 8×8
/// corner of the mesh or, every other set, from its 3×3 corner, where
/// most edges weigh 0–4 links and ties are the rule.
fn random_vertex_set(rng: &mut Rng64) -> Vec<MstVertex> {
    let span = if rng.gen_bool(0.5) { 3 } else { 8 };
    (0..rng.gen_range(17))
        .map(|_| {
            let locs = 1 + rng.gen_range(4);
            MstVertex::multi(
                (0..locs)
                    .map(|_| NodeId::new(rng.gen_range(span) as u16, rng.gen_range(span) as u16))
                    .collect(),
            )
        })
        .collect()
}

/// One Kruskal scratch and one rooted tree, reused across vertex sets of
/// every size, give the allocating references' edges (same order) and
/// trees — with packed edge keys, equal weights broken by `(a, b)` as the
/// reference sorts them, and one- and two-vertex trees rooted without the
/// walk.
#[test]
fn reused_kruskal_and_tree_match_the_allocating_references() {
    let mut scratch = KruskalScratch::default();
    let mut mst = Vec::new();
    let mut tree = RootedTree::default();
    for seed in 0..800 {
        let mut rng = Rng64::new(seed);
        let vs = random_vertex_set(&mut rng);
        let want = reference_kruskal(&vs);
        mst.clear();
        scratch.run(vs.len(), |a, b| vertex_distance(&vs[a], &vs[b]).0, &mut mst);
        assert_eq!(mst, want, "seed {seed}: reused scratch");
        assert_eq!(kruskal(&vs), want, "seed {seed}: kruskal");
        if vs.is_empty() {
            continue;
        }
        let root = rng.gen_range(vs.len() as u64) as usize;
        tree.rebuild(vs.len(), &mst, root);
        let (parent, children, postorder) = reference_tree(vs.len(), &want, root);
        for v in 0..vs.len() {
            assert_eq!(tree.parent(v), parent[v], "seed {seed}: parent of {v}");
            assert_eq!(tree.children(v), children[v], "seed {seed}: children of {v}");
        }
        assert_eq!(tree.postorder(), postorder, "seed {seed}: postorder");
    }
}

/// The `variable2node` map as it was kept before dense line ids: per-node
/// LRU lists, and hash maps from each line to its holders (in touch
/// order) and its touch count.
struct ReferenceL1 {
    mesh: Mesh,
    capacity: usize,
    node_lru: Vec<Vec<u32>>,
    holders: HashMap<u32, Vec<NodeId>>,
    touches: HashMap<u32, u32>,
}

impl ReferenceL1 {
    fn new(mesh: Mesh, capacity: u32) -> Self {
        Self {
            mesh,
            capacity: capacity.max(1) as usize,
            node_lru: vec![Vec::new(); mesh.node_count() as usize],
            holders: HashMap::new(),
            touches: HashMap::new(),
        }
    }

    fn touch(&mut self, node: NodeId, line: u32) {
        *self.touches.entry(line).or_insert(0) += 1;
        let lru = &mut self.node_lru[self.mesh.node_index(node) as usize];
        if let Some(pos) = lru.iter().position(|&l| l == line) {
            lru.remove(pos);
            lru.push(line);
            return;
        }
        if lru.len() >= self.capacity {
            let victim = lru.remove(0);
            if let Some(hs) = self.holders.get_mut(&victim) {
                hs.retain(|&n| n != node);
                if hs.is_empty() {
                    self.holders.remove(&victim);
                }
            }
        }
        lru.push(line);
        self.holders.entry(line).or_default().push(node);
    }

    fn holders(&self, line: u32) -> &[NodeId] {
        self.holders.get(&line).map_or(&[], Vec::as_slice)
    }

    fn hot_holders(&self, line: u32, min_touches: u32) -> &[NodeId] {
        if self.touches.get(&line).copied().unwrap_or(0) >= min_touches {
            self.holders(line)
        } else {
            &[]
        }
    }

    fn reset(&mut self) {
        for lru in &mut self.node_lru {
            lru.clear();
        }
        self.holders.clear();
    }
}

fn sorted(nodes: impl IntoIterator<Item = NodeId>) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = nodes.into_iter().collect();
    v.sort();
    v
}

/// The dense-id `L1Model` with one fully associative set and the map
/// reference, driven by the same random touch/reset streams (capacity
/// 1–4, a 3×3 and a 10×10 mesh),
/// agree after every step on every line's holder set, `holds` and
/// `hot_holders`. Holder order is not compared: no planner consumer can
/// observe it.
#[test]
fn dense_l1_model_matches_the_map_reference() {
    for (mesh, seeds) in [(Mesh::new(3, 3), 0..60), (Mesh::new(10, 10), 60..120)] {
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        for seed in seeds {
            let mut rng = Rng64::new(seed);
            let capacity = 1 + rng.gen_range(4) as u32;
            let lines = 1 + rng.gen_range(24) as u32;
            let mut model = L1Model::new(mesh, 1, capacity);
            let mut reference = ReferenceL1::new(mesh, capacity);
            for step in 0..200 {
                if rng.gen_range(16) == 0 {
                    model.reset();
                    reference.reset();
                } else {
                    let node = nodes[rng.gen_range(nodes.len() as u64) as usize];
                    let line = rng.gen_range(u64::from(lines)) as u32;
                    model.touch(node, line, 0);
                    reference.touch(node, line);
                }
                for line in 0..lines {
                    let want = sorted(reference.holders(line).iter().copied());
                    assert_eq!(sorted(model.holders(line)), want, "seed {seed} step {step}");
                    for min in [1, 2, 4] {
                        assert_eq!(
                            sorted(model.hot_holders(line, min)),
                            sorted(reference.hot_holders(line, min).iter().copied()),
                            "seed {seed} step {step}: hot holders of {line} (min {min})"
                        );
                    }
                    let probe = nodes[rng.gen_range(nodes.len() as u64) as usize];
                    for node in want.iter().copied().chain([probe]) {
                        assert_eq!(
                            model.holds(node, line),
                            want.contains(&node),
                            "seed {seed} step {step}: {node} holds {line}"
                        );
                    }
                }
            }
        }
    }
}

/// `L1Model::holders_or_hot` of the windowed and the persistent model,
/// driven as the planner drives them (both touched alike, only the
/// windowed one reset at window boundaries), equals as a set what the
/// planner gathered before: `holders(line)` chained with
/// `hot_holders(line, 4)`, each node kept once by a `contains` scan. It
/// yields each node once, in node-index order.
#[test]
fn holder_union_matches_the_chained_holders() {
    for (mesh, seeds) in [(Mesh::new(3, 3), 0..60), (Mesh::new(10, 10), 60..100)] {
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        for seed in seeds {
            let mut rng = Rng64::new(seed);
            let (sets, ways) = (1 + rng.gen_range(2) as u32, 1 + rng.gen_range(4) as u32);
            let lines = 1 + rng.gen_range(24) as u32;
            let mut windowed = L1Model::new(mesh, sets, ways);
            let mut persist = L1Model::new(mesh, sets, ways);
            // A few nodes anywhere on the mesh (past the first bitset word
            // on the 10×10 one), so lines gather several holders.
            let few: Vec<NodeId> =
                (0..5).map(|_| nodes[rng.gen_range(nodes.len() as u64) as usize]).collect();
            for step in 0..300 {
                if rng.gen_range(12) == 0 {
                    windowed.reset();
                } else {
                    let node = few[rng.gen_range(few.len() as u64) as usize];
                    let line = rng.gen_range(u64::from(lines)) as u32;
                    windowed.touch(node, line, line % sets);
                    persist.touch(node, line, line % sets);
                }
                for line in 0..lines {
                    let mut want: Vec<NodeId> = Vec::new();
                    for h in windowed.holders(line).chain(persist.hot_holders(line, 4)) {
                        if !want.contains(&h) {
                            want.push(h);
                        }
                    }
                    let got: Vec<NodeId> = windowed.holders_or_hot(&persist, line, 4).collect();
                    let mut in_order = got.clone();
                    in_order.sort_by_key(|&n| mesh.node_index(n));
                    in_order.dedup();
                    assert_eq!(got, in_order, "seed {seed} step {step}: order of {line}");
                    assert_eq!(sorted(got), sorted(want), "seed {seed} step {step}: {line}");
                }
            }
        }
    }
}

/// `MissPredictor` as it was keyed before dense line ids: a last-access
/// map by line address.
struct ReferenceMissPredictor {
    capacity_lines: u64,
    clock: u64,
    last_access: HashMap<LineAddr, u64>,
    reuse_factor: f64,
}

impl ReferenceMissPredictor {
    fn new(capacity_lines: u64) -> Self {
        Self {
            capacity_lines: capacity_lines.max(1),
            clock: 0,
            last_access: HashMap::new(),
            reuse_factor: 2.0,
        }
    }

    fn predict_hit(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let hit = match self.last_access.get(&line) {
            None => false,
            Some(&t) => {
                let elapsed = (self.clock - t) as f64;
                elapsed <= self.capacity_lines as f64 * self.reuse_factor
            }
        };
        self.last_access.insert(line, self.clock);
        hit
    }

    fn reset(&mut self) {
        self.clock = 0;
        self.last_access.clear();
    }
}

/// The id-keyed `MissPredictor` agrees with the line-keyed reference on
/// random line streams (sparse addresses, skewed reuse, capacities around
/// the reuse distances, occasional resets) when each line's id is its
/// rank of first access, as the planner interns them.
#[test]
fn id_keyed_predictor_matches_the_line_keyed_reference() {
    for seed in 0..200 {
        let mut rng = Rng64::new(seed);
        let capacity = rng.gen_range(40);
        let addrs: Vec<LineAddr> =
            (0..1 + rng.gen_range(96)).map(|_| LineAddr::new(rng.gen_range(1 << 40))).collect();
        let mut model = MissPredictor::new(capacity);
        let mut reference = ReferenceMissPredictor::new(capacity);
        let mut ids: HashMap<LineAddr, u32> = HashMap::new();
        for step in 0..2_000 {
            if rng.gen_range(400) == 0 {
                model.reset();
                reference.reset();
            }
            let span = rng.gen_range(addrs.len() as u64) + 1;
            let line = addrs[rng.gen_range(span) as usize];
            let next = ids.len() as u32;
            let id = *ids.entry(line).or_insert(next);
            assert_eq!(
                model.predict_hit(id),
                reference.predict_hit(line),
                "seed {seed} step {step}: line {line:?} (capacity {capacity})"
            );
        }
    }
}

/// `Layout` as it translated before its dense page table: a demand-paging
/// `PageTable` filled eagerly in declaration order, the element's virtual
/// address from its program, SNUCA lookups per query and the controller
/// overrides in a map.
struct ReferenceLayout {
    mesh: Mesh,
    map: AddressMap,
    pages: PageTable,
    snuca: Snuca,
    mc_override: HashMap<u64, NodeId>,
    rehome: Option<Vec<NodeId>>,
}

impl ReferenceLayout {
    fn new(
        machine: &MachineConfig,
        program: &Program,
        policy: PagePolicy,
        faults: Option<&FaultState>,
    ) -> Self {
        let map = AddressMap::for_machine(machine);
        let mut pages = PageTable::new(map, policy);
        for decl in program.arrays() {
            let bytes = decl.len() * u64::from(decl.elem_size);
            let mut va = decl.base_va;
            while va < decl.base_va + bytes {
                pages.translate(VirtAddr::new(va));
                va += u64::from(machine.page_size);
            }
            pages.translate(VirtAddr::new(decl.base_va + bytes.saturating_sub(1)));
        }
        let rehome = faults.filter(|f| !f.is_trivial()).map(|f| {
            machine
                .mesh
                .nodes()
                .map(|n| if f.is_usable(n) { n } else { f.nearest_live(n) })
                .collect()
        });
        Self {
            mesh: machine.mesh,
            map,
            pages,
            snuca: Snuca::new(machine.mesh, machine.cluster, map),
            mc_override: HashMap::new(),
            rehome,
        }
    }

    fn rehomed(&self, node: NodeId) -> NodeId {
        match &self.rehome {
            None => node,
            Some(r) => r[self.mesh.node_index(node) as usize],
        }
    }

    fn phys_of(&self, program: &Program, array: ArrayId, elem: u64) -> PhysAddr {
        let va = program.array(array).va_of(elem);
        self.pages.lookup(VirtAddr::new(va)).expect("page pre-allocated for declared arrays")
    }

    fn locate(&self, program: &Program, array: ArrayId, elem: u64, requester: NodeId) -> ElemInfo {
        let pa = self.phys_of(program, array, elem);
        let home = self.rehomed(self.snuca.home_node(pa, requester));
        let mc = self.rehomed(match self.mc_override.get(&self.map.phys_page(pa)) {
            Some(&n) => n,
            None => self.snuca.controller_node(pa, requester),
        });
        ElemInfo { line: self.map.line_of(pa), home, mc, hot: program.array(array).hot }
    }

    fn believed(
        &self,
        program: &Program,
        array: ArrayId,
        elem: u64,
        requester: NodeId,
    ) -> ElemInfo {
        let real = self.locate(program, array, elem, requester);
        let pa_guess = PhysAddr::new(program.array(array).va_of(elem));
        ElemInfo {
            home: self.rehomed(self.snuca.home_node(pa_guess, requester)),
            mc: self.rehomed(self.snuca.controller_node(pa_guess, requester)),
            ..real
        }
    }
}

/// A fault state with some dead nodes on `mesh` (and some dead and lossy
/// links).
fn degraded_state(rng: &mut Rng64, mesh: Mesh) -> FaultState {
    loop {
        let plan = FaultPlan::random(mesh, 0.2, 0.05, 0.1, 0.3, rng.next_u64());
        if let Ok(state) = FaultState::new(plan, mesh) {
            if !state.is_trivial() {
                return state;
            }
        }
    }
}

/// The dense-table `Layout` and the page-table reference agree field for
/// field — `locate`, `believed`, `phys_of` and `page_of` — on every element (and a few past the end, which wrap) of
/// every array of the 12 Tiny workloads and of generated programs, with
/// requesters cycling over the mesh, under both page policies, every
/// cluster mode (SNC-4 homes follow the requester), healthy and degraded,
/// with random page→controller overrides, and at the machine's page size
/// and at 64 KiB pages, where arrays share pages.
#[test]
fn dense_layout_matches_the_page_table_reference() {
    let mut cases: Vec<(Program, MachineConfig)> =
        all(Scale::Tiny).into_iter().map(|w| (w.program, MachineConfig::knl_like())).collect();
    for seed in 0..16 {
        let built = gen_mask_case(&mut Rng64::new(seed), 192).build().expect("case builds");
        cases.push((built.program, built.machine));
    }
    let mut rng = Rng64::new(0x1a70);
    for (k, (program, base)) in cases.iter().enumerate() {
        let nodes: Vec<NodeId> = base.mesh.nodes().collect();
        let mut combo = 0;
        for cluster in [ClusterMode::AllToAll, ClusterMode::Quadrant, ClusterMode::Snc4] {
            for policy in [PagePolicy::ColorPreserving, PagePolicy::Scramble] {
                for degraded in [false, true] {
                    combo += 1;
                    let mut machine = base.clone().with_cluster(cluster);
                    if combo % 2 == 0 {
                        machine.page_size = 1 << 16;
                    }
                    let faults = degraded.then(|| degraded_state(&mut rng, machine.mesh));
                    let mut layout = Layout::new(&machine, program, policy);
                    if let Some(f) = &faults {
                        layout.apply_faults(f);
                    }
                    let mut reference =
                        ReferenceLayout::new(&machine, program, policy, faults.as_ref());
                    let what = format!("case {k}, {cluster}, {policy:?}, degraded {degraded}");
                    for _ in 0..rng.gen_range(12) {
                        let array = ArrayId::from_index(
                            rng.gen_range(program.arrays().len() as u64) as usize,
                        );
                        let elem = rng.gen_range(program.array(array).len().max(1));
                        let page = reference.map.phys_page(reference.phys_of(program, array, elem));
                        let mc = nodes[rng.gen_range(nodes.len() as u64) as usize];
                        layout.override_page_controller(page, mc);
                        reference.mc_override.insert(page, mc);
                    }
                    assert_eq!(layout.override_count(), reference.mc_override.len(), "{what}");
                    for (a, decl) in program.arrays().iter().enumerate() {
                        let array = ArrayId::from_index(a);
                        for elem in 0..decl.len() + 3 {
                            let req = nodes[(elem as usize * 7 + a + k) % nodes.len()];
                            let real = reference.locate(program, array, elem, req);
                            let belief = reference.believed(program, array, elem, req);
                            let at = format!("{what}: array {a} element {elem} from {req}");
                            assert_eq!(layout.locate(array, elem, req), real, "{at}");
                            assert_eq!(layout.believed(array, elem, req), belief, "{at}");
                            let pa = reference.phys_of(program, array, elem);
                            assert_eq!(layout.phys_of(array, elem), pa, "{at}");
                            assert_eq!(layout.page_of(array, elem), reference.map.phys_page(pa));
                        }
                    }
                }
            }
        }
    }
}

/// The fault-aware router as it was before routes were resolved per
/// source: the XY route when no fault touches it, else a breadth-first
/// search that stops at `dst`.
fn reference_route(src: NodeId, dst: NodeId, state: &FaultState) -> Result<RoutePath, RouteError> {
    if state.is_trivial() {
        return Ok(routing::route(src, dst));
    }
    if state.is_dead(src) {
        return Err(RouteError::DeadEndpoint(src));
    }
    if state.is_dead(dst) {
        return Err(RouteError::DeadEndpoint(dst));
    }
    if src == dst {
        return Ok(RoutePath::default());
    }
    let xy = routing::route(src, dst);
    let healthy = xy
        .links()
        .iter()
        .all(|l| state.link_ok(l.src(), l.dst()) && (l.dst() == dst || !state.is_dead(l.dst())));
    if healthy {
        return Ok(xy);
    }
    let mesh = state.mesh();
    let n = mesh.node_count() as usize;
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[mesh.node_index(src) as usize] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(cur) = queue.pop_front() {
        if cur == dst {
            let mut nodes = vec![dst];
            let mut walk = dst;
            while walk != src {
                walk = prev[mesh.node_index(walk) as usize].expect("BFS predecessor");
                nodes.push(walk);
            }
            nodes.reverse();
            let links = nodes.windows(2).map(|w| Link::new(w[0], w[1])).collect();
            return Ok(RoutePath::from_links(links));
        }
        for nb in mesh.neighbors(cur) {
            let ni = mesh.node_index(nb) as usize;
            if seen[ni] || state.is_dead(nb) || !state.link_ok(cur, nb) {
                continue;
            }
            seen[ni] = true;
            prev[ni] = Some(cur);
            queue.push_back(nb);
        }
    }
    Err(RouteError::Unreachable { src, dst })
}

/// The simulator's network as it was before dense link ids: link loads in
/// a hash map keyed by link, and every faulty transfer and path length
/// routed afresh by [`reference_route`].
struct ReferenceNetwork {
    latency: LatencyModel,
    load: HashMap<Link, f64>,
    messages: u64,
    latency_sum: f64,
    latency_max: f64,
    links_traversed: u64,
    faults: Option<FaultState>,
    retries: u64,
    detour_hops: u64,
    dropped_flits: u64,
    zero_latency: bool,
    distance_scale: f64,
}

impl ReferenceNetwork {
    fn with_faults(latency: LatencyModel, faults: FaultState) -> Self {
        Self {
            latency,
            load: HashMap::new(),
            messages: 0,
            latency_sum: 0.0,
            latency_max: 0.0,
            links_traversed: 0,
            faults: (!faults.is_trivial()).then_some(faults),
            retries: 0,
            detour_hops: 0,
            dropped_flits: 0,
            zero_latency: false,
            distance_scale: 1.0,
        }
    }

    fn try_transfer(&mut self, src: NodeId, dst: NodeId) -> Result<f64, RouteError> {
        const LOAD_DECAY: f64 = 0.98;
        const MAX_RETRIES: u32 = 6;
        if src == dst {
            return Ok(0.0);
        }
        let Some(mut faults) = self.faults.take() else {
            let mut lat = 0.0;
            for link in &routing::route(src, dst) {
                let load = self.load.entry(*link).or_insert(0.0);
                lat += self.latency.hop + self.latency.contention * *load;
                *load = *load * LOAD_DECAY + 1.0;
                self.links_traversed += 1;
            }
            return Ok(self.finish_message(lat));
        };
        let path = match reference_route(src, dst, &faults) {
            Ok(p) => p,
            Err(e) => {
                self.faults = Some(faults);
                return Err(e);
            }
        };
        self.detour_hops += u64::from(path.len() - src.manhattan(dst));
        let mut lat = 0.0;
        let mut attempt = 0u32;
        loop {
            let mut delivered = true;
            for link in &path {
                let load = self.load.entry(*link).or_insert(0.0);
                lat += self.latency.hop + self.latency.contention * *load;
                *load = *load * LOAD_DECAY + 1.0;
                self.links_traversed += 1;
                if attempt < MAX_RETRIES && faults.should_drop(*link) {
                    self.dropped_flits += 1;
                    lat += self.latency.hop * f64::from(1u32 << attempt);
                    delivered = false;
                    break;
                }
            }
            if delivered {
                break;
            }
            attempt += 1;
            self.retries += 1;
        }
        self.faults = Some(faults);
        Ok(self.finish_message(lat))
    }

    fn finish_message(&mut self, mut lat: f64) -> f64 {
        lat *= self.distance_scale;
        if self.zero_latency {
            lat = 0.0;
        }
        self.messages += 1;
        self.latency_sum += lat;
        if lat > self.latency_max {
            self.latency_max = lat;
        }
        lat
    }

    fn path_len(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.faults {
            None => src.manhattan(dst),
            Some(f) => reference_route(src, dst, f).map_or(src.manhattan(dst), |p| p.len()),
        }
    }
}

/// Every counter both networks keep, floats by their bits, and the link
/// loads as a set.
fn network_state(net: &Network) -> (Vec<u64>, Vec<(Link, u64)>) {
    let counters = vec![
        net.messages(),
        net.links_traversed(),
        net.retries(),
        net.dropped_flits(),
        net.detour_hops(),
        net.avg_latency().to_bits(),
        net.max_latency().to_bits(),
    ];
    let mut loads: Vec<(Link, u64)> = net.link_loads().map(|(l, v)| (l, v.to_bits())).collect();
    loads.sort_unstable();
    (counters, loads)
}

fn reference_state(net: &ReferenceNetwork) -> (Vec<u64>, Vec<(Link, u64)>) {
    let avg = if net.messages == 0 { 0.0 } else { net.latency_sum / net.messages as f64 };
    let counters = vec![
        net.messages,
        net.links_traversed,
        net.retries,
        net.dropped_flits,
        net.detour_hops,
        avg.to_bits(),
        net.latency_max.to_bits(),
    ];
    let mut loads: Vec<(Link, u64)> = net.load.iter().map(|(&l, &v)| (l, v.to_bits())).collect();
    loads.sort_unstable();
    (counters, loads)
}

/// A random fault plan on `mesh`: dead nodes, dead links and lossy links
/// at rates drawn from `rng` (all zero now and then: the healthy mesh).
fn random_faults(rng: &mut Rng64, mesh: Mesh) -> Option<FaultState> {
    let dead = [0.0, 0.05, 0.1, 0.2][rng.gen_range(4) as usize];
    let link_fail = [0.0, 0.05, 0.15][rng.gen_range(3) as usize];
    let lossy = [0.0, 0.2, 0.5][rng.gen_range(3) as usize];
    let drop = [0.1, 0.4, 0.9][rng.gen_range(3) as usize];
    let plan = FaultPlan::random(mesh, dead, link_fail, lossy, drop, rng.next_u64());
    FaultState::new(plan, mesh).ok()
}

/// The meshes of `gencase` plus a 10×10 one.
const NETWORK_MESHES: [(u16, u16); 8] =
    [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4), (6, 6), (10, 10)];

/// The dense-link `Network` with per-source route tables and the map
/// reference, driven by the same random `try_transfer`/`path_len` streams
/// under random fault plans (dead nodes, dead links, lossy links; latency
/// scaling and the ideal network switched at random), agree after every
/// step on each latency's bits, every counter and the link-load set. A
/// transfer from or to a dead or cut-off node fails with a route error
/// and moves no counter.
#[test]
fn dense_network_matches_the_map_reference() {
    // Totals over every case, so a generator that stops reaching detours,
    // drops or failed transfers fails here.
    let (mut detours, mut drops, mut failures) = (0, 0, 0);
    for (i, &(cols, rows)) in NETWORK_MESHES.iter().enumerate() {
        let mesh = Mesh::new(cols, rows);
        let all: Vec<NodeId> = mesh.nodes().collect();
        for seed in 0..24 {
            let mut rng = Rng64::new(1000 * i as u64 + seed);
            let Some(state) = random_faults(&mut rng, mesh) else { continue };
            let live = state.live_nodes().to_vec();
            let latency = LatencyModel::default();
            let mut net = Network::with_faults(latency, state.clone());
            let mut reference = ReferenceNetwork::with_faults(latency, state.clone());
            if rng.gen_bool(0.2) {
                net.zero_latency = true;
                reference.zero_latency = true;
            }
            if rng.gen_bool(0.2) {
                net.distance_scale = 0.5;
                reference.distance_scale = 0.5;
            }
            let pick = |rng: &mut Rng64| {
                let pool = if rng.gen_bool(0.25) { &all } else { &live };
                pool[rng.gen_range(pool.len() as u64) as usize]
            };
            for step in 0..150 {
                let (src, dst) = (pick(&mut rng), pick(&mut rng));
                let case = format!("mesh {cols}x{rows} seed {seed} step {step}: {src}->{dst}");
                if rng.gen_bool(0.3) {
                    assert_eq!(net.path_len(src, dst), reference.path_len(src, dst), "{case}");
                    continue;
                }
                let before = network_state(&net);
                let got = net.try_transfer(src, dst);
                let want = reference.try_transfer(src, dst);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => assert_eq!(g.to_bits(), w.to_bits(), "{case}: latency"),
                    (Err(g), Err(w)) => {
                        failures += 1;
                        assert_eq!(g, w, "{case}: error");
                        assert!(
                            matches!(
                                g,
                                RouteError::DeadEndpoint(_) | RouteError::Unreachable { .. }
                            ),
                            "{case}: {g}"
                        );
                        assert_eq!(network_state(&net), before, "{case}: a failed transfer moved");
                    }
                    _ => panic!("{case}: {got:?} vs reference {want:?}"),
                }
                assert_eq!(network_state(&net), reference_state(&reference), "{case}: state");
            }
            detours += net.detour_hops();
            drops += net.dropped_flits();
            // Every usable pair's table route is the reference router's,
            // link for link (after seed 8, only from up to 12 sources spread
            // over the live set); `route_avoiding` reads the same table
            // (checked on one destination per source).
            let mut ids = Vec::new();
            let stride = if seed < 8 { 1 } else { live.len().div_ceil(12) };
            for &a in live.iter().step_by(stride) {
                let routes = state.routes_from(a).expect("usable source");
                for &b in &live {
                    routes.links_into(b, &mut ids).expect("usable pair routes");
                    let table: Vec<Link> = ids.iter().map(|&id| mesh.link_at(id)).collect();
                    let want = reference_route(a, b, &state).expect("usable pair routes");
                    assert_eq!(table, want.links(), "mesh {cols}x{rows} seed {seed}: {a}->{b}");
                    assert_eq!(routes.hops(b), Ok(want.len()));
                }
                let b = live[rng.gen_range(live.len() as u64) as usize];
                let want = reference_route(a, b, &state);
                assert_eq!(route_avoiding(a, b, &state), want, "mesh {cols}x{rows} seed {seed}");
            }
            // Dead and cut-off nodes never transfer to or from the live set.
            for &lost in all.iter().filter(|&&n| !state.is_usable(n)) {
                let other = live[rng.gen_range(live.len() as u64) as usize];
                for (src, dst) in [(lost, other), (other, lost)] {
                    let before = network_state(&net);
                    let err = net.try_transfer(src, dst).expect_err("unusable endpoint");
                    assert!(
                        matches!(err, RouteError::DeadEndpoint(_) | RouteError::Unreachable { .. }),
                        "{src}->{dst}: {err}"
                    );
                    assert_eq!(
                        network_state(&net),
                        before,
                        "{src}->{dst}: a failed transfer moved"
                    );
                }
            }
        }
    }
    assert!(detours > 0 && drops > 0 && failures > 0, "{detours} {drops} {failures}");
}

/// XY routes are always minimal and contiguous.
#[test]
fn xy_routes_are_minimal() {
    for seed in 0..300 {
        let mut rng = Rng64::new(seed);
        let a = random_node(&mut rng);
        let b = random_node(&mut rng);
        let path = routing::route(a, b);
        assert_eq!(path.len(), a.manhattan(b), "seed {seed}");
        let mut cur = a;
        for link in &path {
            assert_eq!(link.src(), cur, "seed {seed}");
            assert!(link.src().is_adjacent(link.dst()), "seed {seed}");
            cur = link.dst();
        }
        assert_eq!(cur, b, "seed {seed}");
    }
}

/// Union-find: after a sequence of unions, connectivity matches a naive
/// label-propagation reference.
#[test]
fn unionfind_matches_reference() {
    for seed in 0..200 {
        let mut rng = Rng64::new(seed);
        let pairs: Vec<(usize, usize)> = (0..rng.gen_range(30))
            .map(|_| (rng.gen_range(12) as usize, rng.gen_range(12) as usize))
            .collect();
        let mut uf = UnionFind::new(12);
        let mut labels: Vec<usize> = (0..12).collect();
        for &(a, b) in &pairs {
            uf.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for a in 0..12 {
            for b in 0..12 {
                assert_eq!(uf.connected(a, b), labels[a] == labels[b], "seed {seed}");
            }
        }
    }
}

/// Transitive reduction preserves reachability and never adds arcs.
#[test]
fn reduction_preserves_reachability() {
    for seed in 0..200 {
        let mut rng = Rng64::new(seed);
        let n = 1 + rng.gen_range(13) as usize;
        // Build a random DAG: node i gets random predecessors < i.
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                if i == 0 {
                    return Vec::new();
                }
                (0..rng.gen_range(6)).map(|_| rng.gen_range(i as u64) as usize).collect()
            })
            .collect();
        let (reduced, removed) = transitive_reduce(&preds);
        let before: usize = preds.iter().map(Vec::len).sum();
        let after: usize = reduced.iter().map(Vec::len).sum();
        assert!(after + (removed as usize) <= before, "seed {seed}");
        for b in 0..preds.len() {
            for a in 0..b {
                assert_eq!(reaches(&preds, a, b), reaches(&reduced, a, b), "seed {seed}");
            }
        }
    }
}

/// The LRU cache agrees with a simple reference model.
#[test]
fn cache_matches_reference_lru() {
    for seed in 0..200 {
        let mut rng = Rng64::new(seed);
        let accesses: Vec<u64> = (0..1 + rng.gen_range(199)).map(|_| rng.gen_range(32)).collect();
        let mut cache = Cache::new(4, 2);
        // Reference: per set, most-recent-last vector capped at 2.
        let mut sets: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for &line in &accesses {
            let outcome = cache.access(LineAddr::new(line));
            let set = &mut sets[(line % 4) as usize];
            let expect_hit = set.contains(&line);
            assert_eq!(!outcome.is_miss(), expect_hit, "seed {seed}");
            set.retain(|&l| l != line);
            set.push(line);
            if set.len() > 2 {
                set.remove(0);
            }
        }
    }
}

/// A random expression tree of bounded depth over four arrays.
fn random_expr(rng: &mut Rng64, depth: u32) -> Expr {
    if depth == 0 || rng.gen_range(4) == 0 {
        return if rng.gen_bool(0.5) {
            Expr::Const(1.0 + rng.gen_range(8) as f64)
        } else {
            Expr::Ref(dmcp::ir::ArrayRef::affine(
                dmcp::ir::ArrayId::from_index(rng.gen_range(4) as usize),
                vec![dmcp::ir::access::AffineExpr::constant(0)],
            ))
        };
    }
    let op = match rng.gen_range(7) {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::And,
        5 => BinOp::Or,
        _ => BinOp::Xor,
    };
    let lhs = random_expr(rng, depth - 1);
    let rhs = random_expr(rng, depth - 1);
    Expr::bin(op, lhs, rhs)
}

/// Direct recursive evaluation, flagging near-zero divisors (where
/// reordering would be numerically unstable).
fn eval_direct(e: &Expr, vals: &[f64], unstable: &mut bool) -> f64 {
    match e {
        Expr::Const(v) => *v,
        Expr::Ref(r) => vals[r.array.index()],
        Expr::Bin { op, lhs, rhs } => {
            let a = eval_direct(lhs, vals, unstable);
            let b = eval_direct(rhs, vals, unstable);
            if *op == BinOp::Div && b.abs() < 1e-6 {
                *unstable = true;
            }
            op.apply(a, b)
        }
    }
}

/// The nested-set normalisation (with sign/inverse flags) evaluates to the
/// same value as the raw expression tree — reordering is sound.
#[test]
fn nested_sets_preserve_semantics() {
    let vals = [3.0, 5.0, 7.0, 11.0];
    let mut checked = 0;
    for seed in 0..600 {
        let mut rng = Rng64::new(seed);
        let e = random_expr(&mut rng, 3);
        let mut unstable = false;
        let want = eval_direct(&e, &vals, &mut unstable);
        if unstable || !want.is_finite() || want.abs() >= 1e12 {
            continue;
        }
        checked += 1;
        let group = Group::of_expr(&e);
        let got = group.eval(&mut |r| vals[r.array.index()]);
        let scale = want.abs().max(1.0);
        assert!(
            (got - want).abs() <= 1e-9 * scale,
            "seed {seed}: group {got} vs direct {want} for {e:?}"
        );
    }
    assert!(checked > 400, "only {checked} stable cases — generator broken?");
}

/// The partitioners of a generated case under `config`: healthy, and
/// degraded when the case has faults that leave a live node.
fn case_partitioners(built: &BuiltCase, config: &PartitionConfig) -> Vec<Partitioner> {
    let mut parts = vec![Partitioner::new(&built.machine, &built.program, config.clone())];
    let state = built.faults.clone().and_then(|f| FaultState::new(f, built.machine.mesh).ok());
    if let Some(state) = state {
        parts.push(
            Partitioner::new_degraded(&built.machine, &built.program, config.clone(), &state)
                .expect("generated configs are valid"),
        );
    }
    parts
}

/// Resolves nest `nest` of a generated case as the analyze pass does.
fn case_resolution(built: &BuiltCase, part: &Partitioner, nest: usize) -> NestResolution {
    let config = part.config();
    let iters = built.program.nests()[nest].iteration_count();
    let assignment = nest_assignment(config, part.layout(), built.machine.mesh, iters);
    let predictor = config.predictor.build(&built.machine);
    resolve_nest(
        &built.program,
        nest,
        part.layout(),
        &built.data,
        predictor,
        config.opts,
        &assignment,
    )
}

/// The pipeline places exactly what placing every nest from scratch at
/// its window does, and after the split rule and sync plans exactly what
/// those do to the from-scratch placements, at every window 1..=8,
/// healthy and degraded.
#[test]
fn the_pipeline_equals_placing_every_nest_from_scratch() {
    let pool = Pool::single();
    for seed in 0..256 {
        let built = gen_mask_case(&mut Rng64::new(seed), 192).build().expect("case builds");
        for window in PartitionConfig::WINDOWS {
            let config = PartitionConfig { window, ..built.config.clone() };
            for part in case_partitioners(&built, &config) {
                let (layout, opts) = (part.layout(), config.opts);
                let mut ctx = PlanCtx::new(&part, &built.program, &built.data, &pool, false, &[]);
                let [analyze, place, split, sync] = passes();
                for pass in [analyze, place] {
                    pass.run(&mut ctx);
                }
                let mut want: Vec<NestPlan> = Vec::new();
                for nc in &ctx.nests {
                    let resolution = case_resolution(&built, &part, nc.nest);
                    assert_eq!(nc.window, window, "seed {seed}: the analyze pass's window");
                    let mut plan = place_nest(&resolution, layout, opts, window, false);
                    let label = format!("seed {seed} window {window} nest {}", nc.nest);
                    assert_eq!(nc.plan.as_ref(), Some(&plan), "{label}: placement differs");
                    let (warm_opt, warm_def) = plan.stats.warm_movement();
                    if warm_opt as f64 > opts.split_threshold * warm_def as f64 {
                        plan = place_nest(&resolution, layout, opts, window, true);
                    }
                    sync_nest(&mut plan);
                    want.push(plan);
                }
                split.run(&mut ctx);
                sync.run(&mut ctx);
                for (got, want) in ctx.into_output().nests.iter().zip(&want) {
                    assert_eq!(
                        (&got.schedule, &got.stats),
                        (&want.schedule, &want.stats),
                        "seed {seed} window {window} nest {}",
                        got.nest
                    );
                }
            }
        }
    }
}
