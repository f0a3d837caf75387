//! Fault injection: dead nodes, failed links, lossy links, detour routing.
//!
//! Real manycore parts ship with disabled tiles and links; a scheduler that
//! only works on a perfect mesh is a toy. This module describes a degraded
//! machine ([`FaultPlan`] → validated [`FaultState`]) and provides the
//! fault-aware routes ([`FaultState::routes_from`], one breadth-first
//! search per source, and [`route_avoiding`] for one pair) that the
//! simulator and the checks share, so everything routes over the *same*
//! degraded fabric.
//!
//! Three fault classes:
//!
//! - **dead nodes** — the tile (core, L1, L2 bank) is gone; nothing may be
//!   scheduled there and no route may pass through it;
//! - **dead links** — the link (both directions) never delivers; routes
//!   detour around it;
//! - **lossy links** — the link delivers but drops flits with a fixed
//!   probability, on a *seeded deterministic schedule*: whether traversal
//!   `k` of a link drops is a pure function of `(seed, link, k)`, so a
//!   simulation is exactly reproducible.
//!
//! Live nodes that the faults cut off from the main fabric are treated as
//! *unusable*: [`FaultState::live_nodes`] returns only the largest
//! connected component of the healthy subgraph, which is what the degraded
//! partitioner schedules on — guaranteeing every pair of scheduled nodes
//! stays routable.

use crate::mesh::Mesh;
use crate::node::NodeId;
use crate::rng::{mix, Rng64};
use crate::routing::{self, xy_next, Link, RoutePath};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// An undirected link key: endpoints in sorted order, so `(a,b)` and
/// `(b,a)` name the same physical wire.
fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Packs an undirected link into a `u64` for the drop-schedule hash.
fn link_bits(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = key(a, b);
    (u64::from(lo.x()) << 48)
        | (u64::from(lo.y()) << 32)
        | (u64::from(hi.x()) << 16)
        | u64::from(hi.y())
}

/// A declarative description of the faults injected into a mesh.
///
/// Build one with the `kill_*`/`lossy_link` methods or sample one with
/// [`FaultPlan::random`], then validate it against a mesh with
/// [`FaultState::new`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    dead_nodes: BTreeSet<NodeId>,
    dead_links: BTreeSet<(NodeId, NodeId)>,
    lossy_links: BTreeMap<(NodeId, NodeId), f64>,
    seed: u64,
}

impl FaultPlan {
    /// A plan with no faults (the healthy mesh).
    #[must_use]
    pub fn healthy() -> Self {
        Self::default()
    }

    /// An empty plan with the given drop-schedule seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// Marks a node dead.
    pub fn kill_node(&mut self, n: NodeId) -> &mut Self {
        self.dead_nodes.insert(n);
        self
    }

    /// Marks the (undirected) link between two adjacent nodes dead.
    pub fn kill_link(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.dead_links.insert(key(a, b));
        self
    }

    /// Marks a link transiently lossy with per-traversal drop probability
    /// `p` (clamped to `[0, 1]`).
    pub fn lossy_link(&mut self, a: NodeId, b: NodeId, p: f64) -> &mut Self {
        self.lossy_links.insert(key(a, b), p.clamp(0.0, 1.0));
        self
    }

    /// `true` when the plan injects nothing — the healthy mesh.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dead_nodes.is_empty() && self.dead_links.is_empty() && self.lossy_links.is_empty()
    }

    /// The dead nodes, in sorted order.
    pub fn dead_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dead_nodes.iter().copied()
    }

    /// The dead (undirected) links, in sorted endpoint order.
    pub fn dead_links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.dead_links.iter().copied()
    }

    /// The lossy links and their drop probabilities, in sorted endpoint
    /// order.
    pub fn lossy_links(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.lossy_links.iter().map(|(&(a, b), &p)| (a, b, p))
    }

    /// The drop-schedule seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Samples a random plan: `round(dead_frac · nodes)` dead nodes, each
    /// link killed with probability `link_fail`, each surviving link made
    /// lossy with probability `lossy` at drop probability `drop_prob`.
    /// Fully determined by `seed`.
    #[must_use]
    pub fn random(
        mesh: Mesh,
        dead_frac: f64,
        link_fail: f64,
        lossy: f64,
        drop_prob: f64,
        seed: u64,
    ) -> Self {
        let mut rng = Rng64::new(seed);
        let mut plan = FaultPlan::with_seed(seed);
        let mut nodes: Vec<NodeId> = mesh.nodes().collect();
        let dead = ((dead_frac.clamp(0.0, 1.0)) * nodes.len() as f64).round() as usize;
        // Never kill every node: keep at least one tile alive.
        let dead = dead.min(nodes.len().saturating_sub(1));
        rng.shuffle(&mut nodes);
        for &n in nodes.iter().take(dead) {
            plan.kill_node(n);
        }
        // Enumerate each undirected link once (right and down neighbours),
        // in row-major order so the sampled plan is order-independent.
        for a in mesh.nodes() {
            for b in [NodeId::new(a.x() + 1, a.y()), NodeId::new(a.x(), a.y() + 1)] {
                if !mesh.contains(b) {
                    continue;
                }
                if rng.gen_bool(link_fail) {
                    plan.kill_link(a, b);
                } else if rng.gen_bool(lossy) {
                    plan.lossy_link(a, b, drop_prob);
                }
            }
        }
        plan
    }
}

/// Errors validating a [`FaultPlan`] against a mesh.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A dead node (or lossy/dead link endpoint) lies outside the mesh.
    OffMesh(NodeId),
    /// A dead or lossy link joins two non-adjacent nodes.
    NotALink(NodeId, NodeId),
    /// Every node is dead — nothing can run.
    NoLiveNodes,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::OffMesh(n) => write!(f, "fault plan names node {n} outside the mesh"),
            FaultError::NotALink(a, b) => {
                write!(f, "fault plan names {a}--{b}, which is not a mesh link")
            }
            FaultError::NoLiveNodes => f.write_str("fault plan leaves no live node"),
        }
    }
}

impl std::error::Error for FaultError {}

/// Errors from the fault-aware router.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// An endpoint is a dead node.
    DeadEndpoint(NodeId),
    /// Every live path between the endpoints is severed.
    Unreachable {
        /// Route source.
        src: NodeId,
        /// Route destination.
        dst: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DeadEndpoint(n) => write!(f, "route endpoint {n} is a dead node"),
            RouteError::Unreachable { src, dst } => {
                write!(f, "no live route from {src} to {dst}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A [`FaultPlan`] validated against a concrete mesh, with the derived
/// usable-node set and the deterministic drop schedule.
#[derive(Clone, Debug)]
pub struct FaultState {
    plan: FaultPlan,
    mesh: Mesh,
    /// The largest connected component of the healthy subgraph, row-major.
    live: Vec<NodeId>,
    /// Indexed by `mesh.node_index`: usable (live *and* connected)?
    usable: Vec<bool>,
    /// Indexed by `mesh.node_index`: declared dead?
    dead: Vec<bool>,
    /// Indexed by [`Mesh::link_id`], both directions: declared dead?
    link_dead: Vec<bool>,
    /// Per-link traversal counters driving the drop schedule.
    traversals: HashMap<(NodeId, NodeId), u64>,
}

impl FaultState {
    /// Validates `plan` against `mesh` and derives the usable-node set.
    ///
    /// # Errors
    ///
    /// [`FaultError::OffMesh`]/[`FaultError::NotALink`] on malformed plans,
    /// [`FaultError::NoLiveNodes`] when the plan kills everything.
    pub fn new(plan: FaultPlan, mesh: Mesh) -> Result<Self, FaultError> {
        for &n in &plan.dead_nodes {
            if !mesh.contains(n) {
                return Err(FaultError::OffMesh(n));
            }
        }
        for &(a, b) in plan.dead_links.iter().chain(plan.lossy_links.keys()) {
            if !mesh.contains(a) {
                return Err(FaultError::OffMesh(a));
            }
            if !mesh.contains(b) {
                return Err(FaultError::OffMesh(b));
            }
            if !a.is_adjacent(b) {
                return Err(FaultError::NotALink(a, b));
            }
        }

        // Flood-fill the healthy subgraph to find its components; the
        // largest (ties broken toward the earliest row-major seed) becomes
        // the usable set.
        let n = mesh.node_count() as usize;
        let mut component = vec![usize::MAX; n];
        let mut sizes = Vec::new();
        for start in mesh.nodes() {
            let si = mesh.node_index(start) as usize;
            if component[si] != usize::MAX || plan.dead_nodes.contains(&start) {
                continue;
            }
            let id = sizes.len();
            let mut size = 0usize;
            let mut queue = VecDeque::from([start]);
            component[si] = id;
            while let Some(cur) = queue.pop_front() {
                size += 1;
                for nb in mesh.neighbors(cur) {
                    let ni = mesh.node_index(nb) as usize;
                    if component[ni] != usize::MAX
                        || plan.dead_nodes.contains(&nb)
                        || plan.dead_links.contains(&key(cur, nb))
                    {
                        continue;
                    }
                    component[ni] = id;
                    queue.push_back(nb);
                }
            }
            sizes.push(size);
        }
        let Some(best) = (0..sizes.len()).max_by_key(|&i| (sizes[i], std::cmp::Reverse(i))) else {
            return Err(FaultError::NoLiveNodes);
        };
        let usable: Vec<bool> = (0..n).map(|i| component[i] == best).collect();
        let live: Vec<NodeId> =
            mesh.nodes().filter(|&nd| usable[mesh.node_index(nd) as usize]).collect();
        let mut dead = vec![false; n];
        for &node in &plan.dead_nodes {
            dead[mesh.node_index(node) as usize] = true;
        }
        let mut link_dead = vec![false; mesh.link_slots()];
        for &(a, b) in &plan.dead_links {
            for link in [Link::new(a, b), Link::new(b, a)] {
                link_dead[mesh.link_id(link) as usize] = true;
            }
        }
        Ok(Self { plan, mesh, live, usable, dead, link_dead, traversals: HashMap::new() })
    }

    /// The plan this state was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The mesh this state was validated against.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// `true` when the plan injects nothing — every fault-aware code path
    /// must then behave bit-identically to the healthy one.
    pub fn is_trivial(&self) -> bool {
        self.plan.is_empty()
    }

    /// `true` if `node` is declared dead in the plan.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.mesh.contains(node) && self.dead[self.mesh.node_index(node) as usize]
    }

    /// `true` if `node` is usable: alive *and* in the main connected
    /// component (cut-off survivors are unusable).
    pub fn is_usable(&self, node: NodeId) -> bool {
        self.mesh.contains(node) && self.usable[self.mesh.node_index(node) as usize]
    }

    /// The usable nodes in row-major order. Never empty.
    pub fn live_nodes(&self) -> &[NodeId] {
        &self.live
    }

    /// `true` if the (undirected) link between `a` and `b` delivers at all.
    pub fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        !self.plan.dead_links.contains(&key(a, b))
    }

    /// The drop probability of a link (0 for healthy links).
    pub fn drop_prob(&self, a: NodeId, b: NodeId) -> f64 {
        self.plan.lossy_links.get(&key(a, b)).copied().unwrap_or(0.0)
    }

    /// The usable node nearest to `node` (ties toward row-major order);
    /// `node` itself when it is usable. This is the re-homing rule for
    /// pages whose home bank died.
    pub fn nearest_live(&self, node: NodeId) -> NodeId {
        if self.is_usable(node) {
            return node;
        }
        // `live` is row-major and `min_by_key` keeps the first minimum, so
        // ties break toward row-major order.
        self.live
            .iter()
            .copied()
            .min_by_key(|&l| l.manhattan(node))
            .expect("live set is never empty")
    }

    /// Resolves every route out of `src` at once (see [`SourceRoutes`]):
    /// one breadth-first search over live nodes and healthy links, plus a
    /// check of each destination's XY route.
    ///
    /// # Errors
    ///
    /// [`RouteError::DeadEndpoint`] when `src` is dead.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not on the mesh.
    pub fn routes_from(&self, src: NodeId) -> Result<SourceRoutes, RouteError> {
        if self.is_dead(src) {
            return Err(RouteError::DeadEndpoint(src));
        }
        let mesh = self.mesh;
        let n = mesh.node_count() as usize;
        let mut hops = vec![CUT_OFF; n];
        let mut via = vec![NO_LINK; n];
        hops[mesh.node_index(src) as usize] = 0;
        // Expansion order (+x, −x, +y, −y, from `Mesh::neighbors`) makes
        // the chosen detours deterministic.
        let mut queue = Vec::with_capacity(n);
        queue.push(src);
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            let next_hops = hops[mesh.node_index(cur) as usize] + 1;
            for nb in mesh.neighbors(cur) {
                let ni = mesh.node_index(nb) as usize;
                let link = mesh.link_id(Link::new(cur, nb));
                if hops[ni] != CUT_OFF || self.dead[ni] || self.link_dead[link as usize] {
                    continue;
                }
                hops[ni] = next_hops;
                via[ni] = link;
                queue.push(nb);
            }
        }
        for (h, &dead) in hops.iter_mut().zip(&self.dead) {
            if dead {
                *h = DEAD;
            }
        }
        let xy = mesh
            .nodes()
            .zip(&hops)
            .map(|(dst, &h)| h < CUT_OFF && self.xy_survives(src, dst))
            .collect();
        Ok(SourceRoutes { src, mesh, hops, xy, via })
    }

    /// `true` when no fault touches the XY route from `src` to `dst`: each
    /// of its links delivers and each node it enters before `dst` lives.
    fn xy_survives(&self, src: NodeId, dst: NodeId) -> bool {
        let mut cur = src;
        while cur != dst {
            let next = xy_next(cur, dst);
            let link = self.mesh.link_id(Link::new(cur, next)) as usize;
            if self.link_dead[link] || (next != dst && self.is_dead(next)) {
                return false;
            }
            cur = next;
        }
        true
    }

    /// Decides whether the next traversal of `link` drops its flit —
    /// deterministic in `(seed, link, traversal index)`, independent of
    /// everything else the simulation does.
    pub fn should_drop(&mut self, link: Link) -> bool {
        let p = self.drop_prob(link.src(), link.dst());
        if p <= 0.0 {
            return false;
        }
        let k = key(link.src(), link.dst());
        let count = self.traversals.entry(k).or_insert(0);
        let attempt = *count;
        *count += 1;
        let h = mix(self.plan.seed ^ mix(link_bits(link.src(), link.dst())) ^ attempt);
        ((h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }
}

/// [`SourceRoutes::hops`] of a destination that is a dead node.
const DEAD: u32 = u32::MAX;
/// [`SourceRoutes::hops`] of a live destination the faults cut off.
const CUT_OFF: u32 = u32::MAX - 1;
/// [`SourceRoutes::via`] of the source and of nodes never reached.
const NO_LINK: u32 = u32::MAX;

/// Every fault-aware route out of one live source, resolved at once by
/// [`FaultState::routes_from`].
///
/// A destination's route is its XY route when no fault touches it, and
/// otherwise its branch of one breadth-first tree grown from the source
/// over live nodes and healthy links. A search that stopped at the
/// destination would set the same predecessors (a node's predecessor is
/// fixed when it is first reached), so one tree answers for every
/// destination. [`route_avoiding`] and the simulator's network both read
/// their routes off it, so the detour search exists once.
#[derive(Clone, Debug)]
pub struct SourceRoutes {
    src: NodeId,
    mesh: Mesh,
    /// Per node index: links of the route there, or [`DEAD`]/[`CUT_OFF`].
    hops: Vec<u32>,
    /// Per node index: the route there is the XY route.
    xy: Vec<bool>,
    /// Per node index: dense id of the tree link that first reached it,
    /// [`NO_LINK`] for the source and for nodes never reached.
    via: Vec<u32>,
}

impl SourceRoutes {
    /// Number of links on the route to `dst` (0 to the source itself).
    ///
    /// # Errors
    ///
    /// [`RouteError::DeadEndpoint`] when `dst` is dead,
    /// [`RouteError::Unreachable`] when the faults sever every path.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not on the mesh.
    pub fn hops(&self, dst: NodeId) -> Result<u32, RouteError> {
        match self.hops[self.mesh.node_index(dst) as usize] {
            DEAD => Err(RouteError::DeadEndpoint(dst)),
            CUT_OFF => Err(RouteError::Unreachable { src: self.src, dst }),
            hops => Ok(hops),
        }
    }

    /// Replaces `out` with the dense ids ([`Mesh::link_id`]) of the route's
    /// links to `dst`, in traversal order.
    ///
    /// # Errors
    ///
    /// As [`SourceRoutes::hops`]; `out` is left as it was.
    pub fn links_into(&self, dst: NodeId, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.hops(dst)?;
        out.clear();
        let mut at = self.mesh.node_index(dst) as usize;
        if self.xy[at] {
            let mut cur = self.src;
            while cur != dst {
                let next = xy_next(cur, dst);
                out.push(self.mesh.link_id(Link::new(cur, next)));
                cur = next;
            }
        } else {
            // Back up the tree to the source, then turn the links around.
            while self.via[at] != NO_LINK {
                out.push(self.via[at]);
                at = (self.via[at] / 4) as usize;
            }
            out.reverse();
        }
        Ok(())
    }
}

/// Fault-aware routing for one pair: the route [`FaultState::routes_from`]
/// resolves — XY when the XY route is healthy, otherwise the shortest
/// detour over live nodes and healthy links.
///
/// With a trivial (empty) fault state this *is* [`routing::route`] — same
/// path, same code, so healthy runs stay bit-identical.
///
/// Lossy links do not affect the path: they deliver (eventually), so
/// detouring around them is the simulator's retry policy's job, not the
/// router's.
///
/// # Errors
///
/// [`RouteError::DeadEndpoint`] when `src` or `dst` is dead,
/// [`RouteError::Unreachable`] when the faults sever every path.
pub fn route_avoiding(
    src: NodeId,
    dst: NodeId,
    state: &FaultState,
) -> Result<RoutePath, RouteError> {
    if state.is_trivial() {
        return Ok(routing::route(src, dst));
    }
    let mut ids = Vec::new();
    state.routes_from(src)?.links_into(dst, &mut ids)?;
    Ok(RoutePath::from_links(ids.into_iter().map(|id| state.mesh.link_at(id)).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(6, 6)
    }

    fn state(plan: FaultPlan) -> FaultState {
        FaultState::new(plan, mesh()).unwrap()
    }

    /// Checks the detour-path invariants: contiguous adjacent hops from
    /// `src` to `dst`, never touching a dead node or dead link.
    fn check_path(path: &RoutePath, src: NodeId, dst: NodeId, st: &FaultState) {
        let mut cur = src;
        for l in path.links() {
            assert_eq!(l.src(), cur, "path must be contiguous");
            assert!(l.src().is_adjacent(l.dst()), "every hop must be adjacent");
            assert!(st.link_ok(l.src(), l.dst()), "path uses dead link {l:?}");
            assert!(!st.is_dead(l.dst()), "path enters dead node {}", l.dst());
            cur = l.dst();
        }
        assert_eq!(cur, dst, "path must reach dst");
    }

    #[test]
    fn trivial_state_routes_exactly_like_xy() {
        let st = state(FaultPlan::healthy());
        for (a, b) in [((0, 0), (5, 5)), ((3, 1), (0, 4)), ((2, 2), (2, 2))] {
            let s = NodeId::new(a.0, a.1);
            let d = NodeId::new(b.0, b.1);
            assert_eq!(route_avoiding(s, d, &st).unwrap(), routing::route(s, d));
        }
    }

    #[test]
    fn detours_around_a_dead_link() {
        let mut plan = FaultPlan::healthy();
        plan.kill_link(NodeId::new(1, 0), NodeId::new(2, 0));
        let st = state(plan);
        let (s, d) = (NodeId::new(0, 0), NodeId::new(5, 0));
        let path = route_avoiding(s, d, &st).unwrap();
        check_path(&path, s, d, &st);
        // Minimal detour: 2 extra hops around the severed wire.
        assert_eq!(path.len(), s.manhattan(d) + 2);
    }

    #[test]
    fn detours_around_a_dead_node() {
        let mut plan = FaultPlan::healthy();
        plan.kill_node(NodeId::new(3, 0));
        let st = state(plan);
        let (s, d) = (NodeId::new(0, 0), NodeId::new(5, 0));
        let path = route_avoiding(s, d, &st).unwrap();
        check_path(&path, s, d, &st);
        assert_eq!(path.len(), s.manhattan(d) + 2);
    }

    #[test]
    fn healthy_xy_kept_even_with_faults_elsewhere() {
        let mut plan = FaultPlan::healthy();
        plan.kill_node(NodeId::new(5, 5));
        let st = state(plan);
        let (s, d) = (NodeId::new(0, 0), NodeId::new(3, 0));
        assert_eq!(route_avoiding(s, d, &st).unwrap(), routing::route(s, d));
    }

    #[test]
    fn dead_endpoint_is_an_error() {
        let mut plan = FaultPlan::healthy();
        plan.kill_node(NodeId::new(2, 2));
        let st = state(plan);
        let err = route_avoiding(NodeId::new(2, 2), NodeId::new(0, 0), &st).unwrap_err();
        assert_eq!(err, RouteError::DeadEndpoint(NodeId::new(2, 2)));
        let err = route_avoiding(NodeId::new(0, 0), NodeId::new(2, 2), &st).unwrap_err();
        assert_eq!(err, RouteError::DeadEndpoint(NodeId::new(2, 2)));
    }

    #[test]
    fn severed_destination_is_unreachable() {
        // Cut all four links around (0,0) without killing it.
        let mut plan = FaultPlan::healthy();
        plan.kill_link(NodeId::new(0, 0), NodeId::new(1, 0));
        plan.kill_link(NodeId::new(0, 0), NodeId::new(0, 1));
        let st = state(plan);
        let err = route_avoiding(NodeId::new(5, 5), NodeId::new(0, 0), &st).unwrap_err();
        assert!(matches!(err, RouteError::Unreachable { .. }));
        // And the isolated node is not usable.
        assert!(!st.is_usable(NodeId::new(0, 0)));
        assert_eq!(st.live_nodes().len(), 35);
    }

    #[test]
    fn lossy_links_do_not_change_the_route() {
        let mut plan = FaultPlan::with_seed(1);
        plan.lossy_link(NodeId::new(1, 0), NodeId::new(2, 0), 0.9);
        let st = state(plan);
        let (s, d) = (NodeId::new(0, 0), NodeId::new(5, 0));
        assert_eq!(route_avoiding(s, d, &st).unwrap(), routing::route(s, d));
    }

    #[test]
    fn drop_schedule_is_deterministic_and_tracks_probability() {
        let mk = || {
            let mut plan = FaultPlan::with_seed(99);
            plan.lossy_link(NodeId::new(0, 0), NodeId::new(1, 0), 0.3);
            state(plan)
        };
        let link = Link::new(NodeId::new(0, 0), NodeId::new(1, 0));
        let mut a = mk();
        let mut b = mk();
        let da: Vec<bool> = (0..2000).map(|_| a.should_drop(link)).collect();
        let db: Vec<bool> = (0..2000).map(|_| b.should_drop(link)).collect();
        assert_eq!(da, db, "drop schedule must be deterministic");
        let drops = da.iter().filter(|&&d| d).count();
        assert!((400..800).contains(&drops), "got {drops}/2000 at p=0.3");
        // Both directions of the wire share the schedule counter.
        let mut c = mk();
        assert_eq!(c.should_drop(link), da[0]);
        assert_eq!(c.should_drop(link.reversed()), da[1]);
    }

    #[test]
    fn healthy_links_never_drop() {
        let mut st = state(FaultPlan::with_seed(7));
        let link = Link::new(NodeId::new(0, 0), NodeId::new(1, 0));
        assert!((0..100).all(|_| !st.should_drop(link)));
    }

    #[test]
    fn nearest_live_rehoming() {
        let mut plan = FaultPlan::healthy();
        plan.kill_node(NodeId::new(0, 0));
        let st = state(plan);
        // Ties between (1,0) and (0,1) break toward row-major order.
        assert_eq!(st.nearest_live(NodeId::new(0, 0)), NodeId::new(1, 0));
        assert_eq!(st.nearest_live(NodeId::new(3, 3)), NodeId::new(3, 3));
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let mut off = FaultPlan::healthy();
        off.kill_node(NodeId::new(9, 9));
        assert_eq!(
            FaultState::new(off, mesh()).unwrap_err(),
            FaultError::OffMesh(NodeId::new(9, 9))
        );
        let mut notlink = FaultPlan::healthy();
        notlink.kill_link(NodeId::new(0, 0), NodeId::new(2, 0));
        assert!(matches!(FaultState::new(notlink, mesh()).unwrap_err(), FaultError::NotALink(..)));
        let mut all = FaultPlan::healthy();
        for n in mesh().nodes() {
            all.kill_node(n);
        }
        assert_eq!(FaultState::new(all, mesh()).unwrap_err(), FaultError::NoLiveNodes);
    }

    #[test]
    fn random_plans_are_deterministic_and_sized() {
        let a = FaultPlan::random(mesh(), 0.10, 0.05, 0.1, 0.2, 12);
        let b = FaultPlan::random(mesh(), 0.10, 0.05, 0.1, 0.2, 12);
        assert_eq!(a, b);
        assert_eq!(a.dead_nodes().count(), 4, "10% of 36 nodes rounds to 4");
        let c = FaultPlan::random(mesh(), 0.10, 0.05, 0.1, 0.2, 13);
        assert_ne!(a, c, "different seeds should differ");
        // dead_frac 0 with zero link probabilities is the healthy plan.
        assert!(FaultPlan::random(mesh(), 0.0, 0.0, 0.0, 0.0, 5).is_empty());
    }

    #[test]
    fn usable_pairs_always_route() {
        let plan = FaultPlan::random(mesh(), 0.2, 0.1, 0.0, 0.0, 3);
        let st = state(plan);
        let live = st.live_nodes().to_vec();
        for &a in &live {
            for &b in &live {
                let path = route_avoiding(a, b, &st).unwrap();
                check_path(&path, a, b, &st);
            }
        }
    }
}
