//! On-chip network model: XY routing, per-link utilisation and contention.
//!
//! Latency of one transfer = `hops × hop_latency + Σ contention · load(l)`
//! over the links `l` of the XY route, where `load` is an exponentially
//! decayed traversal count — a queueing-style approximation that makes hot
//! links slower, which is what the paper's Figure 19 (average/maximum
//! network latency) measures.
//!
//! Link loads live in a vector indexed by dense link id
//! ([`Mesh::link_id`]), and a healthy transfer walks its XY route inline.
//! On a faulty mesh each source's routes are resolved once per run
//! ([`FaultState::routes_from`]), on the source's first transfer or
//! length query, and every later one reads them from that table.

use dmcp_mach::mesh::{MINUS_X, MINUS_Y, PLUS_X, PLUS_Y};
use dmcp_mach::{FaultState, LatencyModel, Link, Mesh, NodeId, RouteError, SourceRoutes};
use std::cell::OnceCell;

/// Decay applied to a link's load on each traversal (the effective window
/// is ~1/(1-decay) recent traversals).
const LOAD_DECAY: f64 = 0.98;

/// After this many drops of one message, the retransmission is assumed to
/// succeed (modelling a switch to a guaranteed-delivery mode). Bounds the
/// retry loop on arbitrarily lossy links.
const MAX_RETRIES: u32 = 6;

/// The network state: link loads plus latency statistics.
#[derive(Clone, Debug)]
pub struct Network {
    latency: LatencyModel,
    mesh: Mesh,
    /// Decayed load per dense link id; 0 on links never traversed.
    load: Vec<f64>,
    messages: u64,
    latency_sum: f64,
    latency_max: f64,
    links_traversed: u64,
    /// Routing state driving detours, drops and retries; `None` on a
    /// healthy mesh, where [`Network::transfer`] walks XY routes.
    faults: Option<Box<FaultRouting>>,
    retries: u64,
    detour_hops: u64,
    dropped_flits: u64,
    /// When `true` every transfer takes zero time (the paper's
    /// ideal-network scenario); loads and link counts are still recorded.
    pub zero_latency: bool,
    /// Multiplier on the hop count used for *timing* (the S2 scenario
    /// scales the default code's movement down to the optimized one's).
    pub distance_scale: f64,
}

/// What a faulty mesh adds to the network.
#[derive(Clone, Debug)]
struct FaultRouting {
    /// The faults, which also keep the drop schedule.
    state: FaultState,
    /// Per dense link id: a lossy link (positive drop probability).
    lossy: Vec<bool>,
    /// Per source node index: its routes, resolved on first use.
    routes: Vec<OnceCell<Result<SourceRoutes, RouteError>>>,
    /// Link ids of the route in flight.
    path: Vec<u32>,
}

impl FaultRouting {
    fn new(state: FaultState) -> Self {
        let mesh = state.mesh();
        let mut lossy = vec![false; mesh.link_slots()];
        for (a, b, p) in state.plan().lossy_links() {
            if p > 0.0 {
                for link in [Link::new(a, b), Link::new(b, a)] {
                    lossy[mesh.link_id(link) as usize] = true;
                }
            }
        }
        let routes = (0..mesh.node_count()).map(|_| OnceCell::new()).collect();
        Self { state, lossy, routes, path: Vec::new() }
    }
}

/// The routes out of `src` in a [`FaultRouting`]'s table, resolved on the
/// source's first use. It takes the fields it reads, so a caller can keep
/// the others borrowed.
fn routes_out_of<'a>(
    routes: &'a [OnceCell<Result<SourceRoutes, RouteError>>],
    state: &FaultState,
    src: NodeId,
) -> Result<&'a SourceRoutes, RouteError> {
    let cell = &routes[state.mesh().node_index(src) as usize];
    cell.get_or_init(|| state.routes_from(src)).as_ref().map_err(Clone::clone)
}

impl Network {
    /// Creates an idle network on `mesh` with the given timing constants.
    pub fn new(latency: LatencyModel, mesh: Mesh) -> Self {
        Self {
            latency,
            mesh,
            load: vec![0.0; mesh.link_slots()],
            messages: 0,
            latency_sum: 0.0,
            latency_max: 0.0,
            links_traversed: 0,
            faults: None,
            retries: 0,
            detour_hops: 0,
            dropped_flits: 0,
            zero_latency: false,
            distance_scale: 1.0,
        }
    }

    /// Creates an idle network on the fault state's mesh, threaded with
    /// the faults. A trivial (empty) state is discarded, leaving the
    /// healthy fast path — healthy runs stay bit-identical whether or not
    /// they went through this constructor.
    pub fn with_faults(latency: LatencyModel, faults: FaultState) -> Self {
        let mut net = Self::new(latency, faults.mesh());
        if !faults.is_trivial() {
            net.faults = Some(Box::new(FaultRouting::new(faults)));
        }
        net
    }

    /// Performs one transfer of a cache-line-sized message from `src` to
    /// `dst`, updating link loads; returns its latency in cycles.
    ///
    /// A zero-hop transfer (same node) is free and not counted as a
    /// message.
    ///
    /// # Panics
    ///
    /// On a faulty mesh, panics when the endpoints are disconnected — the
    /// degraded partitioner only schedules on the connected live set, so a
    /// well-formed schedule never hits this. Use [`Network::try_transfer`]
    /// to observe the error instead.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId) -> f64 {
        self.try_transfer(src, dst).expect("transfer between unusable nodes")
    }

    /// Fallible [`Network::transfer`].
    ///
    /// On a faulty mesh the message follows the detour route around dead
    /// nodes/links; each traversal of a lossy link may drop the flit on
    /// its deterministic drop schedule, in which case the partial path is
    /// paid for, an exponential-backoff penalty accrues and the whole path
    /// is retransmitted (forced through after `MAX_RETRIES` drops).
    ///
    /// # Errors
    ///
    /// [`RouteError`] when faults disconnect `src` from `dst`.
    pub fn try_transfer(&mut self, src: NodeId, dst: NodeId) -> Result<f64, RouteError> {
        if src == dst {
            return Ok(0.0);
        }
        let Some(mut faults) = self.faults.take() else {
            let lat = self.walk_xy(src, dst);
            return Ok(self.finish_message(lat));
        };
        let result = self.walk_faulty(&mut faults, src, dst);
        self.faults = Some(faults);
        Ok(self.finish_message(result?))
    }

    /// Charges one traversal of link `id` and returns its latency: the
    /// hop plus contention at the link's load before this traversal.
    fn traverse(&mut self, id: usize) -> f64 {
        let load = &mut self.load[id];
        let lat = self.latency.hop + self.latency.contention * *load;
        *load = *load * LOAD_DECAY + 1.0;
        self.links_traversed += 1;
        lat
    }

    /// Walks the XY route from `src` to `dst` link by link (x first, then
    /// y) and returns the summed latency.
    fn walk_xy(&mut self, src: NodeId, dst: NodeId) -> f64 {
        let row = 4 * usize::from(self.mesh.cols());
        let mut base = 4 * self.mesh.node_index(src) as usize;
        let mut lat = 0.0;
        for _ in src.x()..dst.x() {
            lat += self.traverse(base + PLUS_X as usize);
            base += 4;
        }
        for _ in dst.x()..src.x() {
            lat += self.traverse(base + MINUS_X as usize);
            base -= 4;
        }
        for _ in src.y()..dst.y() {
            lat += self.traverse(base + PLUS_Y as usize);
            base += row;
        }
        for _ in dst.y()..src.y() {
            lat += self.traverse(base + MINUS_Y as usize);
            base -= row;
        }
        lat
    }

    /// Sends one message along its fault-aware route, resending it after
    /// each drop, and returns the summed latency.
    fn walk_faulty(
        &mut self,
        faults: &mut FaultRouting,
        src: NodeId,
        dst: NodeId,
    ) -> Result<f64, RouteError> {
        let FaultRouting { state, lossy, routes, path } = faults;
        routes_out_of(routes, state, src)?.links_into(dst, path)?;
        self.detour_hops += path.len() as u64 - u64::from(src.manhattan(dst));
        let mut lat = 0.0;
        let mut attempt = 0u32;
        loop {
            let mut delivered = true;
            for &id in path.iter() {
                lat += self.traverse(id as usize);
                if attempt < MAX_RETRIES
                    && lossy[id as usize]
                    && state.should_drop(self.mesh.link_at(id))
                {
                    // The flit died here: the partial traversal was already
                    // paid for; add the retransmission backoff and resend.
                    self.dropped_flits += 1;
                    lat += self.latency.hop * f64::from(1u32 << attempt);
                    delivered = false;
                    break;
                }
            }
            if delivered {
                return Ok(lat);
            }
            attempt += 1;
            self.retries += 1;
        }
    }

    /// Applies scaling/zero-latency and records message statistics.
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

    /// Number of links a message from `src` to `dst` traverses: the
    /// Manhattan distance on a healthy mesh, the detour length on a faulty
    /// one (falling back to Manhattan for disconnected pairs, which a
    /// well-formed schedule never requests).
    pub fn path_len(&self, src: NodeId, dst: NodeId) -> u32 {
        match &self.faults {
            None => src.manhattan(dst),
            Some(f) => routes_out_of(&f.routes, &f.state, src)
                .and_then(|r| r.hops(dst))
                .unwrap_or_else(|_| src.manhattan(dst)),
        }
    }

    /// Retransmissions caused by lossy links.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Extra links traversed because messages detoured around faults.
    pub fn detour_hops(&self) -> u64 {
        self.detour_hops
    }

    /// Flits dropped by lossy links.
    pub fn dropped_flits(&self) -> u64 {
        self.dropped_flits
    }

    /// Number of messages transferred.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total links traversed by all messages (the network footprint).
    pub fn links_traversed(&self) -> u64 {
        self.links_traversed
    }

    /// Mean message latency in cycles (0 when idle).
    pub fn avg_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.latency_sum / self.messages as f64
        }
    }

    /// Maximum message latency observed (a congestion indicator).
    pub fn max_latency(&self) -> f64 {
        self.latency_max
    }

    /// Current decayed loads of every link traversed so far, in dense
    /// link-id order (a congestion heatmap snapshot).
    pub fn link_loads(&self) -> impl Iterator<Item = (Link, f64)> + '_ {
        (0u32..)
            .zip(&self.load)
            .filter(|&(_, &load)| load > 0.0)
            .map(|(id, &load)| (self.mesh.link_at(id), load))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(LatencyModel::default(), Mesh::new(6, 6))
    }

    #[test]
    fn transfer_latency_scales_with_distance() {
        let mut n = net();
        let near = n.transfer(NodeId::new(0, 0), NodeId::new(1, 0));
        let mut n2 = net();
        let far = n2.transfer(NodeId::new(0, 0), NodeId::new(5, 5));
        assert!(far > near);
        assert_eq!(n2.links_traversed(), 10);
    }

    #[test]
    fn same_node_transfer_is_free() {
        let mut n = net();
        assert_eq!(n.transfer(NodeId::new(2, 2), NodeId::new(2, 2)), 0.0);
        assert_eq!(n.messages(), 0);
    }

    #[test]
    fn contention_grows_on_hot_links() {
        let mut n = net();
        let first = n.transfer(NodeId::new(0, 0), NodeId::new(3, 0));
        for _ in 0..50 {
            n.transfer(NodeId::new(0, 0), NodeId::new(3, 0));
        }
        let later = n.transfer(NodeId::new(0, 0), NodeId::new(3, 0));
        assert!(later > first, "contention should raise latency");
        assert!(n.max_latency() >= later);
    }

    #[test]
    fn avg_latency_tracks_messages() {
        let mut n = net();
        n.transfer(NodeId::new(0, 0), NodeId::new(1, 0));
        n.transfer(NodeId::new(0, 0), NodeId::new(2, 0));
        assert!(n.avg_latency() > 0.0);
        assert!(n.max_latency() >= n.avg_latency());
        assert_eq!(n.messages(), 2);
    }

    #[test]
    fn zero_latency_mode_still_counts_links() {
        let mut n = net();
        n.zero_latency = true;
        let lat = n.transfer(NodeId::new(0, 0), NodeId::new(4, 4));
        assert_eq!(lat, 0.0);
        assert_eq!(n.links_traversed(), 8);
        assert_eq!(n.avg_latency(), 0.0);
    }

    #[test]
    fn distance_scale_shrinks_latency() {
        let mut a = net();
        let full = a.transfer(NodeId::new(0, 0), NodeId::new(4, 0));
        let mut b = net();
        b.distance_scale = 0.5;
        let half = b.transfer(NodeId::new(0, 0), NodeId::new(4, 0));
        assert!((half - full / 2.0).abs() < 1e-9);
    }

    use dmcp_mach::FaultPlan;

    fn faulty(plan: FaultPlan) -> Network {
        let faults = FaultState::new(plan, Mesh::new(6, 6)).unwrap();
        Network::with_faults(LatencyModel::default(), faults)
    }

    #[test]
    fn trivial_faults_keep_transfers_bit_identical() {
        let mut healthy = net();
        let mut trivial = faulty(FaultPlan::healthy());
        for (s, d) in [((0, 0), (5, 5)), ((3, 1), (0, 4)), ((2, 2), (2, 3))] {
            let a = healthy.transfer(NodeId::new(s.0, s.1), NodeId::new(d.0, d.1));
            let b = trivial.transfer(NodeId::new(s.0, s.1), NodeId::new(d.0, d.1));
            assert_eq!(a.to_bits(), b.to_bits(), "healthy path must be bit-identical");
        }
        assert_eq!(healthy.links_traversed(), trivial.links_traversed());
        assert_eq!(trivial.retries(), 0);
        assert_eq!(trivial.detour_hops(), 0);
    }

    #[test]
    fn detours_count_extra_hops() {
        let mut plan = FaultPlan::healthy();
        plan.kill_node(NodeId::new(2, 0));
        let mut n = faulty(plan);
        let src = NodeId::new(0, 0);
        let dst = NodeId::new(5, 0);
        let lat = n.transfer(src, dst);
        assert!(lat > 0.0);
        assert_eq!(n.detour_hops(), 2, "one dead node on the row costs 2 extra hops");
        assert_eq!(n.links_traversed(), u64::from(src.manhattan(dst)) + 2);
        assert_eq!(n.path_len(src, dst), src.manhattan(dst) + 2);
    }

    #[test]
    fn lossy_links_retry_with_backoff_and_converge() {
        let mut plan = FaultPlan::with_seed(11);
        plan.lossy_link(NodeId::new(1, 0), NodeId::new(2, 0), 0.5);
        let mut n = faulty(plan);
        let mut clean = net();
        let mut total = 0.0;
        let mut clean_total = 0.0;
        for _ in 0..200 {
            total += n.transfer(NodeId::new(0, 0), NodeId::new(5, 0));
            clean_total += clean.transfer(NodeId::new(0, 0), NodeId::new(5, 0));
        }
        assert!(n.retries() > 0, "a 50% lossy link must force retries");
        assert_eq!(n.retries(), n.dropped_flits());
        assert!(total > clean_total, "drops must cost latency");
        assert_eq!(n.messages(), 200, "every message is eventually delivered");
    }

    #[test]
    fn disconnected_transfer_is_a_typed_error() {
        let mut plan = FaultPlan::healthy();
        plan.kill_link(NodeId::new(0, 0), NodeId::new(1, 0));
        plan.kill_link(NodeId::new(0, 0), NodeId::new(0, 1));
        let mut n = faulty(plan);
        let (src, dst) = (NodeId::new(0, 0), NodeId::new(5, 5));
        let err = n.try_transfer(src, dst).unwrap_err();
        assert_eq!(err, RouteError::Unreachable { src, dst });
        assert_eq!(n.messages(), 0, "failed transfers are not messages");
    }
}
