//! The execution engine: per-node clocks over a subcomputation schedule.

use crate::cachesim::{CacheSystem, ServedBy};
use crate::network::Network;
use crate::report::{EnergyBreakdown, SimReport};
use dmcp_core::{Layout, Operand, Schedule, Step};
use dmcp_ir::Program;
use dmcp_mach::{FaultState, NodeId};
use dmcp_mem::predictor::PredictorAccuracy;
use dmcp_mem::MemoryMode;
use std::collections::HashMap;

/// Simulation options, including the paper's counterfactual knobs.
#[derive(Clone, Copy, Debug)]
pub struct SimOptions {
    /// Memory mode in effect (flat / cache / hybrid MCDRAM).
    pub memory_mode: MemoryMode,
    /// Zero-latency network (Figure 17's "ideal network").
    pub ideal_network: bool,
    /// Enforce this L1 hit rate instead of the simulated one (Figure 18's
    /// S1: the default code with the optimized code's L1 pattern).
    pub l1_rate_override: Option<f64>,
    /// Scale the *timing* of every network trip (Figure 18's S2: the
    /// default code with the optimized code's data-movement costs).
    pub movement_scale: Option<f64>,
    /// Scale compute time (Figure 18's S3: the default code with the
    /// optimized code's degree of parallelism).
    pub compute_scale: Option<f64>,
    /// Extra synchronization cycles charged per statement instance
    /// (Figure 18's S4: the default code plus the optimized code's
    /// synchronization costs).
    pub extra_sync_per_statement: f64,
    /// Record per-statement-instance movement (needed by Figure 13).
    pub track_instances: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            memory_mode: MemoryMode::Flat,
            ideal_network: false,
            l1_rate_override: None,
            movement_scale: None,
            compute_scale: None,
            extra_sync_per_statement: 0.0,
            track_instances: false,
        }
    }
}

/// Enforces a target hit rate deterministically: each access is declared a
/// hit iff doing so keeps the running rate at or below the target.
#[derive(Clone, Copy, Debug, Default)]
struct RateEnforcer {
    hits: u64,
    total: u64,
}

impl RateEnforcer {
    fn decide(&mut self, target: f64) -> bool {
        self.total += 1;
        let hit = (self.hits as f64 + 1.0) / self.total as f64 <= target;
        if hit {
            self.hits += 1;
        }
        hit
    }
}

/// The simulator state across one or more schedules.
pub struct Engine<'a> {
    program: &'a Program,
    layout: &'a Layout,
    opts: SimOptions,
    network: Network,
    caches: CacheSystem,
    /// Each node's capacity frontier, indexed by [`dmcp_mach::Mesh::node_index`].
    node_time: Vec<f64>,
    finish: Vec<f64>,
    finish_node: Vec<NodeId>,
    sync_count: u64,
    sync_wait: f64,
    ops: u64,
    movement: u64,
    accuracy: PredictorAccuracy,
    l1_enforcer: RateEnforcer,
    per_instance: HashMap<(u32, u64), u64>,
    /// Forced stat counters when the L1 rate is overridden.
    forced_l1: Option<(u64, u64)>,
    max_finish: f64,
}

impl<'a> Engine<'a> {
    /// Creates an engine with cold caches and an idle network.
    pub fn new(program: &'a Program, layout: &'a Layout, opts: SimOptions) -> Self {
        let machine = layout.machine();
        Self::with_network(program, layout, opts, Network::new(machine.latency, machine.mesh))
    }

    /// [`Engine::new`] with a given idle network, set to the options'
    /// network knobs.
    fn with_network(
        program: &'a Program,
        layout: &'a Layout,
        opts: SimOptions,
        mut network: Network,
    ) -> Self {
        let machine = layout.machine();
        network.zero_latency = opts.ideal_network;
        if let Some(s) = opts.movement_scale {
            network.distance_scale = s;
        }
        Self {
            program,
            layout,
            opts,
            network,
            caches: CacheSystem::new(machine, opts.memory_mode),
            node_time: vec![0.0; machine.mesh.node_count() as usize],
            finish: Vec::new(),
            finish_node: Vec::new(),
            sync_count: 0,
            sync_wait: 0.0,
            ops: 0,
            movement: 0,
            accuracy: PredictorAccuracy::default(),
            l1_enforcer: RateEnforcer::default(),
            per_instance: HashMap::new(),
            forced_l1: if opts.l1_rate_override.is_some() { Some((0, 0)) } else { None },
            max_finish: 0.0,
        }
    }

    /// [`Engine::new`] on a degraded machine: transfers route around
    /// faults (and pay for detours, drops and retries), and movement is
    /// counted over the links actually traversed. The caller should pass a
    /// layout that had the same fault state applied
    /// ([`Layout::apply_faults`]) so placement and timing agree on the
    /// degraded mesh.
    ///
    /// A trivial fault state leaves the engine bit-identical to
    /// [`Engine::new`].
    pub fn with_faults(
        program: &'a Program,
        layout: &'a Layout,
        opts: SimOptions,
        faults: FaultState,
    ) -> Self {
        let network = Network::with_faults(layout.machine().latency, faults);
        Self::with_network(program, layout, opts, network)
    }

    /// Executes one nest's schedule. Nests are separated by a global
    /// barrier (every node's clock advances to the global maximum, whether
    /// or not it ran anything yet).
    pub fn run(&mut self, schedule: &Schedule) {
        self.barrier();
        let base = self.finish.len();
        self.finish.resize(base + schedule.steps.len(), 0.0);
        self.finish_node.resize(base + schedule.steps.len(), NodeId::new(0, 0));
        for step in &schedule.steps {
            let t = self.run_step(step, base);
            self.finish[base + step.id.index()] = t;
            self.finish_node[base + step.id.index()] = step.node;
            if t > self.max_finish {
                self.max_finish = t;
            }
        }
    }

    fn barrier(&mut self) {
        self.node_time.fill(self.max_finish);
    }

    fn node_index(&self, node: NodeId) -> usize {
        self.layout.machine().mesh.node_index(node) as usize
    }

    /// Timing model: a node's *capacity* is consumed by service time only;
    /// waiting on remote producers does not occupy the core, because the
    /// generated code interleaves each node's own assigned iterations with
    /// pending subcomputations (paper Section 4.5, code generation). A step
    /// therefore starts at `max(node capacity frontier, producer arrivals)`.
    fn run_step(&mut self, step: &Step, base: usize) -> f64 {
        let machine = self.layout.machine();
        let lat = machine.latency;
        let node = step.node;
        let node_index = self.node_index(node);
        let capacity = self.node_time[node_index];
        let mut start = capacity;

        // Temp inputs carry partial results: a cross-node producer implies
        // a data transfer plus a synchronization.
        for input in &step.inputs {
            if let Operand::Temp(p) = input.operand {
                let pf = self.finish[base + p.index()];
                let pn = self.finish_node[base + p.index()];
                if pn == node {
                    start = start.max(pf);
                } else {
                    let links = self.network.path_len(pn, node);
                    let arrival = pf + self.network.transfer(pn, node) + lat.sync;
                    self.movement += u64::from(links);
                    self.track(step, links);
                    self.sync_count += 1;
                    if arrival > start {
                        self.sync_wait += arrival - start;
                        start = arrival;
                    }
                }
            }
        }
        // Wait arcs are ordering-only (anti/output deps, or flow deps whose
        // data arrives through the cache hierarchy): a cross-node arc costs
        // a synchronization flag, not a data transfer.
        for &p in &step.waits {
            let pf = self.finish[base + p.index()];
            let pn = self.finish_node[base + p.index()];
            if pn == node {
                start = start.max(pf);
            } else {
                let arrival = pf + self.request_latency(pn, node) + lat.sync;
                self.sync_count += 1;
                if arrival > start {
                    self.sync_wait += arrival - start;
                    start = arrival;
                }
            }
        }

        // Operand fetches: issued with bounded memory-level parallelism —
        // the step stalls for the slowest fetch or for the aggregate
        // latency divided by the MLP width, whichever is larger.
        const MLP: f64 = 4.0;
        let mut fetch_max = 0.0f64;
        let mut fetch_sum = 0.0f64;
        for input in &step.inputs {
            if let Operand::Elem(e) = input.operand {
                let f = self.fetch(step, node, e);
                fetch_max = fetch_max.max(f);
                fetch_sum += f;
            }
        }
        let fetch = fetch_max.max(fetch_sum / MLP);

        // Compute.
        let op_units: f64 = step.inputs.iter().map(|i| i.op.cost(lat.div_factor)).sum();
        self.ops += step.inputs.len() as u64;
        let mut compute = op_units * lat.op;
        if let Some(s) = self.opts.compute_scale {
            compute *= s;
        }
        // S4: the transplanted synchronization cost delays this statement's
        // completion the same way the optimized run pays it — as latency
        // that overlaps with the node's other work, not as throughput.
        let extra_sync =
            self.opts.extra_sync_per_statement * f64::from(u8::from(step.store.is_some()));

        // Store: the result travels to its home bank.
        let mut store_lat = 0.0;
        if let Some(st) = &step.store {
            self.caches.write(node, st.line, st.home);
            if st.home != node {
                let links = self.network.path_len(node, st.home);
                store_lat = self.network.transfer(node, st.home);
                self.movement += u64::from(links);
                self.track(step, links);
            }
        }

        // Latency (this step's completion) and occupancy (node throughput
        // consumed) are distinct: fetch latency overlaps with other work
        // thanks to non-blocking caches, so only issue slots occupy the
        // core; the step itself still finishes after its slowest fetch.
        let latency = fetch + compute + store_lat + extra_sync;
        let elems =
            step.inputs.iter().filter(|i| matches!(i.operand, Operand::Elem(_))).count() as f64;
        let occupancy = compute + store_lat.min(4.0) + 2.0 * elems + 1.0;
        self.node_time[node_index] = capacity + occupancy;
        start + latency
    }

    /// One operand fetch: walks the hierarchy and returns its latency.
    fn fetch(&mut self, step: &Step, node: NodeId, e: dmcp_core::ElemLoc) -> f64 {
        let machine = self.layout.machine();
        let lat = machine.latency;
        let info = self.layout.locate(self.program, e.array, e.elem, node);
        let home = info.home;

        // Predictor-accuracy bookkeeping: the compiler predicted on-chip iff
        // it placed the operand at the home bank (vs the controller).
        let predicted_onchip = e.believed == home;
        let check_prediction = e.believed == home || e.believed == info.mc;

        let mut served = self.caches.read(node, e.line, home, info.hot);
        if let Some(target) = self.opts.l1_rate_override {
            // S1: enforce a synthetic L1 pattern for timing & stats.
            let forced_hit = self.l1_enforcer.decide(target);
            let (h, m) = self.forced_l1.get_or_insert((0, 0));
            if forced_hit {
                *h += 1;
                served = ServedBy::L1;
            } else {
                *m += 1;
                if served == ServedBy::L1 {
                    served = ServedBy::L2;
                }
            }
        }
        if check_prediction {
            let actual_onchip = !matches!(served, ServedBy::Memory(_));
            self.accuracy.record(predicted_onchip, actual_onchip);
        }

        match served {
            ServedBy::L1 => lat.l1_hit,
            ServedBy::L2 => {
                let req = self.request_latency(node, home);
                let links = self.network.path_len(home, node);
                let back = self.network.transfer(home, node);
                self.movement += u64::from(links);
                self.track(step, links);
                lat.l1_hit + req + lat.l2_hit + back
            }
            ServedBy::Memory(tier) => {
                let mc = info.mc;
                let req = self.request_latency(node, home) + self.request_latency(home, mc);
                let mem = match tier {
                    dmcp_mem::MemTier::Fast => lat.fast_mem,
                    dmcp_mem::MemTier::Slow => lat.slow_mem,
                };
                // The controller forwards the critical line directly to the
                // requester (Eq. 1 measures distance-to-MC for misses); the
                // home-bank fill happens in the background and is not on
                // the requester's path.
                let links = self.network.path_len(mc, node);
                let back = self.network.transfer(mc, node);
                self.movement += u64::from(links);
                self.track(step, links);
                lat.l1_hit + req + lat.l2_hit + mem + back
            }
        }
    }

    /// Latency of a (small) request message: hop latency only — requests
    /// are not counted as data movement. On a faulty mesh the request
    /// follows the same detour route data would.
    fn request_latency(&self, src: NodeId, dst: NodeId) -> f64 {
        if self.opts.ideal_network {
            return 0.0;
        }
        let scale = self.opts.movement_scale.unwrap_or(1.0);
        f64::from(self.network.path_len(src, dst)) * self.layout.machine().latency.hop * scale
    }

    fn track(&mut self, step: &Step, links: u32) {
        if self.opts.track_instances {
            *self.per_instance.entry((step.tag.nest, step.tag.instance)).or_insert(0) +=
                u64::from(links);
        }
    }

    /// Per-node accumulated service time (capacity frontiers) of every
    /// mesh node, in row-major order — the node utilization view of the
    /// run.
    pub fn node_service(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.layout.machine().mesh.nodes().zip(self.node_time.iter().copied())
    }

    /// The network state (per-link loads, latency statistics).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Finalises the run and produces the report.
    pub fn report(&self) -> SimReport {
        let machine = self.layout.machine();
        let busiest = self.node_time.iter().copied().fold(0.0, f64::max);
        let exec_time = self.max_finish.max(busiest);
        let (mut l1h, mut l1m, l2h, l2m, fast, slow) = self.caches.counters();
        if let Some((fh, fm)) = self.forced_l1 {
            l1h = fh;
            l1m = fm;
        }
        let e = machine.energy;
        let energy = EnergyBreakdown {
            link: e.link * self.movement as f64,
            cache: e.l1 * (l1h + l1m) as f64 + e.l2 * (l2h + l2m) as f64,
            memory: e.fast_mem * fast as f64 + e.slow_mem * slow as f64,
            op: e.op * self.ops as f64,
            background: e.static_per_cycle * exec_time * f64::from(machine.mesh.node_count()),
        };
        SimReport {
            busiest_node: busiest,
            last_finish: self.max_finish,
            exec_time,
            movement: self.movement,
            messages: self.network.messages(),
            net_avg_latency: self.network.avg_latency(),
            net_max_latency: self.network.max_latency(),
            l1_hits: l1h,
            l1_misses: l1m,
            l2_hits: l2h,
            l2_misses: l2m,
            mem_fast: fast,
            mem_slow: slow,
            sync_count: self.sync_count,
            sync_wait: self.sync_wait,
            ops: self.ops,
            predictor_accuracy: self.accuracy.accuracy(),
            energy,
            per_instance_movement: self.per_instance.clone(),
            net_retries: self.network.retries(),
            net_detour_hops: self.network.detour_hops(),
            net_dropped_flits: self.network.dropped_flits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_core::{PartitionConfig, Partitioner};
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;

    fn setup() -> (Program, MachineConfig, Partitioner) {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E"] {
            b.array(n, &[512], 64);
        }
        b.nest(&[("t", 0, 4), ("i", 0, 128)], &["A[i] = B[i] + C[i] + D[i] + E[i]"]).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &program, PartitionConfig::default());
        (program, machine, part)
    }

    fn simulate(
        program: &Program,
        part: &Partitioner,
        out: &dmcp_core::PartitionOutput,
        opts: SimOptions,
    ) -> SimReport {
        let mut engine = Engine::new(program, part.layout(), opts);
        for nest in &out.nests {
            engine.run(&nest.schedule);
        }
        engine.report()
    }

    #[test]
    fn optimized_beats_baseline_in_time_and_movement() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let opt = part.partition_with_data(&program, &data);
        let base = part.baseline(&program, &data);
        let r_opt = simulate(&program, &part, &opt, SimOptions::default());
        let r_base = simulate(&program, &part, &base, SimOptions::default());
        assert!(
            r_opt.movement < r_base.movement,
            "movement {} !< {}",
            r_opt.movement,
            r_base.movement
        );
        assert!(
            r_opt.exec_time < r_base.exec_time,
            "time {} !< {}",
            r_opt.exec_time,
            r_base.exec_time
        );
    }

    #[test]
    fn ideal_network_is_faster_still() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let opt = part.partition_with_data(&program, &data);
        let r = simulate(&program, &part, &opt, SimOptions::default());
        let r_ideal = simulate(
            &program,
            &part,
            &opt,
            SimOptions { ideal_network: true, ..SimOptions::default() },
        );
        assert!(r_ideal.exec_time < r.exec_time);
        assert_eq!(r_ideal.net_avg_latency, 0.0);
        // Movement (links) is a property of the schedule, not the timing.
        assert_eq!(r_ideal.movement, r.movement);
    }

    #[test]
    fn l1_override_enforces_rate() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let base = part.baseline(&program, &data);
        let r = simulate(
            &program,
            &part,
            &base,
            SimOptions { l1_rate_override: Some(0.8), ..SimOptions::default() },
        );
        assert!((r.l1_hit_rate() - 0.8).abs() < 0.02, "rate {}", r.l1_hit_rate());
    }

    #[test]
    fn movement_scale_speeds_up_network_time() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let base = part.baseline(&program, &data);
        let r1 = simulate(&program, &part, &base, SimOptions::default());
        let r2 = simulate(
            &program,
            &part,
            &base,
            SimOptions { movement_scale: Some(0.5), ..SimOptions::default() },
        );
        assert!(r2.exec_time < r1.exec_time);
    }

    #[test]
    fn sync_counted_for_split_schedules() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let opt = part.partition_with_data(&program, &data);
        let r = simulate(&program, &part, &opt, SimOptions::default());
        assert!(r.sync_count > 0, "split schedules should synchronize");
    }

    #[test]
    fn instance_tracking_records_movement() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let base = part.baseline(&program, &data);
        let r = simulate(
            &program,
            &part,
            &base,
            SimOptions { track_instances: true, ..SimOptions::default() },
        );
        assert!(!r.per_instance_movement.is_empty());
        let sum: u64 = r.per_instance_movement.values().sum();
        assert_eq!(sum, r.movement);
    }

    #[test]
    fn predictor_accuracy_is_measured() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let opt = part.partition_with_data(&program, &data);
        let r = simulate(&program, &part, &opt, SimOptions::default());
        assert!(r.predictor_accuracy > 0.0 && r.predictor_accuracy <= 1.0);
    }

    #[test]
    fn nests_are_separated_by_a_barrier() {
        // Two nests: the second's start must not precede the first's end.
        let mut b = dmcp_ir::ProgramBuilder::new();
        for n in ["A", "B"] {
            b.array(n, &[128], 64);
        }
        b.nest(&[("i", 0, 64)], &["A[i] = B[i] + 1"]).unwrap();
        b.nest(&[("i", 0, 64)], &["B[i] = A[i] * 2"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let out = part.baseline(&p, &data);
        // Run nest 1 alone vs both: total time must be at least nest 1's.
        let mut e1 = Engine::new(&p, part.layout(), SimOptions::default());
        e1.run(&out.nests[0].schedule);
        let t1 = e1.report().exec_time;
        let mut e2 = Engine::new(&p, part.layout(), SimOptions::default());
        e2.run(&out.nests[0].schedule);
        e2.run(&out.nests[1].schedule);
        let t2 = e2.report().exec_time;
        assert!(t2 > t1, "second nest must add time after the barrier");
    }

    /// Regression: the barrier used to advance only the nodes that had
    /// already run a step, so a node idle in nest 0 started nest 1 at
    /// cycle 0, before nest 0 had finished.
    #[test]
    fn the_barrier_holds_back_nodes_idle_in_the_previous_nest() {
        let mut b = dmcp_ir::ProgramBuilder::new();
        for n in ["A", "B"] {
            b.array(n, &[128], 64);
        }
        b.nest(&[("i", 0, 64)], &["A[i] = B[i] + 1"]).unwrap();
        b.nest(&[("i", 0, 64)], &["B[i] = A[i] * 2"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let data = p.initial_data();
        // Nest 0 runs entirely on (0,0); nest 1 spreads over the mesh.
        let pinned = PartitionConfig {
            assignment: Some(vec![NodeId::new(0, 0)]),
            ..PartitionConfig::default()
        };
        let nest0 = Partitioner::new(&machine, &p, pinned).baseline(&p, &data).nests[0].clone();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let nest1 = part.baseline(&p, &data).nests[1].clone();
        assert!(nest0.schedule.steps.iter().all(|s| s.node == NodeId::new(0, 0)));

        let mut engine = Engine::new(&p, part.layout(), SimOptions::default());
        engine.run(&nest0.schedule);
        let barrier = engine.report().last_finish;
        engine.run(&nest1.schedule);
        let frontiers: Vec<(NodeId, f64)> = engine.node_service().collect();
        assert_eq!(frontiers.len(), machine.mesh.node_count() as usize);
        for (node, t) in frontiers {
            assert!(t >= barrier, "{node} resumed at {t} before the nest-0 barrier {barrier}");
        }
    }

    #[test]
    fn extra_sync_charge_slows_the_run() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let base = part.baseline(&program, &data);
        let plain = simulate(&program, &part, &base, SimOptions::default());
        let charged = simulate(
            &program,
            &part,
            &base,
            SimOptions { extra_sync_per_statement: 50.0, ..SimOptions::default() },
        );
        assert!(
            charged.exec_time > plain.exec_time,
            "S4's transplanted sync cost must slow the default run"
        );
    }

    /// Regression: background energy converted the node count through
    /// `u16`, so on a mesh of 65,536 or more nodes it wrapped (to 0 on
    /// 256×256). One step with a corner-to-corner store stays cheap there
    /// because caches are created on first touch.
    #[test]
    fn background_energy_counts_every_node_of_a_huge_mesh() {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B"] {
            b.array(n, &[8], 64);
        }
        b.nest(&[("i", 0, 8)], &["A[i] = B[i] + 1"]).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like().with_mesh(dmcp_mach::Mesh::new(256, 256));
        let layout = Layout::new(&machine, &program, dmcp_mem::page::PagePolicy::default());
        let (array, elem) = (dmcp_ir::ArrayId::from_index(0), 0);
        let info = layout.locate(&program, array, elem, NodeId::new(255, 255));
        let step = Step {
            id: dmcp_core::SubId(0),
            node: NodeId::new(255, 255),
            seed: Some(1.0),
            inputs: Vec::new(),
            store: Some(dmcp_core::StoreTarget {
                array,
                elem,
                line: info.line,
                home: info.home,
                hot: false,
            }),
            waits: Vec::new(),
            tag: dmcp_core::StmtTag::default(),
        };
        let mut engine = Engine::new(&program, &layout, SimOptions::default());
        engine.run(&Schedule { steps: vec![step] });
        let r = engine.report();
        assert!(r.exec_time > 0.0);
        let want = machine.energy.static_per_cycle * r.exec_time * 65_536.0;
        assert_eq!(r.energy.background, want, "background energy must count all 65,536 nodes");
    }

    #[test]
    fn energy_components_are_positive() {
        let (program, _, part) = setup();
        let data = program.initial_data();
        let opt = part.partition_with_data(&program, &data);
        let r = simulate(&program, &part, &opt, SimOptions::default());
        assert!(r.energy.link > 0.0);
        assert!(r.energy.cache > 0.0);
        assert!(r.energy.memory > 0.0);
        assert!(r.energy.op > 0.0);
        assert!(r.energy.background > 0.0);
    }
}
