//! The top-level partitioner: the configuration and the planning entry
//! point.
//!
//! Every loop nest is planned at one window size,
//! [`PartitionConfig::window`]. The paper's pre-processing step (Section
//! 4.4) instead plans a sample of each nest at every window from 1 to 8
//! and keeps the one with the least planned movement; in the simulator
//! that search never beat a fixed window of 6, so the planner has no
//! search (DESIGN.md §7.12). The result is one [`Schedule`] per nest
//! plus all the statistics the evaluation needs.

use crate::error::PartitionError;
use crate::layout::Layout;
use crate::pipeline::{passes, PlanCtx};
use crate::resolve::HitPredictor;
use crate::split::PlanOptions;
use crate::step::Schedule;
use crate::window::NestStats;
use dmcp_ir::program::{DataStore, Program};
use dmcp_mach::{FaultState, MachineConfig, Mesh, NodeId};
use dmcp_mem::page::PagePolicy;
use dmcp_mem::MissPredictor;
use dmcp_pool::Pool;

/// How to construct the L2 hit predictor for each planning run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Reuse-distance predictor sized to the machine's aggregate L2
    /// (the realistic configuration; paper Table 2).
    Reuse,
    /// Always predict on-chip hits (tests/ablations).
    AlwaysHit,
}

impl PredictorSpec {
    /// Builds a fresh predictor for one nest-planning run.
    pub fn build(self, machine: &MachineConfig) -> HitPredictor {
        match self {
            PredictorSpec::Reuse => {
                let lines = u64::from(machine.l2_bank_bytes / machine.cache_line)
                    * u64::from(machine.mesh.node_count());
                HitPredictor::Reuse(MissPredictor::new(lines))
            }
            PredictorSpec::AlwaysHit => HitPredictor::AlwaysHit,
        }
    }
}

/// The planner's revision. [`PartitionConfig::fingerprint`] folds it in,
/// so it reaches every plan key: a change that can alter any plan for an
/// unchanged program, machine and configuration bumps it, and a plan
/// cache written by an older planner (a `dmcp-serve` disk tier) then
/// misses instead of serving that planner's plans. Revision 1 sources a
/// split statement's unanalyzable operands at its store home and gives
/// the planner's L1 models the machine's set mapping; revision 2 plans
/// every nest at one configured window instead of searching windows 1–8.
pub const PLANNER_REVISION: u32 = 2;

/// Partitioner configuration.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// OS page-allocation policy (colour-preserving unless ablating).
    pub page_policy: PagePolicy,
    /// Planner options (reuse awareness, ideal analysis, balance threshold).
    pub opts: PlanOptions,
    /// Which predictor to use.
    pub predictor: PredictorSpec,
    /// The window size every nest is planned at, in
    /// [`PartitionConfig::WINDOWS`] (default 6).
    pub window: usize,
    /// Iteration→core assignment; `None` selects a chunked default.
    pub assignment: Option<Vec<NodeId>>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            page_policy: PagePolicy::ColorPreserving,
            opts: PlanOptions::default(),
            predictor: PredictorSpec::Reuse,
            window: 6,
            assignment: None,
        }
    }
}

impl PartitionConfig {
    /// The window sizes the planner accepts: the paper's range. The sync
    /// pass's transitive reduction holds a bit per pair of a window's
    /// steps, so the window bounds that memory.
    pub const WINDOWS: std::ops::RangeInclusive<usize> = 1..=8;

    /// Stable fingerprint of the configuration — every knob that can change
    /// the planner's output participates, and so does [`PLANNER_REVISION`],
    /// so two configs fingerprint equal iff the same planner compiles
    /// identical plans under them for the same program and machine.
    pub fn fingerprint(&self) -> u64 {
        use dmcp_ir::fingerprint::StableHasher;
        let mut h = StableHasher::new();
        h.write_u8(match self.page_policy {
            PagePolicy::ColorPreserving => 0,
            PagePolicy::Scramble => 1,
        });
        h.write_u8(u8::from(self.opts.reuse_aware));
        h.write_u8(u8::from(self.opts.ideal_analysis));
        h.write_f64(self.opts.balance_threshold);
        h.write_f64(self.opts.split_threshold);
        // Byte 1 was a removed predictor; the others keep their bytes so
        // existing fingerprints (and plan keys) stay put.
        h.write_u8(match self.predictor {
            PredictorSpec::Reuse => 0,
            PredictorSpec::AlwaysHit => 2,
        });
        h.write_u64(self.window as u64);
        match &self.assignment {
            None => h.write_u8(0),
            Some(a) => {
                h.write_u8(1);
                h.write_len(a.len());
                for n in a {
                    h.write_u32((u32::from(n.x()) << 16) | u32::from(n.y()));
                }
            }
        }
        h.write_u32(PLANNER_REVISION);
        h.finish()
    }

    /// Checks the configuration for values the planning layer would
    /// otherwise assert on.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] for a window outside
    /// [`PartitionConfig::WINDOWS`], a negative or NaN balance threshold
    /// (+∞ is valid: it turns the skip rule off) or an empty explicit
    /// assignment.
    pub fn validate(&self) -> Result<(), PartitionError> {
        if !Self::WINDOWS.contains(&self.window) {
            return Err(PartitionError::InvalidConfig(format!(
                "window {} outside {:?}",
                self.window,
                Self::WINDOWS
            )));
        }
        let threshold = self.opts.balance_threshold;
        if threshold.is_nan() || threshold < 0.0 {
            return Err(PartitionError::InvalidConfig(format!(
                "balance threshold {threshold} is negative or NaN"
            )));
        }
        if matches!(&self.assignment, Some(a) if a.is_empty()) {
            return Err(PartitionError::InvalidConfig(
                "explicit assignment must be non-empty".into(),
            ));
        }
        Ok(())
    }
}

/// One partitioned nest.
#[derive(Clone, Debug, PartialEq)]
pub struct NestPartition {
    /// Index of the nest within the program.
    pub nest: usize,
    /// The subcomputation schedule.
    pub schedule: Schedule,
    /// Planning statistics (including the window size).
    pub stats: NestStats,
}

/// The partitioner's full output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionOutput {
    /// One partition per nest, in program order.
    pub nests: Vec<NestPartition>,
}

impl PartitionOutput {
    /// Wraps per-nest partitions.
    #[must_use]
    pub fn new(nests: Vec<NestPartition>) -> Self {
        Self { nests }
    }

    /// Drops every schedule's unused buffer capacity (a plan about to be
    /// kept, e.g. in a cache, then holds exactly what it uses).
    pub fn shrink_to_fit(&mut self) {
        for nest in &mut self.nests {
            nest.schedule.shrink_to_fit();
            nest.stats.records.shrink_to_fit();
        }
    }

    /// Total planned movement of the optimized schedules.
    pub fn movement_opt(&self) -> u64 {
        self.nests.iter().map(|n| n.stats.movement_opt).sum()
    }

    /// Total planned movement of default execution.
    pub fn movement_default(&self) -> u64 {
        self.nests.iter().map(|n| n.stats.movement_default).sum()
    }

    /// Mean per-instance movement reduction across all nests.
    pub fn avg_movement_reduction(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for nest in &self.nests {
            for r in &nest.stats.records {
                if r.movement_default > 0 {
                    sum += r.movement_reduction();
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Maximum per-instance movement reduction.
    pub fn max_movement_reduction(&self) -> f64 {
        self.nests.iter().map(|n| n.stats.max_movement_reduction()).fold(0.0, f64::max)
    }

    /// Mean degree of subcomputation parallelism.
    pub fn avg_parallelism(&self) -> f64 {
        let total: usize = self.nests.iter().map(|n| n.stats.records.len()).sum();
        if total == 0 {
            return 0.0;
        }
        self.nests
            .iter()
            .flat_map(|n| n.stats.records.iter())
            .map(|r| f64::from(r.parallelism))
            .sum::<f64>()
            / total as f64
    }

    /// Maximum degree of subcomputation parallelism.
    pub fn max_parallelism(&self) -> u32 {
        self.nests.iter().map(|n| n.stats.max_parallelism()).max().unwrap_or(0)
    }

    /// Cross-node synchronizations per statement instance, after
    /// minimisation.
    pub fn syncs_per_statement(&self) -> f64 {
        let instances: u64 = self.nests.iter().map(|n| n.stats.instances).sum();
        if instances == 0 {
            return 0.0;
        }
        let syncs: u64 = self.nests.iter().map(|n| n.stats.syncs_after).sum();
        syncs as f64 / instances as f64
    }

    /// Aggregate re-mapped op mix (Table 3).
    pub fn remapped(&self) -> crate::stats::OpMix {
        let mut mix = crate::stats::OpMix::default();
        for n in &self.nests {
            mix.merge(n.stats.remapped);
        }
        mix
    }

    /// The window size each nest was planned at.
    pub fn window_sizes(&self) -> Vec<usize> {
        self.nests.iter().map(|n| n.stats.window_size).collect()
    }
}

/// The data-movement-aware computation partitioner.
#[derive(Clone, Debug)]
pub struct Partitioner {
    machine: MachineConfig,
    layout: Layout,
    config: PartitionConfig,
}

impl Partitioner {
    /// Creates a partitioner for `machine`, eagerly building the memory
    /// layout of `program` under the configured page policy.
    pub fn new(machine: &MachineConfig, program: &Program, config: PartitionConfig) -> Self {
        let layout = Layout::new(machine, program, config.page_policy);
        Self { machine: machine.clone(), layout, config }
    }

    /// Creates a partitioner for a *degraded* machine: the fault state is
    /// folded into the layout (dead banks re-homed to their nearest live
    /// node) and every placement decision — candidate filtering, default
    /// chunked assignment, load balancing — is restricted to live nodes.
    ///
    /// With a trivial fault state this is exactly [`Partitioner::new`]
    /// (plus config validation) and produces bit-identical output.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] for configurations the planner
    /// would assert on, and [`PartitionError::DeadAssignment`] when an
    /// explicit assignment names a node the faults made unusable.
    pub fn new_degraded(
        machine: &MachineConfig,
        program: &Program,
        config: PartitionConfig,
        faults: &FaultState,
    ) -> Result<Self, PartitionError> {
        config.validate()?;
        if let Some(assignment) = &config.assignment {
            if let Some(&dead) =
                assignment.iter().find(|&&n| !faults.is_trivial() && !faults.is_usable(n))
            {
                return Err(PartitionError::DeadAssignment(dead));
            }
        }
        let mut this = Self::new(machine, program, config);
        this.layout.apply_faults(faults);
        Ok(this)
    }

    /// The memory layout in use (shared with the simulator so both sides
    /// agree on addresses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Mutable access to the layout, for installing data-to-MC overrides
    /// before partitioning (Figure 23's combined scheme).
    pub fn layout_mut(&mut self) -> &mut Layout {
        &mut self.layout
    }

    /// The machine configuration.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The configuration.
    pub fn config(&self) -> &PartitionConfig {
        &self.config
    }

    /// Plans every nest of `program`, resolving indirect references
    /// through `data` (the inspector-collected information). Runs the
    /// staged pipeline ([`crate::pipeline`]) — analyze → place → split
    /// decision → sync — one nest after another, on the calling thread.
    ///
    /// With `force_default` every nest gets the *default*
    /// (iteration-granularity) schedule instead: one sequence of steps per
    /// statement instance, all on the iteration's assigned core — the
    /// baseline the evaluation compares against.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] for a configuration the planner
    /// would assert on, and [`PartitionError::DeadNodeInSchedule`] if a
    /// degraded plan put a step on a node that is not live — the
    /// invariant degraded-mode scheduling must uphold.
    pub fn plan(
        &self,
        program: &Program,
        data: &DataStore,
        force_default: bool,
    ) -> Result<PartitionOutput, PartitionError> {
        self.config.validate()?;
        let mut ctx = PlanCtx::unhinted(self, program, data, force_default);
        for pass in passes() {
            pass.run(&mut ctx);
        }
        let out = ctx.into_output();
        self.check_live(&out)?;
        Ok(out)
    }

    /// [`Partitioner::plan`] of the optimized schedules; `_pool` is unused.
    /// The benchmark harness in `perfbench/` plans through this;
    /// everything else calls [`Partitioner::plan`].
    ///
    /// # Panics
    ///
    /// Panics where [`Partitioner::plan`] returns an error.
    pub fn partition_with_data_pooled(
        &self,
        program: &Program,
        data: &DataStore,
        _pool: &Pool,
    ) -> PartitionOutput {
        self.plan(program, data, false).expect("partitioning failed")
    }

    /// Verifies the every-step-on-a-live-node invariant.
    fn check_live(&self, out: &PartitionOutput) -> Result<(), PartitionError> {
        if !self.layout.is_degraded() {
            return Ok(());
        }
        for nest in &out.nests {
            for step in &nest.schedule.steps {
                if !self.layout.is_live(step.node) {
                    return Err(PartitionError::DeadNodeInSchedule {
                        nest: nest.nest,
                        node: step.node,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The iteration→core assignment one nest plans under: the explicit
/// configured assignment if any, otherwise the chunked default over the
/// mesh (healthy) or the layout's live nodes (degraded).
///
/// This is exactly what the pipeline's analyze pass resolves, factored out
/// so a caller that needs a nest's assignment without planning it (the
/// Figure-23 data-to-controller overrides) gets the one the planner uses.
pub fn nest_assignment(
    config: &PartitionConfig,
    layout: &Layout,
    mesh: Mesh,
    iterations: u64,
) -> Vec<NodeId> {
    match &config.assignment {
        Some(a) => a.clone(),
        None => match layout.live_nodes() {
            None => chunked_assignment(mesh, iterations),
            Some(live) => chunked_assignment_over(live, iterations),
        },
    }
}

/// The default iteration→core assignment: the iteration space is divided
/// into `node_count` contiguous chunks, chunk `k` owned by node `k` (in
/// row-major node order). Returns one entry per iteration.
pub fn chunked_assignment(mesh: Mesh, iterations: u64) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = mesh.nodes().collect();
    chunked_assignment_over(&nodes, iterations)
}

/// [`chunked_assignment`] over an explicit node list — the degraded-mode
/// variant, where dead nodes have been filtered out and the survivors
/// split the iteration space among themselves.
///
/// # Panics
///
/// Panics if `nodes` is empty.
pub fn chunked_assignment_over(nodes: &[NodeId], iterations: u64) -> Vec<NodeId> {
    assert!(!nodes.is_empty(), "assignment needs at least one node");
    if iterations == 0 {
        return vec![nodes[0]];
    }
    let chunk = iterations.div_ceil(nodes.len() as u64).max(1);
    (0..iterations).map(|i| nodes[((i / chunk) as usize).min(nodes.len() - 1)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::exec::run_sequential;
    use dmcp_ir::ProgramBuilder;

    fn program(stmts: &[&str], iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E", "X", "Y", "Z"] {
            b.array(n, &[512], 64);
        }
        // A short timing loop keeps the L2 warm — the regime the paper
        // evaluates in (16–37 % L2 miss rates).
        b.nest(&[("t", 0, 2), ("i", 0, iters)], stmts).unwrap();
        b.build()
    }

    /// Plans `p` over its initial data.
    fn plan(part: &Partitioner, p: &Program, force_default: bool) -> PartitionOutput {
        part.plan(p, &p.initial_data(), force_default).unwrap()
    }

    #[test]
    fn chunked_assignment_covers_all_iterations() {
        let mesh = Mesh::new(4, 4);
        let a = chunked_assignment(mesh, 100);
        assert_eq!(a.len(), 100);
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert!(distinct.len() >= 14, "chunks should spread over nodes");
        // Chunks are contiguous.
        assert_eq!(a[0], a[1]);
    }

    #[test]
    fn chunked_assignment_small_spaces() {
        let mesh = Mesh::new(6, 6);
        let a = chunked_assignment(mesh, 3);
        assert_eq!(a.len(), 3);
        let a0 = chunked_assignment(mesh, 0);
        assert_eq!(a0.len(), 1);
    }

    #[test]
    fn partition_improves_on_baseline_movement() {
        let p = program(&["A[i] = B[i] + C[i] + D[i] + E[i]"], 128);
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let opt = plan(&part, &p, false);
        let base = plan(&part, &p, true);
        assert!(
            opt.movement_opt() < base.movement_opt(),
            "optimized {} vs baseline {}",
            opt.movement_opt(),
            base.movement_opt()
        );
        assert!(opt.avg_movement_reduction() > 0.0);
    }

    #[test]
    fn partitioned_schedules_stay_correct() {
        let p = program(&["A[i] = B[i] + C[i] * (D[i] - E[i])", "X[i] = A[i] + C[i]"], 48);
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = plan(&part, &p, false);
        let mut got = p.initial_data();
        for n in &out.nests {
            n.schedule.validate().unwrap();
            n.schedule.execute_values(&mut got);
        }
        let mut want = p.initial_data();
        run_sequential(&p, &mut want);
        // Division folds may differ in the last ulp (1/(C+1)·B vs B/(C+1)).
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn every_nest_plans_at_the_configured_window() {
        let p = program(&["A[i] = B[i] + C[i]"], 32);
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig { window: 5, ..PartitionConfig::default() };
        let part = Partitioner::new(&machine, &p, cfg);
        assert_eq!(plan(&part, &p, false).window_sizes(), vec![5]);
        assert_eq!(plan(&part, &p, true).window_sizes(), vec![1], "baselines plan at window 1");
    }

    #[test]
    fn baseline_schedule_is_correct_too() {
        let p = program(&["A[i] = B[i] / (C[i] + 1) - D[i]"], 32);
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let base = plan(&part, &p, true);
        let mut got = p.initial_data();
        for n in &base.nests {
            n.schedule.execute_values(&mut got);
        }
        let mut want = p.initial_data();
        run_sequential(&p, &mut want);
        // Division folds may differ in the last ulp (1/(C+1)·B vs B/(C+1)).
        assert!(got.approx_eq(&want, 1e-12));
    }

    #[test]
    fn predictor_specs_build() {
        let machine = MachineConfig::knl_like();
        for spec in [PredictorSpec::Reuse, PredictorSpec::AlwaysHit] {
            let mut p = spec.build(&machine);
            let _ = p.predict(1);
        }
    }

    #[test]
    fn trivial_faults_give_bit_identical_output() {
        let p = program(&["A[i] = B[i] + C[i] + D[i]"], 64);
        let machine = MachineConfig::knl_like();
        let healthy = Partitioner::new(&machine, &p, PartitionConfig::default());
        let faults = FaultState::new(dmcp_mach::FaultPlan::healthy(), machine.mesh).unwrap();
        let degraded =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        assert_eq!(plan(&healthy, &p, false), plan(&degraded, &p, false));
        assert_eq!(plan(&healthy, &p, true), plan(&degraded, &p, true));
    }

    #[test]
    fn degraded_partitioner_keeps_steps_on_live_nodes() {
        let p = program(&["A[i] = B[i] + C[i] * (D[i] - E[i])", "X[i] = A[i] + C[i]"], 48);
        let machine = MachineConfig::knl_like();
        let fault_plan = dmcp_mach::FaultPlan::random(machine.mesh, 0.10, 0.05, 0.0, 0.0, 17);
        let faults = FaultState::new(fault_plan, machine.mesh).unwrap();
        let part =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        // The optimized schedule and the default one.
        for force_default in [false, true] {
            let out = plan(&part, &p, force_default);
            for nest in &out.nests {
                for step in &nest.schedule.steps {
                    assert!(faults.is_usable(step.node), "step on unusable node {}", step.node);
                }
            }
            // The schedule still computes the right values.
            let mut got = p.initial_data();
            for n in &out.nests {
                n.schedule.validate().unwrap();
                n.schedule.execute_values(&mut got);
            }
            let mut want = p.initial_data();
            run_sequential(&p, &mut want);
            assert!(got.approx_eq(&want, 1e-12));
        }
    }

    #[test]
    fn degraded_const_anchor_avoids_the_dead_origin() {
        // Shrunken fuzz counterexample: constant shift amounts anchor
        // their MST vertices at the origin tile; with n(0,0) dead, shift
        // subcomputations used to be placed on the dead node.
        let p = program(&["A[i] = ((B[i] << 2) >> 2) + 1"], 24);
        let machine = MachineConfig::knl_like();
        let mut fault_plan = dmcp_mach::FaultPlan::healthy();
        fault_plan.kill_node(NodeId::new(0, 0));
        let faults = FaultState::new(fault_plan, machine.mesh).unwrap();
        let part =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        let out = plan(&part, &p, false);
        for nest in &out.nests {
            for step in &nest.schedule.steps {
                assert!(faults.is_usable(step.node), "step on dead node {}", step.node);
            }
        }
        let mut got = p.initial_data();
        for n in &out.nests {
            n.schedule.execute_values(&mut got);
        }
        let mut want = p.initial_data();
        run_sequential(&p, &mut want);
        assert!(got.approx_eq(&want, 0.0));
    }

    #[test]
    fn dead_assignment_is_rejected() {
        let p = program(&["A[i] = B[i] + 1"], 16);
        let machine = MachineConfig::knl_like();
        let victim = NodeId::new(2, 2);
        let mut fault_plan = dmcp_mach::FaultPlan::healthy();
        fault_plan.kill_node(victim);
        let faults = FaultState::new(fault_plan, machine.mesh).unwrap();
        let cfg = PartitionConfig { assignment: Some(vec![victim]), ..PartitionConfig::default() };
        let err = Partitioner::new_degraded(&machine, &p, cfg.clone(), &faults).unwrap_err();
        assert_eq!(err, PartitionError::DeadAssignment(victim));

        // Should a dead assignment reach planning anyway, the live-node
        // check refuses the default schedule, which runs every instance on
        // its assigned core, instead of returning it.
        let mut part =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        part.config = cfg;
        let err = part.plan(&p, &p.initial_data(), true).unwrap_err();
        assert!(matches!(err, PartitionError::DeadNodeInSchedule { node, .. } if node == victim));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let p = program(&["A[i] = B[i] + 1"], 16);
        let machine = MachineConfig::knl_like();
        let data = p.initial_data();
        let threshold = |balance_threshold| PartitionConfig {
            opts: PlanOptions { balance_threshold, ..PlanOptions::default() },
            ..PartitionConfig::default()
        };
        for bad in [
            PartitionConfig { window: 0, ..PartitionConfig::default() },
            PartitionConfig { window: 9, ..PartitionConfig::default() },
            PartitionConfig { window: usize::MAX, ..PartitionConfig::default() },
            PartitionConfig { assignment: Some(vec![]), ..PartitionConfig::default() },
            // The load tracker asserts a non-negative threshold: these
            // panicked inside `plan` before `validate` refused them.
            threshold(-0.5),
            threshold(f64::NAN),
        ] {
            let part = Partitioner::new(&machine, &p, bad);
            for force_default in [false, true] {
                let err = part.plan(&p, &data, force_default).unwrap_err();
                assert!(matches!(err, PartitionError::InvalidConfig(_)), "{err:?}");
            }
        }
        for window in PartitionConfig::WINDOWS {
            assert!(PartitionConfig { window, ..PartitionConfig::default() }.validate().is_ok());
        }
        assert!(threshold(f64::INFINITY).validate().is_ok(), "+inf turns the skip rule off");
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = PartitionConfig::default();
        assert_eq!(base.fingerprint(), PartitionConfig::default().fingerprint());
        let variants = [
            PartitionConfig { page_policy: PagePolicy::Scramble, ..base.clone() },
            PartitionConfig {
                opts: PlanOptions { reuse_aware: false, ..base.opts },
                ..base.clone()
            },
            PartitionConfig {
                opts: PlanOptions { split_threshold: 0.9, ..base.opts },
                ..base.clone()
            },
            PartitionConfig {
                opts: PlanOptions { ideal_analysis: true, ..base.opts },
                ..base.clone()
            },
            PartitionConfig { predictor: PredictorSpec::AlwaysHit, ..base.clone() },
            PartitionConfig { window: 3, ..base.clone() },
            PartitionConfig { assignment: Some(vec![NodeId::new(0, 0)]), ..base.clone() },
        ];
        let mut prints: Vec<u64> = variants.iter().map(PartitionConfig::fingerprint).collect();
        prints.push(base.fingerprint());
        let distinct: std::collections::HashSet<_> = prints.iter().collect();
        assert_eq!(distinct.len(), prints.len(), "fingerprint collision among config variants");
    }

    #[test]
    fn chunked_assignment_over_live_subset() {
        let nodes: Vec<NodeId> = Mesh::new(4, 4).nodes().skip(3).collect();
        let a = chunked_assignment_over(&nodes, 40);
        assert_eq!(a.len(), 40);
        assert!(a.iter().all(|n| nodes.contains(n)));
    }

    #[test]
    fn multi_nest_programs_partition_every_nest() {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C"] {
            b.array(n, &[128], 8);
        }
        b.nest(&[("i", 0, 16)], &["A[i] = B[i] + C[i]"]).unwrap();
        b.nest(&[("i", 0, 8)], &["C[i] = A[i] * 2"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = plan(&part, &p, false);
        assert_eq!(out.nests.len(), 2);
        assert_eq!(out.nests[1].nest, 1);
    }
}
