//! The top-level partitioner: per-nest window-size search + full planning.
//!
//! For every loop nest the partitioner runs the pre-processing step of paper
//! Section 4.4: it plans a sample of the nest with every window size from 1
//! to `max_window` (8), computes the resulting data movement, picks the
//! best size, and then plans the entire nest with it. The result is one
//! [`Schedule`] per nest plus all the statistics the evaluation needs.

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
use dmcp_mem::{Cache, MissPredictor};
use dmcp_pool::Pool;

/// How to construct the L2 hit predictor for each planning run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorSpec {
    /// Reuse-distance predictor sized to the machine's aggregate L2
    /// (the realistic configuration; paper Table 2).
    Reuse,
    /// Plan-time model of the actual L2 contents (near-perfect; used by the
    /// ideal-data-analysis scenario).
    L2Model,
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
            PredictorSpec::L2Model => {
                let sets = machine.l2_sets() * machine.mesh.node_count();
                HitPredictor::L2Model(Cache::new(sets, machine.l2_ways))
            }
            PredictorSpec::AlwaysHit => HitPredictor::AlwaysHit,
        }
    }
}

/// Partitioner configuration.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// OS page-allocation policy (colour-preserving unless ablating).
    pub page_policy: PagePolicy,
    /// Planner options (reuse awareness, ideal analysis, balance threshold).
    pub opts: PlanOptions,
    /// Which predictor to use.
    pub predictor: PredictorSpec,
    /// Largest window size the pre-processing step tries (paper: 8).
    pub max_window: usize,
    /// Statement instances sampled per candidate window size during the
    /// search.
    pub search_sample: u64,
    /// Bypass the search and use a fixed window size for every nest
    /// (Figure 20's fixed-window bars).
    pub fixed_window: Option<usize>,
    /// Iteration→core assignment; `None` selects a chunked default.
    pub assignment: Option<Vec<NodeId>>,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            page_policy: PagePolicy::ColorPreserving,
            opts: PlanOptions::default(),
            predictor: PredictorSpec::Reuse,
            max_window: 8,
            search_sample: 256,
            fixed_window: None,
            assignment: None,
        }
    }
}

impl PartitionConfig {
    /// Stable fingerprint of the configuration — every knob that can change
    /// the planner's output participates, so two configs fingerprint equal
    /// iff they compile identical plans for the same program and machine.
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
        h.write_u8(match self.predictor {
            PredictorSpec::Reuse => 0,
            PredictorSpec::L2Model => 1,
            PredictorSpec::AlwaysHit => 2,
        });
        h.write_u64(self.max_window as u64);
        h.write_u64(self.search_sample);
        match self.fixed_window {
            None => h.write_u8(0),
            Some(w) => {
                h.write_u8(1);
                h.write_u64(w as u64);
            }
        }
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
        h.finish()
    }

    /// Checks the configuration for values the planning layer would
    /// otherwise assert on.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] for a zero window bound, a zero
    /// fixed window, or an empty explicit assignment.
    pub fn validate(&self) -> Result<(), PartitionError> {
        if self.max_window == 0 {
            return Err(PartitionError::InvalidConfig("max_window must be >= 1".into()));
        }
        if self.fixed_window == Some(0) {
            return Err(PartitionError::InvalidConfig("fixed_window must be >= 1".into()));
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
    /// Planning statistics (including the chosen window size).
    pub stats: NestStats,
}

/// The partitioner's full output.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionOutput {
    /// One partition per nest, in program order.
    pub nests: Vec<NestPartition>,
    /// Chosen window size per nest, cached at construction so hot paths
    /// (the serving layer's window memo, recompiles) borrow a slice
    /// instead of re-collecting.
    windows: Vec<usize>,
}

impl PartitionOutput {
    /// Wraps per-nest partitions, caching the per-nest window sizes.
    #[must_use]
    pub fn new(nests: Vec<NestPartition>) -> Self {
        let windows = nests.iter().map(|n| n.stats.window_size).collect();
        Self { nests, windows }
    }

    /// Total planned movement of the optimized schedules.
    pub fn movement_opt(&self) -> u64 {
        self.nests.iter().map(|n| n.stats.movement_opt).sum()
    }

    /// Total planned movement of default execution.
    pub fn movement_default(&self) -> u64 {
        self.nests.iter().map(|n| n.stats.movement_default).sum()
    }

    /// Per-nest optimized movement, as `(nest index, movement)` pairs in
    /// program order. This is the accounting the optimality-gap dashboard
    /// compares against the `dmcp-bound` lower bounds.
    pub fn movement_by_nest(&self) -> Vec<(usize, u64)> {
        self.nests.iter().map(|n| (n.nest, n.stats.movement_opt)).collect()
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

    /// Chosen window size per nest (cached at construction — no
    /// allocation).
    pub fn window_sizes(&self) -> &[usize] {
        &self.windows
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

    /// Runs the staged planning pipeline ([`crate::pipeline`]) over the
    /// program: analyze → window search → place → split decision → sync,
    /// fanning the parallel dimensions out over `pool`. Output is
    /// bit-identical for every thread count.
    pub fn run_pipeline(
        &self,
        program: &Program,
        data: &DataStore,
        pool: &Pool,
        force_default: bool,
        window_hints: &[usize],
    ) -> PartitionOutput {
        let mut ctx = PlanCtx::new(self, program, data, pool, force_default, window_hints);
        for pass in passes() {
            pass.run(&mut ctx);
        }
        ctx.into_output()
    }

    /// Partitions every nest of the program using its deterministic initial
    /// data for indirection resolution.
    pub fn partition(&self, program: &Program) -> PartitionOutput {
        let data = program.initial_data();
        self.partition_with_data(program, &data)
    }

    /// [`Partitioner::partition`] over an explicit pool.
    pub fn partition_pooled(&self, program: &Program, pool: &Pool) -> PartitionOutput {
        let data = program.initial_data();
        self.partition_with_data_pooled(program, &data, pool)
    }

    /// Partitions every nest, resolving indirect references through `data`
    /// (the inspector-collected information). Fans out over the process
    /// global pool ([`Pool::global`]).
    pub fn partition_with_data(&self, program: &Program, data: &DataStore) -> PartitionOutput {
        self.partition_with_data_pooled(program, data, Pool::global())
    }

    /// [`Partitioner::partition_with_data`] over an explicit pool —
    /// callers already fanning out at a coarser grain (per-workload
    /// sweeps, service workers) pass [`Pool::single`] to keep the thread
    /// budget where they spent it.
    pub fn partition_with_data_pooled(
        &self,
        program: &Program,
        data: &DataStore,
        pool: &Pool,
    ) -> PartitionOutput {
        self.run_pipeline(program, data, pool, false, &[])
    }

    /// [`Partitioner::partition_with_data`] reusing previously chosen
    /// per-nest window sizes instead of redoing the 1‥`max_window` search —
    /// the pre-processing sweep dominates compile time, and its choice is a
    /// pure function of the (program, machine, config) triple, so a caller
    /// that cached [`PartitionOutput::window_sizes`] from an earlier run of
    /// the *same* triple gets a bit-identical plan at a fraction of the
    /// cost.
    ///
    /// `windows` holds one entry per nest (extra entries are ignored; a
    /// missing entry falls back to the search). A configured
    /// `fixed_window` still takes precedence, as it does in the searched
    /// path.
    pub fn partition_with_data_reusing(
        &self,
        program: &Program,
        data: &DataStore,
        windows: &[usize],
    ) -> PartitionOutput {
        self.run_pipeline(program, data, Pool::global(), false, windows)
    }

    /// Generates the *default* (iteration-granularity) schedule for every
    /// nest: one sequence of steps per statement instance, all on the
    /// iteration's assigned core.
    pub fn baseline(&self, program: &Program, data: &DataStore) -> PartitionOutput {
        self.run_pipeline(program, data, Pool::global(), true, &[])
    }

    /// [`Partitioner::partition`] with validation instead of trust: checks
    /// the configuration up front and verifies afterwards that every
    /// emitted step executes on a live node — the invariant degraded-mode
    /// scheduling must uphold.
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] or
    /// [`PartitionError::DeadNodeInSchedule`].
    pub fn try_partition(&self, program: &Program) -> Result<PartitionOutput, PartitionError> {
        self.config.validate()?;
        let out = self.partition(program);
        self.check_live(&out)?;
        Ok(out)
    }

    /// [`Partitioner::baseline`] with the same validation as
    /// [`Partitioner::try_partition`].
    ///
    /// # Errors
    ///
    /// [`PartitionError::InvalidConfig`] or
    /// [`PartitionError::DeadNodeInSchedule`].
    pub fn try_baseline(
        &self,
        program: &Program,
        data: &DataStore,
    ) -> Result<PartitionOutput, PartitionError> {
        self.config.validate()?;
        let out = self.baseline(program, data);
        self.check_live(&out)?;
        Ok(out)
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
/// so external movement accounting — the `dmcp-bound` lower bounds — can
/// replay the same instance→core stream the planner used.
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
        let data = p.initial_data();
        let opt = part.partition_with_data(&p, &data);
        let base = part.baseline(&p, &data);
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
        let out = part.partition(&p);
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
    fn window_search_never_loses_to_the_smallest_window() {
        // The adaptive pre-processing step may keep window 1 when the
        // persistent-residency model already captures the reuse, but its
        // choice must never plan more movement than the fixed window 1.
        let p = program(&["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"], 128);
        let machine = MachineConfig::knl_like();
        let adaptive = Partitioner::new(&machine, &p, PartitionConfig::default());
        let fixed = Partitioner::new(
            &machine,
            &p,
            PartitionConfig { fixed_window: Some(1), ..PartitionConfig::default() },
        );
        let a = adaptive.partition(&p);
        let f = fixed.partition(&p);
        assert!(
            a.movement_opt() <= f.movement_opt() * 101 / 100,
            "adaptive {} vs fixed-1 {}",
            a.movement_opt(),
            f.movement_opt()
        );
        assert!((1..=8).contains(&a.window_sizes()[0]));
    }

    #[test]
    fn fixed_window_bypasses_search() {
        let p = program(&["A[i] = B[i] + C[i]"], 32);
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig { fixed_window: Some(5), ..PartitionConfig::default() };
        let part = Partitioner::new(&machine, &p, cfg);
        let out = part.partition(&p);
        assert_eq!(out.window_sizes(), vec![5]);
    }

    #[test]
    fn baseline_schedule_is_correct_too() {
        let p = program(&["A[i] = B[i] / (C[i] + 1) - D[i]"], 32);
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let base = part.baseline(&p, &data);
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
        for spec in [PredictorSpec::Reuse, PredictorSpec::L2Model, PredictorSpec::AlwaysHit] {
            let mut p = spec.build(&machine);
            let _ = p.predict(dmcp_mem::LineAddr::new(1));
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
        assert_eq!(healthy.partition(&p), degraded.try_partition(&p).unwrap());
    }

    #[test]
    fn degraded_partitioner_keeps_steps_on_live_nodes() {
        let p = program(&["A[i] = B[i] + C[i] * (D[i] - E[i])", "X[i] = A[i] + C[i]"], 48);
        let machine = MachineConfig::knl_like();
        let plan = dmcp_mach::FaultPlan::random(machine.mesh, 0.10, 0.05, 0.0, 0.0, 17);
        let faults = FaultState::new(plan, machine.mesh).unwrap();
        let part =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        let out = part.try_partition(&p).unwrap();
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

    #[test]
    fn degraded_const_anchor_avoids_the_dead_origin() {
        // Shrunken fuzz counterexample: constant shift amounts anchor
        // their MST vertices at the origin tile; with n(0,0) dead, shift
        // subcomputations used to be placed on the dead node.
        let p = program(&["A[i] = ((B[i] << 2) >> 2) + 1"], 24);
        let machine = MachineConfig::knl_like();
        let mut plan = dmcp_mach::FaultPlan::healthy();
        plan.kill_node(NodeId::new(0, 0));
        let faults = FaultState::new(plan, machine.mesh).unwrap();
        let part =
            Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults).unwrap();
        let out = part.try_partition(&p).unwrap();
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
        let mut plan = dmcp_mach::FaultPlan::healthy();
        plan.kill_node(victim);
        let faults = FaultState::new(plan, machine.mesh).unwrap();
        let cfg = PartitionConfig { assignment: Some(vec![victim]), ..PartitionConfig::default() };
        let err = Partitioner::new_degraded(&machine, &p, cfg, &faults).unwrap_err();
        assert_eq!(err, crate::PartitionError::DeadAssignment(victim));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = PartitionConfig { max_window: 0, ..PartitionConfig::default() };
        assert!(matches!(bad.validate(), Err(crate::PartitionError::InvalidConfig(_))));
        let bad = PartitionConfig { fixed_window: Some(0), ..PartitionConfig::default() };
        assert!(bad.validate().is_err());
        let bad = PartitionConfig { assignment: Some(vec![]), ..PartitionConfig::default() };
        assert!(bad.validate().is_err());
        assert!(PartitionConfig::default().validate().is_ok());
    }

    #[test]
    fn reused_window_sizes_give_bit_identical_plans() {
        let p = program(&["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"], 96);
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let searched = part.partition_with_data(&p, &data);
        let reused = part.partition_with_data_reusing(&p, &data, searched.window_sizes());
        assert_eq!(searched, reused);
    }

    #[test]
    fn window_hint_yields_to_fixed_window() {
        let p = program(&["A[i] = B[i] + C[i]"], 32);
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig { fixed_window: Some(5), ..PartitionConfig::default() };
        let part = Partitioner::new(&machine, &p, cfg);
        let data = p.initial_data();
        let out = part.partition_with_data_reusing(&p, &data, &[3]);
        assert_eq!(out.window_sizes(), vec![5]);
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
            PartitionConfig { max_window: 4, ..base.clone() },
            PartitionConfig { search_sample: 128, ..base.clone() },
            PartitionConfig { fixed_window: Some(3), ..base.clone() },
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
        let out = part.partition(&p);
        assert_eq!(out.nests.len(), 2);
        assert_eq!(out.nests[1].nest, 1);
    }
}
