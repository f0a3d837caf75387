//! Sound per-nest **data-movement lower bounds** and the optimality-gap
//! dashboard built on them.
//!
//! The planner reports the movement its schedules pay; this module answers
//! the question the paper's evaluation leaves open: *how close to optimal
//! is that?* For every loop nest it computes a lower bound on the data
//! movement **any** plan the planner could have emitted must pay, then
//! surfaces `planner_movement / bound` as a per-workload gap ratio.
//!
//! # Construction
//!
//! Both bound components walk the statement-instance stream the planner
//! plans: the [`NestResolution`] its analyze pass builds
//! ([`crate::pipeline::AnalyzePass`]), with the same iteration order,
//! `assignment[it % len]` core and per-operand home/controller belief.
//! They charge only movement that is unavoidable:
//!
//! 1. **Compulsory traffic** (any mesh): a cache line that has never been
//!    touched before cannot be sourced from any L1; it must come from its
//!    home bank or its memory controller. Per statement instance the
//!    charged lines plus the store target form a set of *option groups*
//!    (each group = the nodes the planner could legally source that line
//!    from), and any plan's paid legs are a connected structure spanning
//!    one node per group. Its weight is bounded below by the two portable
//!    kernels of [`dmcp_mach::graph`]: the max pairwise group distance and
//!    `ceil(2/3 · MST)` (Hwang's rectilinear Steiner ratio).
//! 2. **DAG-partition bound** (exact, small meshes): on meshes of at most
//!    [`DAG_MESH_LIMIT`] nodes the group-Steiner minimum
//!    ([`dmcp_mach::graph::steiner_min_sets`]) is computed exactly by
//!    Dreyfus–Wagner dynamic programming — the same oracle regime
//!    `dmcp-check` validates planner movement against.
//!
//! The per-instance bound is the larger of the two; the nest bound is the
//! sum over instances. Soundness holds for *both* accountings a nest can
//! end up with (split MSTs or the rolled-back default star), so the bound
//! never exceeds the planner's reported `movement_opt` regardless of the
//! split decision, window size, predictor, or degraded-mode re-homing.
//!
//! # Dashboard
//!
//! [`gap_report`] pairs the bounds with a [`PartitionOutput`]'s per-nest
//! movement; `dmcp-bench`'s `dmcp-bound` binary writes `BENCH_bound.json`
//! over the full 12-workload suite and fails if any workload's planner
//! movement drops below its bound (a soundness violation — one of the two
//! sides is lying).

use std::collections::HashMap;

use crate::layout::Layout;
use crate::partitioner::{PartitionConfig, PartitionOutput, Partitioner, PredictorSpec};
use crate::pipeline::{AnalyzePass, Pass, PlanCtx};
use crate::resolve::NestResolution;
use dmcp_ir::nested::Group;
use dmcp_ir::program::{DataStore, Program};
use dmcp_ir::ArrayId;
use dmcp_mach::graph::{max_pairwise_sets, mst_weight_sets, steiner_min_sets};
use dmcp_mach::NodeId;

/// Largest mesh (in nodes) the exact Dreyfus–Wagner DAG bound runs on.
pub const DAG_MESH_LIMIT: u32 = 9;

/// Largest number of option groups per statement instance the exact DAG
/// bound enumerates (the DP is exponential in the group count).
pub const DAG_GROUP_LIMIT: usize = 15;

/// Lower bound for one loop nest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestBound {
    /// Index of the nest within the program.
    pub nest: usize,
    /// Statement instances walked (equals the planner's instance count).
    pub instances: u64,
    /// Leaves charged as compulsory traffic across all instances.
    pub chargeable_leaves: u64,
    /// Static distinct-footprint estimate in cache lines, from the affine
    /// access functions ([`dmcp_ir::ArrayRef::footprint_over`]); `0` when
    /// every reference is indirect. Context for the dashboard, not part of
    /// the movement bound.
    pub footprint_lines: u64,
    /// Portable compulsory-traffic kernel bound (valid on any mesh).
    pub compulsory: u64,
    /// Exact group-Steiner bound; `None` when the mesh exceeds
    /// [`DAG_MESH_LIMIT`] nodes.
    pub dag: Option<u64>,
    /// The nest's movement lower bound: per instance the larger of the two
    /// components, summed over instances.
    pub bound: u64,
}

/// One workload row of the optimality-gap dashboard.
#[derive(Clone, Debug, PartialEq)]
pub struct GapReport {
    /// Workload (or program) name.
    pub name: String,
    /// Total optimized movement the planner reported.
    pub planner_movement: u64,
    /// Total movement lower bound (sum of nest bounds).
    pub bound: u64,
    /// Per-nest pairs of `(bound, planner movement)` in program order.
    pub nests: Vec<(NestBound, u64)>,
}

impl GapReport {
    /// `planner_movement / bound` — how far above the provable floor the
    /// planner's schedules are. `1.0` is optimal (the bound is met);
    /// anything below `1.0` means a soundness bug. Degenerate zero-movement
    /// programs report `1.0`; a zero bound under nonzero movement reports
    /// `f64::INFINITY` (the bound is vacuous there).
    pub fn gap_ratio(&self) -> f64 {
        if self.planner_movement == 0 && self.bound == 0 {
            1.0
        } else if self.bound == 0 {
            f64::INFINITY
        } else {
            self.planner_movement as f64 / self.bound as f64
        }
    }

    /// `true` when the planner's movement respects the lower bound on every
    /// nest (the invariant CI enforces).
    pub fn sound(&self) -> bool {
        self.planner_movement >= self.bound
            && self.nests.iter().all(|(nb, planner)| *planner >= nb.bound)
    }
}

/// `ceil(2/3 · w)` — the Hwang rectilinear Steiner ratio applied to an MST
/// weight. Sound because any group-Steiner tree is a rectilinear Steiner
/// tree of one representative per group, whose weight is at least two
/// thirds of the representatives' MST, which in turn is at least the
/// set-distance MST ([`mst_weight_sets`] uses pointwise-smaller edges).
fn hwang_floor(mst: u64) -> u64 {
    mst.saturating_mul(2).div_ceil(3)
}

/// Computes the movement lower bound of the nest `resolution` resolves.
///
/// `resolution` must be the stream the planner placed the nest from, built
/// on `layout` under `config` (as [`bound_program`] gets it from the
/// analyze pass); `config` adds reuse awareness and the predictor, which
/// the resolution does not record.
pub fn bound_nest(
    program: &Program,
    resolution: &NestResolution,
    layout: &Layout,
    config: &PartitionConfig,
) -> NestBound {
    let mesh = layout.machine().mesh;
    let exact_mesh = mesh.node_count() <= DAG_MESH_LIMIT;
    let nodes = mesh.node_count() as usize;

    // First-touch tracking over the resolution's dense line ids. `touched`
    // under-approximates every cache the planner's accounting can hit out
    // of (window L1 map, persistent residency estimator, per-core default
    // L1): a line absent from `touched` has never been seen by any of
    // them, so fetching it must pay a home-or-controller leg. Capacity
    // evictions only make the planner pay *more*, so ignoring them keeps
    // the bound sound. `touched_on` holds line `l` on node `n` at
    // `l * nodes + n`.
    let lines = resolution.lines_touched() as usize;
    let mut touched = vec![false; lines];
    let mut touched_on = vec![false; lines * nodes];

    let mut chargeable_leaves = 0u64;
    let mut compulsory = 0u64;
    let mut dag = 0u64;
    let mut bound = 0u64;

    for i in 0..resolution.instance_count() {
        let (inst, leaves, _) = resolution.instance(i);
        let core = inst.core;
        let core_index = mesh.node_index(core) as usize;
        let on_core = |line: u32| line as usize * nodes + core_index;

        // Option groups this instance's paid legs must span. The store
        // home is always required: split accounting roots its MST there,
        // default accounting ships the result there. A fallback statement
        // (`!lhs_known`) always runs on the core, so the core is required
        // too: its default star ships the result from the core to the
        // store home. A split statement sources its unanalyzable operands
        // at the store home, and the default star it may be rolled back to
        // prices them at d(core, core) = 0, so they require nothing the
        // store home does not already cover.
        let mut groups: Vec<Vec<NodeId>> = vec![vec![inst.store.home]];
        if !inst.lhs_known {
            groups.push(vec![core]);
        }
        for leaf in leaves {
            let fresh = if inst.lhs_known && config.opts.reuse_aware {
                // Split accounting may source a previously-seen line from a
                // reuse candidate; only globally-fresh lines are guaranteed
                // to pay a home/controller leg.
                !touched[leaf.line as usize]
            } else {
                // Every accounting this statement can receive is (or may be
                // rolled back to) the default star, which pays exactly for
                // lines new to this core's default L1.
                !touched_on[on_core(leaf.line)]
            };
            // A same-line repeat within one instance is never fresh: it
            // rides the first fetch, whose touch below marks the line.
            if leaf.analyzable && fresh {
                chargeable_leaves += 1;
                let belief = layout.believed(leaf.elem.array, leaf.elem.elem, core);
                let options = match config.predictor {
                    // Always-hit planning sources every analyzable leaf
                    // from its believed home bank.
                    PredictorSpec::AlwaysHit => vec![belief.home],
                    // Otherwise the predictor verdict picks home (hit) or
                    // memory controller (miss); either is possible.
                    _ if belief.home == belief.mc => vec![belief.home],
                    _ => vec![belief.home, belief.mc],
                };
                groups.push(options);
            }
            // Mirror the planner's immediate default-L1 touch.
            touched[leaf.line as usize] = true;
            touched_on[on_core(leaf.line)] = true;
        }
        touched[inst.store_line as usize] = true;
        touched_on[on_core(inst.store_line)] = true;

        let kernel = max_pairwise_sets(&groups).max(hwang_floor(mst_weight_sets(&groups)));
        compulsory += kernel;
        let inst_bound = if exact_mesh && groups.len() <= DAG_GROUP_LIMIT {
            let exact = steiner_min_sets(&mesh, &groups);
            debug_assert!(exact >= kernel, "Steiner minimum below its own kernels");
            dag += exact;
            kernel.max(exact)
        } else {
            dag += kernel;
            kernel
        };
        bound += inst_bound;
    }

    let nest = resolution.nest();
    NestBound {
        nest,
        instances: resolution.instance_count() as u64,
        chargeable_leaves,
        footprint_lines: footprint_lines(program, nest, u64::from(layout.machine().cache_line)),
        compulsory,
        dag: exact_mesh.then_some(dag),
        bound,
    }
}

/// Static distinct-footprint estimate of one nest in cache lines, from the
/// affine access functions alone (no replay).
///
/// Per array the largest single-reference footprint is kept — references
/// to the same array may overlap, so summing them would overcount; the
/// union is at least as large as the largest member. Indirect references
/// contribute nothing (their footprint is data-dependent).
pub fn footprint_lines(program: &Program, nest_index: usize, line_bytes: u64) -> u64 {
    let nest = &program.nests()[nest_index];
    let ranges: Vec<(i64, i64)> = nest.dims.iter().map(|d| (d.lo, d.hi)).collect();
    let line = line_bytes.max(1);
    let mut per_array: HashMap<ArrayId, u64> = HashMap::new();
    for stmt in &nest.body {
        let rhs = Group::of_expr(&stmt.rhs);
        for r in rhs.all_leaves().into_iter().chain(std::iter::once(&stmt.lhs)) {
            if let Some(elems) = r.footprint_over(&ranges) {
                let decl = program.array(r.array);
                let capped = elems.min(decl.len());
                let bytes = capped.saturating_mul(u64::from(decl.elem_size.max(1)));
                let lines = bytes.div_ceil(line).max(u64::from(capped > 0));
                let slot = per_array.entry(r.array).or_insert(0);
                *slot = (*slot).max(lines);
            }
        }
    }
    per_array.values().sum()
}

/// Bounds every nest of a program on the stream `partitioner` plans:
/// its analyze pass resolves each nest (assignment, locations, lines),
/// and [`bound_nest`] walks the resolution.
///
/// # Panics
///
/// Panics where the analyze pass does, e.g. on an empty explicit
/// assignment ([`PartitionConfig::validate`] refuses one).
pub fn bound_program(
    program: &Program,
    partitioner: &Partitioner,
    data: &DataStore,
) -> Vec<NestBound> {
    let mut ctx = PlanCtx::unhinted(partitioner, program, data, false);
    AnalyzePass.run(&mut ctx);
    ctx.nests
        .iter()
        .map(|nc| {
            let resolution = nc.resolution.as_ref().expect("the analyze pass resolves every nest");
            bound_nest(program, resolution, partitioner.layout(), partitioner.config())
        })
        .collect()
}

/// Builds one dashboard row: the per-nest bounds of the program
/// `partitioner` planned into `output`, zipped with the planner's per-nest
/// optimized movement.
pub fn gap_report(
    name: &str,
    program: &Program,
    partitioner: &Partitioner,
    data: &DataStore,
    output: &PartitionOutput,
) -> GapReport {
    let nests: Vec<(NestBound, u64)> = bound_program(program, partitioner, data)
        .into_iter()
        .map(|nb| {
            let planner = output.nests.iter().find(|n| n.nest == nb.nest);
            (nb, planner.map_or(0, |n| n.stats.movement_opt))
        })
        .collect();
    GapReport {
        name: name.to_string(),
        planner_movement: output.movement_opt(),
        bound: nests.iter().map(|(nb, _)| nb.bound).sum(),
        nests,
    }
}
