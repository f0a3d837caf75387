//! Sound per-nest **data-movement lower bounds** and the optimality-gap
//! dashboard built on them.
//!
//! The planner (`dmcp-core`) reports the movement its schedules pay; this
//! crate answers the question the paper's evaluation leaves open: *how close
//! to optimal is that?* For every loop nest it computes a lower bound on the
//! data movement **any** plan the planner could have emitted must pay, then
//! surfaces `planner_movement / bound` as a per-workload gap ratio.
//!
//! # Construction
//!
//! Both bound components replay the exact statement-instance stream the
//! planner plans — same iteration order, same `assignment[it % len]` core,
//! same per-leaf home/controller belief — but charge only movement that is
//! unavoidable:
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
//! movement; the `dmcp-bound` binary writes `BENCH_bound.json` over the
//! full 12-workload suite and CI hard-fails if any workload's planner
//! movement drops below its bound (a soundness violation — one of the two
//! sides is lying).

use std::collections::{HashMap, HashSet};

use dmcp_core::{nest_assignment, Layout, PartitionConfig, PartitionOutput, PredictorSpec};
use dmcp_ir::program::{DataStore, Program};
use dmcp_ir::{ArrayId, ArrayRef, Expr};
use dmcp_mach::graph::{max_pairwise_sets, mst_weight_sets, steiner_min_sets};
use dmcp_mach::NodeId;
use dmcp_mem::LineAddr;

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
    /// Statement instances replayed (equals the planner's instance count).
    pub instances: u64,
    /// Leaves charged as compulsory traffic across all instances.
    pub chargeable_leaves: u64,
    /// Static distinct-footprint estimate in cache lines, from the affine
    /// access functions ([`ArrayRef::footprint_over`]); `0` when every
    /// reference is indirect. Context for the dashboard, not part of the
    /// movement bound.
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

/// Collects every `Ref` leaf of an expression tree, left to right.
///
/// This is the leaf set the planner's group normalisation fetches (every
/// `Ref` in the rhs becomes an operand); `Statement::reads()` is *not*
/// equivalent — it also surfaces indirect-subscript reads of the lhs,
/// which are not operand fetches.
fn rhs_leaves<'a>(e: &'a Expr, out: &mut Vec<&'a ArrayRef>) {
    match e {
        Expr::Const(_) => {}
        Expr::Ref(r) => out.push(r),
        Expr::Bin { lhs, rhs, .. } => {
            rhs_leaves(lhs, out);
            rhs_leaves(rhs, out);
        }
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

/// Computes the movement lower bound for one nest.
///
/// `assignment` must be the iteration→core map the planner used (one entry
/// per iteration, cycled) — [`nest_assignment`] reproduces the pipeline's
/// choice.
pub fn bound_nest(
    program: &Program,
    nest_index: usize,
    layout: &Layout,
    data: &DataStore,
    config: &PartitionConfig,
    assignment: &[NodeId],
) -> NestBound {
    assert!(!assignment.is_empty(), "need a default core assignment");
    let nest = &program.nests()[nest_index];
    let mesh = layout.machine().mesh;
    let exact_mesh = mesh.node_count() <= DAG_MESH_LIMIT;

    // First-touch tracking. `touched` under-approximates every cache the
    // planner's accounting can hit out of (window L1 map, persistent
    // residency estimator, per-core default L1): a line absent from
    // `touched` has never been seen by any of them, so fetching it must
    // pay a home-or-controller leg. Capacity evictions only make the
    // planner pay *more*, so ignoring them keeps the bound sound.
    let mut touched: HashSet<LineAddr> = HashSet::new();
    let mut touched_core: HashSet<(NodeId, LineAddr)> = HashSet::new();

    let mut instances = 0u64;
    let mut chargeable_leaves = 0u64;
    let mut compulsory = 0u64;
    let mut dag = 0u64;
    let mut bound = 0u64;

    let mut leaves: Vec<&ArrayRef> = Vec::new();
    for (it, iter) in nest.iterations().enumerate() {
        let core = assignment[it % assignment.len()];
        for stmt in &nest.body {
            instances += 1;

            let lhs_elem = program.element_of(&stmt.lhs, &iter, data);
            let lhs_info = layout.locate(stmt.lhs.array, lhs_elem, core);
            let lhs_known = stmt.lhs.analyzable || config.opts.ideal_analysis;

            // Option groups this instance's paid legs must span. The store
            // home is always required: split accounting roots its MST
            // there, default accounting ships the result there. A fallback
            // statement (`!lhs_known`) always runs on the core, so the core
            // is required too: its default star ships the result from the
            // core to the store home. A split statement sources its
            // unanalyzable operands at the store home, and the default star
            // it may be rolled back to prices them at d(core, core) = 0, so
            // they require nothing the store home does not already cover.
            let mut groups: Vec<Vec<NodeId>> = vec![vec![lhs_info.home]];
            if !lhs_known {
                groups.push(vec![core]);
            }
            let mut stmt_lines: HashSet<LineAddr> = HashSet::new();

            leaves.clear();
            rhs_leaves(&stmt.rhs, &mut leaves);
            for r in &leaves {
                let elem = program.element_of(r, &iter, data);
                let (info, belief) = layout.locate_and_believe(r.array, elem, core);
                let analyzable = r.analyzable || config.opts.ideal_analysis;
                let fresh = if lhs_known && config.opts.reuse_aware {
                    // Split accounting may source a previously-seen line
                    // from a reuse candidate; only globally-fresh lines are
                    // guaranteed to pay a home/controller leg.
                    !touched.contains(&info.line)
                } else {
                    // Every accounting this statement can receive is (or
                    // may be rolled back to) the default star, which pays
                    // exactly for lines new to this core's default L1.
                    !touched_core.contains(&(core, info.line))
                };
                // A same-line repeat within one statement rides the first
                // fetch (the default-L1 mirror is touched immediately).
                if analyzable && fresh && stmt_lines.insert(info.line) {
                    chargeable_leaves += 1;
                    let options = match config.predictor {
                        // Always-hit planning sources every analyzable leaf
                        // from its believed home bank.
                        PredictorSpec::AlwaysHit => vec![belief.home],
                        // Otherwise the predictor verdict picks home (hit)
                        // or memory controller (miss); either is possible.
                        _ if belief.home == belief.mc => vec![belief.home],
                        _ => vec![belief.home, belief.mc],
                    };
                    groups.push(options);
                }
                // Mirror the planner's immediate default-L1 touch.
                touched.insert(info.line);
                touched_core.insert((core, info.line));
            }
            touched.insert(lhs_info.line);
            touched_core.insert((core, lhs_info.line));

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
    }

    NestBound {
        nest: nest_index,
        instances,
        chargeable_leaves,
        footprint_lines: footprint_lines(
            program,
            nest_index,
            u64::from(layout.machine().cache_line),
        ),
        compulsory,
        dag: if exact_mesh { Some(dag) } else { None },
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
    let mut leaves: Vec<&ArrayRef> = Vec::new();
    for stmt in &nest.body {
        leaves.clear();
        rhs_leaves(&stmt.rhs, &mut leaves);
        for r in leaves.iter().copied().chain(std::iter::once(&stmt.lhs)) {
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

/// Bounds every nest of a program, deriving each nest's assignment exactly
/// as the planning pipeline does (explicit config assignment, else chunked
/// over the mesh or the degraded layout's live nodes).
pub fn bound_program(
    program: &Program,
    layout: &Layout,
    data: &DataStore,
    config: &PartitionConfig,
) -> Vec<NestBound> {
    (0..program.nests().len())
        .map(|n| {
            let iters = program.nests()[n].iteration_count();
            let assignment = nest_assignment(config, layout, layout.machine().mesh, iters);
            bound_nest(program, n, layout, data, config, &assignment)
        })
        .collect()
}

/// Builds one dashboard row: the per-nest bounds zipped with the planner's
/// per-nest optimized movement.
pub fn gap_report(
    name: &str,
    program: &Program,
    layout: &Layout,
    data: &DataStore,
    config: &PartitionConfig,
    output: &PartitionOutput,
) -> GapReport {
    let bounds = bound_program(program, layout, data, config);
    let per_nest = output.movement_by_nest();
    let nests: Vec<(NestBound, u64)> = bounds
        .into_iter()
        .map(|nb| {
            let planner =
                per_nest.iter().find(|(n, _)| *n == nb.nest).map(|(_, m)| *m).unwrap_or(0);
            (nb, planner)
        })
        .collect();
    GapReport {
        name: name.to_string(),
        planner_movement: output.movement_opt(),
        bound: nests.iter().map(|(nb, _)| nb.bound).sum(),
        nests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_core::Partitioner;
    use dmcp_mach::{MachineConfig, Mesh};
    use dmcp_workloads::{all, Scale};

    fn tiny_machine(mesh: Mesh) -> MachineConfig {
        MachineConfig { mesh, ..MachineConfig::knl_like() }
    }

    /// On every exact mesh the bound must sit below the planner's movement
    /// for every workload nest, healthy and degraded alike — and stay
    /// finite and nonzero for real programs.
    #[test]
    fn bound_never_exceeds_planner_movement_on_small_meshes() {
        for mesh in [Mesh::new(2, 2), Mesh::new(3, 3)] {
            let machine = tiny_machine(mesh);
            for w in all(Scale::Tiny).iter().take(4) {
                let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
                let out = part.plan(&w.program, &w.data, false).unwrap();
                let report =
                    gap_report(w.name, &w.program, part.layout(), &w.data, part.config(), &out);
                assert!(
                    report.sound(),
                    "{} on {mesh:?}: bound {} above planner movement {}",
                    w.name,
                    report.bound,
                    report.planner_movement
                );
                assert!(report.gap_ratio() >= 1.0);
            }
        }
    }

    /// The full-size mesh path (kernels only, no exact DAG bound) must also
    /// be sound over the whole suite.
    #[test]
    fn bound_is_sound_on_the_paper_machine() {
        let machine = MachineConfig::knl_like();
        for w in &all(Scale::Tiny) {
            let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
            let out = part.plan(&w.program, &w.data, false).unwrap();
            let report =
                gap_report(w.name, &w.program, part.layout(), &w.data, part.config(), &out);
            assert!(report.nests.iter().all(|(nb, _)| nb.dag.is_none()));
            assert!(
                report.sound(),
                "{}: bound {} above planner movement {}",
                w.name,
                report.bound,
                report.planner_movement
            );
        }
    }

    /// Shrunken `dmcp-check` counterexample (`bound-sound`, seed 34): the
    /// split statement sources its unanalyzable operand `a1[a2[i0]]` at the
    /// store home and plans no movement, so the bound must not charge the
    /// core leg only a fallback statement pays (it charged 5).
    #[test]
    fn split_statements_pay_no_core_leg_for_unanalyzable_operands() {
        let mut b = dmcp_ir::ProgramBuilder::new();
        for name in ["a0", "a1", "a2"] {
            b.array(name, &[4], 8);
        }
        b.nest(&[("i0", 1, 2)], &["a1[i0 + 2] = a1[a2[i0]] & 63"]).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like();
        let config = PartitionConfig { window: 4, ..PartitionConfig::default() };
        let data = program.initial_data();
        let part = Partitioner::new(&machine, &program, config);
        let out = part.plan(&program, &data, false).unwrap();
        let report = gap_report("seed-34", &program, part.layout(), &data, part.config(), &out);
        assert!(
            report.sound(),
            "bound {} above planner movement {}",
            report.bound,
            report.planner_movement
        );
    }

    /// The baseline (all-default) accounting is an accounting the planner
    /// can legitimately report; the bound must respect it too.
    #[test]
    fn bound_respects_the_default_baseline_accounting() {
        let machine = tiny_machine(Mesh::new(3, 3));
        for w in all(Scale::Tiny).iter().take(4) {
            let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
            let base = part.plan(&w.program, &w.data, true).unwrap();
            let report =
                gap_report(w.name, &w.program, part.layout(), &w.data, part.config(), &base);
            assert!(
                report.sound(),
                "{}: bound {} above baseline movement {}",
                w.name,
                report.bound,
                report.planner_movement
            );
        }
    }

    /// Footprint estimates are finite, and nonzero whenever a nest has at
    /// least one affine reference.
    #[test]
    fn footprint_lines_reflects_affine_references() {
        let machine = MachineConfig::knl_like();
        for w in &all(Scale::Tiny) {
            let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
            for nb in bound_program(&w.program, part.layout(), &w.data, part.config()) {
                let nest = &w.program.nests()[nb.nest];
                let any_affine = nest.body.iter().any(|s| {
                    let mut l = Vec::new();
                    rhs_leaves(&s.rhs, &mut l);
                    l.iter().copied().chain(std::iter::once(&s.lhs)).any(|r| r.is_affine())
                });
                assert_eq!(nb.footprint_lines > 0, any_affine, "{} nest {}", w.name, nb.nest);
            }
        }
    }

    /// Gap-ratio edge cases: zero/zero is optimal, nonzero/zero is vacuous.
    #[test]
    fn gap_ratio_edge_cases() {
        let mut r =
            GapReport { name: "x".into(), planner_movement: 0, bound: 0, nests: Vec::new() };
        assert_eq!(r.gap_ratio(), 1.0);
        r.planner_movement = 7;
        assert!(r.gap_ratio().is_infinite());
        r.bound = 7;
        assert_eq!(r.gap_ratio(), 1.0);
    }
}
