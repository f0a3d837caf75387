//! Window-based multi-statement planning (paper Sections 4.3–4.4).
//!
//! Statement instances are streamed in execution order and grouped into
//! windows of `w` consecutive instances. Within a window the
//! `variable2node` map carries L1-residency knowledge from one statement to
//! the next, so later MSTs can attach to nodes that already fetched shared
//! data; the map is cleared at window boundaries (scheduling knowledge does
//! not cross windows — Figure 12c).
//!
//! While planning, exact element-level dependences are tracked with
//! last-writer / readers-since-write maps, producing the synchronization
//! arcs that guarantee correctness; redundant arcs are removed per window by
//! transitive reduction ([`crate::sync`]).

use crate::layout::Layout;
use crate::resolve::NestResolution;
use crate::split::{PlanOptions, Planner};
use crate::stats::{OpMix, StmtRecord};
use crate::step::{Operand, Schedule, Step, StmtTag, SubId};
use crate::sync::transitive_reduce;
use dmcp_ir::ArrayId;
use std::collections::HashMap;

/// Aggregated planning statistics for one nest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NestStats {
    /// The window size used.
    pub window_size: usize,
    /// Total planned movement of the optimized schedule (links × lines).
    pub movement_opt: u64,
    /// Total planned movement of default execution.
    pub movement_default: u64,
    /// Per-instance records.
    pub records: Vec<StmtRecord>,
    /// Cross-node synchronization arcs before transitive reduction.
    pub syncs_before: u64,
    /// Cross-node synchronization arcs after transitive reduction.
    pub syncs_after: u64,
    /// Re-mapped operation mix (Table 3).
    pub remapped: OpMix,
    /// Operand fetches planned to hit in an L1.
    pub planned_l1_hits: u64,
    /// Statement instances that fell back to default execution.
    pub fallback_count: u64,
    /// Total statement instances planned.
    pub instances: u64,
}

impl NestStats {
    /// `(optimised, default)` movement summed over the warm half of the
    /// records — the quantity the nest-level split-vs-default decision and
    /// the window search are judged on (the cold-start sweep, all
    /// predicted misses, is unrepresentative of steady state). Exposed so
    /// external checkers can reproduce the partitioner's decisions.
    pub fn warm_movement(&self) -> (u64, u64) {
        let skip = self.records.len() / 2;
        let opt = self.records[skip..].iter().map(|r| r.movement_opt).sum();
        let def = self.records[skip..].iter().map(|r| r.movement_default).sum();
        (opt, def)
    }

    /// Mean per-instance movement reduction (instances with zero default
    /// movement are skipped).
    pub fn avg_movement_reduction(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for r in &self.records {
            if r.movement_default > 0 {
                sum += r.movement_reduction();
                n += 1;
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
        self.records
            .iter()
            .filter(|r| r.movement_default > 0)
            .map(StmtRecord::movement_reduction)
            .fold(0.0, f64::max)
    }

    /// Mean degree of subcomputation parallelism per statement.
    pub fn avg_parallelism(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| f64::from(r.parallelism)).sum::<f64>()
            / self.records.len() as f64
    }

    /// Maximum degree of subcomputation parallelism.
    pub fn max_parallelism(&self) -> u32 {
        self.records.iter().map(|r| r.parallelism).max().unwrap_or(0)
    }

    /// Cross-node synchronizations per statement instance (after
    /// minimisation).
    pub fn syncs_per_statement(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.syncs_after as f64 / self.instances as f64
        }
    }
}

/// The planned schedule plus its statistics for one nest.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NestPlan {
    /// The subcomputation schedule.
    pub schedule: Schedule,
    /// Planning statistics.
    pub stats: NestStats,
}

/// The *placement* half of nest planning: walks a nest's resolved
/// statement instances in execution order, plans each one's
/// subcomputations (MST placement, L1 reuse within the window, load
/// balancing), and resets the `variable2node` map at window boundaries.
/// No synchronization arcs are wired — every step's `waits` list comes
/// back empty and the sync counters are zero until [`sync_nest`] runs.
///
/// `limit_instances` truncates planning to a prefix of the stream (used
/// by the window-size search); `force_default` generates the baseline
/// schedule instead. Every placement of a nest reads the same
/// [`NestResolution`], which does not depend on the window size, the
/// prefix or `force_default`.
///
/// Placement never reads wait arcs, so the two phases run separately:
/// placement fans out across a pool, and the window-size search skips
/// sync wiring entirely (its decision metric, warm movement, is a pure
/// function of the placement records).
pub fn place_nest(
    resolution: &NestResolution,
    layout: &Layout,
    opts: PlanOptions,
    window: usize,
    limit_instances: Option<u64>,
    force_default: bool,
) -> NestPlan {
    assert!(window > 0, "window size must be at least 1");
    let mut planner = Planner::new(layout, opts);
    let count = limit_instances.map_or(usize::MAX, |l| usize::try_from(l).unwrap_or(usize::MAX));
    let count = count.min(resolution.instance_count());

    let mut steps: Vec<Step> = Vec::new();
    let mut records: Vec<StmtRecord> = Vec::with_capacity(count);
    let mut in_window = 0usize;
    for i in 0..count {
        let (inst, leaves, group) = resolution.instance(i);
        let tag = StmtTag {
            nest: resolution.nest() as u32,
            stmt: resolution.statement_of(i) as u32,
            instance: i as u64,
        };
        records.push(planner.plan_statement(&mut steps, tag, inst, leaves, group, force_default));
        in_window += 1;
        if in_window == window {
            planner.l1.reset();
            in_window = 0;
        }
    }

    let mut stats =
        NestStats { window_size: window, instances: records.len() as u64, ..NestStats::default() };
    for r in &records {
        stats.movement_opt += r.movement_opt;
        stats.movement_default += r.movement_default;
        stats.planned_l1_hits += u64::from(r.planned_l1_hits);
        stats.fallback_count += u64::from(r.fallback);
        stats.remapped.merge(r.remapped);
    }
    stats.records = records;
    NestPlan { schedule: Schedule { steps }, stats }
}

/// The *synchronization* half of nest planning: replays the placement
/// records of a [`place_nest`] plan in order, wiring element-level
/// flow/anti/output dependences and transitively reducing each window's
/// arcs.
///
/// Each window is reduced over the step prefix that existed when
/// placement reached that boundary (`steps[..last_step_of_the_window]`),
/// so arcs and counters are the same as wiring during placement. Updates
/// `stats.syncs_before` / `stats.syncs_after` in place. Idempotent-safe
/// only on freshly placed plans (wait arcs are rewritten from scratch per
/// record range, but windows already reduced would re-reduce).
pub fn sync_nest(plan: &mut NestPlan) {
    let window = plan.stats.window_size.max(1);
    let steps = &mut plan.schedule.steps;
    let mut deps = DepTracker::default();
    let mut syncs_before = 0u64;
    let mut syncs_after = 0u64;

    let mut window_first_step = 0usize;
    let mut in_window = 0usize;
    for rec in &plan.stats.records {
        deps.wire(steps, rec.first_step as usize, rec.last_step as usize);
        in_window += 1;
        if in_window == window {
            // Reduce over the prefix that existed at this boundary during
            // placement: later windows' steps must stay out of scope.
            let end = rec.last_step as usize;
            let (before, after) = reduce_window(&mut steps[..end], window_first_step);
            syncs_before += before;
            syncs_after += after;
            window_first_step = end;
            in_window = 0;
        }
    }
    if in_window > 0 {
        let (before, after) = reduce_window(steps, window_first_step);
        syncs_before += before;
        syncs_after += after;
    }
    plan.stats.syncs_before = syncs_before;
    plan.stats.syncs_after = syncs_after;
}

/// Element-level dependence tracking: inserts inter-statement wait arcs.
#[derive(Default)]
struct DepTracker {
    last_write: HashMap<(ArrayId, u64), SubId>,
    readers: HashMap<(ArrayId, u64), Vec<SubId>>,
}

impl DepTracker {
    /// Wires dependences for the freshly planned steps `[first, last)`.
    #[allow(clippy::needless_range_loop)] // parallel reads+writes of `steps`
    fn wire(&mut self, steps: &mut [Step], first: usize, last: usize) {
        for k in first..last {
            let id = steps[k].id;
            let mut waits: Vec<SubId> = Vec::new();
            // Flow: wait for the last writer of every element we read.
            for input in &steps[k].inputs {
                if let Operand::Elem(e) = input.operand {
                    let key = (e.array, e.elem);
                    if let Some(&w) = self.last_write.get(&key) {
                        if w != id {
                            waits.push(w);
                        }
                    }
                    self.readers.entry(key).or_default().push(id);
                }
            }
            if let Some(st) = steps[k].store {
                let key = (st.array, st.elem);
                // Anti: all readers since the last write must be done.
                if let Some(rs) = self.readers.remove(&key) {
                    waits.extend(rs.into_iter().filter(|&r| r != id));
                }
                // Output: the previous writer must be done.
                if let Some(&w) = self.last_write.get(&key) {
                    if w != id {
                        waits.push(w);
                    }
                }
                self.last_write.insert(key, id);
            }
            waits.sort_unstable();
            waits.dedup();
            steps[k].waits = waits;
        }
    }
}

/// Transitive reduction of the window's sync arcs; returns the number of
/// cross-node arcs (before, after). Arcs into steps before the window are
/// preserved untouched.
fn reduce_window(steps: &mut [Step], first: usize) -> (u64, u64) {
    let window = &steps[first..];
    let n = window.len();
    if n == 0 {
        return (0, 0);
    }
    let base = first;
    // Predecessor lists over window-local indices: temp inputs + waits.
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut outside: Vec<Vec<SubId>> = Vec::with_capacity(n);
    for s in window {
        let mut p = Vec::new();
        let mut out = Vec::new();
        for prod in s.producers() {
            if prod.index() >= base {
                p.push(prod.index() - base);
            } else {
                out.push(prod);
            }
        }
        preds.push(p);
        outside.push(out);
    }
    let before = count_cross_node(steps, first, &preds, &outside);
    let (reduced, _) = transitive_reduce(&preds);
    let after = count_cross_node(steps, first, &reduced, &outside);

    // Rewrite waits: reduced predecessors minus the temp-input arcs (those
    // are value dependences carried by the inputs themselves).
    for (k, red) in reduced.iter().enumerate() {
        let idx = first + k;
        let temps: Vec<usize> = steps[idx]
            .inputs
            .iter()
            .filter_map(|i| match i.operand {
                Operand::Temp(t) if t.index() >= base => Some(t.index() - base),
                _ => None,
            })
            .collect();
        let mut waits: Vec<SubId> =
            red.iter().filter(|p| !temps.contains(p)).map(|&p| SubId((base + p) as u32)).collect();
        waits.extend(outside[k].iter().copied());
        waits.sort_unstable();
        waits.dedup();
        steps[idx].waits = waits;
    }
    (before, after)
}

/// Counts arcs whose producer and consumer run on different nodes (the ones
/// that cost a synchronization).
fn count_cross_node(
    steps: &[Step],
    first: usize,
    preds: &[Vec<usize>],
    outside: &[Vec<SubId>],
) -> u64 {
    let mut count = 0;
    for (k, p) in preds.iter().enumerate() {
        let consumer = steps[first + k].node;
        for &pi in p {
            if steps[first + pi].node != consumer {
                count += 1;
            }
        }
        for prod in &outside[k] {
            if steps[prod.index()].node != consumer {
                count += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{resolve_nest, HitPredictor};
    use dmcp_ir::exec::run_sequential;
    use dmcp_ir::{Program, ProgramBuilder};
    use dmcp_mach::{MachineConfig, NodeId};
    use dmcp_mem::page::PagePolicy;

    fn setup(stmts: &[&str], iters: i64) -> (Program, MachineConfig, Layout) {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E", "X", "Y", "Z"] {
            b.array(n, &[256], 8);
        }
        b.nest(&[("i", 0, iters)], stmts).unwrap();
        let program = b.build();
        let machine = MachineConfig::knl_like();
        let layout = Layout::new(&machine, &program, PagePolicy::ColorPreserving);
        (program, machine, layout)
    }

    fn assignment(machine: &MachineConfig, iters: usize) -> Vec<NodeId> {
        crate::partitioner::chunked_assignment(machine.mesh, iters as u64)
    }

    /// Resolves nest 0 under the always-hit predictor.
    fn resolve(
        program: &Program,
        layout: &Layout,
        opts: PlanOptions,
        assignment: &[NodeId],
    ) -> NestResolution {
        let data = program.initial_data();
        resolve_nest(program, 0, layout, &data, HitPredictor::AlwaysHit, opts, assignment)
    }

    /// Resolves, places and syncs nest 0, as the pipeline's analyze, place
    /// and sync passes do.
    fn place_and_sync(
        program: &Program,
        layout: &Layout,
        opts: PlanOptions,
        window: usize,
        assignment: &[NodeId],
        limit: Option<u64>,
        force_default: bool,
    ) -> NestPlan {
        let resolution = resolve(program, layout, opts, assignment);
        let mut plan = place_nest(&resolution, layout, opts, window, limit, force_default);
        sync_nest(&mut plan);
        plan
    }

    fn plan(stmts: &[&str], iters: i64, window: usize, opts: PlanOptions) -> (Program, NestPlan) {
        let (program, machine, layout) = setup(stmts, iters);
        let asg = assignment(&machine, iters as usize);
        let plan = place_and_sync(&program, &layout, opts, window, &asg, None, false);
        (program, plan)
    }

    #[test]
    fn planned_schedule_is_numerically_correct() {
        let (program, plan) = plan(
            &["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]", "B[i] = A[i] * 2 - X[i]"],
            32,
            4,
            PlanOptions::default(),
        );
        plan.schedule.validate().unwrap();
        let mut got = program.initial_data();
        plan.schedule.execute_values(&mut got);
        let mut want = program.initial_data();
        run_sequential(&program, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn flow_dependences_generate_wait_arcs() {
        let (_, plan) =
            plan(&["A[i] = B[i] + C[i]", "X[i] = A[i] * 2"], 8, 2, PlanOptions::default());
        let has_wait = plan.schedule.steps.iter().any(|s| !s.waits.is_empty());
        assert!(has_wait, "expected inter-statement wait arcs");
    }

    #[test]
    fn stencil_chain_dependences_are_wired_across_iterations() {
        let (program, plan) = plan(&["A[i] = A[i-1] + B[i]"], 16, 2, PlanOptions::default());
        // Values must match the sequential reference despite the recurrence.
        let mut got = program.initial_data();
        plan.schedule.execute_values(&mut got);
        let mut want = program.initial_data();
        run_sequential(&program, &mut want);
        assert_eq!(got, want);
        // And every non-first store step must wait on something (the
        // previous writer of A[i-1] or its readers).
        let waits: usize = plan.schedule.steps.iter().map(|s| s.waits.len()).sum();
        assert!(waits > 0);
    }

    #[test]
    fn window_reuse_improves_l1_hits_without_blowing_up_movement() {
        // Window ≥ 2 lets the second statement reuse C[i] at the node that
        // fetched it: planned L1 hits must not drop, and movement must stay
        // within a small band (placements shift slightly with load/holder
        // state, so strict monotonicity is not an invariant).
        let stmts = ["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"];
        let (_, w1) = plan(&stmts, 64, 1, PlanOptions::default());
        let (_, w2) = plan(&stmts, 64, 2, PlanOptions::default());
        assert!(
            w2.stats.movement_opt as f64 <= w1.stats.movement_opt as f64 * 1.10,
            "window 2 ({}) moved far more than window 1 ({})",
            w2.stats.movement_opt,
            w1.stats.movement_opt
        );
        // The shared C[i] must yield planned reuse hits under window 2.
        assert!(w2.stats.planned_l1_hits > 0, "no planned L1 reuse at window 2");
    }

    #[test]
    fn reuse_agnostic_planning_sees_no_l1_hits() {
        let stmts = ["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"];
        let opts = PlanOptions { reuse_aware: false, ..PlanOptions::default() };
        let (_, p) = plan(&stmts, 32, 4, opts);
        assert_eq!(p.stats.planned_l1_hits, 0);
    }

    #[test]
    fn sync_reduction_never_increases_arcs() {
        let (_, p) = plan(
            &[
                "A[i] = B[i] + C[i]",
                "X[i] = A[i] + D[i]",
                "Y[i] = A[i] + X[i]",
                "Z[i] = Y[i] + A[i]",
            ],
            16,
            4,
            PlanOptions::default(),
        );
        assert!(p.stats.syncs_after <= p.stats.syncs_before);
    }

    #[test]
    fn limit_truncates_planning() {
        let (_, machine, layout) = setup(&["A[i] = B[i] + C[i]"], 64);
        let program = {
            let mut b = ProgramBuilder::new();
            for n in ["A", "B", "C", "D", "E", "X", "Y", "Z"] {
                b.array(n, &[256], 8);
            }
            b.nest(&[("i", 0, 64)], &["A[i] = B[i] + C[i]"]).unwrap();
            b.build()
        };
        let asg = assignment(&machine, 64);
        let p = place_and_sync(&program, &layout, PlanOptions::default(), 4, &asg, Some(10), false);
        assert_eq!(p.stats.instances, 10);
    }

    #[test]
    fn baseline_generation_keeps_iteration_granularity() {
        let (program, machine, layout) = setup(&["A[i] = B[i] + C[i] + D[i]"], 16);
        let asg = assignment(&machine, 16);
        let p = place_and_sync(&program, &layout, PlanOptions::default(), 1, &asg, None, true);
        // Every step of iteration `it` runs on the assigned core.
        for s in &p.schedule.steps {
            let it = s.tag.instance as usize;
            assert_eq!(s.node, asg[it % asg.len()]);
        }
        assert_eq!(p.stats.movement_opt, p.stats.movement_default);
    }

    #[test]
    fn placement_is_wait_free_until_sync_runs() {
        let stmts = ["A[i] = B[i] + C[i]", "X[i] = A[i] * 2", "Y[i] = X[i] + A[i]"];
        let (program, machine, layout) = setup(&stmts, 24);
        let asg = assignment(&machine, 24);
        let opts = PlanOptions::default();
        let resolution = resolve(&program, &layout, opts, &asg);
        let mut staged = place_nest(&resolution, &layout, opts, 3, None, false);
        assert!(staged.schedule.steps.iter().all(|s| s.waits.is_empty()));
        assert_eq!((staged.stats.syncs_before, staged.stats.syncs_after), (0, 0));
        sync_nest(&mut staged);
        assert!(staged.stats.syncs_before > 0, "the chain above must need sync arcs");
    }

    #[test]
    fn stats_summaries_are_sane() {
        let (_, p) =
            plan(&["A[i] = B[i] + C[i] + D[i] + E[i] + X[i]"], 32, 1, PlanOptions::default());
        let s = &p.stats;
        assert!(s.avg_movement_reduction() >= 0.0);
        assert!(s.max_movement_reduction() >= s.avg_movement_reduction());
        assert!(s.avg_parallelism() >= 1.0);
        assert!(f64::from(s.max_parallelism()) >= s.avg_parallelism());
        assert!(s.syncs_per_statement() >= 0.0);
        assert_eq!(s.instances, 32);
    }
}
