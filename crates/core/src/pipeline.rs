//! The staged planning pipeline: explicit passes over a [`PlanCtx`].
//!
//! The partitioner's work factors into five stages that run strictly in
//! order, each a stateless [`Pass`] over the shared context:
//!
//! 1. [`AnalyzePass`] — per nest, resolve the iteration→core assignment
//!    (explicit config, or chunked over the live nodes), decide the
//!    window size *source* (forced 1 for baselines, `fixed_window`,
//!    caller hint, or "search me") and resolve the statement-instance
//!    stream every later placement walks ([`crate::resolve`]);
//! 2. [`WindowSearchPass`] — the paper's pre-processing step: plan a
//!    sample at every window size 1‥`max_window` for each undecided nest
//!    (capped at the sample's length, past which every window plans the
//!    same records) and keep the size minimising warm movement (ties
//!    prefer smaller), together with that trial's placement;
//! 3. [`PlacePass`] — full placement of every nest at its decided window
//!    size: a searched nest continues its winning trial from the end of
//!    the sample ([`crate::window::Placement`]), any other is placed from
//!    scratch;
//! 4. [`SplitPass`] — the nest-level split-vs-default decision: nests
//!    whose warm planned movement does not clearly beat default
//!    execution are re-placed at iteration granularity; the resolutions
//!    are dropped here, as sync never reads them;
//! 5. [`SyncPass`] — dependence wiring and per-window transitive
//!    reduction ([`crate::window::sync_nest`]).
//!
//! Every parallel dimension (per-nest resolution, search trials, per-nest
//! placement, replans, per-nest sync) fans out over the context's
//! [`Pool`] with ordered joins, and nothing ever depends on thread
//! identity, so the pipeline is bit-identical across thread counts —
//! `Pool::single()` and `Pool::new(8)` produce the same golden digests.

use crate::layout::Layout;
use crate::partitioner::{
    nest_assignment, NestPartition, PartitionConfig, PartitionOutput, Partitioner,
};
use crate::resolve::{resolve_nest, NestResolution};
use crate::window::{place_nest, sync_nest, NestPlan, Placement};
use dmcp_ir::program::{DataStore, Program};
use dmcp_mach::{MachineConfig, NodeId};
use dmcp_pool::Pool;
use std::sync::Mutex;

/// Per-nest planning state threaded through the passes.
#[derive(Debug)]
pub struct NestCtx<'a> {
    /// Index of the nest within the program.
    pub nest: usize,
    /// Iteration→core assignment (one entry per iteration, cycled).
    pub assignment: Vec<NodeId>,
    /// Chosen window size; `None` until the search pass decides.
    pub window: Option<usize>,
    /// The resolved statement-instance stream every placement of the nest
    /// walks; set by the analyze pass and dropped by the split pass.
    pub resolution: Option<NestResolution>,
    /// The window search's winning trial: the placement of the sample at
    /// the chosen window, which the place pass continues. Set only for
    /// searched nests.
    pub trial: Option<Placement<'a>>,
    /// The placed (and eventually synced) plan.
    pub plan: Option<NestPlan>,
}

/// Shared state of one pipeline run: the immutable planning inputs plus
/// the evolving per-nest contexts.
pub struct PlanCtx<'a> {
    /// The program being partitioned.
    pub program: &'a Program,
    /// Data for indirection resolution.
    pub data: &'a DataStore,
    /// The machine configuration.
    pub machine: &'a MachineConfig,
    /// The (possibly fault-degraded) memory layout.
    pub layout: &'a Layout,
    /// The partitioner configuration.
    pub config: &'a PartitionConfig,
    /// The pool every pass fans out over.
    pub pool: &'a Pool,
    /// Generate the default (iteration-granularity) schedule throughout.
    pub force_default: bool,
    /// Caller-provided per-nest window hints (missing entries → search).
    pub window_hints: &'a [usize],
    /// Per-nest state, in program order (filled by [`AnalyzePass`]).
    pub nests: Vec<NestCtx<'a>>,
}

impl<'a> PlanCtx<'a> {
    /// Builds the context for one run of `partitioner` over `program`.
    #[must_use]
    pub fn new(
        partitioner: &'a Partitioner,
        program: &'a Program,
        data: &'a DataStore,
        pool: &'a Pool,
        force_default: bool,
        window_hints: &'a [usize],
    ) -> Self {
        Self {
            program,
            data,
            machine: partitioner.machine(),
            layout: partitioner.layout(),
            config: partitioner.config(),
            pool,
            force_default,
            window_hints,
            nests: Vec::new(),
        }
    }

    /// The resolution of `nest` (by position in [`PlanCtx::nests`]), which
    /// every placement of it walks.
    fn resolution(&self, pos: usize) -> &NestResolution {
        self.nests[pos].resolution.as_ref().expect("nest resolved before placement")
    }

    /// The largest window the search tries for `nest` (by position):
    /// `max_window`, capped by the instances a trial places. A trial
    /// places at most `min(search_sample, instances)` instances, so every
    /// larger window plans the same records, and ties keep the smaller
    /// window anyway.
    fn largest_window(&self, pos: usize) -> usize {
        let sample = self.search_sample();
        self.config.max_window.min(sample).min(self.resolution(pos).instance_count()).max(1)
    }

    /// The instances a search trial places (before capping at the nest).
    fn search_sample(&self) -> usize {
        usize::try_from(self.config.search_sample).unwrap_or(usize::MAX)
    }

    /// Consumes the context into the partitioner's output.
    ///
    /// # Panics
    ///
    /// Panics if a nest was never planned (a pass was skipped).
    #[must_use]
    pub fn into_output(self) -> PartitionOutput {
        PartitionOutput::new(
            self.nests
                .into_iter()
                .map(|nc| {
                    let NestPlan { schedule, stats } =
                        nc.plan.expect("pipeline did not plan every nest");
                    NestPartition { nest: nc.nest, schedule, stats }
                })
                .collect(),
        )
    }
}

/// One stateless stage of the planning pipeline.
pub trait Pass: Sync {
    /// The pass's name, for tracing and test assertions.
    fn name(&self) -> &'static str;
    /// Runs the pass over the shared context.
    fn run(&self, ctx: &mut PlanCtx);
}

/// The standard pass sequence, in execution order.
#[must_use]
pub fn passes() -> [&'static dyn Pass; 5] {
    [&AnalyzePass, &WindowSearchPass, &PlacePass, &SplitPass, &SyncPass]
}

/// Pass 1: resolve assignments, window-size sources and the
/// statement-instance stream per nest, one pool task (and one fresh
/// predictor) per nest.
pub struct AnalyzePass;

impl Pass for AnalyzePass {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        let c: &PlanCtx = ctx;
        let nests = c.pool.run(c.program.nests().len(), |n| {
            let iters = c.program.nests()[n].iteration_count();
            let assignment = nest_assignment(c.config, c.layout, c.machine.mesh, iters);
            let window = if c.force_default {
                Some(1)
            } else if let Some(w) = c.config.fixed_window {
                Some(w)
            } else {
                c.window_hints.get(n).copied()
            };
            let resolution = resolve_nest(
                c.program,
                n,
                c.layout,
                c.data,
                c.config.predictor.build(c.machine),
                c.config.opts,
                &assignment,
            );
            NestCtx {
                nest: n,
                assignment,
                window,
                resolution: Some(resolution),
                trial: None,
                plan: None,
            }
        });
        ctx.nests = nests;
    }
}

/// Pass 2: the window-size search (paper Section 4.4 pre-processing).
///
/// All `(nest, w)` sample trials fan out over the pool at once. Each
/// nest keeps only its best trial so far, by `(warm movement, w)`, so
/// ties keep the smaller window and the winner does not depend on the
/// order trials finish in; a losing trial is dropped as soon as it
/// loses. The winner's placement stays in [`NestCtx::trial`] for the
/// place pass to continue. A nest tries `w` only up to the number of
/// instances its sample places, so the trial count is bounded by the
/// nest, whatever `max_window` a request names. Trials skip sync wiring
/// entirely: warm movement is a pure function of the placement records.
pub struct WindowSearchPass;

impl Pass for WindowSearchPass {
    fn name(&self) -> &'static str {
        "window-search"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        let searched: Vec<usize> =
            (0..ctx.nests.len()).filter(|&pos| ctx.nests[pos].window.is_none()).collect();
        if searched.is_empty() {
            return;
        }
        let c: &PlanCtx = ctx;
        let trials: Vec<(usize, usize)> = (0..searched.len())
            .flat_map(|slot| (1..=c.largest_window(searched[slot])).map(move |w| (slot, w)))
            .collect();
        let best: Vec<Mutex<Option<(u64, Placement)>>> =
            searched.iter().map(|_| Mutex::new(None)).collect();
        c.pool.map(&trials, |_, &(slot, w)| {
            let mut trial = Placement::new(c.layout, c.config.opts, w, false);
            trial.advance(c.resolution(searched[slot]), c.search_sample());
            let movement = trial.warm_movement().0;
            let mut best = best[slot].lock().expect("window-search slot poisoned");
            let wins = best.as_ref().is_none_or(|(m, b)| (movement, w) < (*m, b.window()));
            if wins {
                // The loser, if any, is dropped here.
                *best = Some((movement, trial));
            }
        });
        for (&pos, slot) in searched.iter().zip(best) {
            let (_, trial) = slot
                .into_inner()
                .expect("window-search slot poisoned")
                .expect("every searched nest tries window 1");
            let nc = &mut ctx.nests[pos];
            nc.window = Some(trial.window());
            nc.trial = Some(trial);
        }
    }
}

/// Pass 3: full placement of every nest at its decided window size. A
/// searched nest continues the window search's winning trial, which has
/// already placed the sample; every other nest is placed from scratch.
pub struct PlacePass;

impl Pass for PlacePass {
    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        let trials: Vec<Option<Placement>> =
            ctx.nests.iter_mut().map(|nc| nc.trial.take()).collect();
        let plans: Vec<NestPlan> = {
            let c: &PlanCtx = ctx;
            c.pool.map_vec(trials, |pos, trial| {
                let mut placement = trial.unwrap_or_else(|| {
                    let w = c.nests[pos].window.expect("window decided before placement");
                    Placement::new(c.layout, c.config.opts, w, c.force_default)
                });
                placement.advance(c.resolution(pos), usize::MAX);
                placement.finish()
            })
        };
        for (nc, plan) in ctx.nests.iter_mut().zip(plans) {
            nc.plan = Some(plan);
        }
    }
}

/// Pass 4: the nest-level split-vs-default decision.
///
/// Splitting a nest is only worthwhile when its planned movement clearly
/// beats default execution (mixed placements destroy each other's L1
/// locality, so the choice is made for the whole nest). Judged on the
/// warm half of the records — the cold-start sweep, all predicted
/// misses, is unrepresentative of steady state. Flagged nests are
/// re-placed at iteration granularity with the *same* window size.
/// Placement ends here, so the pass drops every nest's resolution.
pub struct SplitPass;

impl Pass for SplitPass {
    fn name(&self) -> &'static str {
        "split"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        if !ctx.force_default {
            replan_flagged(ctx);
        }
        for nc in &mut ctx.nests {
            nc.resolution = None;
        }
    }
}

/// Re-places default-style every nest whose warm planned movement does
/// not clear `split_threshold` × default movement.
fn replan_flagged(ctx: &mut PlanCtx) {
    let flagged: Vec<usize> = (0..ctx.nests.len())
        .filter(|&pos| {
            let stats = &ctx.nests[pos].plan.as_ref().expect("placed before split").stats;
            let (warm_opt, warm_def) = stats.warm_movement();
            warm_opt as f64 > ctx.config.opts.split_threshold * warm_def as f64
        })
        .collect();
    let replans: Vec<NestPlan> = {
        let c: &PlanCtx = ctx;
        c.pool.map(&flagged, |_, &pos| {
            let w = c.nests[pos].window.expect("window decided");
            place_nest(c.resolution(pos), c.layout, c.config.opts, w, None, true)
        })
    };
    for (&pos, plan) in flagged.iter().zip(replans) {
        ctx.nests[pos].plan = Some(plan);
    }
}

/// Pass 5: dependence wiring and per-window sync minimisation.
///
/// Nests are independent, so they fan out over the pool; within a nest
/// the replay is inherently sequential (dependences chain through the
/// instance stream).
pub struct SyncPass;

impl Pass for SyncPass {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        let plans: Vec<NestPlan> =
            ctx.nests.iter_mut().map(|nc| nc.plan.take().expect("placed before sync")).collect();
        let synced = ctx.pool.map_vec(plans, |_, mut plan| {
            sync_nest(&mut plan);
            plan
        });
        for (nc, plan) in ctx.nests.iter_mut().zip(synced) {
            nc.plan = Some(plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E", "X", "Y"] {
            b.array(n, &[256], 8);
        }
        b.nest(&[("i", 0, 48)], &["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"])
            .unwrap();
        b.nest(&[("i", 0, 16)], &["Y[i] = A[i] * 2"]).unwrap();
        b.build()
    }

    #[test]
    fn pass_sequence_is_stable() {
        let names: Vec<&str> = passes().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["analyze", "window-search", "place", "split", "sync"]);
    }

    #[test]
    fn pipeline_fills_every_nest() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let mut ctx = PlanCtx::new(&part, &p, &data, Pool::global(), false, &[]);
        for pass in passes() {
            pass.run(&mut ctx);
        }
        assert_eq!(ctx.nests.len(), 2);
        assert!(ctx.nests.iter().all(|n| n.plan.is_some() && n.window.is_some()));
        let out = ctx.into_output();
        assert_eq!(out.nests.len(), 2);
        assert_eq!(out.window_sizes().len(), 2);
    }

    #[test]
    fn thread_count_is_invisible_in_the_output() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let seq = part.plan(&p, &data, &Pool::single(), false).unwrap();
        let par = part.plan(&p, &data, &Pool::new(8), false).unwrap();
        assert_eq!(seq, par, "pooled planning must be bit-identical across thread counts");
    }

    #[test]
    fn window_search_stops_at_the_sample_length() {
        // A 16-instance nest: a trial places min(search_sample, 16)
        // instances, and any larger window plans the same records, so an
        // unbounded `max_window` searches exactly what a bound of
        // `search_sample` does (and does not try 2^64 windows).
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C"] {
            b.array(n, &[64], 8);
        }
        b.nest(&[("i", 0, 16)], &["A[i] = B[i] + C[i]"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let data = p.initial_data();
        let pool = Pool::single();
        let plan = |max_window: usize, search_sample: u64| {
            let cfg = PartitionConfig { max_window, search_sample, ..PartitionConfig::default() };
            let part = Partitioner::new(&machine, &p, cfg);
            let mut ctx = PlanCtx::new(&part, &p, &data, &pool, false, &[]);
            AnalyzePass.run(&mut ctx);
            let cap = max_window.min(search_sample as usize).min(16);
            assert_eq!(ctx.largest_window(0), cap);
            part.plan(&p, &data, &pool, false).unwrap()
        };
        for search_sample in [8, 256] {
            assert_eq!(
                plan(usize::MAX, search_sample),
                plan(search_sample as usize, search_sample)
            );
        }
    }

    #[test]
    fn analyze_honours_hints_and_fixed_windows() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let pool = Pool::single();
        let mut ctx = PlanCtx::new(&part, &p, &data, &pool, false, &[3]);
        AnalyzePass.run(&mut ctx);
        assert_eq!(ctx.nests[0].window, Some(3), "hinted nest skips the search");
        assert_eq!(ctx.nests[1].window, None, "unhinted nest still searches");

        let fixed = Partitioner::new(
            &machine,
            &p,
            PartitionConfig { fixed_window: Some(5), ..PartitionConfig::default() },
        );
        let mut ctx = PlanCtx::new(&fixed, &p, &data, &pool, false, &[3]);
        AnalyzePass.run(&mut ctx);
        assert!(ctx.nests.iter().all(|n| n.window == Some(5)), "fixed window beats hints");
    }
}
