//! The staged planning pipeline: explicit passes over a [`PlanCtx`].
//!
//! The partitioner's work factors into four stages that run strictly in
//! order, each a stateless [`Pass`] over the shared context:
//!
//! 1. [`AnalyzePass`] — per nest, resolve the iteration→core assignment
//!    (explicit config, or chunked over the live nodes), give the nest its
//!    window size (1 for baselines, else the caller's hint, else
//!    [`PartitionConfig::window`]) and resolve the statement-instance
//!    stream every later placement walks ([`crate::resolve`]);
//! 2. [`PlacePass`] — full placement of every nest at its window size
//!    ([`crate::window::place_nest`]);
//! 3. [`SplitPass`] — the nest-level split-vs-default decision: nests
//!    whose warm planned movement does not clearly beat default
//!    execution are re-placed at iteration granularity; the resolutions
//!    are dropped here, as sync never reads them;
//! 4. [`SyncPass`] — dependence wiring and per-window transitive
//!    reduction ([`crate::window::sync_nest`]).
//!
//! Every pass walks the nests in program order, one after another, and
//! updates each [`NestCtx`] in place.

use crate::layout::Layout;
use crate::partitioner::{
    nest_assignment, NestPartition, PartitionConfig, PartitionOutput, Partitioner,
};
use crate::resolve::{resolve_nest, NestResolution};
use crate::window::{place_nest, sync_nest, NestPlan};
use dmcp_ir::program::{DataStore, Program};
use dmcp_mach::{MachineConfig, NodeId};
use dmcp_pool::Pool;

/// Per-nest planning state threaded through the passes.
#[derive(Debug)]
pub struct NestCtx {
    /// Index of the nest within the program.
    pub nest: usize,
    /// Iteration→core assignment (one entry per iteration, cycled).
    pub assignment: Vec<NodeId>,
    /// The window size the nest is planned at.
    pub window: usize,
    /// The resolved statement-instance stream every placement of the nest
    /// walks; set by the analyze pass and dropped by the split pass.
    pub resolution: Option<NestResolution>,
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
    /// Generate the default (iteration-granularity) schedule throughout.
    pub force_default: bool,
    /// Caller-provided per-nest window sizes (missing entries →
    /// [`PartitionConfig::window`]).
    pub window_hints: &'a [usize],
    /// Per-nest state, in program order (filled by [`AnalyzePass`]).
    pub nests: Vec<NestCtx>,
}

impl<'a> PlanCtx<'a> {
    /// Builds the context for one run of `partitioner` over `program`.
    /// The pipeline runs on the calling thread; `_pool` is unused.
    ///
    /// # Panics
    ///
    /// Panics if a window hint lies outside [`PartitionConfig::WINDOWS`].
    #[must_use]
    pub fn new(
        partitioner: &'a Partitioner,
        program: &'a Program,
        data: &'a DataStore,
        _pool: &Pool,
        force_default: bool,
        window_hints: &'a [usize],
    ) -> Self {
        for (nest, hint) in window_hints.iter().enumerate() {
            assert!(
                PartitionConfig::WINDOWS.contains(hint),
                "window hint {hint} for nest {nest} outside {:?}",
                PartitionConfig::WINDOWS
            );
        }
        Self { window_hints, ..Self::unhinted(partitioner, program, data, force_default) }
    }

    /// The context [`Partitioner::plan`] runs: every nest at the
    /// configured window.
    pub(crate) fn unhinted(
        partitioner: &'a Partitioner,
        program: &'a Program,
        data: &'a DataStore,
        force_default: bool,
    ) -> Self {
        Self {
            program,
            data,
            machine: partitioner.machine(),
            layout: partitioner.layout(),
            config: partitioner.config(),
            force_default,
            window_hints: &[],
            nests: Vec::new(),
        }
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
pub trait Pass {
    /// The pass's name, for tracing and test assertions.
    fn name(&self) -> &'static str;
    /// Runs the pass over the shared context.
    fn run(&self, ctx: &mut PlanCtx);
}

/// The standard pass sequence, in execution order.
#[must_use]
pub fn passes() -> [&'static dyn Pass; 4] {
    [&AnalyzePass, &PlacePass, &SplitPass, &SyncPass]
}

/// Pass 1: resolve assignments, window sizes and the statement-instance
/// stream per nest, with one fresh predictor per nest.
pub struct AnalyzePass;

impl Pass for AnalyzePass {
    fn name(&self) -> &'static str {
        "analyze"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        let nests = ctx.program.nests();
        ctx.nests = Vec::with_capacity(nests.len());
        for (n, nest) in nests.iter().enumerate() {
            let iters = nest.iteration_count();
            let assignment = nest_assignment(ctx.config, ctx.layout, ctx.machine.mesh, iters);
            let window = if ctx.force_default {
                1
            } else {
                ctx.window_hints.get(n).copied().unwrap_or(ctx.config.window)
            };
            let resolution = resolve_nest(
                ctx.program,
                n,
                ctx.layout,
                ctx.data,
                ctx.config.predictor.build(ctx.machine),
                ctx.config.opts,
                &assignment,
            );
            ctx.nests.push(NestCtx {
                nest: n,
                assignment,
                window,
                resolution: Some(resolution),
                plan: None,
            });
        }
    }
}

/// Pass 2: full placement of every nest at its window size.
pub struct PlacePass;

impl Pass for PlacePass {
    fn name(&self) -> &'static str {
        "place"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        for nc in &mut ctx.nests {
            let resolution = nc.resolution.as_ref().expect("nest resolved before placement");
            let plan =
                place_nest(resolution, ctx.layout, ctx.config.opts, nc.window, ctx.force_default);
            nc.plan = Some(plan);
        }
    }
}

/// Pass 3: the nest-level split-vs-default decision.
///
/// Splitting a nest is only worthwhile when its planned movement clearly
/// beats default execution (mixed placements destroy each other's L1
/// locality, so the choice is made for the whole nest). Judged on the
/// warm half of the records — the cold-start sweep, all predicted
/// misses, is unrepresentative of steady state. A nest whose warm planned
/// movement does not clear `split_threshold` × default movement is
/// re-placed at iteration granularity with the *same* window size.
/// Placement ends here, so the pass drops every nest's resolution.
pub struct SplitPass;

impl Pass for SplitPass {
    fn name(&self) -> &'static str {
        "split"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        for nc in &mut ctx.nests {
            if !ctx.force_default {
                let stats = &nc.plan.as_ref().expect("placed before split").stats;
                let (warm_opt, warm_def) = stats.warm_movement();
                if warm_opt as f64 > ctx.config.opts.split_threshold * warm_def as f64 {
                    let resolution = nc.resolution.as_ref().expect("nest resolved before split");
                    let plan = place_nest(resolution, ctx.layout, ctx.config.opts, nc.window, true);
                    nc.plan = Some(plan);
                }
            }
            nc.resolution = None;
        }
    }
}

/// Pass 4: dependence wiring and per-window sync minimisation. Within a
/// nest the replay is inherently sequential (dependences chain through
/// the instance stream).
pub struct SyncPass;

impl Pass for SyncPass {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn run(&self, ctx: &mut PlanCtx) {
        for nc in &mut ctx.nests {
            sync_nest(nc.plan.as_mut().expect("placed before sync"));
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
        assert_eq!(names, ["analyze", "place", "split", "sync"]);
    }

    #[test]
    fn pipeline_fills_every_nest() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let mut ctx = PlanCtx::new(&part, &p, &data, &Pool::single(), false, &[]);
        for pass in passes() {
            pass.run(&mut ctx);
        }
        assert_eq!(ctx.nests.len(), 2);
        assert!(ctx.nests.iter().all(|n| n.plan.is_some() && n.window == 6));
        let out = ctx.into_output();
        assert_eq!(out.nests.len(), 2);
        assert_eq!(out.window_sizes().len(), 2);
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
        assert_eq!(ctx.nests[0].window, 3, "a hint names the nest's window");
        assert_eq!(ctx.nests[1].window, 6, "an unhinted nest plans at the configured window");

        let five = Partitioner::new(
            &machine,
            &p,
            PartitionConfig { window: 5, ..PartitionConfig::default() },
        );
        let mut ctx = PlanCtx::new(&five, &p, &data, &pool, false, &[3]);
        AnalyzePass.run(&mut ctx);
        assert_eq!((ctx.nests[0].window, ctx.nests[1].window), (3, 5), "hints beat the config");

        let mut ctx = PlanCtx::new(&part, &p, &data, &pool, true, &[3]);
        AnalyzePass.run(&mut ctx);
        assert!(ctx.nests.iter().all(|n| n.window == 1), "baselines plan at window 1");
    }

    fn context_with_hints(hints: &[usize]) {
        let p = program();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let _ = PlanCtx::new(&part, &p, &data, &Pool::single(), false, hints);
    }

    #[test]
    #[should_panic(expected = "window hint 0 for nest 0 outside 1..=8")]
    fn a_zero_window_hint_is_refused() {
        context_with_hints(&[0]);
    }

    #[test]
    #[should_panic(expected = "window hint 9 for nest 0 outside 1..=8")]
    fn a_window_hint_above_eight_is_refused() {
        context_with_hints(&[9]);
    }
}
