//! Data-movement-aware computation partitioning — the primary contribution
//! of "Data Movement Aware Computation Partitioning" (MICRO'17).
//!
//! Given a loop-nest program ([`dmcp_ir`]) and a machine layout
//! ([`dmcp_mach`] + [`dmcp_mem`]), the [`Partitioner`] breaks each statement
//! into *subcomputations* and schedules them on mesh nodes so that data
//! travels the minimum number of network links:
//!
//! - per statement, operand locations become vertices of a complete graph
//!   and a Kruskal MST gives the minimum total movement ([`mst`]);
//! - operator priority is honoured through *nested sets* processed
//!   innermost-first ([`dmcp_ir::nested`], [`split`]);
//! - consecutive statements are planned in *windows* so the
//!   `variable2node` map can exploit L1 reuse ([`window`]); every nest is
//!   planned at one window size, 6 by default (the paper searches 1‥8 per
//!   nest);
//! - node assignment respects a load-balance skip rule ([`balance`]), and
//!   the synchronization graph is transitively reduced ([`sync`]).
//!
//! The output is a [`step::Schedule`] — a machine-independent list of
//! subcomputations that [`sim`], the trace-driven simulator, executes and
//! times on the machine model.
//!
//! [`Partitioner::plan`] is the one planning entry point. It validates the
//! configuration, runs the passes of [`pipeline`] and checks that a
//! degraded plan runs only on live nodes; with `force_default` it emits
//! the iteration-granularity baseline instead. The profile-driven
//! placements the paper compares against are in [`baselines`], and
//! [`bound`] bounds from below the movement any plan of the planner's
//! instance stream pays.
//!
//! # Examples
//!
//! ```
//! use dmcp_core::{PartitionConfig, Partitioner};
//! use dmcp_ir::ProgramBuilder;
//! use dmcp_mach::MachineConfig;
//!
//! let mut b = ProgramBuilder::new();
//! for n in ["A", "B", "C", "D", "E"] {
//!     b.array(n, &[256], 8);
//! }
//! b.nest(&[("i", 0, 64)], &["A[i] = B[i] + C[i] + D[i] + E[i]"]).unwrap();
//! let program = b.build();
//!
//! let machine = MachineConfig::knl_like();
//! let partitioner = Partitioner::new(&machine, &program, PartitionConfig::default());
//! let data = program.initial_data();
//! let out = partitioner.plan(&program, &data, false).unwrap();
//! assert_eq!(out.nests.len(), 1);
//! assert!(out.nests[0].stats.movement_opt <= out.nests[0].stats.movement_default);
//! ```

pub mod balance;
pub mod baselines;
pub mod bound;
pub mod error;
pub mod explain;
pub mod l1model;
pub mod layout;
pub mod mst;
pub mod partitioner;
pub mod pipeline;
pub mod resolve;
pub mod sim;
pub mod split;
pub mod stats;
pub mod step;
pub mod sync;
pub mod unionfind;
pub mod window;

// The simulator's parts; `sim` re-exports their public items.
mod cachesim;
mod engine;
mod network;
mod report;

pub use error::PartitionError;
pub use layout::{ElemInfo, Layout};
pub use partitioner::{
    chunked_assignment, chunked_assignment_over, nest_assignment, NestPartition, PartitionConfig,
    PartitionOutput, Partitioner, PredictorSpec, PLANNER_REVISION,
};
pub use pipeline::{passes, NestCtx, Pass, PlanCtx};
pub use resolve::{resolve_nest, HitPredictor, NestResolution};
pub use split::PlanOptions;
pub use stats::{OpMix, StmtRecord};
pub use step::{ElemLoc, Operand, Schedule, Span, Step, StepInput, StmtTag, StoreTarget, SubId};
pub use window::{place_nest, sync_nest, NestPlan, NestStats};

#[cfg(test)]
mod tests {
    //! The baselines and the lower bound, driven through the partitioner
    //! on real programs.
    use crate::baselines::{locality_assignment, preferred_mc_overrides};
    use crate::bound::{bound_program, gap_report, GapReport};
    use crate::{PartitionConfig, Partitioner};
    use dmcp_ir::program::Program;
    use dmcp_ir::{Group, ProgramBuilder};
    use dmcp_mach::{MachineConfig, Mesh};
    use dmcp_workloads::{all, Scale};

    fn setup() -> (Program, Partitioner) {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D"] {
            b.array(n, &[1024], 64);
        }
        b.nest(&[("i", 0, 256)], &["A[i] = B[i] + C[i] + D[i]"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        (p, part)
    }

    #[test]
    fn assignment_covers_all_iterations_and_many_cores() {
        let (p, part) = setup();
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        assert_eq!(asg.len(), 256);
        let distinct: std::collections::HashSet<_> = asg.iter().collect();
        assert!(distinct.len() >= 30, "only {} cores used", distinct.len());
    }

    #[test]
    fn assignment_is_chunk_contiguous() {
        let (p, part) = setup();
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        // 256 iterations over 36 nodes -> chunks of 8.
        for c in 0..(256 / 8) {
            let chunk = &asg[c * 8..(c + 1) * 8];
            assert!(chunk.iter().all(|&n| n == chunk[0]), "chunk {c} not uniform");
        }
    }

    #[test]
    fn profiled_assignment_beats_naive_chunking_on_planned_movement() {
        let (p, part) = setup();
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        let machine = MachineConfig::knl_like();

        let naive = Partitioner::new(&machine, &p, PartitionConfig::default());
        let profiled = Partitioner::new(
            &machine,
            &p,
            PartitionConfig { assignment: Some(asg), ..PartitionConfig::default() },
        );
        let base_naive = naive.plan(&p, &data, true).unwrap();
        let base_prof = profiled.plan(&p, &data, true).unwrap();
        assert!(
            base_prof.movement_default() <= base_naive.movement_default(),
            "profiled {} vs naive {}",
            base_prof.movement_default(),
            base_naive.movement_default()
        );
    }

    #[test]
    fn mc_overrides_cover_touched_pages() {
        let (p, part) = setup();
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        let overrides = preferred_mc_overrides(&p, part.layout(), &data, 0, &asg);
        // 4 arrays × 256 touched elements × 64 B = 64 KiB ≈ 16+ pages.
        assert!(overrides.len() >= 16, "got {}", overrides.len());
        let corners = part.layout().machine().mesh.memory_controllers();
        assert!(overrides.iter().all(|(_, mc)| corners.contains(mc)));
    }

    #[test]
    fn overrides_are_deterministic() {
        let (p, part) = setup();
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        let a = preferred_mc_overrides(&p, part.layout(), &data, 0, &asg);
        let b = preferred_mc_overrides(&p, part.layout(), &data, 0, &asg);
        assert_eq!(a, b);
    }

    #[test]
    fn overrides_install_into_layout() {
        let (p, _) = setup();
        let machine = MachineConfig::knl_like();
        let mut part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let data = p.initial_data();
        let asg = locality_assignment(&p, part.layout(), &data, 0);
        let overrides = preferred_mc_overrides(&p, part.layout(), &data, 0, &asg);
        let n = overrides.len();
        for (page, mc) in overrides {
            part.layout_mut().override_page_controller(page, mc);
        }
        assert_eq!(part.layout().override_count(), n);
    }

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
                let report = gap_report(w.name, &w.program, &part, &w.data, &out);
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
            let report = gap_report(w.name, &w.program, &part, &w.data, &out);
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
        let mut b = ProgramBuilder::new();
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
        let report = gap_report("seed-34", &program, &part, &data, &out);
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
            let report = gap_report(w.name, &w.program, &part, &w.data, &base);
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
            for nb in bound_program(&w.program, &part, &w.data) {
                let nest = &w.program.nests()[nb.nest];
                let any_affine = nest.body.iter().any(|s| {
                    let rhs = Group::of_expr(&s.rhs);
                    rhs.all_leaves()
                        .into_iter()
                        .chain(std::iter::once(&s.lhs))
                        .any(|r| r.is_affine())
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
