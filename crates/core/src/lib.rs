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
//! placements the paper compares against are in [`baselines`].
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
    //! The baselines, driven through the partitioner and its layout.
    use crate::baselines::{locality_assignment, preferred_mc_overrides};
    use crate::{PartitionConfig, Partitioner};
    use dmcp_ir::program::Program;
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;

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
}
