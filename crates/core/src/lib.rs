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
//!   `variable2node` map can exploit L1 reuse, and a pre-processing pass
//!   picks the best window size (1‥8) per nest ([`window`]);
//! - node assignment respects a load-balance skip rule ([`balance`]), and
//!   the synchronization graph is transitively reduced ([`sync`]).
//!
//! The output is a [`step::Schedule`] — a machine-independent list of
//! subcomputations the `dmcp-sim` crate executes and times.
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
//! let out = partitioner.partition(&program);
//! assert_eq!(out.nests.len(), 1);
//! assert!(out.nests[0].stats.movement_opt <= out.nests[0].stats.movement_default);
//! ```

pub mod balance;
pub mod error;
pub mod explain;
pub mod l1model;
pub mod layout;
pub mod mst;
pub mod partitioner;
pub mod pipeline;
pub mod resolve;
pub mod split;
pub mod stats;
pub mod step;
pub mod sync;
pub mod unionfind;
pub mod window;

pub use error::PartitionError;
pub use layout::{ElemInfo, Layout};
pub use partitioner::{
    chunked_assignment, chunked_assignment_over, nest_assignment, NestPartition, PartitionConfig,
    PartitionOutput, Partitioner, PredictorSpec,
};
pub use pipeline::{passes, NestCtx, Pass, PlanCtx};
pub use resolve::{resolve_nest, HitPredictor, NestResolution};
pub use split::PlanOptions;
pub use stats::{OpMix, StmtRecord};
pub use step::{ElemLoc, Operand, Schedule, Step, StepInput, StmtTag, StoreTarget, SubId};
pub use window::{place_nest, sync_nest, NestPlan, NestStats};
