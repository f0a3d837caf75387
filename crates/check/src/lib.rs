//! `dmcp-check` — a deterministic property-testing harness for the
//! partitioner.
//!
//! The paper's claim rests on the MST schedule being a *correct* rewriting
//! of each statement (level-based nested sets, partial reductions, store
//! at the home node) and a *near-optimal* one under the Eq.-1 movement
//! metric. This crate checks both mechanically, on thousands of generated
//! programs, machines and fault plans:
//!
//! * [`gencase`] — a structured generator for random programs / data
//!   stores / meshes under a size budget, plus a greedy shrinker that
//!   minimises failing cases before they are reported;
//! * [`oracle`] — an exact-schedule oracle: a Dreyfus–Wagner Steiner-tree
//!   DP (equivalent to enumerating every operand-ordering and every
//!   combining-tree node assignment) for statements with ≤ 5 operands on
//!   meshes ≤ 3×3, sandwiching the partitioner's movement between the
//!   exact minimum and the MST bound;
//! * [`conform`] — a value-conformance checker that executes every
//!   emitted plan step by step (partial reductions, sync arcs, store) —
//!   in schedule order *and* in adversarial random topological orders —
//!   and compares against the `dmcp-ir` interpreter, healthy and
//!   degraded;
//! * [`meta`] — metamorphic sweeps: variable renaming, mesh
//!   translation/rotation of home-node sets, fault-plan route
//!   monotonicity;
//! * [`boundprop`] — the lower bound (`dmcp_core::bound`) never exceeds planner
//!   movement (healthy and degraded), and is invariant under renaming and
//!   mesh isometries;
//! * [`crashprop`] — crash-consistency fuzzing of the durable plan tier:
//!   a deterministic fault injector crashes the store at every write
//!   boundary, the reopened tier must recover exactly the committed
//!   prefix, and a fault storm must degrade to memory-only and restore
//!   without losing a record;
//! * [`digest`] — a stable plan fingerprint for golden-plan drift tests;
//! * [`harness`] — the seeded driver tying it all together, with panic
//!   capture and counterexample shrinking.
//!
//! Everything runs on the in-tree splitmix64 RNG ([`dmcp_mach::rng`]):
//! a fixed seed reproduces the exact same sweep, bit for bit.
//!
//! # Quick start
//!
//! ```
//! use dmcp_check::harness::{run, CheckConfig};
//!
//! let report = run(&CheckConfig { seeds: 2, ..CheckConfig::default() });
//! assert!(report.counterexamples.is_empty());
//! ```

pub mod boundprop;
pub mod conform;
pub mod crashprop;
pub mod digest;
pub mod gencase;
pub mod golden;
pub mod harness;
pub mod meta;
pub mod oracle;

pub use digest::plan_digest;
pub use gencase::{BuiltCase, CaseSpec};
pub use harness::{run, run_pooled, CheckConfig, CheckReport, Counterexample};
