//! **dmcp** — Data-Movement-aware Computation Partitioning.
//!
//! A complete, self-contained reproduction of *"Data Movement Aware
//! Computation Partitioning"* (Tang, Kislal, Kandemir, Karakoy — MICRO-50,
//! 2017): a compiler that splits loop-nest statements into
//! *subcomputations* and schedules them on the nodes of a mesh manycore so
//! that data travels the minimum number of on-chip network links, together
//! with everything needed to evaluate it — machine model, memory system,
//! loop-nest IR, trace-driven simulator, the 12-application workload suite
//! and the baseline placement schemes.
//!
//! # Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`mach`] | `dmcp-mach` | mesh topology, XY routing, cluster modes, machine config |
//! | [`mem`] | `dmcp-mem` | address mapping, SNUCA, page colouring, caches, miss predictor |
//! | [`ir`] | `dmcp-ir` | statement language, loop nests, nested operand sets, fingerprints |
//! | [`core`] | `dmcp-core` | **the paper's algorithm**: MST splitting, windows, scheduling; one entry point, `Partitioner::plan` |
//! | [`sim`] | `dmcp-core` (`dmcp_core::sim`) | trace-driven timing/energy simulation of plans, fault sweeps |
//! | [`workloads`] | `dmcp-workloads` | the 12 kernels (Splash-2 + Mantevo shapes) |
//! | [`baselines`] | `dmcp-core` (`dmcp_core::baselines`) | profiled default placement, data-to-MC mapping |
//! | [`pool`] | `dmcp-pool` | deterministic fork-join pool for per-workload and per-seed sweeps |
//! | [`serve`] | `dmcp-serve` | plan compilation service: content-addressed cache, worker pool, TCP server and client |
//! | [`check`] | `dmcp-check` | property-testing harness: generators, oracles, shrinking, goldens |
//! | [`hash`] | `dmcp-hash` | shared stable-hash primitives: FNV-1a, frame checksum, splitmix64 finalizer |
//! | [`bound`] | `dmcp-bound` | data-movement lower bounds and the optimality-gap dashboard |
//!
//! # How close to optimal?
//!
//! The [`bound`] module computes a provable per-nest *lower bound* on data
//! movement and reports the planner's distance from it:
//!
//! ```
//! use dmcp::bound::gap_report;
//! use dmcp::core::{PartitionConfig, Partitioner};
//! use dmcp::mach::MachineConfig;
//! use dmcp::workloads::{by_name, Scale};
//!
//! let w = by_name("fft", Scale::Tiny).expect("known workload");
//! let machine = MachineConfig::knl_like();
//! let partitioner = Partitioner::new(&machine, &w.program, PartitionConfig::default());
//! let optimized = partitioner.plan(&w.program, &w.data, false).unwrap();
//!
//! let gap = gap_report(
//!     w.name, &w.program, partitioner.layout(), &w.data, partitioner.config(), &optimized,
//! );
//! assert!(gap.sound()); // movement can never drop below the bound
//! assert!(gap.gap_ratio() >= 1.0); // 1.0 would mean provably optimal
//! ```
//!
//! # Quick start
//!
//! ```
//! use dmcp::core::{PartitionConfig, Partitioner};
//! use dmcp::mach::MachineConfig;
//! use dmcp::sim::{run_schedules, SimOptions};
//! use dmcp::workloads::{by_name, Scale};
//!
//! let w = by_name("fft", Scale::Tiny).expect("known workload");
//! let machine = MachineConfig::knl_like();
//! let partitioner = Partitioner::new(&machine, &w.program, PartitionConfig::default());
//!
//! // `plan(.., false)` is the optimized plan, `plan(.., true)` the
//! // iteration-granularity baseline.
//! let optimized = partitioner.plan(&w.program, &w.data, false).unwrap();
//! let baseline = partitioner.plan(&w.program, &w.data, true).unwrap();
//!
//! let r_opt = run_schedules(&w.program, partitioner.layout(), &optimized, SimOptions::default());
//! let r_base = run_schedules(&w.program, partitioner.layout(), &baseline, SimOptions::default());
//! assert!(r_opt.movement <= r_base.movement);
//! ```

pub use dmcp_bound as bound;
pub use dmcp_check as check;
pub use dmcp_core as core;
pub use dmcp_core::baselines;
pub use dmcp_core::sim;
pub use dmcp_hash as hash;
pub use dmcp_ir as ir;
pub use dmcp_mach as mach;
pub use dmcp_mem as mem;
pub use dmcp_pool as pool;
pub use dmcp_serve as serve;
pub use dmcp_workloads as workloads;
