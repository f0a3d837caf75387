//! Machine model for an on-chip-network based manycore (the paper's Figure 1).
//!
//! This crate models the *spatial* structure of the target platform used by
//! "Data Movement Aware Computation Partitioning" (MICRO'17): an `M × N`
//! 2D-mesh of tiles, where each tile holds a core, a private L1 cache and one
//! bank of the shared (SNUCA) L2, with memory controllers attached to the
//! corner tiles. It provides:
//!
//! - [`NodeId`] — a tile coordinate, with the Manhattan-distance metric the
//!   paper uses for "data movement distance";
//! - [`Mesh`] — the topology: enumeration, bank-index ↔ coordinate mapping,
//!   memory-controller placement, quadrant decomposition;
//! - [`routing`] — deterministic XY routing and the [`routing::Link`]s a
//!   message traverses (the unit in which the paper counts data movement);
//! - [`ClusterMode`] — the KNL cluster-mode policies (all-to-all, quadrant,
//!   SNC-4) that constrain which memory controller services a miss;
//! - [`MachineConfig`] — the full description of a machine instance
//!   (dimensions, cache geometry, latency and energy constants);
//! - [`fault`] — fault injection (dead nodes, dead links, lossy links) and
//!   the fault-aware detour router [`route_avoiding`];
//! - [`rng`] — the small deterministic PRNG behind workload generation and
//!   the fault model's drop schedule;
//! - [`symmetry`] — the Manhattan-distance-preserving mesh relabellings the
//!   metamorphic test sweeps are built on;
//! - [`graph`] — exact MST/Steiner kernels over the mesh metric (shared by
//!   the `dmcp-check` oracle and the `dmcp-bound` lower bounds);
//! - [`fingerprint`] — stable machine/fault fingerprints for the serving
//!   layer's plan cache.
//!
//! # Examples
//!
//! ```
//! use dmcp_mach::{Mesh, NodeId};
//!
//! let mesh = Mesh::new(6, 6);
//! let a = NodeId::new(0, 0);
//! let b = NodeId::new(3, 2);
//! assert_eq!(a.manhattan(b), 5);
//! assert_eq!(mesh.nodes().count(), 36);
//! ```

pub mod cluster;
pub mod config;
pub mod fault;
pub mod fingerprint;
pub mod graph;
pub mod mesh;
pub mod node;
pub mod rng;
pub mod routing;
pub mod symmetry;

pub use cluster::ClusterMode;
pub use config::{EnergyModel, LatencyModel, MachineConfig};
pub use fault::{route_avoiding, FaultError, FaultPlan, FaultState, RouteError, SourceRoutes};
pub use fingerprint::Fingerprint;
pub use mesh::{Mesh, Quadrant};
pub use node::NodeId;
pub use routing::{Link, RouteOrder, RoutePath};
pub use symmetry::MeshTransform;
