//! Golden pins for the 12-workload suite: plan digests (healthy and
//! canonically degraded) and [`PlanKey`](dmcp_serve::PlanKey) digests,
//! all at Tiny scale on the KNL-like machine with the default
//! configuration, plus
//! [`GOLDEN_VARIANTS`]: FFT and Radix under every non-default planning
//! configuration in [`VARIANTS`], and [`GOLDEN_LARGE_MESH`]: FFT, Radix
//! and LU on a 10×10 mesh. [`GOLDEN_SIM`] pins what the simulator reports
//! for those plans, field by field, and [`GOLDEN_PLAN_BYTES`] the bytes
//! the plan server sends for them.
//!
//! These tables pin the planner's output bit-for-bit across refactors.
//! Any change to splitting, placement, window choice, sync reduction or
//! key derivation shows up as a mismatch; if the change is intentional,
//! regenerate with the `print_golden_tables` test in this module (or
//! `cargo test --test golden_plans -- --ignored --nocapture`).
//!
//! Both the workspace-level `golden_plans` test and perfbench's
//! `plan_suite` and `serve_*` checks consume these tables, so a digest
//! drift fails both.

use crate::digest::plan_digest;
use dmcp_baselines::preferred_mc_overrides;
use dmcp_core::sim::{run_schedules, run_schedules_degraded, SimOptions, SimReport};
use dmcp_core::{
    nest_assignment, PartitionConfig, PartitionOutput, Partitioner, PlanOptions, PredictorSpec,
};
use dmcp_ir::StableHasher;
use dmcp_mach::{ClusterMode, FaultPlan, FaultState, MachineConfig, Mesh, NodeId};
use dmcp_mem::page::PagePolicy;
use dmcp_mem::MemoryMode;
use dmcp_pool::Pool;
use dmcp_serve::codec::encode_plan;
use dmcp_serve::PlanRequest;
use dmcp_workloads::{by_name, Scale, Workload};

/// Expected healthy plan digest per workload (default configuration).
pub const GOLDEN_HEALTHY: &[(&str, u64)] = &[
    ("Barnes", 0xfcc3d21b971148af),
    ("Cholesky", 0xec3103d3d6ef6ce8),
    ("FFT", 0x7ee4c14e0346b142),
    ("FMM", 0x362451db685f9acb),
    ("LU", 0x8c969337a80f8708),
    ("Ocean", 0x99c6b56d39b91391),
    ("Radiosity", 0x78453244ace62a0d),
    ("Radix", 0xd33cf59f2860809c),
    ("Raytrace", 0xbd205ffa11453f34),
    ("Water", 0x20347db488c4f63d),
    ("MiniMD", 0xbac0d0dc0eba9c86),
    ("MiniXyce", 0x6d172a91265be22b),
];

/// Expected plan digest per workload under [`canonical_faults`]
/// (default configuration).
pub const GOLDEN_DEGRADED: &[(&str, u64)] = &[
    ("Barnes", 0x072fd0f743e89848),
    ("Cholesky", 0x0101bc93e6ec1b7c),
    ("FFT", 0xb291f80b72c5ef84),
    ("FMM", 0x07b2bbf63353b60a),
    ("LU", 0x630a5d361abc0812),
    ("Ocean", 0xbc3250cd7188f521),
    ("Radiosity", 0xb7f2b6d2554344c3),
    ("Radix", 0x1bf4cca79b496c01),
    ("Raytrace", 0xba09a3830ee0609a),
    ("Water", 0x2e03da78b70547ee),
    ("MiniMD", 0x134b5952b3ddfef7),
    ("MiniXyce", 0x6bb6b16657896878),
];

/// Expected `(healthy, degraded)` [`PlanKey`] digests per workload —
/// pins the cache-key derivation (structural program hash, machine and
/// config fingerprints, fault fingerprint) alongside the plans.
///
/// [`PlanKey`]: dmcp_serve::PlanKey
pub const GOLDEN_KEYS: &[(&str, u64, u64)] = &[
    ("Barnes", 0x2b284ccd847a83af, 0x92c3b0c339d98265),
    ("Cholesky", 0x8116946ee5c3848a, 0x85a40576b075a245),
    ("FFT", 0x8cb258078c94d2ef, 0x5c078f122e2cef2b),
    ("FMM", 0xf5baaebc69fb6a20, 0x11225063e25f13a4),
    ("LU", 0x8edad6e52aad7745, 0xb1b37ab169ee9ea0),
    ("Ocean", 0xf44be029bda2089b, 0xe5f796eaf76032b7),
    ("Radiosity", 0x50e7a33edfbd4f30, 0x2b858ad801dc5df0),
    ("Radix", 0x6df40a527a0d6fb2, 0x6fd475bd816e101e),
    ("Raytrace", 0x97cb65d36e11bbe3, 0xd01c53005632e1e6),
    ("Water", 0x2418b2785eef2cbd, 0x84e6c175ce1602af),
    ("MiniMD", 0xce20d781cbc013eb, 0x26b902730ace6184),
    ("MiniXyce", 0xa0cb8418498dd25a, 0xeda354f8ba6f77e5),
];

/// Expected `(workload, healthy length, healthy checksum, degraded length,
/// degraded checksum)` of [`encode_plan`] for the golden plans: the bytes
/// a cache hit sends and the disk tier stores, measured by
/// [`plan_bytes_pin`].
///
/// The plan digests pin what the planner builds; these pin how the codec
/// writes it, so a layout change cannot pass as long as it round-trips.
/// Taken once from the compact plan layout (plan version byte 6) and never
/// regenerated: a new layout needs a new version byte and a new table.
pub const GOLDEN_PLAN_BYTES: &[(&str, usize, u64, usize, u64)] = &[
    ("Barnes", 313141, 0xe7bcdd8a118b83fd, 312833, 0xfb459a803cdc1efe),
    ("Cholesky", 348215, 0x905d50008f62c112, 348148, 0x85cc88741f0a7300),
    ("FFT", 114555, 0x06f46881ae406ebd, 114672, 0x040d1a76f6c35cd5),
    ("FMM", 135745, 0x2232e54316c5eeb0, 141216, 0xe786e3c8bc5d77ca),
    ("LU", 467519, 0x510969fd937a86ac, 466931, 0xb777e0779e63333c),
    ("Ocean", 412135, 0x5dceeb7bb6010c6c, 412081, 0x2423dfab53d71244),
    ("Radiosity", 151792, 0x78d6cc6870591bbc, 152138, 0x7028a7d4f130395b),
    ("Radix", 135598, 0xb31f403541eca4f8, 135611, 0xb2ee820047b0db7c),
    ("Raytrace", 159797, 0xe99976e2b9a184cf, 159804, 0x23f5472e28dc974a),
    ("Water", 285985, 0x7509dc7037b5d6db, 284073, 0x24a0d8d9c7bce59a),
    ("MiniMD", 289018, 0x89855f9d0b5c4bb5, 288654, 0xaf7df22902d2ce93),
    ("MiniXyce", 129183, 0xa45d25cd2da55a96, 129086, 0xcb6dc830fec38e74),
];

/// The length and [`dmcp_hash::checksum64`] of `output`'s encoding, as
/// [`GOLDEN_PLAN_BYTES`] pins them.
#[must_use]
pub fn plan_bytes_pin(output: &PartitionOutput) -> (usize, u64) {
    let bytes = encode_plan(output);
    (bytes.len(), dmcp_hash::checksum64(&bytes))
}

/// Expected `(workload, healthy digest, degraded digest)` on
/// [`large_mesh_machine`] with the default configuration, the degraded
/// plan under [`canonical_faults`].
///
/// Every other golden runs on the 36-node KNL-like mesh, so these are the
/// only pins on per-node and per-line state beyond 64 nodes (node indices
/// that no longer fit one machine word). Generated before the placement
/// kernel moved to dense line ids and reusable scratch, and never
/// regenerated.
pub const GOLDEN_LARGE_MESH: &[(&str, u64, u64)] = &[
    ("FFT", 0xec43f2053210d9db, 0x09b10122a13740d9),
    ("Radix", 0x37e875214f299883, 0x66eb83454da25d69),
    ("LU", 0x5307dc96f2ff9061, 0x55ac12f53ad04680),
];

/// The KNL-like machine on a 10×10 mesh (100 nodes).
#[must_use]
pub fn large_mesh_machine() -> MachineConfig {
    MachineConfig::knl_like().with_mesh(Mesh::new(10, 10))
}

/// The plan digest of `name` on [`large_mesh_machine`] (default config),
/// healthy or under [`canonical_faults`], compiled over `pool`.
#[must_use]
pub fn large_mesh_digest(name: &str, degraded: bool, pool: &Pool) -> u64 {
    let machine = if degraded { "large-degraded" } else { "large-healthy" };
    plan_digest(&GoldenInput::plan(machine, name, pool).output)
}

/// The canonical degradation every degraded golden is pinned under: one
/// dead node away from the origin plus one dead link on the far side of
/// the KNL-like mesh — enough to re-home banks, shrink the live set and
/// reroute, while keeping every workload plannable.
#[must_use]
pub fn canonical_faults() -> FaultPlan {
    let mut plan = FaultPlan::healthy();
    plan.kill_node(NodeId::new(1, 1)).kill_link(NodeId::new(4, 2), NodeId::new(4, 3));
    plan
}

fn workload(name: &str) -> Workload {
    by_name(name, Scale::Tiny).unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// Compiles `name` on a healthy machine over `pool` (default config).
#[must_use]
pub fn healthy_output(name: &str, pool: &Pool) -> PartitionOutput {
    GoldenInput::plan("healthy", name, pool).output
}

/// Compiles `name` under [`canonical_faults`] over `pool` (default
/// config).
#[must_use]
pub fn degraded_output(name: &str, pool: &Pool) -> PartitionOutput {
    GoldenInput::plan("degraded", name, pool).output
}

/// The healthy plan digest of `name`, compiled over `pool`.
#[must_use]
pub fn healthy_digest(name: &str, pool: &Pool) -> u64 {
    plan_digest(&healthy_output(name, pool))
}

/// The degraded plan digest of `name`, compiled over `pool`.
#[must_use]
pub fn degraded_digest(name: &str, pool: &Pool) -> u64 {
    plan_digest(&degraded_output(name, pool))
}

/// The `(healthy, degraded)` [`dmcp_serve::PlanKey`] digests of `name`.
#[must_use]
pub fn key_digests(name: &str) -> (u64, u64) {
    let w = workload(name);
    let machine = MachineConfig::knl_like();
    let healthy = PlanRequest::new(w.program.clone(), machine.clone(), PartitionConfig::default())
        .with_data(w.data.clone());
    let degraded = PlanRequest::new(w.program, machine, PartitionConfig::default())
        .with_data(w.data)
        .with_faults(canonical_faults());
    (healthy.key().digest(), degraded.key().digest())
}

/// The non-default planning configurations pinned in [`GOLDEN_VARIANTS`],
/// by name: every predictor, every planner knob and the machine-side
/// switches (page policy, cluster mode, explicit assignment), plus the
/// default schedule (`baseline`) and the Figure-23 data-to-controller
/// overrides (`mc-override`).
pub const VARIANTS: [&str; 10] = [
    "always-hit",
    "ideal-analysis",
    "reuse-agnostic",
    "scramble",
    "fixed-window-4",
    "short-search",
    "snc4",
    "reversed-assignment",
    "baseline",
    "mc-override",
];

/// The workloads every variant is pinned on: FFT (affine references only)
/// and Radix (indirect references resolved through the data).
pub const VARIANT_WORKLOADS: [&str; 2] = ["FFT", "Radix"];

/// Expected `(variant, workload, healthy digest, degraded digest)` for
/// every [`VARIANTS`] × [`VARIANT_WORKLOADS`] pair. The degraded digest
/// is `None` where [`Partitioner::new_degraded`] refuses the config (the
/// reversed assignment names the canonically dead node).
///
/// Some rows repeat a default digest, and the pins hold that too: the
/// planner reads controllers off the VA-based belief, which the Figure-23
/// overrides leave alone.
pub const GOLDEN_VARIANTS: &[(&str, &str, u64, Option<u64>)] = &[
    ("always-hit", "FFT", 0xbdcb741a567463b0, Some(0xe4fa81d9aead2c4d)),
    ("always-hit", "Radix", 0x021ece51bc7dba3e, Some(0x02c5c677839f82b9)),
    ("ideal-analysis", "FFT", 0x5378fe2446a1fe25, Some(0x70031156c7ea1b65)),
    ("ideal-analysis", "Radix", 0x0f7c29e1d971a3a1, Some(0xb36fb401d8aa4c6a)),
    ("reuse-agnostic", "FFT", 0xa3160e4bf5060bd4, Some(0x012c972d7853781d)),
    ("reuse-agnostic", "Radix", 0xc31cbf1425bd0230, Some(0xbd0f016df1aa441c)),
    ("scramble", "FFT", 0xda1e9209178eda4e, Some(0x9e4b19e24a4a3cf6)),
    ("scramble", "Radix", 0x548ec22bdfee3ce4, Some(0x6214c718bfef808b)),
    ("fixed-window-4", "FFT", 0x85468992a82ba57f, Some(0x85993da1c417795c)),
    ("fixed-window-4", "Radix", 0xbf7c779816d647da, Some(0x1bf4cca79b496c01)),
    ("short-search", "FFT", 0x7eb35f01c900e671, Some(0x736fa92f0c7b0a02)),
    ("short-search", "Radix", 0x652636faf00697b8, Some(0xb55c3c9e339918ef)),
    ("snc4", "FFT", 0x61583f03db564bfc, Some(0xab189100c4fd3f57)),
    ("snc4", "Radix", 0xfd1cffec51dde401, Some(0x5cc9ddaee9944f51)),
    ("reversed-assignment", "FFT", 0x08a3ca6d84792e6d, None),
    ("reversed-assignment", "Radix", 0x8eded88ca5ea1f50, None),
    ("baseline", "FFT", 0xa3160e4bf5060bd4, Some(0x012c972d7853781d)),
    ("baseline", "Radix", 0xbd1ce226270a7b97, Some(0xcd6b6607e69926a3)),
    ("mc-override", "FFT", 0x7ee4c14e0346b142, Some(0xb291f80b72c5ef84)),
    ("mc-override", "Radix", 0xd33cf59f2860809c, Some(0x1bf4cca79b496c01)),
];

/// The machine and configuration of `variant`.
///
/// # Panics
///
/// Panics on a name outside [`VARIANTS`].
fn variant_config(variant: &str) -> (MachineConfig, PartitionConfig) {
    let machine = MachineConfig::knl_like();
    let base = PartitionConfig::default();
    let config = match variant {
        "always-hit" => PartitionConfig { predictor: PredictorSpec::AlwaysHit, ..base },
        "ideal-analysis" => {
            PartitionConfig { opts: PlanOptions { ideal_analysis: true, ..base.opts }, ..base }
        }
        "reuse-agnostic" => {
            PartitionConfig { opts: PlanOptions { reuse_aware: false, ..base.opts }, ..base }
        }
        "scramble" => PartitionConfig { page_policy: PagePolicy::Scramble, ..base },
        "fixed-window-4" => PartitionConfig { fixed_window: Some(4), ..base },
        "short-search" => PartitionConfig { search_sample: 64, max_window: 5, ..base },
        "snc4" => return (machine.with_cluster(ClusterMode::Snc4), base),
        "reversed-assignment" => {
            PartitionConfig { assignment: Some(reversed_nodes(&machine)), ..base }
        }
        "baseline" | "mc-override" => base,
        other => panic!("unknown golden variant {other}"),
    };
    (machine, config)
}

/// Every mesh node in reverse row-major order.
fn reversed_nodes(machine: &MachineConfig) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = machine.mesh.nodes().collect();
    nodes.reverse();
    nodes
}

/// One compiled variant: the inputs it was planned from and the plan.
pub struct VariantRun {
    /// The workload (program and data).
    pub workload: Workload,
    /// The partitioner the plan came from.
    pub partitioner: Partitioner,
    /// The plan.
    pub output: PartitionOutput,
}

/// Compiles `name` under `variant`, healthy or under [`canonical_faults`],
/// over `pool`. `None` where [`Partitioner::new_degraded`] refuses the
/// variant's config.
///
/// # Panics
///
/// Panics on a variant outside [`VARIANTS`].
#[must_use]
pub fn variant_run(variant: &str, name: &str, degraded: bool, pool: &Pool) -> Option<VariantRun> {
    let w = workload(name);
    let (machine, config) = variant_config(variant);
    let mut part = if degraded {
        let faults = FaultState::new(canonical_faults(), machine.mesh)
            .expect("canonical faults fit the KNL-like mesh");
        Partitioner::new_degraded(&machine, &w.program, config, &faults).ok()?
    } else {
        Partitioner::new(&machine, &w.program, config)
    };
    if variant == "mc-override" {
        let iterations = w.program.nests()[0].iteration_count();
        let assignment = nest_assignment(part.config(), part.layout(), machine.mesh, iterations);
        for (page, mc) in preferred_mc_overrides(&w.program, part.layout(), &w.data, 0, &assignment)
        {
            part.layout_mut().override_page_controller(page, mc);
        }
    }
    let output =
        part.plan(&w.program, &w.data, pool, variant == "baseline").expect("variant plans");
    Some(VariantRun { workload: w, partitioner: part, output })
}

/// A stable fingerprint of every [`SimReport`] field: each float by its
/// bits, the energy breakdown, the per-instance movement sorted by key,
/// and the retry, detour and drop counters. Two reports get the same
/// digest iff they are field-for-field identical.
#[must_use]
pub fn sim_digest(report: &SimReport) -> u64 {
    // Destructured so that a new field fails to compile here until it is
    // hashed.
    let SimReport {
        exec_time,
        movement,
        messages,
        net_avg_latency,
        net_max_latency,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        mem_fast,
        mem_slow,
        sync_count,
        sync_wait,
        ops,
        predictor_accuracy,
        energy,
        per_instance_movement,
        busiest_node,
        last_finish,
        net_retries,
        net_detour_hops,
        net_dropped_flits,
    } = report;
    let mut h = StableHasher::new();
    for v in [
        exec_time,
        net_avg_latency,
        net_max_latency,
        sync_wait,
        predictor_accuracy,
        busiest_node,
        last_finish,
        &energy.link,
        &energy.cache,
        &energy.memory,
        &energy.op,
        &energy.background,
    ] {
        h.write_f64(*v);
    }
    for v in [
        movement,
        messages,
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        mem_fast,
        mem_slow,
        sync_count,
        ops,
        net_retries,
        net_detour_hops,
        net_dropped_flits,
    ] {
        h.write_u64(*v);
    }
    let mut per_instance: Vec<(&(u32, u64), &u64)> = per_instance_movement.iter().collect();
    per_instance.sort_unstable();
    h.write_len(per_instance.len());
    for (&(nest, instance), &links) in per_instance {
        h.write_u32(nest);
        h.write_u64(instance);
        h.write_u64(links);
    }
    h.finish()
}

/// The fault plan of the `lossy` simulator golden machine: a seeded
/// random plan on the KNL-like mesh with dead nodes, dead links and lossy
/// links, so its runs detour, drop flits and retry.
fn lossy_faults() -> FaultPlan {
    FaultPlan::random(MachineConfig::knl_like().mesh, 0.05, 0.05, 0.25, 0.3, 0x1055)
}

/// The simulator options pinned in [`GOLDEN_SIM`], by name: the default,
/// both MCDRAM memory modes and every counterfactual knob of
/// [`SimOptions`].
pub const SIM_OPTIONS: [&str; 9] = [
    "default",
    "cache",
    "hybrid",
    "ideal-network",
    "movement-scale",
    "l1-override",
    "compute-scale",
    "extra-sync",
    "track-instances",
];

/// The [`SimOptions`] of `name`.
///
/// # Panics
///
/// Panics on a name outside [`SIM_OPTIONS`].
fn sim_options(name: &str) -> SimOptions {
    let base = SimOptions::default();
    match name {
        "default" => base,
        "cache" => SimOptions { memory_mode: MemoryMode::Cache, ..base },
        "hybrid" => SimOptions { memory_mode: MemoryMode::Hybrid, ..base },
        "ideal-network" => SimOptions { ideal_network: true, ..base },
        "movement-scale" => SimOptions { movement_scale: Some(0.7), ..base },
        "l1-override" => SimOptions { l1_rate_override: Some(0.6), ..base },
        "compute-scale" => SimOptions { compute_scale: Some(0.5), ..base },
        "extra-sync" => SimOptions { extra_sync_per_statement: 25.0, ..base },
        "track-instances" => SimOptions { track_instances: true, ..base },
        other => panic!("unknown simulator golden options {other}"),
    }
}

/// One golden input, planned: the workload, the partitioner its plan
/// came from, the plan, and the fault state it was planned and is
/// simulated under (`None` on a healthy machine).
pub struct GoldenInput {
    /// The workload (program and data).
    pub workload: Workload,
    /// The partitioner the plan came from.
    pub partitioner: Partitioner,
    /// The plan.
    pub output: PartitionOutput,
    /// The faults the plan was made and is simulated under.
    pub faults: Option<FaultState>,
}

impl GoldenInput {
    /// Plans `name` (default config) on the golden machine `machine`:
    /// `healthy`, `degraded` ([`canonical_faults`]), `lossy` (a seeded
    /// random plan with dead nodes, dead links and lossy links), or
    /// `large-healthy`/`large-degraded` (the first two on
    /// [`large_mesh_machine`]).
    ///
    /// # Panics
    ///
    /// Panics on another machine name, or if a fault plan is rejected
    /// (none is).
    #[must_use]
    pub fn plan(machine: &str, name: &str, pool: &Pool) -> Self {
        let (config, plan) = match machine {
            "healthy" => (MachineConfig::knl_like(), None),
            "degraded" => (MachineConfig::knl_like(), Some(canonical_faults())),
            "lossy" => (MachineConfig::knl_like(), Some(lossy_faults())),
            "large-healthy" => (large_mesh_machine(), None),
            "large-degraded" => (large_mesh_machine(), Some(canonical_faults())),
            other => panic!("unknown simulator golden machine {other}"),
        };
        let workload = workload(name);
        let faults = plan.map(|p| FaultState::new(p, config.mesh).expect("golden faults fit"));
        let partitioner = match &faults {
            Some(f) => {
                Partitioner::new_degraded(&config, &workload.program, PartitionConfig::default(), f)
                    .expect("default config is valid")
            }
            None => Partitioner::new(&config, &workload.program, PartitionConfig::default()),
        };
        let output = partitioner
            .plan(&workload.program, &workload.data, pool, false)
            .expect("default config is valid");
        Self { workload, partitioner, output, faults }
    }

    /// Simulates the plan under `opts`.
    #[must_use]
    pub fn simulate(&self, opts: SimOptions) -> SimReport {
        let (program, layout) = (&self.workload.program, self.partitioner.layout());
        match &self.faults {
            Some(f) => run_schedules_degraded(program, layout, &self.output, opts, f.clone()),
            None => run_schedules(program, layout, &self.output, opts),
        }
    }
}

/// Expected `(machine, options, workload, digest)` of [`sim_digest`] for
/// every simulator golden run, in [`sim_golden_rows`] order: the 24 golden
/// plans, the large-mesh plans healthy and degraded, and FFT and Radix
/// under every [`SIM_OPTIONS`] entry, healthy and on the `lossy` machine
/// (see [`GoldenInput::plan`]).
///
/// No workload marks an array hot, and the MCDRAM cache never hits on
/// these runs, so the `cache` and `hybrid` rows repeat the default
/// digest; the pins hold that too.
///
/// Generated from the simulator as it was while it kept link loads and
/// caches in hash maps and routed every faulty transfer afresh, and never
/// regenerated: the dense simulator must report exactly what that one did.
pub const GOLDEN_SIM: &[(&str, &str, &str, u64)] = &[
    ("healthy", "default", "Barnes", 0x1ef493cf14bbed42),
    ("healthy", "default", "Cholesky", 0x69888be33ea5643e),
    ("healthy", "default", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "default", "FMM", 0x72c5f549615977c2),
    ("healthy", "default", "LU", 0x669699f870b0ca2a),
    ("healthy", "default", "Ocean", 0x8a71b79555133bb7),
    ("healthy", "default", "Radiosity", 0xe82dc887361f0d76),
    ("healthy", "default", "Radix", 0xb09f10085ecf02bf),
    ("healthy", "default", "Raytrace", 0x45f2cd35b131a0a9),
    ("healthy", "default", "Water", 0xb07d6e2558c98e6f),
    ("healthy", "default", "MiniMD", 0xd61d9e5ee45147d3),
    ("healthy", "default", "MiniXyce", 0xa7712fbf4600714a),
    ("degraded", "default", "Barnes", 0x2a58ece53095375c),
    ("degraded", "default", "Cholesky", 0xdc3349cb25aa13e0),
    ("degraded", "default", "FFT", 0x760ea10d12e9df99),
    ("degraded", "default", "FMM", 0xae1e3e947e41558b),
    ("degraded", "default", "LU", 0x5ed0e1ef2b6d1123),
    ("degraded", "default", "Ocean", 0xda81918fb12dbc7c),
    ("degraded", "default", "Radiosity", 0x145c4cb33375efa6),
    ("degraded", "default", "Radix", 0xd3a88e9cf64cc648),
    ("degraded", "default", "Raytrace", 0xbc8a50d8969716b7),
    ("degraded", "default", "Water", 0xfe242ae290d807a9),
    ("degraded", "default", "MiniMD", 0xe21735436ac26f45),
    ("degraded", "default", "MiniXyce", 0xdc289005f6a74514),
    ("large-healthy", "default", "FFT", 0x54627425a4de193b),
    ("large-healthy", "default", "Radix", 0xd0aa84f1cfa4306d),
    ("large-healthy", "default", "LU", 0x92f4c00ece3b4cc4),
    ("large-degraded", "default", "FFT", 0xab10a2cd0746de17),
    ("large-degraded", "default", "Radix", 0x5473c3381f05bd18),
    ("large-degraded", "default", "LU", 0x0d80f21b2a440fc2),
    ("healthy", "cache", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "hybrid", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "ideal-network", "FFT", 0xf6e09cf1f9a012dd),
    ("healthy", "movement-scale", "FFT", 0x512f036c39bed331),
    ("healthy", "l1-override", "FFT", 0x80861e2bb65530c5),
    ("healthy", "compute-scale", "FFT", 0x6456fae56a20bf48),
    ("healthy", "extra-sync", "FFT", 0x3271663b49cf5006),
    ("healthy", "track-instances", "FFT", 0xda27cd5584d16560),
    ("healthy", "cache", "Radix", 0xb09f10085ecf02bf),
    ("healthy", "hybrid", "Radix", 0xb09f10085ecf02bf),
    ("healthy", "ideal-network", "Radix", 0xb4d3bc6701b52940),
    ("healthy", "movement-scale", "Radix", 0x026625ccfc491293),
    ("healthy", "l1-override", "Radix", 0xff518c891bf9f415),
    ("healthy", "compute-scale", "Radix", 0xa332af54764f2438),
    ("healthy", "extra-sync", "Radix", 0x9673fedee85d1560),
    ("healthy", "track-instances", "Radix", 0xaac8fd04b8c799c3),
    ("lossy", "default", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "cache", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "hybrid", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "ideal-network", "FFT", 0x4ff9ad38a8e3afaf),
    ("lossy", "movement-scale", "FFT", 0x2aab016cf5677c4f),
    ("lossy", "l1-override", "FFT", 0x3a24c184cfc55184),
    ("lossy", "compute-scale", "FFT", 0x0b54b9e06cda5db4),
    ("lossy", "extra-sync", "FFT", 0x323267b0a923519f),
    ("lossy", "track-instances", "FFT", 0x2487cf8196145f7d),
    ("lossy", "default", "Radix", 0xa0b793cc0dfd3e17),
    ("lossy", "cache", "Radix", 0xa0b793cc0dfd3e17),
    ("lossy", "hybrid", "Radix", 0xa0b793cc0dfd3e17),
    ("lossy", "ideal-network", "Radix", 0xeaece0925b3ef68f),
    ("lossy", "movement-scale", "Radix", 0x074d0ae359331de3),
    ("lossy", "l1-override", "Radix", 0x8709e67a3578a249),
    ("lossy", "compute-scale", "Radix", 0x35e6523fa23ec321),
    ("lossy", "extra-sync", "Radix", 0xfc6a8ef005d28da6),
    ("lossy", "track-instances", "Radix", 0xa552f38500cbc6f2),
];

/// Plans and simulates every [`GOLDEN_SIM`] row, in table order, over
/// `pool`; each plan is made once and simulated under all its options.
#[must_use]
pub fn sim_golden_rows(pool: &Pool) -> Vec<(&'static str, &'static str, &'static str, u64)> {
    let suite: Vec<&'static str> = GOLDEN_HEALTHY.iter().map(|&(name, _)| name).collect();
    let large: Vec<&'static str> = GOLDEN_LARGE_MESH.iter().map(|&(name, _, _)| name).collect();
    let matrix: [(&'static str, &[&'static str], &[&'static str]); 6] = [
        ("healthy", &suite, &SIM_OPTIONS[..1]),
        ("degraded", &suite, &SIM_OPTIONS[..1]),
        ("large-healthy", &large, &SIM_OPTIONS[..1]),
        ("large-degraded", &large, &SIM_OPTIONS[..1]),
        ("healthy", &VARIANT_WORKLOADS, &SIM_OPTIONS[1..]),
        ("lossy", &VARIANT_WORKLOADS, &SIM_OPTIONS),
    ];
    let mut rows = Vec::new();
    for (machine, workloads, options) in matrix {
        for &name in workloads {
            let input = GoldenInput::plan(machine, name, pool);
            for &option in options {
                let digest = sim_digest(&input.simulate(sim_options(option)));
                rows.push((machine, option, name, digest));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_workloads::all;

    #[test]
    fn tables_cover_the_whole_suite_consistently() {
        let suite: Vec<&str> = all(Scale::Tiny).iter().map(|w| w.name).collect();
        assert_eq!(suite.len(), GOLDEN_HEALTHY.len());
        for name in &suite {
            assert!(GOLDEN_HEALTHY.iter().any(|(n, _)| n == name), "{name} missing (healthy)");
            assert!(GOLDEN_DEGRADED.iter().any(|(n, _)| n == name), "{name} missing (degraded)");
            assert!(GOLDEN_KEYS.iter().any(|(n, _, _)| n == name), "{name} missing (keys)");
            assert!(GOLDEN_PLAN_BYTES.iter().any(|r| r.0 == *name), "{name} missing (bytes)");
        }
    }

    #[test]
    fn variant_table_covers_every_variant_and_workload() {
        assert_eq!(GOLDEN_VARIANTS.len(), VARIANTS.len() * VARIANT_WORKLOADS.len());
        for variant in VARIANTS {
            for name in VARIANT_WORKLOADS {
                let rows = GOLDEN_VARIANTS.iter().filter(|r| r.0 == variant && r.1 == name);
                assert_eq!(rows.count(), 1, "{variant}/{name} must be pinned exactly once");
            }
        }
    }

    #[test]
    fn canonical_faults_are_nontrivial_and_usable() {
        let machine = MachineConfig::knl_like();
        let faults = FaultState::new(canonical_faults(), machine.mesh).unwrap();
        assert!(!faults.is_trivial());
        assert!(faults.live_nodes().len() < machine.mesh.node_count() as usize);
    }

    #[test]
    fn key_digests_separate_healthy_from_degraded() {
        let (healthy, degraded) = key_digests("FFT");
        assert_ne!(healthy, degraded, "fault fingerprint must participate in the key");
    }

    /// Regenerate every table:
    /// `cargo test -p dmcp-check golden -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn print_golden_tables() {
        let pool = Pool::single();
        println!("pub const GOLDEN_HEALTHY: &[(&str, u64)] = &[");
        for w in all(Scale::Tiny) {
            println!("    (\"{}\", {:#018x}),", w.name, healthy_digest(w.name, &pool));
        }
        println!("];");
        println!("pub const GOLDEN_DEGRADED: &[(&str, u64)] = &[");
        for w in all(Scale::Tiny) {
            println!("    (\"{}\", {:#018x}),", w.name, degraded_digest(w.name, &pool));
        }
        println!("];");
        println!("pub const GOLDEN_KEYS: &[(&str, u64, u64)] = &[");
        for w in all(Scale::Tiny) {
            let (h, d) = key_digests(w.name);
            println!("    (\"{}\", {h:#018x}, {d:#018x}),", w.name);
        }
        println!("];");
        println!("pub const GOLDEN_VARIANTS: &[(&str, &str, u64, Option<u64>)] = &[");
        for variant in VARIANTS {
            for name in VARIANT_WORKLOADS {
                let digest = |degraded| {
                    variant_run(variant, name, degraded, &pool).map(|r| plan_digest(&r.output))
                };
                let h = digest(false).expect("healthy always plans");
                let d = match digest(true) {
                    Some(d) => format!("Some({d:#018x})"),
                    None => "None".to_owned(),
                };
                println!("    (\"{variant}\", \"{name}\", {h:#018x}, {d}),");
            }
        }
        println!("];");
        println!("pub const GOLDEN_PLAN_BYTES: &[(&str, usize, u64, usize, u64)] = &[");
        for w in all(Scale::Tiny) {
            let (hl, hs) = plan_bytes_pin(&healthy_output(w.name, &pool));
            let (dl, ds) = plan_bytes_pin(&degraded_output(w.name, &pool));
            println!("    (\"{}\", {hl}, {hs:#018x}, {dl}, {ds:#018x}),", w.name);
        }
        println!("];");
        println!("pub const GOLDEN_LARGE_MESH: &[(&str, u64, u64)] = &[");
        for &(name, _, _) in GOLDEN_LARGE_MESH {
            let (h, d) =
                (large_mesh_digest(name, false, &pool), large_mesh_digest(name, true, &pool));
            println!("    (\"{name}\", {h:#018x}, {d:#018x}),");
        }
        println!("];");
        println!("pub const GOLDEN_SIM: &[(&str, &str, &str, u64)] = &[");
        for (machine, options, name, digest) in sim_golden_rows(&pool) {
            println!("    (\"{machine}\", \"{options}\", \"{name}\", {digest:#018x}),");
        }
        println!("];");
    }
}
