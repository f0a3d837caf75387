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
    ("Barnes", 0xcff580132cff3c52),
    ("Cholesky", 0xbb458f539c113a80),
    ("FFT", 0x7ee4c14e0346b142),
    ("FMM", 0x215c4e1939ea9e45),
    ("LU", 0x265aa9f094539511),
    ("Ocean", 0x15591bb3f14899ec),
    ("Radiosity", 0x2927579e46bd1fe8),
    ("Radix", 0x9a20894bfd47109e),
    ("Raytrace", 0x6fefb23448203435),
    ("Water", 0x23e5cae29bf6085e),
    ("MiniMD", 0x85615ea78a97ca85),
    ("MiniXyce", 0x8991792f57883ff8),
];

/// Expected plan digest per workload under [`canonical_faults`]
/// (default configuration).
pub const GOLDEN_DEGRADED: &[(&str, u64)] = &[
    ("Barnes", 0xffe08a3d484e361e),
    ("Cholesky", 0x892a115690ea9715),
    ("FFT", 0xb291f80b72c5ef84),
    ("FMM", 0xd6cceccd2ef07377),
    ("LU", 0x61e1061df55b9fa6),
    ("Ocean", 0xf5bc9e0a1901b789),
    ("Radiosity", 0x93a0c22a47e351fd),
    ("Radix", 0x46ce9a2455afe319),
    ("Raytrace", 0xa7d47d0a7438bcf9),
    ("Water", 0xaf40c8e37574c8b2),
    ("MiniMD", 0xed858db1c4498dbe),
    ("MiniXyce", 0x01db2e34f81b9468),
];

/// Expected `(healthy, degraded)` [`PlanKey`] digests per workload —
/// pins the cache-key derivation (structural program hash, machine and
/// config fingerprints, fault fingerprint) alongside the plans.
///
/// [`PlanKey`]: dmcp_serve::PlanKey
pub const GOLDEN_KEYS: &[(&str, u64, u64)] = &[
    ("Barnes", 0x6e18d429985ed199, 0xadebc77685ed05d5),
    ("Cholesky", 0xc804c8f4a31ddfdc, 0xa202dd586ace3289),
    ("FFT", 0x0730e74636c57bfd, 0x98ca401f30a98129),
    ("FMM", 0xaf0830b5cec43712, 0x79619a370e29de3f),
    ("LU", 0xae76ab5e0c6064d7, 0x99157d3a9701b120),
    ("Ocean", 0x7733671937cf8be9, 0x741f41af97e350dd),
    ("Radiosity", 0xc8546b570ee18db3, 0x2eb2646308eddc7c),
    ("Radix", 0xb8664f25cc244552, 0x73c34296683c82e6),
    ("Raytrace", 0x6922f66944b4fbc8, 0x2d0d52b2b04b2008),
    ("Water", 0x7fa410030c8d2a6c, 0x975bc7c038398153),
    ("MiniMD", 0x7d641529aa0787fa, 0x873f8c82f9208996),
    ("MiniXyce", 0xe01003086223df54, 0xdd7d7a26e46dfeaa),
];

/// Expected `(workload, healthy length, healthy checksum, degraded length,
/// degraded checksum)` of [`encode_plan`] for the golden plans: the bytes
/// a cache hit sends and the disk tier stores, measured by
/// [`plan_bytes_pin`].
///
/// The plan digests pin what the planner builds; these pin how the codec
/// writes it, so a layout change cannot pass as long as it round-trips.
/// Taken from the compact plan layout (plan version byte 6) and
/// regenerated only with the plans, when [`dmcp_core::PLANNER_REVISION`]
/// moves: a new layout needs a new version byte and a new table.
pub const GOLDEN_PLAN_BYTES: &[(&str, usize, u64, usize, u64)] = &[
    ("Barnes", 313408, 0xfb3fbc7dd6a4988d, 313220, 0x02f9e63d2aa6f258),
    ("Cholesky", 348231, 0xf09d77f991760818, 348184, 0xf4b4a4655ce1ab0c),
    ("FFT", 114555, 0x06f46881ae406ebd, 114672, 0xcdf04513f380a5af),
    ("FMM", 138937, 0xb32dd17b2839aea8, 141359, 0xb81d94165729454b),
    ("LU", 462219, 0xce60516ea2e0d084, 461883, 0x894f19a29b835a39),
    ("Ocean", 412262, 0xa3b8687b1d835589, 410310, 0x5d4a728aaec9a786),
    ("Radiosity", 151876, 0xe1dc594362bb3193, 152154, 0x9523d4e26aa6285d),
    ("Radix", 135482, 0xe08c64923d7f6980, 135510, 0x6366d747cd298667),
    ("Raytrace", 161184, 0xd5b33b7af59bbb54, 161158, 0xcf35aa825b7ad73c),
    ("Water", 284359, 0x61e4611ac47ecb6b, 284352, 0xb2618a799b69571e),
    ("MiniMD", 289018, 0x9c023ed8a6ecc090, 288654, 0x7311e65579e3e13f),
    ("MiniXyce", 129255, 0x29da6575a3c13ac4, 129150, 0x11f9f70d3962c8dd),
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
/// kernel moved to dense line ids and reusable scratch, and regenerated
/// only with the plans, when [`dmcp_core::PLANNER_REVISION`] moves.
pub const GOLDEN_LARGE_MESH: &[(&str, u64, u64)] = &[
    ("FFT", 0xff911dc003bedb05, 0xba785568152f9d64),
    ("Radix", 0x37e875214f299883, 0x66eb83454da25d69),
    ("LU", 0xff84f112fdf7166e, 0x3e55fe80fb2d280f),
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
    ("always-hit", "Radix", 0x25d99b44af200711, Some(0x998998ebb36defb1)),
    ("ideal-analysis", "FFT", 0x5378fe2446a1fe25, Some(0x70031156c7ea1b65)),
    ("ideal-analysis", "Radix", 0x0f7c29e1d971a3a1, Some(0xb36fb401d8aa4c6a)),
    ("reuse-agnostic", "FFT", 0xa3160e4bf5060bd4, Some(0x012c972d7853781d)),
    ("reuse-agnostic", "Radix", 0xc31cbf1425bd0230, Some(0xbd0f016df1aa441c)),
    ("scramble", "FFT", 0x1cde3db2203da66b, Some(0xd74336830290bf1c)),
    ("scramble", "Radix", 0xcd6f2125db646808, Some(0x664776f86c16d0e2)),
    ("fixed-window-4", "FFT", 0x85468992a82ba57f, Some(0x85993da1c417795c)),
    ("fixed-window-4", "Radix", 0x2a40eb9609d9ec48, Some(0x46ce9a2455afe319)),
    ("short-search", "FFT", 0xfe8af9c986a64b49, Some(0x736fa92f0c7b0a02)),
    ("short-search", "Radix", 0x5d6438a49e7328b2, Some(0xfa220e85fe5bede3)),
    ("snc4", "FFT", 0x03a9e93b0d94d13a, Some(0xc8122ff3239253b1)),
    ("snc4", "Radix", 0xf8b12b8f5d652d7c, Some(0xc27322a74b3c47f0)),
    ("reversed-assignment", "FFT", 0x08a3ca6d84792e6d, None),
    ("reversed-assignment", "Radix", 0xf65a3213526f8bce, None),
    ("baseline", "FFT", 0xa3160e4bf5060bd4, Some(0x012c972d7853781d)),
    ("baseline", "Radix", 0x1d7a06f825350a01, Some(0xa1647c9b0e456c77)),
    ("mc-override", "FFT", 0x7ee4c14e0346b142, Some(0xb291f80b72c5ef84)),
    ("mc-override", "Radix", 0x9a20894bfd47109e, Some(0x46ce9a2455afe319)),
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
/// The 21 rows whose plans planner revision 1 left alone (every FFT row
/// and the two large-mesh Radix rows) still hold what the simulator
/// reported while it kept link loads and caches in hash maps and routed
/// every faulty transfer afresh: the dense simulator must report exactly
/// what that one did. The other 43 were taken from the dense simulator
/// at planner revision 1, with the plans they simulate, so they pin it
/// against itself (`dense_network` in the root `properties` tests
/// compares its network with a copy of the hash-map one). Rows move only
/// with their plans, when [`dmcp_core::PLANNER_REVISION`] moves.
pub const GOLDEN_SIM: &[(&str, &str, &str, u64)] = &[
    ("healthy", "default", "Barnes", 0x96514d4c4dcde13f),
    ("healthy", "default", "Cholesky", 0xcae375971f1b34c9),
    ("healthy", "default", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "default", "FMM", 0x0ed988d9320fac04),
    ("healthy", "default", "LU", 0xe45324056e42d9c9),
    ("healthy", "default", "Ocean", 0xdd782f52394116db),
    ("healthy", "default", "Radiosity", 0x08dfe14cb39b8ced),
    ("healthy", "default", "Radix", 0xcbcb13db98069283),
    ("healthy", "default", "Raytrace", 0xe3cdd515c8980932),
    ("healthy", "default", "Water", 0x72f5f94e929b3f63),
    ("healthy", "default", "MiniMD", 0xf423d898ffecc237),
    ("healthy", "default", "MiniXyce", 0x96eada05e7724a6a),
    ("degraded", "default", "Barnes", 0xc5cc785d0332d19a),
    ("degraded", "default", "Cholesky", 0x8e930471391926f1),
    ("degraded", "default", "FFT", 0x760ea10d12e9df99),
    ("degraded", "default", "FMM", 0x8ed70397047542a5),
    ("degraded", "default", "LU", 0x7e0ca2404c6cc34d),
    ("degraded", "default", "Ocean", 0x8b4432f0b0c54004),
    ("degraded", "default", "Radiosity", 0xde6007e78f77fe7c),
    ("degraded", "default", "Radix", 0xc9ec7eb6e037874b),
    ("degraded", "default", "Raytrace", 0x6c0d756d6d0f36ec),
    ("degraded", "default", "Water", 0xd3664fbe7f5a4933),
    ("degraded", "default", "MiniMD", 0xea21bb44cf021f82),
    ("degraded", "default", "MiniXyce", 0x4cff1a148d5bdd95),
    ("large-healthy", "default", "FFT", 0x8d5c57617b0bce5d),
    ("large-healthy", "default", "Radix", 0xd0aa84f1cfa4306d),
    ("large-healthy", "default", "LU", 0xf788f950c6fcda60),
    ("large-degraded", "default", "FFT", 0xb34a442bc1c00b19),
    ("large-degraded", "default", "Radix", 0x5473c3381f05bd18),
    ("large-degraded", "default", "LU", 0x399715ae45b1acc6),
    ("healthy", "cache", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "hybrid", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "ideal-network", "FFT", 0xf6e09cf1f9a012dd),
    ("healthy", "movement-scale", "FFT", 0x512f036c39bed331),
    ("healthy", "l1-override", "FFT", 0x80861e2bb65530c5),
    ("healthy", "compute-scale", "FFT", 0x6456fae56a20bf48),
    ("healthy", "extra-sync", "FFT", 0x3271663b49cf5006),
    ("healthy", "track-instances", "FFT", 0xda27cd5584d16560),
    ("healthy", "cache", "Radix", 0xcbcb13db98069283),
    ("healthy", "hybrid", "Radix", 0xcbcb13db98069283),
    ("healthy", "ideal-network", "Radix", 0x6d575335bedbcc2d),
    ("healthy", "movement-scale", "Radix", 0xa4c0e9f0e1d1b86c),
    ("healthy", "l1-override", "Radix", 0x3705dd9403b2ab26),
    ("healthy", "compute-scale", "Radix", 0xe6a26b8712cab1f6),
    ("healthy", "extra-sync", "Radix", 0x97eb1ac89d0f67c8),
    ("healthy", "track-instances", "Radix", 0xe2f07888034968c6),
    ("lossy", "default", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "cache", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "hybrid", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "ideal-network", "FFT", 0x4ff9ad38a8e3afaf),
    ("lossy", "movement-scale", "FFT", 0x2aab016cf5677c4f),
    ("lossy", "l1-override", "FFT", 0x3a24c184cfc55184),
    ("lossy", "compute-scale", "FFT", 0x0b54b9e06cda5db4),
    ("lossy", "extra-sync", "FFT", 0x323267b0a923519f),
    ("lossy", "track-instances", "FFT", 0x2487cf8196145f7d),
    ("lossy", "default", "Radix", 0x5fd1fa516f434820),
    ("lossy", "cache", "Radix", 0x5fd1fa516f434820),
    ("lossy", "hybrid", "Radix", 0x5fd1fa516f434820),
    ("lossy", "ideal-network", "Radix", 0xcd49089d3d911999),
    ("lossy", "movement-scale", "Radix", 0x61e37fd5517f9868),
    ("lossy", "l1-override", "Radix", 0x919043aa442fcd43),
    ("lossy", "compute-scale", "Radix", 0xd2f8805a67d0b13d),
    ("lossy", "extra-sync", "Radix", 0xda9914f0ce0e9102),
    ("lossy", "track-instances", "Radix", 0x1aa573cb5d5ff50a),
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
