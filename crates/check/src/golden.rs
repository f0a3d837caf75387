//! Golden pins for the 12-workload suite: plan digests (healthy and
//! canonically degraded) and [`PlanKey`](dmcp_serve::PlanKey) digests,
//! all at Tiny scale on the KNL-like machine with the default
//! configuration, plus
//! [`GOLDEN_VARIANTS`]: FFT and Radix under every non-default planning
//! configuration in [`VARIANTS`], and [`GOLDEN_LARGE_MESH`]: FFT, Radix
//! and LU on a 10×10 mesh. [`GOLDEN_SIM`] pins what the simulator reports
//! for those plans, field by field, and [`GOLDEN_PLAN_BYTES`] the bytes
//! the plan server sends for them. [`GOLDEN_BOUND`] pins every field of
//! the data-movement lower bound of the suite, healthy and degraded, and
//! of FFT and Radix on a 3×3 mesh, where its exact path runs.
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
use dmcp_core::baselines::preferred_mc_overrides;
use dmcp_core::bound::{bound_program, NestBound};
use dmcp_core::sim::{run_schedules, run_schedules_degraded, SimOptions, SimReport};
use dmcp_core::{
    nest_assignment, PartitionConfig, PartitionOutput, Partitioner, PlanOptions, PredictorSpec,
};
use dmcp_ir::{Program, StableHasher};
use dmcp_mach::{ClusterMode, FaultPlan, FaultState, MachineConfig, Mesh, NodeId};
use dmcp_mem::page::PagePolicy;
use dmcp_mem::MemoryMode;
use dmcp_serve::codec::encode_plan;
use dmcp_serve::PlanRequest;
use dmcp_workloads::{by_name, Scale, Workload};

/// Expected healthy plan digest per workload (default configuration).
pub const GOLDEN_HEALTHY: &[(&str, u64)] = &[
    ("Barnes", 0x784517add936eb9d),
    ("Cholesky", 0x8d527f0da7e41147),
    ("FFT", 0xe36baa04fcb2f04e),
    ("FMM", 0xa0c4323360f67f88),
    ("LU", 0xb9455608e9ee47b1),
    ("Ocean", 0x0e655cd5e747b71d),
    ("Radiosity", 0x47283c6c7ee8d8db),
    ("Radix", 0x6839ce6d0e704518),
    ("Raytrace", 0x1cc07e5704bf84f3),
    ("Water", 0x23e5cae29bf6085e),
    ("MiniMD", 0xbb429fd423b49a89),
    ("MiniXyce", 0x6925f26787c7736c),
];

/// Expected plan digest per workload under [`canonical_faults`]
/// (default configuration).
pub const GOLDEN_DEGRADED: &[(&str, u64)] = &[
    ("Barnes", 0x2ab2fd40180d92c3),
    ("Cholesky", 0x6f6e383dc960a7dd),
    ("FFT", 0x654b4a4162096550),
    ("FMM", 0xf0be6528688ff77f),
    ("LU", 0x04a523a35b2759c3),
    ("Ocean", 0xf15cdd5fcb180835),
    ("Radiosity", 0x265c0e7a28fee239),
    ("Radix", 0x11a031cbd8d5628a),
    ("Raytrace", 0x8ede2dc7f422a910),
    ("Water", 0xaf40c8e37574c8b2),
    ("MiniMD", 0xa04c9921d695f18d),
    ("MiniXyce", 0x3bbb0a7e7284c814),
];

/// Expected `(healthy, degraded)` [`PlanKey`] digests per workload —
/// pins the cache-key derivation (structural program hash, machine and
/// config fingerprints, fault fingerprint) alongside the plans.
///
/// [`PlanKey`]: dmcp_serve::PlanKey
pub const GOLDEN_KEYS: &[(&str, u64, u64)] = &[
    ("Barnes", 0x8f41f407dfac054c, 0xf23474ad8bb0278b),
    ("Cholesky", 0xa4ab471ca0953cc6, 0x20fa4decf7e7fb7c),
    ("FFT", 0x68314bb49990f450, 0xb367ab98b221447d),
    ("FMM", 0xe681665cd6fe7245, 0x381a788925a86afe),
    ("LU", 0x2548dedfde0d6c46, 0xc66869a5ab9307c9),
    ("Ocean", 0x03faf0b742a29e20, 0xab02e619522574ba),
    ("Radiosity", 0xd8b88bba339a7ab2, 0x9f622afc86cf247b),
    ("Radix", 0xd9238bc453136496, 0x42be1c2e30f4d832),
    ("Raytrace", 0x822f4c0ebf3ed963, 0xda9efed8fab4c13b),
    ("Water", 0xa04014b1fe01db9a, 0xf82f743ef72b0f0f),
    ("MiniMD", 0x9747f62c04cca75f, 0x05c74fa731f970ce),
    ("MiniXyce", 0x3254c92ccc18c0fe, 0x68b289da2c23c946),
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
    ("Barnes", 313081, 0x819e074efa97e238, 312798, 0x44bc8e2f89b69813),
    ("Cholesky", 348166, 0x1ed5476f0d87db25, 348177, 0x34b054149ef6ef01),
    ("FFT", 114043, 0x2645889a95cfedcb, 114160, 0xc2c14240b0b3494f),
    ("FMM", 136277, 0xbb5c19cc063045e0, 137007, 0xc2c4cf40d991e1b6),
    ("LU", 462227, 0x260a3afba9e067f5, 461923, 0xbe195ba371777aa7),
    ("Ocean", 410072, 0xb56df6b559b16c98, 409814, 0xcfbf6cdda05e6eb7),
    ("Radiosity", 151857, 0x42461a42a9e02a6e, 151878, 0xb7711a0dabd859f9),
    ("Radix", 135504, 0x697ba322092cf208, 135541, 0x51025d1ef6b42fda),
    ("Raytrace", 161165, 0x54deb9a00a74f13d, 161269, 0x431b9e9aac37a946),
    ("Water", 284359, 0x61e4611ac47ecb6b, 284352, 0xb2618a799b69571e),
    ("MiniMD", 289295, 0xfebf8561cbffb34e, 289027, 0x9c2e7ebf37f819de),
    ("MiniXyce", 129278, 0xb23ad00b9aeaadfb, 129090, 0x97abc0bb5ce0083c),
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
    ("FFT", 0x265c007cc6fc8500, 0xf6cd3a7a62511fc5),
    ("Radix", 0x8784e13af08a4900, 0x1f08d6fa6356e3f8),
    ("LU", 0xf230133d117417e6, 0x6d88ec8b383a6758),
];

/// The KNL-like machine on a 10×10 mesh (100 nodes).
#[must_use]
pub fn large_mesh_machine() -> MachineConfig {
    MachineConfig::knl_like().with_mesh(Mesh::new(10, 10))
}

/// The plan digest of `name` on [`large_mesh_machine`] (default config),
/// healthy or under [`canonical_faults`].
#[must_use]
pub fn large_mesh_digest(name: &str, degraded: bool) -> u64 {
    let machine = if degraded { "large-degraded" } else { "large-healthy" };
    plan_digest(&GoldenInput::plan(machine, name).output)
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

/// Compiles `name` on a healthy machine (default config).
#[must_use]
pub fn healthy_output(name: &str) -> PartitionOutput {
    GoldenInput::plan("healthy", name).output
}

/// Compiles `name` under [`canonical_faults`] (default config).
#[must_use]
pub fn degraded_output(name: &str) -> PartitionOutput {
    GoldenInput::plan("degraded", name).output
}

/// The healthy plan digest of `name`.
#[must_use]
pub fn healthy_digest(name: &str) -> u64 {
    plan_digest(&healthy_output(name))
}

/// The degraded plan digest of `name`.
#[must_use]
pub fn degraded_digest(name: &str) -> u64 {
    plan_digest(&degraded_output(name))
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
pub const VARIANTS: [&str; 9] = [
    "always-hit",
    "ideal-analysis",
    "reuse-agnostic",
    "scramble",
    "window-4",
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
    ("always-hit", "FFT", 0xfa8d0235a0e9d67d, Some(0x7a905582bb192b7f)),
    ("always-hit", "Radix", 0x89d88132c15dfdfa, Some(0x6103f3282f9e4150)),
    ("ideal-analysis", "FFT", 0x62e32b675e1719b6, Some(0xbb2aa6bbaa0cd106)),
    ("ideal-analysis", "Radix", 0x2eaa0035c4e91a25, Some(0x99fef6b98b331fbe)),
    ("reuse-agnostic", "FFT", 0x45a56a308184a1ab, Some(0xb8ff39da71890fe0)),
    ("reuse-agnostic", "Radix", 0x38d7c66186c608b5, Some(0xae84128a4bfa99b0)),
    ("scramble", "FFT", 0x12dac790a07de18e, Some(0xe5d8d1d1f3b316e5)),
    ("scramble", "Radix", 0x3c47bfd263cad3d4, Some(0x70755e2d58e5d2ff)),
    ("window-4", "FFT", 0x85468992a82ba57f, Some(0x85993da1c417795c)),
    ("window-4", "Radix", 0x2a40eb9609d9ec48, Some(0x46ce9a2455afe319)),
    ("snc4", "FFT", 0xec998b0265851ac9, Some(0xe12abd03393221c5)),
    ("snc4", "Radix", 0x1dfc6c9e9d58cf46, Some(0xe3076cef52a3978b)),
    ("reversed-assignment", "FFT", 0x7e42ec506dcabd51, None),
    ("reversed-assignment", "Radix", 0x65fb1f4baece62aa, None),
    ("baseline", "FFT", 0xa3160e4bf5060bd4, Some(0x012c972d7853781d)),
    ("baseline", "Radix", 0x1d7a06f825350a01, Some(0xa1647c9b0e456c77)),
    ("mc-override", "FFT", 0xe36baa04fcb2f04e, Some(0x654b4a4162096550)),
    ("mc-override", "Radix", 0x6839ce6d0e704518, Some(0x11a031cbd8d5628a)),
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
        "window-4" => PartitionConfig { window: 4, ..base },
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

/// Compiles `name` under `variant`, healthy or under [`canonical_faults`].
/// `None` where [`Partitioner::new_degraded`] refuses the variant's
/// config.
///
/// # Panics
///
/// Panics on a variant outside [`VARIANTS`].
#[must_use]
pub fn variant_run(variant: &str, name: &str, degraded: bool) -> Option<VariantRun> {
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
    let output = part.plan(&w.program, &w.data, variant == "baseline").expect("variant plans");
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

/// The partitioner (default config) for `program` on the golden machine
/// `machine` (see [`GoldenInput::plan`]), and the fault state it plans
/// under.
fn golden_partitioner(machine: &str, program: &Program) -> (Partitioner, Option<FaultState>) {
    let (config, plan) = match machine {
        "healthy" => (MachineConfig::knl_like(), None),
        "degraded" => (MachineConfig::knl_like(), Some(canonical_faults())),
        "lossy" => (MachineConfig::knl_like(), Some(lossy_faults())),
        "large-healthy" => (large_mesh_machine(), None),
        "large-degraded" => (large_mesh_machine(), Some(canonical_faults())),
        "3x3" => (MachineConfig::knl_like().with_mesh(Mesh::new(3, 3)), None),
        other => panic!("unknown golden machine {other}"),
    };
    let faults = plan.map(|p| FaultState::new(p, config.mesh).expect("golden faults fit"));
    let partitioner = match &faults {
        Some(f) => Partitioner::new_degraded(&config, program, PartitionConfig::default(), f)
            .expect("default config is valid"),
        None => Partitioner::new(&config, program, PartitionConfig::default()),
    };
    (partitioner, faults)
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
    /// random plan with dead nodes, dead links and lossy links),
    /// `large-healthy`/`large-degraded` (the first two on
    /// [`large_mesh_machine`]), or `3x3` (healthy, on a 3×3 mesh, small
    /// enough for the lower bound's exact path).
    ///
    /// # Panics
    ///
    /// Panics on another machine name, or if a fault plan is rejected
    /// (none is).
    #[must_use]
    pub fn plan(machine: &str, name: &str) -> Self {
        let workload = workload(name);
        let (partitioner, faults) = golden_partitioner(machine, &workload.program);
        let output = partitioner
            .plan(&workload.program, &workload.data, false)
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
/// The 19 FFT rows, whose schedules planner revisions 1 and 2 left
/// alone, still hold what the simulator reported while it kept link loads
/// and caches in hash maps and routed every faulty transfer afresh: the
/// dense simulator must report exactly what that one did. The other 45
/// were taken from the dense simulator, Water's two default rows at
/// planner revision 1 and the rest at revision 2, with the plans they
/// simulate, so they pin it against itself (`dense_network` in the root
/// `properties` tests compares its network with a copy of the hash-map
/// one). Rows move only with their plans, when
/// [`dmcp_core::PLANNER_REVISION`] moves.
pub const GOLDEN_SIM: &[(&str, &str, &str, u64)] = &[
    ("healthy", "default", "Barnes", 0xd0cc0f9fd3b2b6a4),
    ("healthy", "default", "Cholesky", 0x6f4a33c781386c05),
    ("healthy", "default", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "default", "FMM", 0xa9afdc64cea1b832),
    ("healthy", "default", "LU", 0xa2fc8466ca588b96),
    ("healthy", "default", "Ocean", 0x58a8fb5b2af3f943),
    ("healthy", "default", "Radiosity", 0x8d151ebbfaf5df6b),
    ("healthy", "default", "Radix", 0xaa6e086f13fcf377),
    ("healthy", "default", "Raytrace", 0x2ac6653843b47343),
    ("healthy", "default", "Water", 0x72f5f94e929b3f63),
    ("healthy", "default", "MiniMD", 0x97db86c51849d3f4),
    ("healthy", "default", "MiniXyce", 0xfe905501067b818d),
    ("degraded", "default", "Barnes", 0xd0b2ecdc8b497e27),
    ("degraded", "default", "Cholesky", 0x2a3377015a851bdd),
    ("degraded", "default", "FFT", 0x760ea10d12e9df99),
    ("degraded", "default", "FMM", 0xbbffb88307dc4c87),
    ("degraded", "default", "LU", 0x59da911e6e8e112e),
    ("degraded", "default", "Ocean", 0x6919f60c12438849),
    ("degraded", "default", "Radiosity", 0x6321f1223e7bb30a),
    ("degraded", "default", "Radix", 0x0b6196e67ddf8989),
    ("degraded", "default", "Raytrace", 0xdc994c0087242e4c),
    ("degraded", "default", "Water", 0xd3664fbe7f5a4933),
    ("degraded", "default", "MiniMD", 0xf9d68f3e641e3af0),
    ("degraded", "default", "MiniXyce", 0xf0fc9f613a9e4eac),
    ("large-healthy", "default", "FFT", 0xc1a5b7d31d2dea88),
    ("large-healthy", "default", "Radix", 0x3e1015c405656167),
    ("large-healthy", "default", "LU", 0xdfb855d6174e12d9),
    ("large-degraded", "default", "FFT", 0x969b1070be36a98a),
    ("large-degraded", "default", "Radix", 0x3f4a73ff04716f2c),
    ("large-degraded", "default", "LU", 0x2eba0529e6e95726),
    ("healthy", "cache", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "hybrid", "FFT", 0x243f1aad6565b2d5),
    ("healthy", "ideal-network", "FFT", 0xf6e09cf1f9a012dd),
    ("healthy", "movement-scale", "FFT", 0x512f036c39bed331),
    ("healthy", "l1-override", "FFT", 0x80861e2bb65530c5),
    ("healthy", "compute-scale", "FFT", 0x6456fae56a20bf48),
    ("healthy", "extra-sync", "FFT", 0x3271663b49cf5006),
    ("healthy", "track-instances", "FFT", 0xda27cd5584d16560),
    ("healthy", "cache", "Radix", 0xaa6e086f13fcf377),
    ("healthy", "hybrid", "Radix", 0xaa6e086f13fcf377),
    ("healthy", "ideal-network", "Radix", 0xa64f60310ad5f9ce),
    ("healthy", "movement-scale", "Radix", 0x45b78542e7af5bb0),
    ("healthy", "l1-override", "Radix", 0xdc0841f42d7ff16e),
    ("healthy", "compute-scale", "Radix", 0x6118585829e7100e),
    ("healthy", "extra-sync", "Radix", 0x916d970e7bfc1ade),
    ("healthy", "track-instances", "Radix", 0xccfb943b76846107),
    ("lossy", "default", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "cache", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "hybrid", "FFT", 0x732f05ce3833ed5f),
    ("lossy", "ideal-network", "FFT", 0x4ff9ad38a8e3afaf),
    ("lossy", "movement-scale", "FFT", 0x2aab016cf5677c4f),
    ("lossy", "l1-override", "FFT", 0x3a24c184cfc55184),
    ("lossy", "compute-scale", "FFT", 0x0b54b9e06cda5db4),
    ("lossy", "extra-sync", "FFT", 0x323267b0a923519f),
    ("lossy", "track-instances", "FFT", 0x2487cf8196145f7d),
    ("lossy", "default", "Radix", 0x81b254b88f1e4bbb),
    ("lossy", "cache", "Radix", 0x81b254b88f1e4bbb),
    ("lossy", "hybrid", "Radix", 0x81b254b88f1e4bbb),
    ("lossy", "ideal-network", "Radix", 0x397f291790e7f38b),
    ("lossy", "movement-scale", "Radix", 0x97ccd2326965e701),
    ("lossy", "l1-override", "Radix", 0xdf32f8bef707f488),
    ("lossy", "compute-scale", "Radix", 0x6a4e03cb43635271),
    ("lossy", "extra-sync", "Radix", 0x9984c32bd2e0abc8),
    ("lossy", "track-instances", "Radix", 0x805395e8329d489e),
];

/// Plans and simulates every [`GOLDEN_SIM`] row, in table order; each
/// plan is made once and simulated under all its options.
#[must_use]
pub fn sim_golden_rows() -> Vec<(&'static str, &'static str, &'static str, u64)> {
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
            let input = GoldenInput::plan(machine, name);
            for &option in options {
                let digest = sim_digest(&input.simulate(sim_options(option)));
                rows.push((machine, option, name, digest));
            }
        }
    }
    rows
}

/// Expected lower bound of every nest for every golden bound run, in
/// [`bound_golden_rows`] order: the 12 workloads on the `healthy` and
/// `degraded` machines, where only the portable kernels run, then FFT and
/// Radix on the `3x3` machine, where the exact Dreyfus–Wagner bound runs
/// too (see [`GoldenInput::plan`]). A row is `(machine, workload,
/// [nest, instances, chargeable_leaves, footprint_lines, compulsory,
/// bound], dag)`, the fields of one [`NestBound`].
///
/// The plan digests pin what the planner pays; these pin the floor it is
/// measured against, so a change to how the bound walks the instance
/// stream cannot pass merely by staying sound. Rows move with the
/// bound's construction, or with the analyze pass's resolution of the
/// stream, which the bound reads.
pub const GOLDEN_BOUND: &[(&str, &str, [u64; 6], Option<u64>)] = &[
    ("healthy", "Barnes", [0, 2048, 1654, 1792, 6110, 6110], None),
    ("healthy", "Cholesky", [0, 4096, 1058, 2050, 117, 117], None),
    ("healthy", "FFT", [0, 1024, 768, 768, 1256, 1256], None),
    ("healthy", "FMM", [0, 1024, 819, 768, 1484, 1484], None),
    ("healthy", "LU", [0, 4096, 1088, 1088, 138, 138], None),
    ("healthy", "Ocean", [0, 2688, 1856, 1792, 5846, 5846], None),
    ("healthy", "Radiosity", [0, 1024, 962, 800, 3351, 3351], None),
    ("healthy", "Radix", [0, 1536, 608, 320, 2100, 2100], None),
    ("healthy", "Raytrace", [0, 1024, 915, 1024, 1387, 1387], None),
    ("healthy", "Water", [0, 2540, 1276, 2032, 2467, 2467], None),
    ("healthy", "MiniMD", [0, 2048, 2565, 2048, 4067, 4067], None),
    ("healthy", "MiniXyce", [0, 1024, 680, 1280, 1495, 1495], None),
    ("degraded", "Barnes", [0, 2048, 1654, 1792, 6188, 6188], None),
    ("degraded", "Cholesky", [0, 4096, 1058, 2050, 118, 118], None),
    ("degraded", "FFT", [0, 1024, 768, 768, 1258, 1258], None),
    ("degraded", "FMM", [0, 1024, 819, 768, 1493, 1493], None),
    ("degraded", "LU", [0, 4096, 1088, 1088, 141, 141], None),
    ("degraded", "Ocean", [0, 2688, 1856, 1792, 5871, 5871], None),
    ("degraded", "Radiosity", [0, 1024, 962, 800, 3343, 3343], None),
    ("degraded", "Radix", [0, 1536, 608, 320, 2091, 2091], None),
    ("degraded", "Raytrace", [0, 1024, 915, 1024, 1398, 1398], None),
    ("degraded", "Water", [0, 2540, 1276, 2032, 2486, 2486], None),
    ("degraded", "MiniMD", [0, 2048, 2565, 2048, 4089, 4089], None),
    ("degraded", "MiniXyce", [0, 1024, 680, 1280, 1500, 1500], None),
    ("3x3", "FFT", [0, 1024, 768, 768, 607, 676], Some(676)),
    ("3x3", "Radix", [0, 1536, 608, 320, 946, 946], Some(946)),
];

/// One [`GOLDEN_BOUND`] row's values: `[nest, instances,
/// chargeable_leaves, footprint_lines, compulsory, bound]` and `dag`.
fn bound_row(bound: &NestBound) -> ([u64; 6], Option<u64>) {
    // Destructured so that a new field fails to compile here until it is
    // pinned.
    let NestBound { nest, instances, chargeable_leaves, footprint_lines, compulsory, dag, bound } =
        *bound;
    ([nest as u64, instances, chargeable_leaves, footprint_lines, compulsory, bound], dag)
}

/// Bounds every [`GOLDEN_BOUND`] run, in table order, one row per nest.
#[must_use]
pub fn bound_golden_rows() -> Vec<(&'static str, &'static str, [u64; 6], Option<u64>)> {
    let suite: Vec<&'static str> = GOLDEN_HEALTHY.iter().map(|&(name, _)| name).collect();
    let matrix: [(&'static str, &[&'static str]); 3] =
        [("healthy", &suite), ("degraded", &suite), ("3x3", &VARIANT_WORKLOADS)];
    let mut rows = Vec::new();
    for (machine, workloads) in matrix {
        for &name in workloads {
            let w = workload(name);
            let (part, _) = golden_partitioner(machine, &w.program);
            for nb in bound_program(&w.program, &part, &w.data) {
                let (fields, dag) = bound_row(&nb);
                rows.push((machine, name, fields, dag));
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
        println!("pub const GOLDEN_HEALTHY: &[(&str, u64)] = &[");
        for w in all(Scale::Tiny) {
            println!("    (\"{}\", {:#018x}),", w.name, healthy_digest(w.name));
        }
        println!("];");
        println!("pub const GOLDEN_DEGRADED: &[(&str, u64)] = &[");
        for w in all(Scale::Tiny) {
            println!("    (\"{}\", {:#018x}),", w.name, degraded_digest(w.name));
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
                let digest =
                    |degraded| variant_run(variant, name, degraded).map(|r| plan_digest(&r.output));
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
            let (hl, hs) = plan_bytes_pin(&healthy_output(w.name));
            let (dl, ds) = plan_bytes_pin(&degraded_output(w.name));
            println!("    (\"{}\", {hl}, {hs:#018x}, {dl}, {ds:#018x}),", w.name);
        }
        println!("];");
        println!("pub const GOLDEN_LARGE_MESH: &[(&str, u64, u64)] = &[");
        for &(name, _, _) in GOLDEN_LARGE_MESH {
            let (h, d) = (large_mesh_digest(name, false), large_mesh_digest(name, true));
            println!("    (\"{name}\", {h:#018x}, {d:#018x}),");
        }
        println!("];");
        println!("pub const GOLDEN_SIM: &[(&str, &str, &str, u64)] = &[");
        for (machine, options, name, digest) in sim_golden_rows() {
            println!("    (\"{machine}\", \"{options}\", \"{name}\", {digest:#018x}),");
        }
        println!("];");
        println!("pub const GOLDEN_BOUND: &[(&str, &str, [u64; 6], Option<u64>)] = &[");
        for (machine, name, fields, dag) in bound_golden_rows() {
            println!("    (\"{machine}\", \"{name}\", {fields:?}, {dag:?}),");
        }
        println!("];");
    }
}
