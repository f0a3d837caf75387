//! Golden pins for the 12-workload suite: plan digests (healthy and
//! canonically degraded) and [`PlanKey`] digests, all at Tiny scale on
//! the KNL-like machine with the default configuration, plus
//! [`GOLDEN_VARIANTS`]: FFT and Radix under every non-default planning
//! configuration in [`VARIANTS`], and [`GOLDEN_LARGE_MESH`]: FFT, Radix
//! and LU on a 10×10 mesh.
//!
//! These tables pin the planner's output bit-for-bit across refactors.
//! Any change to splitting, placement, window choice, sync reduction or
//! key derivation shows up as a mismatch; if the change is intentional,
//! regenerate with the `print_golden_tables` test in this module (or
//! `cargo test --test golden_plans -- --ignored --nocapture`).
//!
//! Both the workspace-level `golden_plans` test and the `plan-bench` CI
//! gate consume these tables, so a digest drift fails both.

use crate::digest::plan_digest;
use dmcp_baselines::preferred_mc_overrides;
use dmcp_core::{
    nest_assignment, PartitionConfig, PartitionOutput, Partitioner, PlanOptions, PredictorSpec,
};
use dmcp_mach::{ClusterMode, FaultPlan, FaultState, MachineConfig, Mesh, NodeId};
use dmcp_mem::page::PagePolicy;
use dmcp_pool::Pool;
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
///
/// # Panics
///
/// Panics if the canonical fault plan is rejected (it never is on the
/// 10×10 mesh).
#[must_use]
pub fn large_mesh_digest(name: &str, degraded: bool, pool: &Pool) -> u64 {
    let w = workload(name);
    let machine = large_mesh_machine();
    let config = PartitionConfig::default();
    let part = if degraded {
        let faults = FaultState::new(canonical_faults(), machine.mesh)
            .expect("canonical faults fit the 10×10 mesh");
        Partitioner::new_degraded(&machine, &w.program, config, &faults)
            .expect("default config is valid")
    } else {
        Partitioner::new(&machine, &w.program, config)
    };
    plan_digest(&part.partition_with_data_pooled(&w.program, &w.data, pool))
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
    let w = workload(name);
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    part.partition_with_data_pooled(&w.program, &w.data, pool)
}

/// Compiles `name` under [`canonical_faults`] over `pool` (default
/// config).
///
/// # Panics
///
/// Panics if the canonical fault plan is rejected (it never is on the
/// KNL-like mesh).
#[must_use]
pub fn degraded_output(name: &str, pool: &Pool) -> PartitionOutput {
    let w = workload(name);
    let machine = MachineConfig::knl_like();
    let faults = FaultState::new(canonical_faults(), machine.mesh)
        .expect("canonical faults fit the KNL-like mesh");
    let part = Partitioner::new_degraded(&machine, &w.program, PartitionConfig::default(), &faults)
        .expect("default config is valid");
    part.partition_with_data_pooled(&w.program, &w.data, pool)
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
pub const VARIANTS: [&str; 11] = [
    "l2-model",
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
/// L2-model predictor plans both workloads exactly as the default reuse
/// predictor does, and the planner reads controllers off the VA-based
/// belief, which the Figure-23 overrides leave alone.
pub const GOLDEN_VARIANTS: &[(&str, &str, u64, Option<u64>)] = &[
    ("l2-model", "FFT", 0x7ee4c14e0346b142, Some(0xb291f80b72c5ef84)),
    ("l2-model", "Radix", 0xd33cf59f2860809c, Some(0x1bf4cca79b496c01)),
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
        "l2-model" => PartitionConfig { predictor: PredictorSpec::L2Model, ..base },
        "always-hit" => PartitionConfig { predictor: PredictorSpec::AlwaysHit, ..base },
        "ideal-analysis" => PartitionConfig {
            predictor: PredictorSpec::L2Model,
            opts: PlanOptions { ideal_analysis: true, ..base.opts },
            ..base
        },
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
    let output = if variant == "baseline" {
        part.baseline(&w.program, &w.data)
    } else {
        part.partition_with_data_pooled(&w.program, &w.data, pool)
    };
    Some(VariantRun { workload: w, partitioner: part, output })
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
        println!("pub const GOLDEN_LARGE_MESH: &[(&str, u64, u64)] = &[");
        for &(name, _, _) in GOLDEN_LARGE_MESH {
            let (h, d) =
                (large_mesh_digest(name, false, &pool), large_mesh_digest(name, true, &pool));
            println!("    (\"{name}\", {h:#018x}, {d:#018x}),");
        }
        println!("];");
    }
}
