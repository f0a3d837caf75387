//! Golden-plan pins for the full 12-workload suite.
//!
//! The expected values live in [`dmcp::check::golden`] so perfbench's
//! digest checks and these tests fail together on any drift. Each
//! workload is pinned three ways: the healthy plan digest, the plan
//! digest under the canonical fault plan, and the `PlanKey` digests for
//! both — so changes to splitting, placement, window choice, sync
//! reduction, fault re-homing *or* cache-key derivation all surface
//! here.
//!
//! FFT and Radix are also pinned under every non-default configuration
//! (`GOLDEN_VARIANTS`), where each plan must in addition be reproduced by
//! a replan that reuses its window sizes. FFT, Radix and LU are pinned on
//! a 100-node mesh (`GOLDEN_LARGE_MESH`), beyond one machine word of
//! node indices.
//!
//! `GOLDEN_SIM` pins every field of the simulator's report for those
//! plans, and for runs the benchmark never makes: lossy links, the 10×10
//! mesh, both MCDRAM memory modes and every counterfactual option.
//! `GOLDEN_PLAN_BYTES` pins the length and checksum of every golden
//! plan's encoding, and each must decode back to the identical plan.
//! `GOLDEN_BOUND` pins every field of the data-movement lower bound the
//! planner's movement is measured against, healthy, degraded and on a
//! 3×3 mesh, where the bound's exact path runs.
//!
//! To regenerate after an intentional planner change:
//!
//! ```text
//! cargo test -p dmcp-check print_golden_tables -- --ignored --nocapture
//! ```

use dmcp::check::golden::{
    bound_golden_rows, degraded_digest, degraded_output, healthy_digest, healthy_output,
    key_digests, large_mesh_digest, plan_bytes_pin, sim_golden_rows, variant_run, GoldenInput,
    GOLDEN_BOUND, GOLDEN_DEGRADED, GOLDEN_HEALTHY, GOLDEN_KEYS, GOLDEN_LARGE_MESH,
    GOLDEN_PLAN_BYTES, GOLDEN_SIM, GOLDEN_VARIANTS,
};
use dmcp::check::plan_digest;
use dmcp::core::{passes, PlanCtx};
use dmcp::pool::Pool;
use dmcp::serve::codec::{decode_plan, encode_plan};
use dmcp::sim::SimOptions;
use dmcp::workloads::{all, Scale};

#[test]
fn golden_tables_cover_the_whole_suite() {
    let suite: Vec<&str> = all(Scale::Tiny).iter().map(|w| w.name).collect();
    assert_eq!(suite.len(), 12, "the paper's suite is 12 workloads");
    for table in [GOLDEN_HEALTHY, GOLDEN_DEGRADED] {
        assert_eq!(table.len(), suite.len());
        for name in &suite {
            assert!(table.iter().any(|(n, _)| n == name), "{name} missing from a golden table");
        }
    }
    assert_eq!(GOLDEN_KEYS.len(), suite.len());
    assert_eq!(GOLDEN_PLAN_BYTES.len(), suite.len());
    for name in &suite {
        assert!(GOLDEN_PLAN_BYTES.iter().any(|r| r.0 == *name), "{name} missing plan bytes");
    }
}

#[test]
fn every_golden_plan_encodes_to_its_pinned_bytes_and_back() {
    for &(name, healthy_len, healthy_sum, degraded_len, degraded_sum) in GOLDEN_PLAN_BYTES {
        let runs = [
            ("healthy", healthy_output(name), (healthy_len, healthy_sum)),
            ("degraded", degraded_output(name), (degraded_len, degraded_sum)),
        ];
        for (machine, plan, want) in runs {
            let got = plan_bytes_pin(&plan);
            assert_eq!(got, want, "{name} ({machine}): plan bytes drifted ({} bytes)", got.0);
            let bytes = encode_plan(&plan);
            let decoded = decode_plan(&bytes).expect("golden plan decodes");
            assert_eq!(decoded, plan, "{name} ({machine}): round trip changed the plan");
        }
    }
}

#[test]
fn every_workload_matches_its_healthy_golden() {
    for (name, want) in GOLDEN_HEALTHY {
        let got = healthy_digest(name);
        assert_eq!(got, *want, "{name}: healthy plan digest drifted ({got:#018x})");
    }
}

#[test]
fn every_workload_matches_its_degraded_golden() {
    for (name, want) in GOLDEN_DEGRADED {
        let got = degraded_digest(name);
        assert_eq!(got, *want, "{name}: degraded plan digest drifted ({got:#018x})");
    }
}

#[test]
fn every_workload_matches_its_key_goldens() {
    for (name, want_healthy, want_degraded) in GOLDEN_KEYS {
        let (healthy, degraded) = key_digests(name);
        assert_eq!(healthy, *want_healthy, "{name}: healthy PlanKey digest drifted");
        assert_eq!(degraded, *want_degraded, "{name}: degraded PlanKey digest drifted");
        assert_ne!(healthy, degraded, "{name}: faults must be part of the key");
    }
}

#[test]
fn digests_are_stable_across_repeated_compiles() {
    for name in ["FFT", "Ocean"] {
        assert_eq!(healthy_digest(name), healthy_digest(name));
        assert_eq!(degraded_digest(name), degraded_digest(name));
    }
}

/// Plans `name` under every pinned variant, healthy and degraded, checks
/// each digest, and checks that replanning with the planned window sizes
/// as hints (`PlanCtx::new`'s `window_hints`, which name each nest's
/// window) reproduces it. The default schedule (`baseline`) is not
/// replanned: it comes from `force_default`, not from the passes'
/// optimized run this replays.
fn check_variants(name: &str) {
    for &(variant, _, healthy, degraded) in GOLDEN_VARIANTS.iter().filter(|row| row.1 == name) {
        for (faulty, want) in [(false, Some(healthy)), (true, degraded)] {
            let run = variant_run(variant, name, faulty);
            let got = run.as_ref().map(|r| plan_digest(&r.output));
            assert_eq!(got, want, "{name} {variant} (degraded: {faulty}): plan digest drifted");
            let Some(run) = run.filter(|_| variant != "baseline") else { continue };
            let w = &run.workload;
            let hints = run.output.window_sizes();
            let mut ctx =
                PlanCtx::new(&run.partitioner, &w.program, &w.data, &Pool::single(), false, &hints);
            for pass in passes() {
                pass.run(&mut ctx);
            }
            let replan = ctx.into_output();
            assert_eq!(
                Some(plan_digest(&replan)),
                want,
                "{name} {variant} (degraded: {faulty}): replan with reused windows differs"
            );
        }
    }
}

#[test]
fn fft_matches_its_variant_goldens() {
    check_variants("FFT");
}

#[test]
fn radix_matches_its_variant_goldens() {
    check_variants("Radix");
}

/// The 10×10-mesh pins hold, healthy and degraded.
#[test]
fn large_mesh_plans_match_their_goldens() {
    for &(name, healthy, degraded) in GOLDEN_LARGE_MESH {
        let got = large_mesh_digest(name, false);
        assert_eq!(got, healthy, "{name}: 10x10 healthy digest drifted ({got:#018x})");
        let got = large_mesh_digest(name, true);
        assert_eq!(got, degraded, "{name}: 10x10 degraded digest drifted ({got:#018x})");
    }
}

/// Every simulator golden run reports, field for field, what the
/// simulator reported when the table was pinned.
#[test]
fn every_sim_report_matches_its_golden() {
    let got = sim_golden_rows();
    assert_eq!(got.len(), GOLDEN_SIM.len(), "one pin per simulator golden run");
    for (got, want) in got.iter().zip(GOLDEN_SIM) {
        let (machine, options, name, digest) = *got;
        assert_eq!((machine, options, name), (want.0, want.1, want.2), "row order changed");
        assert_eq!(
            digest, want.3,
            "{name} on {machine} with {options} options: simulator report drifted ({digest:#018x})"
        );
    }
}

/// Every golden bound run bounds every nest, field for field, as it did
/// when the table was pinned; the `3x3` rows take the exact path.
#[test]
fn every_lower_bound_matches_its_golden() {
    let got = bound_golden_rows();
    assert_eq!(got.len(), GOLDEN_BOUND.len(), "one pin per nest of every golden bound run");
    for (got, want) in got.iter().zip(GOLDEN_BOUND) {
        let (machine, name, fields, dag) = *got;
        assert_eq!((machine, name), (want.0, want.1), "row order changed");
        assert_eq!(
            (fields, dag),
            (want.2, want.3),
            "{name} on {machine}: [nest, instances, chargeable_leaves, footprint_lines, \
             compulsory, bound] and dag drifted"
        );
        assert_eq!(dag.is_some(), machine == "3x3", "{name} on {machine}: exact path");
    }
}

/// The `lossy` machine reaches the fault paths the canonical faults do
/// not: its runs detour, drop flits and retry.
#[test]
fn the_lossy_sim_goldens_detour_drop_and_retry() {
    for name in ["FFT", "Radix"] {
        let report = GoldenInput::plan("lossy", name).simulate(SimOptions::default());
        assert!(report.net_detour_hops > 0, "{name}: no detour");
        assert!(report.net_dropped_flits > 0, "{name}: no drop");
        assert!(report.net_retries > 0, "{name}: no retry");
    }
}
