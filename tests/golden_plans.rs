//! Golden-plan pins for the full 12-workload suite.
//!
//! The expected values live in [`dmcp::check::golden`] so the CI
//! `plan-bench` gate and these tests fail together on any drift. Each
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
//!
//! To regenerate after an intentional planner change:
//!
//! ```text
//! cargo test -p dmcp-check print_golden_tables -- --ignored --nocapture
//! ```

use dmcp::check::golden::{
    degraded_digest, degraded_output, healthy_digest, healthy_output, key_digests,
    large_mesh_digest, plan_bytes_pin, sim_golden_rows, variant_run, GoldenInput, GOLDEN_DEGRADED,
    GOLDEN_HEALTHY, GOLDEN_KEYS, GOLDEN_LARGE_MESH, GOLDEN_PLAN_BYTES, GOLDEN_SIM, GOLDEN_VARIANTS,
};
use dmcp::check::plan_digest;
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
    let pool = Pool::single();
    for &(name, healthy_len, healthy_sum, degraded_len, degraded_sum) in GOLDEN_PLAN_BYTES {
        let runs = [
            ("healthy", healthy_output(name, &pool), (healthy_len, healthy_sum)),
            ("degraded", degraded_output(name, &pool), (degraded_len, degraded_sum)),
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
    let pool = Pool::single();
    for (name, want) in GOLDEN_HEALTHY {
        let got = healthy_digest(name, &pool);
        assert_eq!(got, *want, "{name}: healthy plan digest drifted ({got:#018x})");
    }
}

#[test]
fn every_workload_matches_its_degraded_golden() {
    let pool = Pool::single();
    for (name, want) in GOLDEN_DEGRADED {
        let got = degraded_digest(name, &pool);
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

/// The pooled pipeline must be bit-identical regardless of thread
/// count: an 8-thread pool reproduces the single-thread goldens for
/// every workload, healthy and degraded.
#[test]
fn eight_threads_reproduce_the_single_thread_goldens() {
    let pool = Pool::new(8);
    for (name, want) in GOLDEN_HEALTHY {
        assert_eq!(healthy_digest(name, &pool), *want, "{name}: healthy digest thread-dependent");
    }
    for (name, want) in GOLDEN_DEGRADED {
        assert_eq!(degraded_digest(name, &pool), *want, "{name}: degraded digest thread-dependent");
    }
}

#[test]
fn digests_are_stable_across_repeated_compiles() {
    let pool = Pool::single();
    for name in ["FFT", "Ocean"] {
        assert_eq!(healthy_digest(name, &pool), healthy_digest(name, &pool));
        assert_eq!(degraded_digest(name, &pool), degraded_digest(name, &pool));
    }
}

/// Plans `name` under every pinned variant, healthy and degraded, checks
/// each digest, and checks that replanning with the chosen window sizes
/// (`partition_with_data_reusing`) reproduces it. The default schedule
/// (`baseline`) has no window search to reuse.
fn check_variants(name: &str) {
    let pool = Pool::single();
    for &(variant, _, healthy, degraded) in GOLDEN_VARIANTS.iter().filter(|row| row.1 == name) {
        for (faulty, want) in [(false, Some(healthy)), (true, degraded)] {
            let run = variant_run(variant, name, faulty, &pool);
            let got = run.as_ref().map(|r| plan_digest(&r.output));
            assert_eq!(got, want, "{name} {variant} (degraded: {faulty}): plan digest drifted");
            let Some(run) = run.filter(|_| variant != "baseline") else { continue };
            let w = &run.workload;
            let replan = run.partitioner.partition_with_data_reusing(
                &w.program,
                &w.data,
                run.output.window_sizes(),
            );
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

/// The 10×10-mesh pins hold at one and at eight threads, healthy and
/// degraded.
#[test]
fn large_mesh_plans_match_their_goldens_at_one_and_eight_threads() {
    for pool in [Pool::single(), Pool::new(8)] {
        for &(name, healthy, degraded) in GOLDEN_LARGE_MESH {
            let got = large_mesh_digest(name, false, &pool);
            assert_eq!(got, healthy, "{name}: 10x10 healthy digest drifted ({got:#018x})");
            let got = large_mesh_digest(name, true, &pool);
            assert_eq!(got, degraded, "{name}: 10x10 degraded digest drifted ({got:#018x})");
        }
    }
}

/// Every simulator golden run reports, field for field, what the
/// simulator reported when the table was pinned.
#[test]
fn every_sim_report_matches_its_golden() {
    let got = sim_golden_rows(&Pool::single());
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

/// The `lossy` machine reaches the fault paths the canonical faults do
/// not: its runs detour, drop flits and retry.
#[test]
fn the_lossy_sim_goldens_detour_drop_and_retry() {
    for name in ["FFT", "Radix"] {
        let report =
            GoldenInput::plan("lossy", name, &Pool::single()).simulate(SimOptions::default());
        assert!(report.net_detour_hops > 0, "{name}: no detour");
        assert!(report.net_dropped_flits > 0, "{name}: no drop");
        assert!(report.net_retries > 0, "{name}: no retry");
    }
}
