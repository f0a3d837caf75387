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
//! To regenerate after an intentional planner change:
//!
//! ```text
//! cargo test -p dmcp-check print_golden_tables -- --ignored --nocapture
//! ```

use dmcp::check::golden::{
    degraded_digest, healthy_digest, key_digests, large_mesh_digest, variant_run, GOLDEN_DEGRADED,
    GOLDEN_HEALTHY, GOLDEN_KEYS, GOLDEN_LARGE_MESH, GOLDEN_VARIANTS,
};
use dmcp::check::plan_digest;
use dmcp::pool::Pool;
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
