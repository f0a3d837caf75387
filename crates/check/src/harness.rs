//! The seeded driver: runs every property over a seed sweep, captures
//! panics, shrinks failing cases, and reports.
//!
//! Each (seed, property) pair derives its own splitmix64 stream from the
//! base seed, so properties are independent: adding a property or
//! reordering the sweep never perturbs another property's cases, and a
//! reported seed reproduces its counterexample in isolation.

use crate::boundprop::{check_bound_isometry, check_bound_rename, check_bound_sound};
use crate::conform::{check_degraded, check_healthy};
use crate::crashprop::{check_crash_prefix, check_degrade_restore};
use crate::gencase::{gen_div_case, gen_mask_case, gen_wild_spec, shrink, CaseSpec};
use crate::meta::{check_fault_monotonicity, check_isometry, check_lexer_total, check_rename};
use crate::oracle::check_oracle_case;
use dmcp_ir::exec::run_sequential;
use dmcp_mach::rng::{mix, Rng64};
use dmcp_pool::Pool;
use dmcp_serve::{PlanRequest, PlanService, ServeConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Sweep configuration.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Number of seeds to sweep.
    pub seeds: u64,
    /// Base seed; every (seed, property) stream derives from it.
    pub seed0: u64,
    /// Statement-instance budget per generated case.
    pub budget: u64,
    /// Adversarial topological replays per conformance case.
    pub orders: u32,
    /// Run the serve-layer conformance property every Nth seed
    /// (it spins up a thread pool; 0 disables it).
    pub serve_every: u64,
    /// Shrinking attempt budget per counterexample.
    pub shrink_attempts: u32,
    /// Run only properties whose name contains this substring (e.g.
    /// `"crash"` for the crash-consistency fuzzer alone). `None` runs
    /// everything.
    pub only: Option<String>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            seeds: 64,
            seed0: 0xD4C9_0017,
            budget: 256,
            orders: 2,
            serve_every: 8,
            shrink_attempts: 400,
            only: None,
        }
    }
}

impl CheckConfig {
    /// Whether the property filter admits `property`.
    fn wants(&self, property: &str) -> bool {
        self.only.as_ref().is_none_or(|needle| property.contains(needle.as_str()))
    }
}

/// One property violation, with the shrunken case when one exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// Which property failed.
    pub property: &'static str,
    /// The sweep seed that found it.
    pub seed: u64,
    /// What went wrong (assertion message or captured panic payload).
    pub message: String,
    /// The minimised case, rendered, when the property is case-driven.
    pub spec: Option<String>,
}

/// The sweep's outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Seeds swept.
    pub seeds: u64,
    /// Total property executions (shrinking replays excluded).
    pub runs: u64,
    /// Violations found, at most one per (seed, property).
    pub counterexamples: Vec<Counterexample>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

/// Runs `f`, converting both `Err` and panics into `Err(message)`.
fn guarded<F: FnOnce() -> Result<(), String>>(f: F) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(panic_message(payload)),
    }
}

/// Derives the RNG stream for one (seed, property) pair.
fn stream(cfg: &CheckConfig, seed: u64, salt: u64) -> Rng64 {
    Rng64::new(mix(cfg.seed0 ^ mix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt))))
}

/// Runs one case-driven property; on failure, shrinks the spec against
/// the same (deterministic) check before reporting.
fn case_property<G, C>(
    report: &mut CheckReport,
    cfg: &CheckConfig,
    seed: u64,
    salt: u64,
    property: &'static str,
    generate: G,
    check: C,
) where
    G: FnOnce(&mut Rng64) -> CaseSpec,
    C: Fn(&CaseSpec, &mut Rng64) -> Result<(), String>,
{
    if !cfg.wants(property) {
        return;
    }
    report.runs += 1;
    let mut rng = stream(cfg, seed, salt);
    let spec = generate(&mut rng);
    // The check's own randomness (adversarial orders) restarts from a
    // fixed derived seed on every run, so shrinking replays the exact
    // same execution against each candidate.
    let check_seed = mix(cfg.seed0 ^ salt ^ seed);
    let run = |s: &CaseSpec| {
        let mut r = Rng64::new(check_seed);
        guarded(|| check(s, &mut r))
    };
    if let Err(first) = run(&spec) {
        let small = shrink(&spec, |s| run(s).is_err(), cfg.shrink_attempts);
        let message = run(&small).err().unwrap_or(first);
        report.counterexamples.push(Counterexample {
            property,
            seed,
            message,
            spec: Some(small.to_string()),
        });
    }
}

/// Runs one free-standing property (no shrinkable case).
fn free_property<F>(
    report: &mut CheckReport,
    cfg: &CheckConfig,
    seed: u64,
    salt: u64,
    property: &'static str,
    f: F,
) where
    F: FnOnce(&mut Rng64) -> Result<(), String>,
{
    if !cfg.wants(property) {
        return;
    }
    report.runs += 1;
    let mut rng = stream(cfg, seed, salt);
    if let Err(message) = guarded(|| f(&mut rng)) {
        report.counterexamples.push(Counterexample { property, seed, message, spec: None });
    }
}

fn check_spec_healthy(
    spec: &CaseSpec,
    rng: &mut Rng64,
    orders: u32,
    rel_tol: f64,
) -> Result<(), String> {
    let built = spec.build()?;
    check_healthy(&built, rng, orders, rel_tol)
}

fn check_spec_degraded(spec: &CaseSpec, rel_tol: f64) -> Result<(), String> {
    let built = spec.build()?;
    check_degraded(&built, rel_tol)
}

fn check_spec_wild(spec: &CaseSpec) -> Result<(), String> {
    let built = spec.build()?;
    for nest in built.program.nests() {
        let _ = nest.iteration_count();
    }
    let _ = built.program.structural_hash();
    let _ = built.program.static_analyzability();
    let _ = built.program.dynamic_analyzability();
    // Only interpret when the bounds are tame; extreme trips would loop
    // effectively forever (correctly, but not in this lifetime).
    if built.program.nests().iter().all(|n| n.iteration_count() <= 64) {
        let mut data = built.data.clone();
        run_sequential(&built.program, &mut data);
    }
    Ok(())
}

fn check_spec_serve(spec: &CaseSpec) -> Result<(), String> {
    let mut healthy = spec.clone();
    healthy.faults = None; // serve conformance compares healthy compiles
    let built = healthy.build()?;
    let service = PlanService::new(ServeConfig { workers: 2, ..ServeConfig::default() });
    let request =
        PlanRequest::new(built.program, built.machine, built.config).with_data(built.data);
    let cached = service.plan(request.clone()).map_err(|e| format!("serve plan: {e:?}"))?;
    let fresh = service.plan_uncached(&request).map_err(|e| format!("uncached plan: {e:?}"))?;
    if *cached != *fresh {
        return Err("cached and freshly-compiled plans diverged".into());
    }
    let hit = service.plan(request).map_err(|e| format!("serve re-plan: {e:?}"))?;
    if *cached != *hit {
        return Err("cache returned a different plan on the second request".into());
    }
    Ok(())
}

/// Sweeps every property over `cfg.seeds` seeds and reports, fanning the
/// seeds out over the process-global pool ([`Pool::global`]).
pub fn run(cfg: &CheckConfig) -> CheckReport {
    run_pooled(cfg, Pool::global())
}

/// [`run`] over an explicit pool. Every (seed, property) stream derives
/// from the seed value alone, and per-seed partial reports are merged in
/// seed order, so the report is bit-identical for every thread count.
pub fn run_pooled(cfg: &CheckConfig, pool: &Pool) -> CheckReport {
    let seeds = usize::try_from(cfg.seeds).expect("seed count fits usize");
    let partials = pool.run(seeds, |i| sweep_seed(cfg, i as u64));
    let mut report = CheckReport { seeds: cfg.seeds, ..CheckReport::default() };
    for partial in partials {
        report.runs += partial.runs;
        report.counterexamples.extend(partial.counterexamples);
    }
    report
}

/// Runs every property for one seed, returning the seed's partial report.
fn sweep_seed(cfg: &CheckConfig, seed: u64) -> CheckReport {
    let mut report = CheckReport::default();
    free_property(&mut report, cfg, seed, 0x0A, "oracle", |rng| check_oracle_case(rng).map(|_| ()));
    let (budget, orders) = (cfg.budget, cfg.orders);
    case_property(
        &mut report,
        cfg,
        seed,
        0x0B,
        "conform-mask",
        |rng| gen_mask_case(rng, budget),
        |s, rng| check_spec_healthy(s, rng, orders, 0.0),
    );
    case_property(
        &mut report,
        cfg,
        seed,
        0x0C,
        "conform-degraded",
        |rng| gen_mask_case(rng, budget),
        |s, _| check_spec_degraded(s, 0.0),
    );
    case_property(&mut report, cfg, seed, 0x0D, "conform-div", gen_div_case, |s, rng| {
        check_spec_healthy(s, rng, orders, 1e-9)
    });
    case_property(
        &mut report,
        cfg,
        seed,
        0x0E,
        "meta-rename",
        |rng| gen_mask_case(rng, budget.min(160)),
        |s, _| check_rename(s),
    );
    free_property(&mut report, cfg, seed, 0x0F, "meta-isometry", check_isometry);
    free_property(&mut report, cfg, seed, 0x10, "meta-fault-monotonic", check_fault_monotonicity);
    free_property(&mut report, cfg, seed, 0x11, "lexer-total", |rng| {
        for _ in 0..8 {
            check_lexer_total(rng);
        }
        Ok(())
    });
    case_property(&mut report, cfg, seed, 0x12, "wild-shape", gen_wild_spec, |s, _| {
        check_spec_wild(s)
    });
    if cfg.serve_every > 0 && seed.is_multiple_of(cfg.serve_every) {
        case_property(
            &mut report,
            cfg,
            seed,
            0x13,
            "serve-conform",
            |rng| gen_mask_case(rng, budget.min(128)),
            |s, _| check_spec_serve(s),
        );
    }
    case_property(
        &mut report,
        cfg,
        seed,
        0x14,
        "bound-sound",
        |rng| gen_mask_case(rng, budget.min(160)),
        |s, _| check_bound_sound(s),
    );
    case_property(
        &mut report,
        cfg,
        seed,
        0x15,
        "bound-rename",
        |rng| gen_mask_case(rng, budget.min(120)),
        |s, _| check_bound_rename(s),
    );
    free_property(&mut report, cfg, seed, 0x16, "bound-isometry", check_bound_isometry);
    let shrink_attempts = cfg.shrink_attempts;
    free_property(&mut report, cfg, seed, 0x17, "crash-prefix", |rng| {
        check_crash_prefix(rng, shrink_attempts)
    });
    free_property(&mut report, cfg, seed, 0x18, "crash-degrade", check_degrade_restore);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_finds_no_counterexamples() {
        let report = run(&CheckConfig { seeds: 4, ..CheckConfig::default() });
        assert!(
            report.counterexamples.is_empty(),
            "counterexamples: {:#?}",
            report.counterexamples
        );
        assert_eq!(report.seeds, 4);
        assert!(report.runs >= 4 * 14);
    }

    #[test]
    fn pooled_sweep_is_bit_identical_to_sequential() {
        let cfg = CheckConfig { seeds: 3, serve_every: 0, ..CheckConfig::default() };
        let seq = run_pooled(&cfg, &Pool::single());
        let par = run_pooled(&cfg, &Pool::new(4));
        assert_eq!(seq, par, "per-seed streams must not depend on thread count");
    }

    #[test]
    fn a_broken_property_is_caught_and_shrunk() {
        // Plant a deliberately false "property": no generated case may
        // contain more than one statement in total. The harness must
        // catch it and shrink the case to exactly two statements... or
        // rather, to a minimal case that still violates (≥ 2 statements).
        let cfg = CheckConfig::default();
        let mut report = CheckReport::default();
        let mut found = false;
        for seed in 0..16 {
            case_property(
                &mut report,
                &cfg,
                seed,
                0xFA,
                "planted",
                |rng| gen_mask_case(rng, 256),
                |s, _| {
                    let stmts: usize = s.nests.iter().map(|n| n.stmts.len()).sum();
                    if stmts > 1 {
                        Err(format!("{stmts} statements"))
                    } else {
                        Ok(())
                    }
                },
            );
            if let Some(ce) = report.counterexamples.last() {
                assert_eq!(ce.property, "planted");
                let spec = ce.spec.as_ref().expect("case-driven");
                // The shrunken case has exactly 2 statements (rendered as
                // indented lines): minimal while still violating.
                let stmts = spec.lines().filter(|l| l.starts_with("  ")).count();
                assert_eq!(stmts, 2, "not minimal:\n{spec}");
                found = true;
                break;
            }
        }
        assert!(found, "sweep never generated a multi-statement case");
    }

    #[test]
    fn panics_inside_properties_become_counterexamples() {
        let cfg = CheckConfig::default();
        let mut report = CheckReport::default();
        free_property(&mut report, &cfg, 0, 0xFB, "panicky", |_| {
            panic!("boom {}", 42);
        });
        assert_eq!(report.counterexamples.len(), 1);
        assert!(report.counterexamples[0].message.contains("boom 42"));
    }
}
