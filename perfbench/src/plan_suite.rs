//! `plan_suite`: the planner and simulator on the golden inputs.
//!
//! A closed loop on one thread over `Pool::single()`. Each round plans the
//! 12 Tiny programs on the KNL-like machine with the default
//! configuration, healthy and under the canonical faults, and simulates
//! each plan once; the seed only shuffles the order within a round. Every
//! plan digest is checked against `dmcp::check::golden`, and every
//! simulation must repeat bit for bit across rounds.
//!
//! Planner and simulator times are reported in reference-kernel units
//! (see [`crate::refk`]), with the raw seconds printed beside them. The
//! workload makes no call into the serve layers, whose per-layer metrics
//! read 0.

use crate::quality::{report_quality, report_sim_layers, same_sim, simulate, Outcome};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{peak_rss_mb, refk, report_peak_rss, write_spans, Opts, Report, COUNTED_PASSES};
use dmcp::check::golden::{canonical_faults, GOLDEN_DEGRADED, GOLDEN_HEALTHY};
use dmcp::check::plan_digest;
use dmcp::core::{passes, PartitionConfig, PartitionOutput, Partitioner, PlanCtx};
use dmcp::ir::{DataStore, Program};
use dmcp::mach::{FaultState, MachineConfig};
use dmcp::pool::Pool;
use dmcp::workloads::{all, Scale, Workload};
use std::time::Instant;

/// `setup_s` is the median of the set-up that builds the run's inputs and
/// of one more set-up timed before each plan call of an untraced run,
/// whose result is dropped: about 120 set-ups spread over the whole run.
/// On the host the bounds were set on, set-up speed switches between two
/// levels (about 0.35 and 0.6 ms) for seconds at a time; 300 set-ups timed
/// back to back at the start sampled one level, so a run's median
/// depended on the moment it started.
fn timed_setup(setups: &mut Vec<f64>, builds: &mut Vec<f64>) -> Result<Inputs, String> {
    let t = Instant::now();
    let inputs = setup()?;
    setups.push(t.elapsed().as_secs_f64());
    builds.push(inputs.build_s);
    Ok(inputs)
}
/// Salt of the round-order stream.
const ORDER_SALT: u64 = 0x0D3E;

/// Plans `program` as `Partitioner::run_pipeline` does, over a fresh
/// `PlanCtx` and the `passes()` loop, with each pass in a span named by
/// `Pass::name()`, so a deleted pass simply drops its row. Only traced
/// planning goes through here; untraced planning calls the program's own
/// entry point, `Partitioner::partition_with_data_pooled`, and the golden
/// digests check that both give the same plan.
pub fn plan_traced(
    partitioner: &Partitioner,
    program: &Program,
    data: &DataStore,
    pool: &Pool,
    tracer: &mut Tracer,
) -> PartitionOutput {
    let mut ctx = PlanCtx::new(partitioner, program, data, pool, false, &[]);
    for pass in passes() {
        tracer.span(pass.name(), None, || pass.run(&mut ctx));
    }
    ctx.into_output()
}

/// Whether `name` is a per-pass metric, `core.<pass>.refs` or
/// `core.<pass>.allocs`. After the passes that ran are reported, the rest
/// read 0: a pass deleted from the pipeline did no work.
pub fn is_pass_metric(name: &str) -> bool {
    name.starts_with("core.") && (name.ends_with(".refs") || name.ends_with(".allocs"))
}

/// The golden digest pinned for `name`, if the table has one.
fn golden(table: &[(&str, u64)], name: &str) -> Option<u64> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
}

/// One plan of a round: a program on the healthy or degraded machine.
struct Item {
    workload: usize,
    degraded: bool,
    partitioner: Partitioner,
    golden: Option<u64>,
}

struct Inputs {
    suite: Vec<Workload>,
    faults: FaultState,
    items: Vec<Item>,
    build_s: f64,
}

/// Builds the inputs and the 24 partitioners; plans nothing.
fn setup() -> Result<Inputs, String> {
    let t = Instant::now();
    let suite = all(Scale::Tiny);
    let build_s = t.elapsed().as_secs_f64();
    let machine = MachineConfig::knl_like();
    let faults = FaultState::new(canonical_faults(), machine.mesh)
        .map_err(|e| format!("canonical faults rejected: {e:?}"))?;
    let mut items = Vec::with_capacity(2 * suite.len());
    for (workload, w) in suite.iter().enumerate() {
        let config = PartitionConfig::default();
        items.push(Item {
            workload,
            degraded: false,
            partitioner: Partitioner::new(&machine, &w.program, config.clone()),
            golden: golden(GOLDEN_HEALTHY, w.name),
        });
        items.push(Item {
            workload,
            degraded: true,
            partitioner: Partitioner::new_degraded(&machine, &w.program, config, &faults)
                .map_err(|e| format!("{}: degraded partitioner: {e}", w.name))?,
            golden: golden(GOLDEN_DEGRADED, w.name),
        });
    }
    Ok(Inputs { suite, faults, items, build_s })
}

/// What one round measured. A reference-kernel run brackets every timed
/// call: `refs[2i]` runs before plan `i`, `refs[2i + 1]` between the plan
/// and its simulation, `refs[2i + 2]` after the simulation.
struct Round {
    traced: bool,
    refs: Vec<f64>,
    plans: Vec<f64>,
    sims: Vec<f64>,
    /// Traced rounds: the planner span of each plan, which also holds
    /// span bookkeeping.
    planners: Vec<f64>,
    /// Traced rounds, per pass in pipeline order: the name, the pass's
    /// seconds in each plan and its allocations over the round.
    passes: Vec<(&'static str, Vec<f64>, u64)>,
}

impl Round {
    /// `times[i]` in units of the reference runs around it: the median of
    /// the runs from one call before to one call after it.
    fn in_refs(&self, times: &[f64], first_ref: usize) -> f64 {
        times
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let at = 2 * i + first_ref;
                t / median(&self.refs[at.saturating_sub(1)..(at + 3).min(self.refs.len())])
            })
            .sum()
    }

    /// The planner's time per plan, in reference-kernel units.
    fn wait_refs(&self) -> f64 {
        self.in_refs(&self.plans, 0) / self.plans.len() as f64
    }

    /// The simulator's time per plan, in reference-kernel units.
    fn sim_refs(&self) -> f64 {
        self.in_refs(&self.sims, 1) / self.sims.len() as f64
    }

    fn plan_s(&self) -> f64 {
        self.plans.iter().sum()
    }

    fn sim_s(&self) -> f64 {
        self.sims.iter().sum()
    }
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let inputs = match timed_setup(&mut setups, &mut builds) {
        Ok(i) => i,
        Err(e) => {
            report.problem(e);
            return report;
        }
    };
    for item in &inputs.items {
        if item.golden.is_none() {
            report.problem(format!("no golden digest for {}", inputs.suite[item.workload].name));
        }
    }

    let pool = Pool::single();
    let mut tracer = Tracer::default();
    let mut order_rng = Rng::stream(opts.seed, ORDER_SALT);
    let mut order: Vec<usize> = (0..inputs.items.len()).collect();
    let mut outcomes: Vec<Option<Outcome>> = (0..inputs.items.len()).map(|_| None).collect();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    // Whole rounds only. A traced run alternates untraced and traced
    // rounds, so the tracing overhead is measured under the same host
    // conditions, and needs at least one of each.
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean_round = if rounds.is_empty() { 0.0 } else { elapsed / rounds.len() as f64 };
        let min_rounds = if opts.trace { 2 } else { 1 };
        if rounds.len() >= min_rounds && elapsed + 0.5 * mean_round >= opts.seconds {
            break;
        }
        let traced = opts.trace && rounds.len() % 2 == 1;
        order_rng.shuffle(&mut order);
        let mut round = Round {
            traced,
            refs: Vec::with_capacity(2 * order.len() + 1),
            plans: Vec::with_capacity(order.len()),
            sims: Vec::with_capacity(order.len()),
            planners: Vec::new(),
            passes: Vec::new(),
        };
        for &i in &order {
            let item = &inputs.items[i];
            let w = &inputs.suite[item.workload];
            report.attempted += 1;
            if !opts.trace {
                if let Err(e) = timed_setup(&mut setups, &mut builds) {
                    report.problem(e);
                }
            }

            round.refs.push(refk::time_once());
            let first_span = tracer.spans().len();
            let t = Instant::now();
            let out = if traced {
                let planner = tracer.enter("planner", None);
                let out = plan_traced(&item.partitioner, &w.program, &w.data, &pool, &mut tracer);
                tracer.exit(planner);
                out
            } else {
                item.partitioner.partition_with_data_pooled(&w.program, &w.data, &pool)
            };
            round.plans.push(t.elapsed().as_secs_f64());
            if traced {
                let spans = &tracer.spans()[first_span..];
                round.planners.push(spans[0].ns() as f64 * 1e-9);
                for s in &spans[1..] {
                    let secs = s.ns() as f64 * 1e-9;
                    match round.passes.iter_mut().find(|(n, _, _)| *n == s.name) {
                        Some(p) => {
                            p.1.push(secs);
                            p.2 += s.allocs;
                        }
                        None => round.passes.push((s.name, vec![secs], s.allocs)),
                    }
                }
            }

            round.refs.push(refk::time_once());
            let t = Instant::now();
            let faults = item.degraded.then_some(&inputs.faults);
            let sim = simulate(&w.program, item.partitioner.layout(), &out, faults);
            round.sims.push(t.elapsed().as_secs_f64());

            let digest = plan_digest(&out);
            let label = if item.degraded { "degraded" } else { "healthy" };
            if item.golden.is_some_and(|g| g != digest) {
                report.failed += 1;
                report.problem(format!(
                    "{} {label}: plan digest {digest:#018x} is not golden",
                    w.name
                ));
            }
            let outcome = Outcome::new(w.name, &out, sim);
            match &outcomes[i] {
                Some(first)
                    if !same_sim(&first.sim, &outcome.sim) || first.steps != outcome.steps =>
                {
                    report.failed += 1;
                    report
                        .problem(format!("{} {label}: simulation differs between rounds", w.name));
                }
                Some(_) => {}
                None => outcomes[i] = Some(outcome),
            }
        }
        round.refs.push(refk::time_once());
        println!(
            "# round {}{}: plan {:.3} s = {:.3} ref per plan, sim {:.4} s = {:.4} ref per plan, \
             ref median {:.3} ms",
            rounds.len(),
            if traced { " (traced)" } else { "" },
            round.plan_s(),
            round.wait_refs(),
            round.sim_s(),
            round.sim_refs(),
            median(&round.refs) * 1e3
        );
        rounds.push(round);
    }
    let outcomes: Vec<Outcome> = outcomes.into_iter().flatten().collect();
    let ref_ms =
        median(&rounds.iter().flat_map(|r| r.refs.iter().copied()).collect::<Vec<_>>()) * 1e3;

    if opts.trace {
        per_layer(&mut report, &rounds, &outcomes, &builds, ref_ms);
        write_spans(opts, &tracer, &mut report);
    } else {
        let of = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        println!(
            "# {} rounds; raw medians: compile {:.4} s, sim {:.5} s; host.ref_ms {ref_ms:.4}",
            rounds.len(),
            of(Round::plan_s),
            of(Round::sim_s)
        );
        report.metric("setup_s", median(&setups), "s");
        report_peak_rss(&mut report, peak_rss_mb());
        report.metric("wait_refs", of(Round::wait_refs), "ref");
        report.metric("sim_refs", of(Round::sim_refs), "ref");
        report_quality(&mut report, &outcomes);
    }
    report
}

/// The traced run's per-layer metrics, plus the sum check: the passes'
/// time must add up to the planner span's within the tracing overhead.
fn per_layer(
    report: &mut Report,
    rounds: &[Round],
    outcomes: &[Outcome],
    builds: &[f64],
    ref_ms: f64,
) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let med = |rs: &[&Round], f: &dyn Fn(&Round) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };

    let overhead = med(&traced, &Round::wait_refs) / med(&untraced, &Round::wait_refs) - 1.0;
    let planner: f64 = traced.iter().map(|r| r.in_refs(&r.planners, 0)).sum();
    let passes_sum: f64 =
        traced.iter().flat_map(|r| r.passes.iter().map(|p| r.in_refs(&p.1, 0))).sum();
    let gap = (planner - passes_sum) / planner;
    println!(
        "# tracing overhead {:+.2} % (traced vs untraced wait_refs); passes cover {:.3} % \
         of the planner span",
        overhead * 100.0,
        (1.0 - gap) * 100.0
    );
    let tolerance = overhead.max(0.02);
    report.check(gap.abs() <= tolerance, || {
        format!(
            "pass spans miss {:.2} % of the planner span (tolerance {:.2} %)",
            gap * 100.0,
            tolerance * 100.0
        )
    });

    for (k, (name, _, _)) in traced[0].passes.iter().enumerate() {
        let plans = traced[0].plans.len() as f64;
        let refs = med(&traced, &|r: &Round| r.in_refs(&r.passes[k].1, 0)) / plans;
        let raw = med(&traced, &|r: &Round| r.passes[k].1.iter().sum());
        let allocs: Vec<u64> = traced.iter().map(|r| r.passes[k].2).collect();
        println!(
            "# core.{name}: {refs:.4} ref per plan = {raw:.4} s raw per round; allocations per \
             round {allocs:?}"
        );
        report.metric(format!("core.{name}.refs"), refs, "ref");
        if COUNTED_PASSES.contains(name) {
            if allocs.windows(2).any(|w| w[0] != w[1]) {
                println!(
                    "# core.{name}.allocs differs between traced rounds; the first is reported"
                );
            }
            report.metric(format!("core.{name}.allocs"), allocs[0] as f64, "count");
        }
    }
    report_sim_layers(report, outcomes, med(&rounds.iter().collect::<Vec<_>>(), &Round::sim_s));
    report.metric("workloads.build_s", median(builds), "s");
    report.metric("host.ref_ms", ref_ms, "ms");
    report.idle_layers(|name| name.starts_with("serve.") || is_pass_metric(name));
}
