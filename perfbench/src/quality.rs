//! What a workload's delivered plans are worth, and what the simulator
//! costs to find out.
//!
//! Every workload ends with plans: `plan_suite` plans the golden inputs
//! itself, the serve workloads receive plans over the wire. Each distinct
//! plan is simulated on the machine it was planned for, healthy or under
//! its faults, and the plan-quality metrics are geometric means over those
//! simulations. The simulator's time is reported in reference-kernel units
//! (see [`crate::refk`]) per simulated plan.

use crate::refk;
use crate::stats::{geomean, median};
use crate::Report;
use dmcp::core::{Layout, PartitionOutput};
use dmcp::ir::Program;
use dmcp::mach::FaultState;
use dmcp::sim::{run_schedules, run_schedules_degraded, SimOptions, SimReport};
use std::time::Instant;

/// The deterministic outputs of one delivered plan and its simulation.
pub struct Outcome {
    /// Name of the program the plan is for.
    pub program: &'static str,
    /// Schedule steps the plan emits.
    pub steps: u64,
    /// The planner's own estimate of the plan's movement.
    pub planned_movement: u64,
    /// The simulation of the plan.
    pub sim: SimReport,
}

impl Outcome {
    /// The outcome of `plan` for `program`, simulated as `sim`.
    #[must_use]
    pub fn new(program: &'static str, plan: &PartitionOutput, sim: SimReport) -> Self {
        let steps = plan.nests.iter().map(|n| n.schedule.steps.len() as u64).sum();
        Self { program, steps, planned_movement: plan.movement_opt(), sim }
    }
}

/// Simulates `plan` of `program` on `layout`: under `faults` when the plan
/// was made for a degraded machine.
#[must_use]
pub fn simulate(
    program: &Program,
    layout: &Layout,
    plan: &PartitionOutput,
    faults: Option<&FaultState>,
) -> SimReport {
    match faults {
        Some(f) => run_schedules_degraded(program, layout, plan, SimOptions::default(), f.clone()),
        None => run_schedules(program, layout, plan, SimOptions::default()),
    }
}

/// Whether two simulations of one plan agree bit for bit.
#[must_use]
pub fn same_sim(a: &SimReport, b: &SimReport) -> bool {
    a.exec_time.to_bits() == b.exec_time.to_bits()
        && a.movement == b.movement
        && a.energy.total().to_bits() == b.energy.total().to_bits()
        && a.messages == b.messages
}

/// Times calls bracketed by reference-kernel runs: one before the first
/// call, one between each two calls and one after the last.
#[derive(Default)]
pub struct Bracketed {
    refs: Vec<f64>,
    times: Vec<f64>,
}

impl Bracketed {
    /// Runs `f` after a reference run and records its seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.refs.push(refk::time_once());
        let t = Instant::now();
        let out = f();
        self.times.push(t.elapsed().as_secs_f64());
        out
    }

    /// Closes the series with a last reference run.
    pub fn close(&mut self) {
        self.refs.push(refk::time_once());
    }

    /// Mean seconds per call.
    #[must_use]
    pub fn mean_s(&self) -> f64 {
        self.times.iter().sum::<f64>() / self.times.len() as f64
    }

    /// Mean per call in reference-kernel units, each call divided by the
    /// median of the kernel runs from one call before to one call after it.
    #[must_use]
    pub fn mean_refs(&self) -> f64 {
        let per_call: f64 = self
            .times
            .iter()
            .enumerate()
            .map(|(i, t)| t / median(&self.refs[i.saturating_sub(1)..(i + 3).min(self.refs.len())]))
            .sum();
        per_call / self.times.len() as f64
    }
}

/// Reports the plan-quality metrics: geomeans of simulated execution
/// time, movement and energy over `outcomes`.
pub fn report_quality(report: &mut Report, outcomes: &[Outcome]) {
    let geo = |f: fn(&Outcome) -> f64| geomean(&outcomes.iter().map(f).collect::<Vec<_>>());
    report.metric("plan_exec_cycles", geo(|o| o.sim.exec_time), "cycles");
    report.metric("plan_movement", geo(|o| o.sim.movement as f64), "links");
    report.metric("plan_energy", geo(|o| o.sim.energy.total()), "energy");
}

/// Reports the per-layer metrics of the delivered plans and their
/// simulations: steps and planned movement, the simulator's rate and
/// counters, and each program's execution time (the geomean over its
/// delivered plans). `sim_s` is the simulator's time for one pass over
/// `outcomes`.
pub fn report_sim_layers(report: &mut Report, outcomes: &[Outcome], sim_s: f64) {
    let steps: u64 = outcomes.iter().map(|o| o.steps).sum();
    report.metric("core.plan_steps", steps as f64, "steps");
    let planned: Vec<f64> = outcomes.iter().map(|o| o.planned_movement as f64).collect();
    report.metric("core.planned_movement", geomean(&planned), "links");
    report.metric("sim.steps_per_s", steps as f64 / sim_s, "1/s");
    let sum = |f: fn(&SimReport) -> f64| outcomes.iter().map(|o| f(&o.sim)).sum::<f64>();
    let l1 = sum(|s| s.l1_hits as f64) / sum(|s| (s.l1_hits + s.l1_misses) as f64);
    let l2 = sum(|s| s.l2_misses as f64) / sum(|s| (s.l2_hits + s.l2_misses) as f64);
    let messages = sum(|s| s.messages as f64);
    report.metric("sim.l1_hit_rate", l1, "fraction");
    report.metric("sim.l2_miss_rate", l2, "fraction");
    report.metric("sim.sync_wait_cycles", sum(|s| s.sync_wait), "cycles");
    report.metric(
        "sim.net_avg_latency",
        sum(|s| s.net_avg_latency * s.messages as f64) / messages,
        "cycles",
    );
    report.metric("sim.messages", messages, "count");
    for program in crate::PROGRAMS {
        let cycles: Vec<f64> =
            outcomes.iter().filter(|o| o.program == program).map(|o| o.sim.exec_time).collect();
        report.metric(format!("plan.exec_cycles.{program}"), geomean(&cycles), "cycles");
    }
}
