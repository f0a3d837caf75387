//! Trace-driven manycore simulator for partitioned schedules.
//!
//! Executes a [`Schedule`](crate::Schedule) on the machine model and
//! reports the paper's evaluation metrics: execution time, on-chip data
//! movement, network latency (average and maximum), L1/L2 behaviour,
//! synchronization overhead and energy.
//!
//! The timing model is analytical/trace-driven rather than cycle-accurate
//! (the paper's own detailed numbers come from a GEM5-based model): each
//! node has a clock; a subcomputation starts when its node is free and all
//! its producers' results have arrived (cross-node arrivals pay network
//! latency plus a synchronization cost); operand fetches walk the real
//! cache hierarchy ([`CacheSystem`]: private L1s, SNUCA L2 banks,
//! MCDRAM/DDR by memory mode) and the real XY routes with
//! utilisation-proportional contention ([`Network`]).
//!
//! [`run_schedules`] runs a plan on a healthy machine,
//! [`run_schedules_degraded`] on a faulty one, and [`fault_sweep`] re-plans
//! and re-runs a program over growing fault severities.

use crate::{Layout, PartitionConfig, PartitionError, PartitionOutput, Partitioner};
use dmcp_ir::Program;
use dmcp_mach::{FaultPlan, FaultState, MachineConfig};
use dmcp_pool::Pool;

pub use crate::cachesim::{CacheSystem, ServedBy};
pub use crate::engine::{Engine, SimOptions};
pub use crate::network::Network;
pub use crate::report::{EnergyBreakdown, SimReport};

/// Runs a set of partitioned nests through the engine.
pub fn run_schedules(
    program: &Program,
    layout: &Layout,
    parts: &PartitionOutput,
    opts: SimOptions,
) -> SimReport {
    let mut engine = Engine::new(program, layout, opts);
    for nest in &parts.nests {
        engine.run(&nest.schedule);
    }
    engine.report()
}

/// [`run_schedules`] on a degraded machine: transfers detour around the
/// faults and pay for drops/retries. With a trivial fault state this is
/// bit-identical to [`run_schedules`].
pub fn run_schedules_degraded(
    program: &Program,
    layout: &Layout,
    parts: &PartitionOutput,
    opts: SimOptions,
    faults: FaultState,
) -> SimReport {
    let mut engine = Engine::with_faults(program, layout, opts, faults);
    for nest in &parts.nests {
        engine.run(&nest.schedule);
    }
    engine.report()
}

/// Parameters of a graceful-degradation sweep.
#[derive(Clone, Debug)]
pub struct FaultSweepConfig {
    /// Dead-node fractions to sweep; by convention starts at `0.0`, the
    /// healthy reference row.
    pub dead_fracs: Vec<f64>,
    /// Per-link permanent-failure probability (non-zero rows only).
    pub link_fail: f64,
    /// Per-link probability of being transiently lossy (non-zero rows
    /// only).
    pub lossy: f64,
    /// Per-traversal drop probability of a lossy link.
    pub drop_prob: f64,
    /// Seed for fault-plan sampling and the drop schedule.
    pub seed: u64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        Self {
            dead_fracs: vec![0.0, 0.05, 0.10, 0.20],
            link_fail: 0.05,
            lossy: 0.05,
            drop_prob: 0.10,
            seed: 0x0D15_EA5E,
        }
    }
}

/// One row of the graceful-degradation table.
#[derive(Clone, Debug)]
pub struct DegradationRow {
    /// Requested dead-node fraction.
    pub dead_frac: f64,
    /// Nodes actually usable (live and connected).
    pub live_nodes: u32,
    /// Mean degree of subcomputation parallelism the partitioner achieved.
    pub parallelism: f64,
    /// The full simulation report.
    pub report: SimReport,
    /// `report.movement / healthy.movement` (1.0 on the healthy row).
    pub movement_ratio: f64,
    /// `report.net_avg_latency / healthy.net_avg_latency`.
    pub avg_latency_ratio: f64,
    /// `report.net_max_latency / healthy.net_max_latency`.
    pub max_latency_ratio: f64,
    /// `report.exec_time / healthy.exec_time`.
    pub exec_time_ratio: f64,
}

/// Sweeps fault severities over `program`: for each dead-node fraction a
/// fault plan is sampled, the program is re-partitioned in degraded mode
/// (dead banks re-homed, dead nodes excluded from every placement) and
/// simulated on the faulty network. Returns one row per fraction with all
/// degradation ratios computed against the first row.
///
/// The `0.0` fraction produces a genuinely healthy machine — its plan,
/// schedule and report are **bit-identical** to a run that never heard of
/// faults.
///
/// # Errors
///
/// [`PartitionError::Fault`] for unusable sampled plans, and whatever
/// degraded partitioning returns when it fails.
pub fn fault_sweep(
    program: &Program,
    machine: &MachineConfig,
    config: &PartitionConfig,
    sweep: &FaultSweepConfig,
) -> Result<Vec<DegradationRow>, PartitionError> {
    let sim = SimOptions::default();
    let data = program.initial_data();
    let mut rows: Vec<DegradationRow> = Vec::with_capacity(sweep.dead_fracs.len());
    for (i, &frac) in sweep.dead_fracs.iter().enumerate() {
        let plan = if frac == 0.0 {
            FaultPlan::healthy()
        } else {
            FaultPlan::random(
                machine.mesh,
                frac,
                sweep.link_fail,
                sweep.lossy,
                sweep.drop_prob,
                sweep.seed.wrapping_add(i as u64),
            )
        };
        let faults = FaultState::new(plan, machine.mesh)?;
        let live = faults.live_nodes().len() as u32;
        let partitioner = Partitioner::new_degraded(machine, program, config.clone(), &faults)?;
        let out = partitioner.plan(program, &data, Pool::global(), false)?;
        let report = run_schedules_degraded(program, partitioner.layout(), &out, sim, faults);
        let ratio = |x: f64, h: f64| if h == 0.0 { 1.0 } else { x / h };
        let (movement_ratio, avg_latency_ratio, max_latency_ratio, exec_time_ratio) =
            match rows.first() {
                None => (1.0, 1.0, 1.0, 1.0),
                Some(h) => (
                    ratio(report.movement as f64, h.report.movement as f64),
                    ratio(report.net_avg_latency, h.report.net_avg_latency),
                    ratio(report.net_max_latency, h.report.net_max_latency),
                    ratio(report.exec_time, h.report.exec_time),
                ),
            };
        rows.push(DegradationRow {
            dead_frac: frac,
            live_nodes: live,
            parallelism: out.avg_parallelism(),
            report,
            movement_ratio,
            avg_latency_ratio,
            max_latency_ratio,
            exec_time_ratio,
        });
    }
    Ok(rows)
}

/// Formats sweep rows as the degradation table the fault-sweep example and
/// README show.
pub fn degradation_table(rows: &[DegradationRow]) -> String {
    let mut s = String::from(
        "dead%  live  movement  mov x  avg-lat x  max-lat x  time x  par   retries  detours\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:>4.0}%  {:>4}  {:>8}  {:>5.2}  {:>9.2}  {:>9.2}  {:>6.2}  {:>4.1}  {:>7}  {:>7}\n",
            r.dead_frac * 100.0,
            r.live_nodes,
            r.report.movement,
            r.movement_ratio,
            r.avg_latency_ratio,
            r.max_latency_ratio,
            r.exec_time_ratio,
            r.parallelism,
            r.report.net_retries,
            r.report.net_detour_hops,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_ir::ProgramBuilder;

    fn program() -> Program {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E", "X", "Y"] {
            b.array(n, &[512], 64);
        }
        b.nest(
            &[("t", 0, 4), ("i", 0, 96)],
            &["A[i] = B[i] + C[i] + D[i] + E[i]", "X[i] = Y[i] + C[i]"],
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn fault_sweep_healthy_row_is_bit_identical_to_a_faultless_run() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let rows = fault_sweep(&p, &machine, &cfg, &FaultSweepConfig::default()).unwrap();
        assert_eq!(rows.len(), 4);
        // Reference run through the original fault-free code paths.
        let part = Partitioner::new(&machine, &p, cfg);
        let out = part.plan(&p, &p.initial_data(), Pool::global(), false).unwrap();
        let healthy = run_schedules(&p, part.layout(), &out, SimOptions::default());
        assert_eq!(rows[0].report, healthy, "0% row must be bit-identical to healthy");
        assert_eq!(rows[0].movement_ratio, 1.0);
        assert_eq!(rows[0].report.net_retries, 0);
        assert_eq!(rows[0].report.net_detour_hops, 0);
    }

    #[test]
    fn fault_sweep_degrades_gracefully() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let rows = fault_sweep(&p, &machine, &cfg, &FaultSweepConfig::default()).unwrap();
        for r in &rows[1..] {
            assert!(r.live_nodes < 36, "faulty rows lose nodes");
            assert!(r.report.exec_time > 0.0, "degraded runs still complete");
            assert!(r.parallelism >= 1.0);
        }
        // The sweep is deterministic end to end.
        let again = fault_sweep(&p, &machine, &cfg, &FaultSweepConfig::default()).unwrap();
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.report, b.report);
        }
        let table = degradation_table(&rows);
        assert_eq!(table.lines().count(), 5);
        assert!(table.contains("dead%"));
    }
}
