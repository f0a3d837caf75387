//! End-to-end evaluation scenarios (Figures 17 & 18 of the paper).

use crate::engine::{Engine, SimOptions};
use crate::error::SimError;
use crate::report::SimReport;
use dmcp_core::partitioner::PredictorSpec;
use dmcp_core::{Layout, PartitionConfig, PartitionOutput, Partitioner, PlanOptions};
use dmcp_ir::program::DataStore;
use dmcp_ir::Program;
use dmcp_mach::{FaultPlan, FaultState, MachineConfig};
use dmcp_mem::MemoryMode;
use dmcp_pool::Pool;

/// Which run to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The full compiler approach.
    Optimized,
    /// The locality-optimized iteration-granularity default.
    Baseline,
    /// The optimized schedule on a zero-latency network (Figure 17).
    IdealNetwork,
    /// Perfect data analysis: every reference analyzable, near-perfect
    /// hit/miss knowledge (Figure 17).
    IdealAnalysis,
    /// Default code with the optimized code's L1 hit/miss pattern
    /// (Figure 18, S1).
    S1L1Pattern,
    /// Default code with the optimized code's data-movement costs
    /// (Figure 18, S2).
    S2Movement,
    /// Default code with the optimized code's degree of parallelism
    /// (Figure 18, S3).
    S3Parallelism,
    /// Default code plus the optimized code's synchronization costs
    /// (Figure 18, S4).
    S4Sync,
}

impl Scenario {
    /// All scenarios in presentation order.
    pub const ALL: [Scenario; 8] = [
        Scenario::Optimized,
        Scenario::Baseline,
        Scenario::IdealNetwork,
        Scenario::IdealAnalysis,
        Scenario::S1L1Pattern,
        Scenario::S2Movement,
        Scenario::S3Parallelism,
        Scenario::S4Sync,
    ];
}

/// Profile-guided partitioning: plans both the optimized and the default
/// schedules, simulates both on the profiling data, and keeps the faster
/// one — the same profile-driven methodology the paper's baseline and
/// data-to-MC mapping already use. This is the entry point the evaluation
/// uses for "our approach". Both plans fan out over `pool`.
///
/// # Panics
///
/// Panics where [`Partitioner::plan`] returns an error.
///
/// # Examples
///
/// ```
/// use dmcp_core::{PartitionConfig, Partitioner};
/// use dmcp_ir::ProgramBuilder;
/// use dmcp_mach::MachineConfig;
/// use dmcp_pool::Pool;
/// use dmcp_sim::scenarios::partition_guided;
/// use dmcp_sim::{run_schedules, SimOptions};
///
/// let mut b = ProgramBuilder::new();
/// for n in ["A", "B", "C"] {
///     b.array(n, &[128], 64);
/// }
/// b.nest(&[("i", 0, 64)], &["A[i] = B[i] + C[i]"]).unwrap();
/// let p = b.build();
/// let machine = MachineConfig::knl_like();
/// let part = Partitioner::new(&machine, &p, PartitionConfig::default());
/// let data = p.initial_data();
///
/// let chosen = partition_guided(&part, &p, &data, Pool::global(), SimOptions::default());
/// let baseline = part.plan(&p, &data, Pool::global(), true).unwrap();
/// let r_c = run_schedules(&p, part.layout(), &chosen, SimOptions::default());
/// let r_b = run_schedules(&p, part.layout(), &baseline, SimOptions::default());
/// assert!(r_c.exec_time <= r_b.exec_time);
/// ```
pub fn partition_guided(
    partitioner: &Partitioner,
    program: &Program,
    data: &DataStore,
    pool: &Pool,
    sim: SimOptions,
) -> PartitionOutput {
    let plan = |force_default| {
        partitioner.plan(program, data, pool, force_default).expect("guided partitioning failed")
    };
    let opt = plan(false);
    let base = plan(true);
    let quiet = SimOptions { track_instances: false, ..sim };
    let r_opt = run_schedules(program, partitioner.layout(), &opt, quiet);
    let r_base = run_schedules(program, partitioner.layout(), &base, quiet);
    if r_opt.exec_time <= r_base.exec_time {
        opt
    } else {
        base
    }
}

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
/// [`SimError::Fault`] for unusable sampled plans and
/// [`SimError::Partition`] when degraded partitioning fails.
pub fn fault_sweep(
    program: &Program,
    machine: &MachineConfig,
    config: &PartitionConfig,
    sweep: &FaultSweepConfig,
) -> Result<Vec<DegradationRow>, SimError> {
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

/// Plans and simulates `program` under a scenario, returning its report.
///
/// The counterfactual scenarios first perform the prerequisite optimized
/// and/or baseline runs to measure the metric being transplanted, exactly
/// following the methodology of paper Section 6.2.
pub fn run_program(
    program: &Program,
    data: &DataStore,
    machine: &MachineConfig,
    config: &PartitionConfig,
    memory_mode: MemoryMode,
    scenario: Scenario,
) -> SimReport {
    let partitioner = Partitioner::new(machine, program, config.clone());
    let sim = SimOptions { memory_mode, ..SimOptions::default() };

    let baseline =
        || partitioner.plan(program, data, Pool::global(), true).expect("baseline planning failed");
    let optimized = || partition_guided(&partitioner, program, data, Pool::global(), sim);

    match scenario {
        Scenario::Optimized => run_schedules(program, partitioner.layout(), &optimized(), sim),
        Scenario::Baseline => run_schedules(program, partitioner.layout(), &baseline(), sim),
        Scenario::IdealNetwork => {
            let opts = SimOptions { ideal_network: true, ..sim };
            run_schedules(program, partitioner.layout(), &optimized(), opts)
        }
        Scenario::IdealAnalysis => {
            let ideal_cfg = PartitionConfig {
                opts: PlanOptions { ideal_analysis: true, ..config.opts },
                predictor: PredictorSpec::L2Model,
                ..config.clone()
            };
            let ideal = Partitioner::new(machine, program, ideal_cfg);
            let out = partition_guided(&ideal, program, data, Pool::global(), sim);
            run_schedules(program, ideal.layout(), &out, sim)
        }
        Scenario::S1L1Pattern => {
            let r_opt = run_schedules(program, partitioner.layout(), &optimized(), sim);
            let opts = SimOptions { l1_rate_override: Some(r_opt.l1_hit_rate()), ..sim };
            run_schedules(program, partitioner.layout(), &baseline(), opts)
        }
        Scenario::S2Movement => {
            let r_opt = run_schedules(program, partitioner.layout(), &optimized(), sim);
            let r_base = run_schedules(program, partitioner.layout(), &baseline(), sim);
            let scale = if r_base.movement == 0 {
                1.0
            } else {
                (r_opt.movement as f64 / r_base.movement as f64).min(1.0)
            };
            let opts = SimOptions { movement_scale: Some(scale), ..sim };
            run_schedules(program, partitioner.layout(), &baseline(), opts)
        }
        Scenario::S3Parallelism => {
            let out = optimized();
            let dop = out.avg_parallelism().max(1.0);
            let opts = SimOptions { compute_scale: Some(1.0 / dop), ..sim };
            run_schedules(program, partitioner.layout(), &baseline(), opts)
        }
        Scenario::S4Sync => {
            let out = optimized();
            let extra = out.syncs_per_statement() * machine.latency.sync;
            let opts = SimOptions { extra_sync_per_statement: extra, ..sim };
            run_schedules(program, partitioner.layout(), &baseline(), opts)
        }
    }
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
    fn figure_17_ordering_holds() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let base = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::Baseline,
        );
        let opt = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::Optimized,
        );
        let ideal_net = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::IdealNetwork,
        );
        assert!(opt.exec_time < base.exec_time, "optimized should beat baseline");
        assert!(ideal_net.exec_time < opt.exec_time, "ideal network should beat optimized");
    }

    #[test]
    fn ideal_analysis_at_least_matches_optimized_movement() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let opt = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::Optimized,
        );
        let ideal = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::IdealAnalysis,
        );
        // Perfect analysis never plans *worse* movement than the predictor-
        // driven compiler (up to balance-rule noise: allow 2 %).
        assert!(
            ideal.movement as f64 <= opt.movement as f64 * 1.02,
            "ideal {} vs opt {}",
            ideal.movement,
            opt.movement
        );
    }

    #[test]
    fn isolation_scenarios_land_between_baseline_and_optimized() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let base = run_program(
            &p,
            &p.initial_data(),
            &machine,
            &cfg,
            MemoryMode::Flat,
            Scenario::Baseline,
        );
        for s in [Scenario::S1L1Pattern, Scenario::S2Movement, Scenario::S3Parallelism] {
            let r = run_program(&p, &p.initial_data(), &machine, &cfg, MemoryMode::Flat, s);
            assert!(
                r.exec_time <= base.exec_time * 1.001,
                "{s:?} should not be slower than baseline: {} vs {}",
                r.exec_time,
                base.exec_time
            );
        }
        // S4 only *adds* costs to the baseline.
        let s4 =
            run_program(&p, &p.initial_data(), &machine, &cfg, MemoryMode::Flat, Scenario::S4Sync);
        assert!(s4.exec_time >= base.exec_time);
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
