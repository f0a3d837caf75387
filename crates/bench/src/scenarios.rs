//! The paper's counterfactual runs: the ideal-network and
//! ideal-data-analysis runs of Figure 17 and the S1–S4 single-metric
//! isolations of Figure 18 (each enforces one measured property of the
//! optimized run onto the default run, exactly as Section 6.2 describes),
//! plus the profile-guided choice between the optimized and the default
//! plan that every figure calls "our approach".

use dmcp::core::{PartitionConfig, PartitionOutput, Partitioner, PlanOptions};
use dmcp::ir::program::DataStore;
use dmcp::ir::Program;
use dmcp::mach::MachineConfig;
use dmcp::pool::Pool;
use dmcp::sim::{run_schedules, SimOptions, SimReport};

/// Which run to perform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// The full compiler approach.
    Optimized,
    /// The locality-optimized iteration-granularity default.
    Baseline,
    /// The optimized schedule on a zero-latency network (Figure 17).
    IdealNetwork,
    /// Perfect data analysis: every reference analyzable, under the
    /// configuration's hit/miss predictor (Figure 17).
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
/// use dmcp::core::{PartitionConfig, Partitioner};
/// use dmcp::ir::ProgramBuilder;
/// use dmcp::mach::MachineConfig;
/// use dmcp::pool::Pool;
/// use dmcp::sim::{run_schedules, SimOptions};
/// use dmcp_bench::scenarios::partition_guided;
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

/// Plans `program` under `config` and simulates it under a scenario in
/// flat memory mode, returning its report.
///
/// The counterfactual scenarios first perform the prerequisite optimized
/// and/or baseline runs to measure the metric being transplanted, exactly
/// following the methodology of paper Section 6.2.
pub fn run_program(
    program: &Program,
    data: &DataStore,
    machine: &MachineConfig,
    config: &PartitionConfig,
    scenario: Scenario,
) -> SimReport {
    let partitioner = Partitioner::new(machine, program, config.clone());
    let sim = SimOptions::default();

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
    use dmcp::ir::ProgramBuilder;

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
        let base = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::Baseline);
        let opt = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::Optimized);
        let ideal_net = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::IdealNetwork);
        assert!(opt.exec_time < base.exec_time, "optimized should beat baseline");
        assert!(ideal_net.exec_time < opt.exec_time, "ideal network should beat optimized");
    }

    #[test]
    fn ideal_analysis_at_least_matches_optimized_movement() {
        let p = program();
        let machine = MachineConfig::knl_like();
        let cfg = PartitionConfig::default();
        let opt = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::Optimized);
        let ideal = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::IdealAnalysis);
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
        let base = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::Baseline);
        for s in [Scenario::S1L1Pattern, Scenario::S2Movement, Scenario::S3Parallelism] {
            let r = run_program(&p, &p.initial_data(), &machine, &cfg, s);
            assert!(
                r.exec_time <= base.exec_time * 1.001,
                "{s:?} should not be slower than baseline: {} vs {}",
                r.exec_time,
                base.exec_time
            );
        }
        // S4 only *adds* costs to the baseline.
        let s4 = run_program(&p, &p.initial_data(), &machine, &cfg, Scenario::S4Sync);
        assert!(s4.exec_time >= base.exec_time);
    }
}
