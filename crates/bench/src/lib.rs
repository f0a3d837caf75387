//! Evaluation harness shared by the `figures` and `ablations` binaries:
//! runs the 12-application suite end to end and exposes per-app results
//! for every table and figure of the paper. "Our approach" is
//! [`scenarios::partition_guided`] everywhere; [`scenarios`] also holds the
//! paper's counterfactual runs. Timing the planner is perfbench's job.

pub mod scenarios;

use dmcp::baselines::{locality_assignment, preferred_mc_overrides};
use dmcp::bound::{gap_report, GapReport};
use dmcp::core::{OpMix, PartitionConfig, PartitionOutput, Partitioner, PlanOptions};
use dmcp::mach::{ClusterMode, MachineConfig};
use dmcp::mem::MemoryMode;
use dmcp::pool::Pool;
use dmcp::sim::{run_schedules, SimOptions, SimReport};
use dmcp::workloads::{all, PaperRow, Scale, Workload};
use scenarios::partition_guided;

/// Everything measured for one application under the standard configuration
/// (quadrant cluster mode, flat memory, profiled default placement).
pub struct AppEval {
    /// Application name.
    pub name: &'static str,
    /// The paper's reported numbers.
    pub paper: PaperRow,
    /// Static analyzability of the generated program (Table 1).
    pub analyzable: f64,
    /// The optimized partition (plan-level statistics).
    pub opt: PartitionOutput,
    /// Re-mapped op mix measured with splitting forced on (Table 3 — the
    /// guarded run may legitimately re-map nothing for an application).
    pub remapped: OpMix,
    /// Simulated baseline run (instance tracking on).
    pub r_base: SimReport,
    /// Simulated optimized run (instance tracking on).
    pub r_opt: SimReport,
}

impl AppEval {
    /// Average and maximum per-statement movement reduction (Figure 13).
    pub fn movement_reduction(&self) -> (f64, f64) {
        self.r_opt.per_instance_reduction_vs(&self.r_base)
    }

    /// Execution-time reduction of the full approach (Figure 17, bar 1).
    pub fn exec_reduction(&self) -> f64 {
        self.r_opt.time_reduction_vs(&self.r_base)
    }
}

/// The standard partitioner configuration with the profile-guided default
/// placement of the paper's baseline.
pub fn standard_config(w: &Workload, machine: &MachineConfig) -> PartitionConfig {
    let scout = Partitioner::new(machine, &w.program, PartitionConfig::default());
    let assignment = locality_assignment(&w.program, scout.layout(), &w.data, 0);
    PartitionConfig { assignment: Some(assignment), ..PartitionConfig::default() }
}

/// Evaluates one workload under the standard configuration, planning
/// over `pool`.
pub fn evaluate(w: &Workload, machine: &MachineConfig, pool: &Pool) -> AppEval {
    let cfg = standard_config(w, machine);
    let partitioner = Partitioner::new(machine, &w.program, cfg.clone());
    let sim = SimOptions { track_instances: true, ..SimOptions::default() };

    let opt = partition_guided(&partitioner, &w.program, &w.data, pool, sim);
    let base = partitioner.plan(&w.program, &w.data, pool, true).expect("baseline plans");
    let r_opt = run_schedules(&w.program, partitioner.layout(), &opt, sim);
    let r_base = run_schedules(&w.program, partitioner.layout(), &base, sim);

    // Table 3 measures the mix of re-mapped computations *when statements
    // are split*; force splitting for that measurement.
    let force_cfg = PartitionConfig {
        opts: PlanOptions { split_threshold: f64::INFINITY, ..cfg.opts },
        fixed_window: Some(4),
        ..cfg
    };
    let forced = Partitioner::new(machine, &w.program, force_cfg);
    let remapped =
        forced.plan(&w.program, &w.data, pool, false).expect("forced split plans").remapped();

    AppEval {
        name: w.name,
        paper: w.paper,
        analyzable: w.program.static_analyzability(),
        opt,
        remapped,
        r_base,
        r_opt,
    }
}

/// Evaluates the full suite over `pool` at *workload* grain — one task
/// per application, results in suite order (each task plans its own
/// workload sequentially, so thread count never changes any output).
pub fn evaluate_suite(scale: Scale, pool: &Pool) -> Vec<AppEval> {
    let machine = MachineConfig::knl_like();
    let suite = all(scale);
    pool.map(&suite, |_, w| evaluate(w, &machine, &Pool::single()))
}

/// Plans one workload under `cfg` and pairs its per-nest movement with
/// the `dmcp-bound` lower bound.
pub fn gap_eval(w: &Workload, machine: &MachineConfig, cfg: PartitionConfig) -> GapReport {
    let part = Partitioner::new(machine, &w.program, cfg);
    let out = part.plan(&w.program, &w.data, Pool::global(), false).expect("gap config plans");
    gap_report(w.name, &w.program, part.layout(), &w.data, part.config(), &out)
}

/// The optimality-gap dashboard over the full suite under the standard
/// profile-guided configuration with `opts` planner knobs — one task per
/// workload over `pool`, rows in suite order.
pub fn gap_reports(scale: Scale, pool: &Pool, opts: PlanOptions) -> Vec<GapReport> {
    let machine = MachineConfig::knl_like();
    pool.map(&all(scale), |_, w| {
        let cfg = PartitionConfig { opts, ..standard_config(w, &machine) };
        gap_eval(w, &machine, cfg)
    })
}

/// Execution time of one (cluster, memory, optimized?) configuration,
/// normalised by the caller (Figure 22).
pub fn config_exec_time(
    w: &Workload,
    cluster: ClusterMode,
    memory: MemoryMode,
    optimized: bool,
) -> f64 {
    let machine = MachineConfig::knl_like().with_cluster(cluster);
    let partitioner = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let opts = SimOptions { memory_mode: memory, ..SimOptions::default() };
    let out = if optimized {
        partition_guided(&partitioner, &w.program, &w.data, Pool::global(), opts)
    } else {
        partitioner.plan(&w.program, &w.data, Pool::global(), true).expect("baseline plans")
    };
    run_schedules(&w.program, partitioner.layout(), &out, opts).exec_time
}

/// Figure 20/21: execution time and L1 rate for a fixed window size
/// (`None` = the adaptive per-nest search). Returns `(exec_time, l1_rate)`.
pub fn window_run(w: &Workload, window: Option<usize>, reuse_aware: bool) -> (f64, f64) {
    let machine = MachineConfig::knl_like();
    let base_cfg = standard_config(w, &machine);
    let cfg = PartitionConfig {
        fixed_window: window,
        opts: PlanOptions { reuse_aware, ..base_cfg.opts },
        ..base_cfg
    };
    let partitioner = Partitioner::new(&machine, &w.program, cfg);
    let out =
        partition_guided(&partitioner, &w.program, &w.data, Pool::global(), SimOptions::default());
    let r = run_schedules(&w.program, partitioner.layout(), &out, SimOptions::default());
    (r.exec_time, r.l1_hit_rate())
}

/// Figure 23: the three schemes — ours, profile-based data-to-MC mapping,
/// and the combination. Returns exec-time reductions vs the default.
pub fn data_mapping_comparison(w: &Workload) -> (f64, f64, f64) {
    let machine = MachineConfig::knl_like();
    let cfg = standard_config(w, &machine);

    // Default and ours share a layout.
    let part = Partitioner::new(&machine, &w.program, cfg.clone());
    let base = part.plan(&w.program, &w.data, Pool::global(), true).expect("baseline plans");
    let ours = partition_guided(&part, &w.program, &w.data, Pool::global(), SimOptions::default());
    let r_base = run_schedules(&w.program, part.layout(), &base, SimOptions::default());
    let r_ours = run_schedules(&w.program, part.layout(), &ours, SimOptions::default());

    // Data mapping: install page→controller overrides, re-run default.
    let assignment = cfg.assignment.clone().expect("standard config has an assignment");
    let overrides = preferred_mc_overrides(&w.program, part.layout(), &w.data, 0, &assignment);
    let mut mapped = Partitioner::new(&machine, &w.program, cfg.clone());
    for &(page, mc) in &overrides {
        mapped.layout_mut().override_page_controller(page, mc);
    }
    let dm_base = mapped.plan(&w.program, &w.data, Pool::global(), true).expect("baseline plans");
    let r_dm = run_schedules(&w.program, mapped.layout(), &dm_base, SimOptions::default());

    // Combined: overrides + our partitioning.
    let dm_ours =
        partition_guided(&mapped, &w.program, &w.data, Pool::global(), SimOptions::default());
    let r_comb = run_schedules(&w.program, mapped.layout(), &dm_ours, SimOptions::default());

    (
        r_ours.time_reduction_vs(&r_base),
        r_dm.time_reduction_vs(&r_base),
        r_comb.time_reduction_vs(&r_base),
    )
}

/// Geometric mean of `1 - x` complements expressed as a reduction — the
/// paper reports geometric means of improvements.
pub fn geomean_reduction(reductions: impl Iterator<Item = f64>) -> f64 {
    let (mut product, mut n) = (1.0, 0u32);
    for r in reductions {
        product *= (1.0 - r).max(1e-9);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        1.0 - product.powf(1.0 / f64::from(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_one_app_end_to_end() {
        let machine = MachineConfig::knl_like();
        let w = dmcp::workloads::by_name("lu", Scale::Tiny).unwrap();
        let eval = evaluate(&w, &machine, Pool::global());
        assert!(eval.exec_reduction() > 0.0, "LU should improve");
        let (avg, max) = eval.movement_reduction();
        assert!(avg > 0.0 && max >= avg);
        assert!(eval.remapped.total() > 0);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = geomean_reduction([0.1, 0.3].into_iter());
        assert!(g > 0.1 && g < 0.3);
        assert_eq!(geomean_reduction(std::iter::empty()), 0.0);
    }

    #[test]
    fn window_run_produces_times() {
        let w = dmcp::workloads::by_name("radix", Scale::Tiny).unwrap();
        let (t, l1) = window_run(&w, Some(2), true);
        assert!(t > 0.0);
        assert!((0.0..=1.0).contains(&l1));
    }
}
