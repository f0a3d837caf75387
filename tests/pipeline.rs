//! End-to-end integration: compile → partition → simulate, across crates.

use dmcp::baselines::{locality_assignment, preferred_mc_overrides};
use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::ir::ProgramBuilder;
use dmcp::mach::{ClusterMode, MachineConfig};
use dmcp::mem::MemoryMode;
use dmcp::pool::Pool;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{by_name, Scale};
use dmcp_bench::scenarios::{run_program, Scenario};

/// An LU-style update nest — the kind of kernel whose operand spread makes
/// subcomputation splitting clearly profitable.
fn matrix_program() -> dmcp::ir::Program {
    let mut b = ProgramBuilder::new();
    b.array("A", &[48, 48], 64);
    b.array("P", &[48], 64);
    b.array("R", &[48], 64);
    b.nest(
        &[("t", 0, 3), ("i", 0, 48), ("j", 0, 48)],
        &["A[i][j] = A[i][j] - A[i][t] * A[t][j] / P[t]", "R[j] = R[j] + A[t][j] * A[j][t] - P[j]"],
    )
    .unwrap();
    b.build()
}

#[test]
fn optimized_improves_movement_time_and_l1() {
    let p = matrix_program();
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &p, PartitionConfig::default());
    let data = p.initial_data();
    let opt = part.plan(&p, &data, Pool::global(), false).unwrap();
    let base = part.plan(&p, &data, Pool::global(), true).unwrap();
    let r_opt = run_schedules(&p, part.layout(), &opt, SimOptions::default());
    let r_base = run_schedules(&p, part.layout(), &base, SimOptions::default());
    assert!(r_opt.movement < r_base.movement);
    assert!(r_opt.exec_time < r_base.exec_time);
    assert!(r_opt.l1_hit_rate() >= r_base.l1_hit_rate());
}

#[test]
fn profiled_baseline_composes_with_partitioner() {
    let p = matrix_program();
    let machine = MachineConfig::knl_like();
    let scout = Partitioner::new(&machine, &p, PartitionConfig::default());
    let data = p.initial_data();
    let asg = locality_assignment(&p, scout.layout(), &data, 0);
    let cfg = PartitionConfig { assignment: Some(asg), ..PartitionConfig::default() };
    let part = Partitioner::new(&machine, &p, cfg);
    let opt = part.plan(&p, &data, Pool::global(), false).unwrap();
    let base = part.plan(&p, &data, Pool::global(), true).unwrap();
    let r_opt = run_schedules(&p, part.layout(), &opt, SimOptions::default());
    let r_base = run_schedules(&p, part.layout(), &base, SimOptions::default());
    assert!(
        r_opt.movement < r_base.movement,
        "optimized should beat even the profiled baseline: {} vs {}",
        r_opt.movement,
        r_base.movement
    );
}

#[test]
fn data_mapping_overrides_change_miss_paths() {
    let p = matrix_program();
    let machine = MachineConfig::knl_like();
    let mut part = Partitioner::new(&machine, &p, PartitionConfig::default());
    let data = p.initial_data();
    let asg = locality_assignment(&p, part.layout(), &data, 0);
    let overrides = preferred_mc_overrides(&p, part.layout(), &data, 0, &asg);
    assert!(!overrides.is_empty());
    for (page, mc) in overrides {
        part.layout_mut().override_page_controller(page, mc);
    }
    let base = part.plan(&p, &data, Pool::global(), true).unwrap();
    let r = run_schedules(&p, part.layout(), &base, SimOptions::default());
    assert!(r.exec_time > 0.0);
}

#[test]
fn scenarios_order_sensibly_on_a_real_workload() {
    let w = by_name("lu", Scale::Tiny).unwrap();
    let machine = MachineConfig::knl_like();
    let cfg = PartitionConfig::default();
    let base = run_program(&w.program, &w.data, &machine, &cfg, Scenario::Baseline);
    let opt = run_program(&w.program, &w.data, &machine, &cfg, Scenario::Optimized);
    let ideal = run_program(&w.program, &w.data, &machine, &cfg, Scenario::IdealNetwork);
    assert!(opt.exec_time < base.exec_time, "opt {} vs base {}", opt.exec_time, base.exec_time);
    assert!(ideal.exec_time < opt.exec_time);
    assert!(opt.movement < base.movement);
}

#[test]
fn cluster_and_memory_modes_all_run() {
    let w = by_name("radix", Scale::Tiny).unwrap();
    for cluster in ClusterMode::ALL {
        for memory in MemoryMode::ALL {
            let machine = MachineConfig::knl_like().with_cluster(cluster);
            let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
            let out = part.plan(&w.program, &w.data, Pool::global(), false).unwrap();
            let opts = SimOptions { memory_mode: memory, ..SimOptions::default() };
            let r = run_schedules(&w.program, part.layout(), &out, opts);
            assert!(r.exec_time > 0.0, "({cluster}, {memory}) produced no time");
            assert!(r.movement > 0, "({cluster}, {memory}) produced no movement");
        }
    }
}

#[test]
fn energy_improves_with_the_optimization() {
    let w = by_name("radix", Scale::Tiny).unwrap();
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let opt = part.plan(&w.program, &w.data, Pool::global(), false).unwrap();
    let base = part.plan(&w.program, &w.data, Pool::global(), true).unwrap();
    let r_opt = run_schedules(&w.program, part.layout(), &opt, SimOptions::default());
    let r_base = run_schedules(&w.program, part.layout(), &base, SimOptions::default());
    assert!(
        r_opt.energy_reduction_vs(&r_base) > 0.0,
        "energy should drop: {} vs {}",
        r_opt.energy.total(),
        r_base.energy.total()
    );
}

#[test]
fn instance_tracking_supports_figure_13() {
    let w = by_name("lu", Scale::Tiny).unwrap();
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let opt = part.plan(&w.program, &w.data, Pool::global(), false).unwrap();
    let base = part.plan(&w.program, &w.data, Pool::global(), true).unwrap();
    let track = SimOptions { track_instances: true, ..SimOptions::default() };
    let r_opt = run_schedules(&w.program, part.layout(), &opt, track);
    let r_base = run_schedules(&w.program, part.layout(), &base, track);
    let (avg, max) = r_opt.per_instance_reduction_vs(&r_base);
    assert!(avg > 0.0, "average per-statement reduction should be positive: {avg}");
    assert!(max >= avg);
    assert!(max <= 1.0);
}
