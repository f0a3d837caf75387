//! Kernel explorer: run any of the paper's 12 workloads end to end and
//! print every headline metric (movement, time, L1, syncs, parallelism,
//! energy) against the locality-optimized default.
//!
//! Run with: `cargo run -p dmcp --example kernel_explorer -- [name]`
//! (default: ocean)

use dmcp::baselines::locality_assignment;
use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::MachineConfig;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ocean".to_string());
    let Some(w) = by_name(&name, Scale::Small) else {
        eprintln!("unknown workload `{name}`; try one of the 12 paper applications");
        std::process::exit(1);
    };
    println!("== {} ==", w.name);
    println!(
        "analyzable references: {:.1}% (paper Table 1: {:.1}%)",
        100.0 * w.program.static_analyzability(),
        100.0 * w.paper.analyzable
    );

    let machine = MachineConfig::knl_like();
    // Profile-guided default assignment (the paper's baseline).
    let scout = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let assignment = locality_assignment(&w.program, scout.layout(), &w.data, 0);
    let cfg = PartitionConfig { assignment: Some(assignment), ..PartitionConfig::default() };
    let partitioner = Partitioner::new(&machine, &w.program, cfg);

    let optimized = partitioner.plan(&w.program, &w.data, false).expect("plans");
    let baseline = partitioner.plan(&w.program, &w.data, true).expect("plans");
    println!(
        "window sizes per nest: {:?}; subcomputation parallelism avg {:.2} / max {}",
        optimized.window_sizes(),
        optimized.avg_parallelism(),
        optimized.max_parallelism()
    );
    println!(
        "synchronizations per statement after minimisation: {:.2}",
        optimized.syncs_per_statement()
    );
    let mix = optimized.remapped();
    let (a, m, o) = mix.fractions();
    println!(
        "re-mapped op mix: add/sub {:.1}%, mul/div {:.1}%, other {:.1}% (paper Table 3: {:.1}/{:.1}/{:.1})",
        100.0 * a, 100.0 * m, 100.0 * o,
        100.0 * w.paper.op_mix.0, 100.0 * w.paper.op_mix.1, 100.0 * w.paper.op_mix.2
    );

    let r_base = run_schedules(&w.program, partitioner.layout(), &baseline, SimOptions::default());
    let r_opt = run_schedules(&w.program, partitioner.layout(), &optimized, SimOptions::default());
    println!(
        "movement reduction {:.1}%  |  exec-time reduction {:.1}% (paper Fig 17 ~{:.0}%)",
        100.0 * r_opt.movement_reduction_vs(&r_base),
        100.0 * r_opt.time_reduction_vs(&r_base),
        100.0 * w.paper.fig17_exec_reduction
    );
    println!(
        "L1 hit rate {:.1}% -> {:.1}%  |  predictor accuracy {:.1}% (paper Table 2: {:.1}%)",
        100.0 * r_base.l1_hit_rate(),
        100.0 * r_opt.l1_hit_rate(),
        100.0 * r_opt.predictor_accuracy,
        100.0 * w.paper.predictor_accuracy
    );
    println!(
        "energy reduction {:.1}%  |  network latency avg {:.1} -> {:.1} cycles",
        100.0 * r_opt.energy_reduction_vs(&r_base),
        r_base.net_avg_latency,
        r_opt.net_avg_latency
    );
}
