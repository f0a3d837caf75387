//! Quickstart: partition one loop nest and compare against the default
//! placement — the paper's Figure 3 scenario, end to end.
//!
//! Run with: `cargo run -p dmcp --example quickstart`

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::ir::ProgramBuilder;
use dmcp::mach::MachineConfig;
use dmcp::sim::{run_schedules, SimOptions};

fn main() {
    // The paper's running example: A(i) = B(i) + C(i) + D(i) + E(i),
    // swept a few times so the on-chip caches warm up.
    let mut b = ProgramBuilder::new();
    for name in ["A", "B", "C", "D", "E"] {
        b.array(name, &[1024], 64);
    }
    b.nest(&[("t", 0, 4), ("i", 0, 1024)], &["A[i] = B[i] + C[i] + D[i] + E[i]"])
        .expect("statement parses");
    let program = b.build();

    let machine = MachineConfig::knl_like();
    println!(
        "machine: {}x{} mesh, {} cluster mode",
        machine.mesh.cols(),
        machine.mesh.rows(),
        machine.cluster
    );

    let partitioner = Partitioner::new(&machine, &program, PartitionConfig::default());
    let data = program.initial_data();

    let optimized = partitioner.plan(&program, &data, false).expect("plans");
    let baseline = partitioner.plan(&program, &data, true).expect("plans");
    println!(
        "planned movement: default {} links, optimized {} links ({:.1}% less), window sizes {:?}",
        optimized.movement_default(),
        optimized.movement_opt(),
        100.0 * (1.0 - optimized.movement_opt() as f64 / optimized.movement_default() as f64),
        optimized.window_sizes(),
    );

    let r_base = run_schedules(&program, partitioner.layout(), &baseline, SimOptions::default());
    let r_opt = run_schedules(&program, partitioner.layout(), &optimized, SimOptions::default());
    println!(
        "simulated: baseline {:.0} cycles / {} links, optimized {:.0} cycles / {} links",
        r_base.exec_time, r_base.movement, r_opt.exec_time, r_opt.movement
    );
    println!(
        "execution time reduction {:.1}%, movement reduction {:.1}%, L1 hit rate {:.1}% -> {:.1}%",
        100.0 * r_opt.time_reduction_vs(&r_base),
        100.0 * r_opt.movement_reduction_vs(&r_base),
        100.0 * r_base.l1_hit_rate(),
        100.0 * r_opt.l1_hit_rate(),
    );

    // Correctness: the partitioned schedule computes the same values.
    let mut got = program.initial_data();
    for nest in &optimized.nests {
        nest.schedule.execute_values(&mut got);
    }
    let mut want = program.initial_data();
    dmcp::ir::exec::run_sequential(&program, &mut want);
    assert!(got.approx_eq(&want, 1e-9));
    println!("numerical check: partitioned schedule matches sequential execution");
}
