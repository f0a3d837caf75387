//! NoC heatmap: visualise where compute and traffic concentrate on the mesh
//! under the default placement vs the partitioned schedule.
//!
//! Run with: `cargo run -p dmcp --example noc_heatmap -- [name]`
//! (default: radix)

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::MachineConfig;
use dmcp::pool::Pool;
use dmcp::sim::viz::{link_heatmap, node_heatmap};
use dmcp::sim::{Engine, SimOptions};
use dmcp::workloads::{by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "radix".to_string());
    let Some(w) = by_name(&name, Scale::Small) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    };
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());

    for (label, out) in [
        ("default placement", part.plan(&w.program, &w.data, Pool::global(), true).expect("plans")),
        ("partitioned", part.plan(&w.program, &w.data, Pool::global(), false).expect("plans")),
    ] {
        let mut engine = Engine::new(&w.program, part.layout(), SimOptions::default());
        for nest in &out.nests {
            engine.run(&nest.schedule);
        }
        let report = engine.report();
        println!("== {} — {label} ==", w.name);
        println!(
            "exec {:.0} cycles, movement {} links, net avg latency {:.1}",
            report.exec_time, report.movement, report.net_avg_latency
        );
        println!("node utilization:");
        print!("{}", node_heatmap(&engine, machine.mesh));
        println!("link congestion:");
        print!("{}", link_heatmap(&engine, machine.mesh));
        println!();
    }
}
