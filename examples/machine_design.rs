//! Machine design: evaluate one workload across every (cluster mode ×
//! memory mode) combination and across mesh sizes — the paper's Figure 22
//! plus a scalability extension.
//!
//! Run with: `cargo run -p dmcp --example machine_design -- [name]`
//! (default: minimd)

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::{ClusterMode, MachineConfig, Mesh};
use dmcp::mem::MemoryMode;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{by_name, Scale};

fn run(
    w: &dmcp::workloads::Workload,
    machine: &MachineConfig,
    mode: MemoryMode,
    optimized: bool,
) -> f64 {
    let part = Partitioner::new(machine, &w.program, PartitionConfig::default());
    let out = if optimized {
        part.plan(&w.program, &w.data, false).expect("plans")
    } else {
        part.plan(&w.program, &w.data, true).expect("plans")
    };
    let opts = SimOptions { memory_mode: mode, ..SimOptions::default() };
    run_schedules(&w.program, part.layout(), &out, opts).exec_time
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "minimd".to_string());
    let Some(w) = by_name(&name, Scale::Small) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    };
    println!("== {} across KNL configurations ==", w.name);
    // Normalise against the paper's reference configuration (B,X,1):
    // quadrant cluster mode, flat memory, original code.
    let reference = run(
        &w,
        &MachineConfig::knl_like().with_cluster(ClusterMode::Quadrant),
        MemoryMode::Flat,
        false,
    );
    println!("{:<24} {:>10} {:>10}", "(cluster, memory)", "original", "optimized");
    for cluster in ClusterMode::ALL {
        for memory in MemoryMode::ALL {
            let machine = MachineConfig::knl_like().with_cluster(cluster);
            let orig = run(&w, &machine, memory, false) / reference;
            let opt = run(&w, &machine, memory, true) / reference;
            println!("({}{},{})  {:>16.3} {:>10.3}", cluster.letter(), cluster, memory, orig, opt);
        }
    }

    println!("\n== mesh scalability (quadrant, flat) ==");
    for dim in [4u16, 6, 8, 10] {
        let machine = MachineConfig::knl_like().with_mesh(Mesh::new(dim, dim));
        let base = run(&w, &machine, MemoryMode::Flat, false);
        let opt = run(&w, &machine, MemoryMode::Flat, true);
        println!(
            "{dim}x{dim}: baseline {base:>9.0} cycles, optimized {opt:>9.0} cycles ({:.1}% faster)",
            100.0 * (1.0 - opt / base)
        );
    }
}
