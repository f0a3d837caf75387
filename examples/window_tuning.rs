//! Window tuning: sweep the statement-window sizes 1..8 on one workload —
//! the paper's Figure 20 experiment for a single application. The planner
//! plans every nest at one window (`*` marks the default); the paper's
//! per-nest search over 1..8 is not implemented (DESIGN.md §7.12).
//!
//! Run with: `cargo run -p dmcp --example window_tuning -- [name]`
//! (default: fft)

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::MachineConfig;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{by_name, Scale};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "fft".to_string());
    let Some(w) = by_name(&name, Scale::Small) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    };
    let machine = MachineConfig::knl_like();

    let base_part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let baseline = base_part.plan(&w.program, &w.data, true).expect("plans");
    let r_base = run_schedules(&w.program, base_part.layout(), &baseline, SimOptions::default());
    println!("== {} == (baseline {:.0} cycles)", w.name, r_base.exec_time);
    println!("{:<10} {:>14} {:>12} {:>10}", "window", "exec-reduction", "movement", "L1 rate");

    let default = PartitionConfig::default().window;
    for window in PartitionConfig::WINDOWS {
        let cfg = PartitionConfig { window, ..PartitionConfig::default() };
        let part = Partitioner::new(&machine, &w.program, cfg);
        let out = part.plan(&w.program, &w.data, false).expect("plans");
        let r = run_schedules(&w.program, part.layout(), &out, SimOptions::default());
        println!(
            "{:<10} {:>13.1}% {:>12} {:>9.1}%",
            format!("{window}{}", if window == default { "*" } else { "" }),
            100.0 * r.time_reduction_vs(&r_base),
            r.movement,
            100.0 * r.l1_hit_rate()
        );
    }
}
