//! Plan explainer: show exactly how the partitioner splits one statement —
//! the textual form of the paper's Figures 6 and 8 — and dump the first
//! instances of the schedule as Graphviz DOT.
//!
//! Run with: `cargo run -p dmcp --example plan_explain -- [name] [instance]`
//! (defaults: lu 0). Pass `--gap` to print each nest's data-movement lower
//! bound (`dmcp::bound`) next to the planner's movement.

use dmcp::bound::gap_report;
use dmcp::core::explain::{explain_instance, schedule_to_dot};
use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::MachineConfig;
use dmcp::workloads::{by_name, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let show_gap = args.iter().any(|a| a == "--gap");
    let mut pos = args.iter().filter(|a| !a.starts_with("--"));
    let name = pos.next().cloned().unwrap_or_else(|| "lu".to_string());
    let instance: u64 = pos.next().and_then(|s| s.parse().ok()).unwrap_or(0);
    let Some(w) = by_name(&name, Scale::Tiny) else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(1);
    };
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
    let out = part.plan(&w.program, &w.data, false).expect("plans");
    let schedule = &out.nests[0].schedule;

    println!("== {} ==", w.name);
    println!(
        "source nest:\n{}",
        dmcp::ir::display::nest_to_string(&w.program.nests()[0], &w.program)
    );
    for k in instance..instance + 4 {
        if let Some(text) = explain_instance(schedule, &w.program, 0, k) {
            print!("{text}");
        }
    }
    if show_gap {
        let gap = gap_report(w.name, &w.program, &part, &w.data, &out);
        println!("\noptimality gap (movement vs provable lower bound):");
        for (nb, movement) in &gap.nests {
            println!(
                "  nest {}: movement {} >= bound {} ({} instances, {} chargeable leaves)",
                nb.nest, movement, nb.bound, nb.instances, nb.chargeable_leaves
            );
        }
        println!(
            "  total: movement {} / bound {} = {:.2}x{}",
            gap.planner_movement,
            gap.bound,
            gap.gap_ratio(),
            if gap.sound() { "" } else { "  SOUNDNESS VIOLATION" }
        );
    }
    println!("\nGraphviz of the first two instances (pipe into `dot -Tsvg`):\n");
    print!("{}", schedule_to_dot(schedule, 2));
}
