//! NoC heatmap: visualise where compute and traffic concentrate on the mesh
//! under the default placement vs the partitioned schedule — the
//! node-utilization and link-congestion views the paper's Figures 13 and
//! 19 summarise into bars.
//!
//! Run with: `cargo run -p dmcp --example noc_heatmap -- [name]`
//! (default: radix)

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::{MachineConfig, Mesh, NodeId};
use dmcp::pool::Pool;
use dmcp::sim::{Engine, Network, SimOptions};
use dmcp::workloads::{by_name, Scale};
use std::fmt::Write;

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
        print!("{}", node_heatmap(machine.mesh, engine.node_service()));
        println!("link congestion:");
        print!("{}", link_heatmap(machine.mesh, engine.network()));
        println!();
    }
}

/// Intensity glyphs from idle to saturated.
const SHADES: [char; 7] = ['.', ':', '-', '=', '+', '#', '@'];

fn shade(value: f64, max: f64) -> char {
    if max <= 0.0 {
        return SHADES[0];
    }
    let idx = ((value / max) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx.min(SHADES.len() - 1)]
}

/// One glyph per mesh node, row by row: `values[node index]` shaded
/// against `max`.
fn grid(mesh: Mesh, values: &[f64], max: f64) -> String {
    let mut out = String::new();
    for y in 0..mesh.rows() {
        for x in 0..mesh.cols() {
            let v = values[mesh.node_index(NodeId::new(x, y)) as usize];
            let _ = write!(out, " {}", shade(v, max));
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders per-node service time (compute pressure) as a mesh heatmap;
/// nodes `service` does not name count as idle.
fn node_heatmap(mesh: Mesh, service: impl Iterator<Item = (NodeId, f64)>) -> String {
    let mut values = vec![0.0; mesh.node_count() as usize];
    for (node, time) in service {
        values[mesh.node_index(node) as usize] = time;
    }
    let max = values.iter().copied().fold(0.0, f64::max);
    let mut out = grid(mesh, &values, max);
    let _ = writeln!(out, "(node service time; '@' = busiest, '.' = idle, max {max:.0})");
    out
}

/// Renders horizontal/vertical link loads around each node: for every tile
/// the glyph shows the hottest link touching it.
fn link_heatmap(mesh: Mesh, network: &Network) -> String {
    let mut values = vec![0.0f64; mesh.node_count() as usize];
    let mut max = 0.0f64;
    for (link, load) in network.link_loads() {
        for n in [link.src(), link.dst()] {
            let v = &mut values[mesh.node_index(n) as usize];
            *v = v.max(load);
        }
        max = max.max(load);
    }
    let mut out = grid(mesh, &values, max);
    let _ = writeln!(out, "(hottest adjacent link load; max {max:.1})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp::ir::ProgramBuilder;

    #[test]
    fn heatmaps_render_for_a_real_run() {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C"] {
            b.array(n, &[256], 64);
        }
        b.nest(&[("i", 0, 128)], &["A[i] = B[i] + C[i]"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = part.plan(&p, &p.initial_data(), Pool::global(), false).unwrap();
        let mut engine = Engine::new(&p, part.layout(), SimOptions::default());
        for nest in &out.nests {
            engine.run(&nest.schedule);
        }
        let nodes = node_heatmap(machine.mesh, engine.node_service());
        let links = link_heatmap(machine.mesh, engine.network());
        // 6 rows of 6 glyphs plus a caption.
        assert_eq!(nodes.lines().count(), 7);
        assert_eq!(links.lines().count(), 7);
        assert!(nodes.contains('@'), "some node must be busiest:\n{nodes}");
    }

    #[test]
    fn node_heatmap_marks_the_busiest_node() {
        let art = node_heatmap(Mesh::new(3, 2), [((0, 0).into(), 10.0)].into_iter());
        assert!(art.contains('@'));
    }

    #[test]
    fn shade_extremes() {
        assert_eq!(shade(0.0, 10.0), '.');
        assert_eq!(shade(10.0, 10.0), '@');
        assert_eq!(shade(5.0, 0.0), '.');
    }
}
