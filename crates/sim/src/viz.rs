//! Text-mode visualisation of a simulated run: node-utilization and
//! link-congestion heatmaps over the mesh, the views the paper's Figures 13
//! and 19 summarise into bars.

use crate::engine::Engine;
use dmcp_mach::{Mesh, NodeId};
use std::collections::HashMap;
use std::fmt::Write;

/// Intensity glyphs from idle to saturated.
const SHADES: [char; 7] = ['.', ':', '-', '=', '+', '#', '@'];

fn shade(value: f64, max: f64) -> char {
    if max <= 0.0 {
        return SHADES[0];
    }
    let idx = ((value / max) * (SHADES.len() - 1) as f64).round() as usize;
    SHADES[idx.min(SHADES.len() - 1)]
}

/// Renders per-node service time (compute pressure) as a mesh heatmap.
///
/// # Examples
///
/// ```
/// use dmcp_mach::Mesh;
/// use dmcp_sim::viz::node_heatmap_from;
///
/// let art = node_heatmap_from(Mesh::new(3, 2), [((0, 0).into(), 10.0)].into_iter());
/// assert!(art.contains('@'));
/// ```
pub fn node_heatmap_from(mesh: Mesh, service: impl Iterator<Item = (NodeId, f64)>) -> String {
    let map: HashMap<NodeId, f64> = service.collect();
    let max = map.values().copied().fold(0.0, f64::max);
    let mut out = String::new();
    for y in 0..mesh.rows() {
        for x in 0..mesh.cols() {
            let v = map.get(&NodeId::new(x, y)).copied().unwrap_or(0.0);
            let _ = write!(out, " {}", shade(v, max));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "(node service time; '@' = busiest, '.' = idle, max {max:.0})");
    out
}

/// Renders per-node service time of a finished engine run.
pub fn node_heatmap(engine: &Engine<'_>, mesh: Mesh) -> String {
    node_heatmap_from(mesh, engine.node_service())
}

/// Renders horizontal/vertical link loads around each node: for every tile
/// the glyph shows the hottest link touching it.
pub fn link_heatmap(engine: &Engine<'_>, mesh: Mesh) -> String {
    let mut per_node: HashMap<NodeId, f64> = HashMap::new();
    let mut max = 0.0f64;
    for (link, load) in engine.network().link_loads() {
        for n in [link.src(), link.dst()] {
            let e = per_node.entry(n).or_insert(0.0);
            *e = e.max(load);
        }
        max = max.max(load);
    }
    let mut out = String::new();
    for y in 0..mesh.rows() {
        for x in 0..mesh.cols() {
            let v = per_node.get(&NodeId::new(x, y)).copied().unwrap_or(0.0);
            let _ = write!(out, " {}", shade(v, max));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "(hottest adjacent link load; max {max:.1})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcp_core::{PartitionConfig, Partitioner};
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;
    use dmcp_pool::Pool;

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
        let mut engine =
            crate::engine::Engine::new(&p, part.layout(), crate::engine::SimOptions::default());
        for nest in &out.nests {
            engine.run(&nest.schedule);
        }
        let nodes = node_heatmap(&engine, machine.mesh);
        let links = link_heatmap(&engine, machine.mesh);
        // 6 rows of 6 glyphs plus a caption.
        assert_eq!(nodes.lines().count(), 7);
        assert_eq!(links.lines().count(), 7);
        assert!(nodes.contains('@'), "some node must be busiest:\n{nodes}");
    }

    #[test]
    fn shade_extremes() {
        assert_eq!(shade(0.0, 10.0), '.');
        assert_eq!(shade(10.0, 10.0), '@');
        assert_eq!(shade(5.0, 0.0), '.');
    }
}
