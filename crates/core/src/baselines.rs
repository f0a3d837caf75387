//! Baseline placement strategies the paper compares against.
//!
//! - [`locality_assignment`] — the paper's **default** computation
//!   placement (Section 6.1): the iteration space is divided into chunks
//!   and each chunk is assigned, using profile data, to the core that is
//!   most beneficial from an LLC/MC-locality viewpoint. This is the
//!   highly-optimized iteration-granularity baseline every improvement in
//!   the paper is measured against.
//! - [`preferred_mc_overrides`] — the profile-based **data-to-MC mapping**
//!   of Section 6.5 / Figure 23: each memory page is re-homed to the
//!   controller preferred by the cores that access it. Can be combined
//!   with the computation partitioner (the "combined" bar of Figure 23).
//!
//! Both are profile-driven: they walk the program's reference stream once
//! (the profiling run) before placement is fixed.

use crate::Layout;
use dmcp_ir::program::{DataStore, Program};
use dmcp_mach::NodeId;
use std::collections::HashMap;

/// Computes the locality-optimized chunk→core assignment for `nest_index`,
/// one entry per iteration.
///
/// The iteration space is split into `node_count` contiguous chunks; the
/// profile records which L2 banks each chunk touches, and chunks greedily
/// pick their cheapest core, each core taking one chunk per round (keeping
/// the iteration load balanced like the paper's default).
pub fn locality_assignment(
    program: &Program,
    layout: &Layout,
    data: &DataStore,
    nest_index: usize,
) -> Vec<NodeId> {
    let nest = &program.nests()[nest_index];
    let nodes: Vec<NodeId> = layout.machine().mesh.nodes().collect();
    let iters = nest.iteration_count();
    if iters == 0 {
        return vec![nodes[0]];
    }
    let chunk_size = iters.div_ceil(nodes.len() as u64).max(1);
    let chunk_count = iters.div_ceil(chunk_size) as usize;

    // Profile: per chunk, the per-node total distance to all touched homes.
    let mut cost = vec![vec![0u64; nodes.len()]; chunk_count];
    for (it, iter) in nest.iterations().enumerate() {
        let chunk = it / chunk_size as usize;
        for stmt in &nest.body {
            for r in stmt.all_refs() {
                let elem = program.element_of(r, &iter, data);
                // Requester choice barely matters outside SNC-4; profile
                // from the geometric "centre" of the candidate core.
                let home = layout.locate(r.array, elem, nodes[0]).home;
                for (k, &node) in nodes.iter().enumerate() {
                    cost[chunk][k] += u64::from(node.manhattan(home));
                }
            }
        }
    }

    // Greedy matching: chunks pick their cheapest core; each core serves
    // one chunk per round.
    let mut chunk_owner = vec![nodes[0]; chunk_count];
    let mut taken = vec![false; nodes.len()];
    let mut taken_count = 0;
    for (chunk, costs) in cost.iter().enumerate() {
        if taken_count == nodes.len() {
            taken.iter_mut().for_each(|t| *t = false);
            taken_count = 0;
        }
        let best = (0..nodes.len())
            .filter(|&k| !taken[k])
            .min_by_key(|&k| (costs[k], k))
            .expect("a free node exists");
        taken[best] = true;
        taken_count += 1;
        chunk_owner[chunk] = nodes[best];
    }

    (0..iters).map(|i| chunk_owner[(i / chunk_size) as usize]).collect()
}

/// Computes the profile-based page→controller overrides of Figure 23:
/// for every page, the corner controller minimising the total distance to
/// the cores that access it (weighted by access count) under the given
/// iteration assignment.
///
/// Returns `(physical page, controller)` pairs ready for
/// [`Layout::override_page_controller`].
pub fn preferred_mc_overrides(
    program: &Program,
    layout: &Layout,
    data: &DataStore,
    nest_index: usize,
    assignment: &[NodeId],
) -> Vec<(u64, NodeId)> {
    let nest = &program.nests()[nest_index];
    let corners = layout.machine().mesh.memory_controllers();
    // page -> per-corner distance-weighted access cost
    let mut page_cost: HashMap<u64, [u64; 4]> = HashMap::new();
    for (it, iter) in nest.iterations().enumerate() {
        let core = assignment[it % assignment.len()];
        for stmt in &nest.body {
            for r in stmt.all_refs() {
                let elem = program.element_of(r, &iter, data);
                let page = layout.page_of(r.array, elem);
                let entry = page_cost.entry(page).or_insert([0; 4]);
                for (c, corner) in corners.iter().enumerate() {
                    entry[c] += u64::from(core.manhattan(*corner));
                }
            }
        }
    }
    let mut overrides: Vec<(u64, NodeId)> = page_cost
        .into_iter()
        .map(|(page, costs)| {
            let best = (0..4).min_by_key(|&c| (costs[c], c)).expect("four corners");
            (page, corners[best])
        })
        .collect();
    overrides.sort_unstable_by_key(|&(p, _)| p);
    overrides
}
