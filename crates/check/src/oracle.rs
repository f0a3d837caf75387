//! The exact-schedule oracle.
//!
//! For a flat reorderable chain `d[c] = a0[c0] + a1[c1] + … + ak[ck]`
//! planned with the hit-everything predictor and reuse awareness off, the
//! planner's Eq.-1 movement equals the Kruskal MST weight over the
//! operand home nodes plus the store home: each operand has exactly one
//! candidate site (its believed primary), the preorder node assignment
//! puts every combining step at its vertex's home (root overridden to the
//! store home), and each MST edge is therefore paid exactly once.
//!
//! The *exact* minimum over every operand-ordering and combining-tree
//! node assignment is the Steiner-tree minimum over the same terminal
//! set: any combining schedule traces a connected subgraph spanning the
//! terminals, and any Steiner tree rooted at the store can be executed
//! bottom-up as a combining schedule of equal cost. We compute it with
//! the Dreyfus–Wagner DP (and validate the DP against a literal
//! combining-schedule enumerator in unit tests).
//!
//! The oracle therefore asserts, per generated statement:
//!
//! ```text
//! steiner_min ≤ movement_opt           (the planner never beats exact)
//! movement_opt == mst_weight           (the MST bound, bit-for-bit)
//! ```
//!
//! The second assertion is "bit-equal for 2-operand statements"
//! strengthened to every flat chain — for k = 2 the MST *is* the exact
//! schedule, so equality there follows from both lines.

use crate::gencase::pick_node;
use dmcp_core::bound::bound_nest;
use dmcp_core::partitioner::PredictorSpec;
use dmcp_core::{
    place_nest, resolve_nest, HitPredictor, PartitionConfig, Partitioner, PlanOptions,
};
use dmcp_ir::ProgramBuilder;
use dmcp_mach::rng::Rng64;
use dmcp_mach::{MachineConfig, Mesh, NodeId};

// The MST and Dreyfus–Wagner Steiner kernels were promoted to
// `dmcp_mach::graph` so the lower bound shares the oracle-validated
// implementation; these re-exports keep the historical
// `crate::oracle::{mst_weight, steiner_min}` paths working.
pub use dmcp_mach::graph::{mst_weight, steiner_min};

/// Meshes the oracle runs on (≤ 3×3 per the DP budget; the partitioner
/// needs at least four nodes).
const ORACLE_MESHES: [(u16, u16); 4] = [(2, 2), (3, 2), (2, 3), (3, 3)];

/// One oracle verdict, reported on failure.
#[derive(Debug)]
pub struct OracleOutcome {
    /// Operand count.
    pub k: usize,
    /// Planner movement for the statement (Eq. 1 units).
    pub movement_opt: u64,
    /// Independent MST weight over {operand homes} ∪ {store home}.
    pub mst: u64,
    /// Exact Steiner minimum over the same terminals.
    pub steiner: u64,
}

/// Generates one flat-chain statement on a small mesh, plans it through
/// the real planner ([`resolve_nest`] then [`place_nest`]), and checks the
/// movement sandwich. Returns a human-readable report on violation.
pub fn check_oracle_case(rng: &mut Rng64) -> Result<OracleOutcome, String> {
    let (cols, rows) = ORACLE_MESHES[rng.gen_range(ORACLE_MESHES.len() as u64) as usize];
    let mesh = Mesh::new(cols, rows);
    let k = 2 + rng.gen_range(4) as usize; // 2..=5 operands
    let len = [16u64, 64, 256, 1024][rng.gen_range(4) as usize];

    let mut b = ProgramBuilder::new();
    let mut src = Vec::new();
    let mut subs = Vec::new();
    for i in 0..k {
        src.push(b.array(format!("s{i}"), &[len], 8));
        subs.push(rng.gen_range(len));
    }
    let dst = b.array("d", &[len], 8);
    let dsub = rng.gen_range(len);
    let rhs: Vec<String> = (0..k).map(|i| format!("s{i}[{}]", subs[i])).collect();
    let stmt = format!("d[{dsub}] = {}", rhs.join(" + "));
    b.nest(&[("i", 0, 1)], &[&stmt]).map_err(|e| format!("oracle build: {e:?}"))?;
    let program = b.build();

    let machine = MachineConfig::knl_like().with_mesh(mesh);
    let config =
        PartitionConfig { predictor: PredictorSpec::AlwaysHit, ..PartitionConfig::default() };
    let part = Partitioner::new(&machine, &program, config);
    let layout = part.layout();
    let data = program.initial_data();
    let core = pick_node(rng, &mesh);

    let opts = PlanOptions { reuse_aware: false, ..PlanOptions::default() };
    let resolution =
        resolve_nest(&program, 0, layout, &data, HitPredictor::AlwaysHit, opts, &[core]);
    let plan = place_nest(&resolution, layout, opts, 1, false);
    let rec = &plan.stats.records[0];

    // Terminals: believed operand primaries (AlwaysHit ⇒ the home bank)
    // plus the real store home.
    let mut terminals: Vec<NodeId> =
        (0..k).map(|i| layout.believed(src[i], subs[i], core).home).collect();
    terminals.push(layout.locate(dst, dsub, core).home);

    let outcome = OracleOutcome {
        k,
        movement_opt: rec.movement_opt,
        mst: mst_weight(&terminals),
        steiner: steiner_min(&mesh, &terminals),
    };

    // Cross-validate the lower bound of the resolution just placed against
    // the exact floor: in the oracle regime (single fresh instance,
    // always-hit predictor) its option groups collapse to exactly these
    // terminals, so the nest bound must equal the Steiner minimum — and
    // can never exceed it.
    let bound_config = PartitionConfig { opts, ..part.config().clone() };
    let nb = bound_nest(&program, &resolution, layout, &bound_config);
    if nb.bound != outcome.steiner {
        return Err(format!(
            "lower bound {} diverged from the exact Steiner floor {}: stmt `{stmt}` on \
             {cols}x{rows}, core {core:?}, terminals {terminals:?}, {nb:?}",
            nb.bound, outcome.steiner
        ));
    }
    if rec.fallback {
        return Err(format!("oracle statement unexpectedly fell back: {stmt}"));
    }
    if outcome.movement_opt < outcome.steiner {
        return Err(format!(
            "planner beat the exact schedule ({} < {}): impossible — accounting bug. \
             stmt `{stmt}` on {cols}x{rows}, core {core:?}, terminals {terminals:?}, {outcome:?}",
            outcome.movement_opt, outcome.steiner
        ));
    }
    if outcome.movement_opt != outcome.mst {
        return Err(format!(
            "planner missed its MST bound ({} != {}): stmt `{stmt}` on {cols}x{rows}, \
             core {core:?}, terminals {terminals:?}, {outcome:?}",
            outcome.movement_opt, outcome.mst
        ));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Literal enumeration of every combining schedule: any two live
    /// components may combine at any mesh node (cost = both distances),
    /// and the last component ships to the store. This is the definition
    /// the DP must match.
    fn brute_combine_min(mesh: &Mesh, operands: &[NodeId], store: NodeId) -> u64 {
        fn go(
            mesh: &Mesh,
            mut comp: Vec<(u16, u16)>,
            store: NodeId,
            memo: &mut HashMap<Vec<(u16, u16)>, u64>,
        ) -> u64 {
            comp.sort_unstable();
            if comp.len() == 1 {
                let p = NodeId::new(comp[0].0, comp[0].1);
                return u64::from(p.manhattan(store));
            }
            if let Some(&v) = memo.get(&comp) {
                return v;
            }
            let mut best = u64::MAX;
            for i in 0..comp.len() {
                for j in i + 1..comp.len() {
                    for site in mesh.nodes() {
                        let a = NodeId::new(comp[i].0, comp[i].1);
                        let b = NodeId::new(comp[j].0, comp[j].1);
                        let cost = u64::from(a.manhattan(site)) + u64::from(b.manhattan(site));
                        let mut rest: Vec<(u16, u16)> = comp
                            .iter()
                            .enumerate()
                            .filter(|&(k, _)| k != i && k != j)
                            .map(|(_, &p)| p)
                            .collect();
                        rest.push((site.x(), site.y()));
                        let total = cost + go(mesh, rest, store, memo);
                        if total < best {
                            best = total;
                        }
                    }
                }
            }
            memo.insert(comp, best);
            best
        }
        go(mesh, operands.iter().map(|p| (p.x(), p.y())).collect(), store, &mut HashMap::new())
    }

    #[test]
    fn steiner_dp_matches_literal_schedule_enumeration() {
        let mut rng = Rng64::new(99);
        for (cols, rows) in [(2u16, 2u16), (3, 2), (3, 3)] {
            let mesh = Mesh::new(cols, rows);
            for _ in 0..12 {
                let k = 2 + rng.gen_range(2) as usize; // 2..=3 operands
                let ops: Vec<NodeId> = (0..k).map(|_| pick_node(&mut rng, &mesh)).collect();
                let store = pick_node(&mut rng, &mesh);
                let mut terms = ops.clone();
                terms.push(store);
                assert_eq!(
                    steiner_min(&mesh, &terms),
                    brute_combine_min(&mesh, &ops, store),
                    "ops {ops:?} store {store:?} on {cols}x{rows}"
                );
            }
        }
    }

    #[test]
    fn oracle_holds_over_a_seed_sweep() {
        let mut rng = Rng64::new(2024);
        for _ in 0..60 {
            check_oracle_case(&mut rng).expect("oracle case");
        }
    }
}
