//! Metamorphic laws: transformations that must not change (or must only
//! change in a known direction) what the system computes.
//!
//! * **Renaming** — array and loop-variable names are surface syntax.
//!   Rebuilding the same [`CaseSpec`] under fresh names must produce a
//!   bit-identical [`PartitionOutput`](dmcp_core::PartitionOutput), the
//!   same plan digest, and the same content-addressed
//!   [`PlanKey`](dmcp_serve::PlanKey).
//! * **Mesh isometries** — the eight dihedral transforms (four on proper
//!   rectangles) and in-bounds translations preserve Manhattan distance,
//!   so the oracle's MST weight and exact Steiner minimum are invariant.
//!   (For translations this relies on grid Steiner minimal trees being
//!   realizable inside the terminals' bounding box — the Hanan grid —
//!   which translates with them.)
//! * **Fault monotonicity** — killing *more* links never shortens a
//!   route and never makes an unreachable pair reachable.
//! * **Lexer totality** — arbitrary input must lex/parse to `Ok` or a
//!   typed error, never a panic.

use crate::digest::plan_digest;
use crate::gencase::{pick_node, CaseSpec};
use crate::oracle::{mst_weight, steiner_min};
use dmcp_core::Partitioner;
use dmcp_ir::lexer::tokenize;
use dmcp_ir::ProgramBuilder;
use dmcp_mach::rng::Rng64;
use dmcp_mach::symmetry::translate;
use dmcp_mach::{route_avoiding, FaultPlan, FaultState, Mesh, MeshTransform, NodeId};
use dmcp_pool::Pool;
use dmcp_serve::PlanRequest;

/// Rebuilds `spec` under fresh names and demands identical partitioner
/// output, plan digest and cache key.
pub fn check_rename(spec: &CaseSpec) -> Result<(), String> {
    let built = spec.build().map_err(|e| format!("base build: {e}"))?;
    let (arrays, vars) = spec.default_names();
    let renamed_arrays: Vec<String> =
        (0..arrays.len()).map(|k| format!("renamed_{}_{k}", arrays.len() - k)).collect();
    let renamed_vars: Vec<String> = (0..vars.len()).map(|d| format!("loopvar{d}")).collect();
    let renamed = spec
        .build_named(&renamed_arrays, &renamed_vars)
        .map_err(|e| format!("renamed build: {e}"))?;

    let out_a = Partitioner::new(&built.machine, &built.program, built.config.clone())
        .plan(&built.program, &built.data, Pool::global(), false)
        .map_err(|e| format!("base planning failed: {e}"))?;
    let out_b = Partitioner::new(&renamed.machine, &renamed.program, renamed.config.clone())
        .plan(&renamed.program, &renamed.data, Pool::global(), false)
        .map_err(|e| format!("renamed planning failed: {e}"))?;
    if out_a != out_b {
        return Err("renaming changed the partitioner output".into());
    }
    if plan_digest(&out_a) != plan_digest(&out_b) {
        return Err("renaming changed the plan digest".into());
    }

    let key_a =
        PlanRequest::new(built.program, built.machine, built.config).with_data(built.data).key();
    let key_b = PlanRequest::new(renamed.program, renamed.machine, renamed.config)
        .with_data(renamed.data)
        .key();
    if key_a != key_b {
        return Err(format!("renaming changed the cache key: {key_a:?} vs {key_b:?}"));
    }
    Ok(())
}

/// Meshes the isometry sweep samples (kept small so the Steiner DP stays
/// cheap).
const ISO_MESHES: [(u16, u16); 4] = [(2, 2), (3, 2), (3, 3), (4, 4)];

/// Random terminal sets must have distance-invariant MST weight and
/// Steiner minimum under every mesh isometry and in-bounds translation.
pub fn check_isometry(rng: &mut Rng64) -> Result<(), String> {
    let (cols, rows) = ISO_MESHES[rng.gen_range(ISO_MESHES.len() as u64) as usize];
    let mesh = Mesh::new(cols, rows);
    let k = 2 + rng.gen_range(5) as usize; // 2..=6 terminals
    let terms: Vec<NodeId> = (0..k).map(|_| pick_node(rng, &mesh)).collect();
    let mst = mst_weight(&terms);
    let steiner = steiner_min(&mesh, &terms);

    for t in MeshTransform::for_mesh(mesh) {
        let out_mesh = t.output_mesh(mesh);
        let mapped: Vec<NodeId> = terms.iter().map(|&n| t.apply(mesh, n)).collect();
        let m2 = mst_weight(&mapped);
        let s2 = steiner_min(&out_mesh, &mapped);
        if m2 != mst || s2 != steiner {
            return Err(format!(
                "isometry {t:?} on {cols}x{rows} changed weights: mst {mst}→{m2}, \
                 steiner {steiner}→{s2}, terminals {terms:?}"
            ));
        }
    }

    let dx = rng.gen_range(5) as i32 - 2;
    let dy = rng.gen_range(5) as i32 - 2;
    let shifted: Option<Vec<NodeId>> = terms.iter().map(|&n| translate(mesh, n, dx, dy)).collect();
    if let Some(shifted) = shifted {
        let m2 = mst_weight(&shifted);
        let s2 = steiner_min(&mesh, &shifted);
        if m2 != mst || s2 != steiner {
            return Err(format!(
                "translation ({dx},{dy}) on {cols}x{rows} changed weights: mst {mst}→{m2}, \
                 steiner {steiner}→{s2}, terminals {terms:?}"
            ));
        }
    }
    Ok(())
}

/// Adds random extra dead links to a fault plan and checks that no route
/// gets shorter and no unreachable pair becomes reachable.
pub fn check_fault_monotonicity(rng: &mut Rng64) -> Result<(), String> {
    let (cols, rows) = [(3u16, 3u16), (4, 3), (4, 4), (6, 6)][rng.gen_range(4) as usize];
    let mesh = Mesh::new(cols, rows);
    let dead_frac = [0.0, 0.1, 0.2][rng.gen_range(3) as usize];
    let plan = FaultPlan::random(mesh, dead_frac, 0.1, 0.0, 0.0, rng.next_u64());
    let Ok(f1) = FaultState::new(plan.clone(), mesh) else {
        return Ok(());
    };

    let mut worse = plan.clone();
    for _ in 0..1 + rng.gen_range(4) {
        let a = pick_node(rng, &mesh);
        let b = match rng.gen_range(4) {
            0 => NodeId::new(a.x().wrapping_add(1), a.y()),
            1 => NodeId::new(a.x().wrapping_sub(1), a.y()),
            2 => NodeId::new(a.x(), a.y().wrapping_add(1)),
            _ => NodeId::new(a.x(), a.y().wrapping_sub(1)),
        };
        if mesh.contains(b) {
            worse.kill_link(a, b);
        }
    }
    let Ok(f2) = FaultState::new(worse, mesh) else {
        return Ok(());
    };

    for src in mesh.nodes() {
        for dst in mesh.nodes() {
            match (route_avoiding(src, dst, &f1), route_avoiding(src, dst, &f2)) {
                (Ok(r1), Ok(r2)) if r1.len() > r2.len() => {
                    return Err(format!(
                        "killing links SHORTENED the route {src:?}→{dst:?}: \
                         {} links → {} links",
                        r1.len(),
                        r2.len()
                    ));
                }
                (Err(e), Ok(_)) => {
                    return Err(format!(
                        "killing links made {src:?}→{dst:?} reachable (was {e:?})"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Feeds a random byte soup through the lexer and the statement parser.
/// Any `Result` is fine; only a panic (caught by the harness) fails.
pub fn check_lexer_total(rng: &mut Rng64) {
    const POOL: &[char] = &[
        'a', 'b', 'i', 'x', '0', '1', '9', '[', ']', '(', ')', '+', '-', '*', '/', '&', '|', '^',
        '<', '>', '=', ' ', '_', ';', ',', '.', '~', '!', '#', '%', '"', '\'', '{', '}', '\n',
        '\t', '\\', '€', 'λ', '∀',
    ];
    let len = rng.gen_range(48) as usize;
    let s: String = (0..len).map(|_| POOL[rng.gen_range(POOL.len() as u64) as usize]).collect();
    let _ = tokenize(&s);
    let mut b = ProgramBuilder::new();
    b.array("a", &[8], 8);
    let _ = b.nest(&[("i", 0, 2)], &[&s]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::gen_mask_case;

    #[test]
    fn rename_law_holds_over_a_sweep() {
        let mut rng = Rng64::new(8);
        for _ in 0..10 {
            let spec = gen_mask_case(&mut rng, 160);
            check_rename(&spec).unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
    }

    #[test]
    fn isometry_law_holds_over_a_sweep() {
        let mut rng = Rng64::new(9);
        for _ in 0..40 {
            check_isometry(&mut rng).expect("isometry law");
        }
    }

    #[test]
    fn fault_monotonicity_holds_over_a_sweep() {
        let mut rng = Rng64::new(10);
        for _ in 0..25 {
            check_fault_monotonicity(&mut rng).expect("monotonicity law");
        }
    }

    #[test]
    fn lexer_and_parser_survive_byte_soup() {
        let mut rng = Rng64::new(11);
        for _ in 0..300 {
            check_lexer_total(&mut rng);
        }
    }
}
