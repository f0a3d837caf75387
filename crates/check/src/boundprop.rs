//! Properties of the movement lower bounds ([`dmcp_core::bound`]).
//!
//! * **Soundness** — on every generated case, healthy *and* degraded, the
//!   per-nest lower bound never exceeds the planner's reported optimized
//!   movement. A violation means either the bound over-charges or the
//!   planner under-accounts; both are bugs worth a shrunken case.
//! * **Rename invariance** — the bound is computed from line addresses,
//!   home nodes and analyzability, none of which may depend on surface
//!   names. Rebuilding a spec under fresh names must reproduce every
//!   [`NestBound`] bit for bit.
//! * **Isometry invariance** — the set-kernels the bound is built from
//!   (max pairwise group distance, set MST, exact group Steiner) are pure
//!   functions of Manhattan distances, so every mesh dihedral transform
//!   and in-bounds translation must preserve them, exactly as
//!   [`crate::meta::check_isometry`] demands of the point kernels.

use crate::gencase::{pick_node, CaseSpec};
use dmcp_core::bound::{bound_program, gap_report, NestBound};
use dmcp_core::Partitioner;
use dmcp_mach::graph::{max_pairwise_sets, mst_weight_sets, steiner_min_sets};
use dmcp_mach::rng::Rng64;
use dmcp_mach::symmetry::translate;
use dmcp_mach::{FaultState, Mesh, MeshTransform, NodeId};

/// Plans a built case and demands `bound ≤ movement_opt` per nest and in
/// total, healthy first, then (when the spec carries faults) degraded.
pub fn check_bound_sound(spec: &CaseSpec) -> Result<(), String> {
    let built = spec.build()?;
    let part = Partitioner::new(&built.machine, &built.program, built.config.clone());
    let out = part
        .plan(&built.program, &built.data, false)
        .map_err(|e| format!("healthy planning failed: {e}"))?;
    let report = gap_report("healthy", &built.program, &part, &built.data, &out);
    if !report.sound() {
        return Err(format!(
            "healthy bound {} exceeds planner movement {} (per nest: {:?})",
            report.bound,
            report.planner_movement,
            report.nests.iter().map(|(nb, m)| (nb.nest, nb.bound, *m)).collect::<Vec<_>>()
        ));
    }

    let Some(plan) = &built.faults else {
        return Ok(());
    };
    let Ok(state) = FaultState::new(plan.clone(), built.machine.mesh) else {
        return Ok(()); // no live nodes: nothing to plan, nothing to bound
    };
    let Ok(dpart) =
        Partitioner::new_degraded(&built.machine, &built.program, built.config.clone(), &state)
    else {
        return Ok(());
    };
    let dout = dpart
        .plan(&built.program, &built.data, false)
        .map_err(|e| format!("degraded planning failed: {e}"))?;
    let dreport = gap_report("degraded", &built.program, &dpart, &built.data, &dout);
    if !dreport.sound() {
        return Err(format!(
            "degraded bound {} exceeds planner movement {} (per nest: {:?})",
            dreport.bound,
            dreport.planner_movement,
            dreport.nests.iter().map(|(nb, m)| (nb.nest, nb.bound, *m)).collect::<Vec<_>>()
        ));
    }
    Ok(())
}

/// Rebuilds `spec` under fresh names and demands bit-identical bounds.
pub fn check_bound_rename(spec: &CaseSpec) -> Result<(), String> {
    let built = spec.build().map_err(|e| format!("base build: {e}"))?;
    let (arrays, vars) = spec.default_names();
    let renamed_arrays: Vec<String> =
        (0..arrays.len()).map(|k| format!("bound_renamed_{k}")).collect();
    let renamed_vars: Vec<String> = (0..vars.len()).map(|d| format!("bv{d}")).collect();
    let renamed = spec
        .build_named(&renamed_arrays, &renamed_vars)
        .map_err(|e| format!("renamed build: {e}"))?;

    let bounds_of = |b: &crate::gencase::BuiltCase| -> Vec<NestBound> {
        let part = Partitioner::new(&b.machine, &b.program, b.config.clone());
        bound_program(&b.program, &part, &b.data)
    };
    let a = bounds_of(&built);
    let b = bounds_of(&renamed);
    if a != b {
        return Err(format!("renaming changed the nest bounds: {a:?} vs {b:?}"));
    }
    Ok(())
}

/// Meshes the set-kernel isometry sweep samples (small enough for the
/// group-Steiner DP).
const ISO_MESHES: [(u16, u16); 3] = [(2, 2), (3, 2), (3, 3)];

/// Random option groups must have distance-invariant set kernels (max
/// pairwise, set MST, exact group Steiner) under every mesh isometry and
/// in-bounds translation — the set-level mirror of the point-kernel law.
pub fn check_bound_isometry(rng: &mut Rng64) -> Result<(), String> {
    let (cols, rows) = ISO_MESHES[rng.gen_range(ISO_MESHES.len() as u64) as usize];
    let mesh = Mesh::new(cols, rows);
    let k = 2 + rng.gen_range(4) as usize; // 2..=5 groups
    let groups: Vec<Vec<NodeId>> = (0..k)
        .map(|_| {
            let opts = 1 + rng.gen_range(2) as usize; // 1..=2 options each
            (0..opts).map(|_| pick_node(rng, &mesh)).collect()
        })
        .collect();
    let pairwise = max_pairwise_sets(&groups);
    let mst = mst_weight_sets(&groups);
    let steiner = steiner_min_sets(&mesh, &groups);
    // Both portable kernels must stay below the exact minimum — that is
    // what makes the large-mesh bound sound. (The set-MST itself is *not*
    // ordered against max-pairwise: set distances are not a metric — a
    // shared member makes two far-apart groups distance zero.)
    if steiner < pairwise || steiner < mst.saturating_mul(2).div_ceil(3) {
        return Err(format!(
            "kernel exceeds the exact minimum on {cols}x{rows}: pairwise {pairwise}, \
             mst {mst}, steiner {steiner}, groups {groups:?}"
        ));
    }

    for t in MeshTransform::for_mesh(mesh) {
        let out_mesh = t.output_mesh(mesh);
        let mapped: Vec<Vec<NodeId>> =
            groups.iter().map(|g| g.iter().map(|&n| t.apply(mesh, n)).collect()).collect();
        let (p2, m2, s2) = (
            max_pairwise_sets(&mapped),
            mst_weight_sets(&mapped),
            steiner_min_sets(&out_mesh, &mapped),
        );
        if p2 != pairwise || m2 != mst || s2 != steiner {
            return Err(format!(
                "isometry {t:?} on {cols}x{rows} changed set kernels: pairwise {pairwise}→{p2}, \
                 mst {mst}→{m2}, steiner {steiner}→{s2}, groups {groups:?}"
            ));
        }
    }

    let dx = rng.gen_range(5) as i32 - 2;
    let dy = rng.gen_range(5) as i32 - 2;
    let shifted: Option<Vec<Vec<NodeId>>> = groups
        .iter()
        .map(|g| g.iter().map(|&n| translate(mesh, n, dx, dy)).collect::<Option<Vec<NodeId>>>())
        .collect();
    if let Some(shifted) = shifted {
        let (p2, m2, s2) = (
            max_pairwise_sets(&shifted),
            mst_weight_sets(&shifted),
            steiner_min_sets(&mesh, &shifted),
        );
        if p2 != pairwise || m2 != mst || s2 != steiner {
            return Err(format!(
                "translation ({dx},{dy}) on {cols}x{rows} changed set kernels: \
                 pairwise {pairwise}→{p2}, mst {mst}→{m2}, steiner {steiner}→{s2}, \
                 groups {groups:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::gen_mask_case;

    #[test]
    fn bound_soundness_holds_over_a_sweep() {
        let mut rng = Rng64::new(21);
        for _ in 0..8 {
            let spec = gen_mask_case(&mut rng, 160);
            check_bound_sound(&spec).unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
    }

    #[test]
    fn bound_rename_law_holds_over_a_sweep() {
        let mut rng = Rng64::new(22);
        for _ in 0..6 {
            let spec = gen_mask_case(&mut rng, 120);
            check_bound_rename(&spec).unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
    }

    #[test]
    fn bound_isometry_law_holds_over_a_sweep() {
        let mut rng = Rng64::new(23);
        for _ in 0..40 {
            check_bound_isometry(&mut rng).expect("set-kernel isometry law");
        }
    }
}
