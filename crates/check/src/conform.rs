//! Value conformance: every emitted plan, executed step by step, must
//! compute exactly what the program means.
//!
//! The reference semantics is the `dmcp-ir` interpreter
//! ([`run_sequential`]). The plan side executes each nest's [`Schedule`]
//! — partial reductions, sync arcs, final stores — three ways:
//!
//! 1. in schedule order ([`Schedule::execute_values`]);
//! 2. the unoptimized baseline schedule, the same way;
//! 3. in *adversarial* random topological orders
//!    ([`Schedule::execute_values_ordered`]): any order the sync arcs
//!    permit must produce the same values, otherwise the emitted `waits`
//!    are missing a dependence.
//!
//! The mask family compares bit-for-bit (`rel_tol = 0.0`); the division
//! family under a small relative tolerance, since reordered division
//! chains legitimately differ in the last ulps.

use crate::gencase::BuiltCase;
use dmcp_core::{Partitioner, Schedule};
use dmcp_ir::exec::run_sequential;
use dmcp_ir::program::DataStore;
use dmcp_mach::rng::Rng64;
use dmcp_mach::FaultState;

fn compare(label: &str, got: &DataStore, want: &DataStore, rel_tol: f64) -> Result<(), String> {
    if !got.same_shape(want) {
        return Err(format!("{label}: data stores have different shapes"));
    }
    match got.first_mismatch(want, rel_tol) {
        None => Ok(()),
        Some(m) => Err(format!(
            "{label}: array {:?} elem {} diverged: plan {} vs interpreter {} (rel_tol {rel_tol})",
            m.array, m.elem, m.left, m.right
        )),
    }
}

/// A uniformly random topological order of `schedule` honouring both
/// `Temp` inputs and explicit `waits`.
pub fn random_topo_order(schedule: &Schedule, rng: &mut Rng64) -> Vec<usize> {
    let n = schedule.steps.len();
    let mut indegree = vec![0usize; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, step) in schedule.steps.iter().enumerate() {
        for p in step.producers() {
            succs[p.index()].push(k);
            indegree[k] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&k| indegree[k] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let pick = rng.gen_range(ready.len() as u64) as usize;
        let k = ready.swap_remove(pick);
        order.push(k);
        for &s in &succs[k] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    order
}

fn run_plan(nests: &[dmcp_core::NestPartition], data: &DataStore) -> DataStore {
    let mut d = data.clone();
    for nest in nests {
        nest.schedule.execute_values(&mut d);
    }
    d
}

fn run_plan_ordered(
    nests: &[dmcp_core::NestPartition],
    data: &DataStore,
    rng: &mut Rng64,
) -> Result<DataStore, String> {
    let mut d = data.clone();
    for nest in nests {
        let order = random_topo_order(&nest.schedule, rng);
        nest.schedule.execute_values_ordered(&order, &mut d)?;
    }
    Ok(d)
}

/// Checks a healthy-machine case: optimized plan, baseline plan, and
/// `orders` adversarial topological replays all conform to the
/// interpreter under `rel_tol`.
pub fn check_healthy(
    built: &BuiltCase,
    rng: &mut Rng64,
    orders: u32,
    rel_tol: f64,
) -> Result<(), String> {
    let part = Partitioner::new(&built.machine, &built.program, built.config.clone());
    let out = part.partition_with_data(&built.program, &built.data);

    let mut want = built.data.clone();
    run_sequential(&built.program, &mut want);

    let got = run_plan(&out.nests, &built.data);
    compare("optimized plan", &got, &want, rel_tol)?;

    let base = part.baseline(&built.program, &built.data);
    let got_base = run_plan(&base.nests, &built.data);
    compare("baseline plan", &got_base, &want, rel_tol)?;

    for trial in 0..orders {
        let got_ord = run_plan_ordered(&out.nests, &built.data, rng)
            .map_err(|e| format!("adversarial order {trial}: {e}"))?;
        compare(&format!("adversarial order {trial}"), &got_ord, &want, rel_tol)?;
    }
    Ok(())
}

/// Checks a degraded-machine case: the plan compiled against the faulted
/// layout must place every step on a usable node and still conform to
/// the interpreter. Cases whose fault plan kills every node are skipped
/// (`Ok`): there is nothing to schedule on.
pub fn check_degraded(built: &BuiltCase, rel_tol: f64) -> Result<(), String> {
    let Some(plan) = &built.faults else {
        return Ok(());
    };
    let mesh = built.machine.mesh;
    let Ok(state) = FaultState::new(plan.clone(), mesh) else {
        return Ok(()); // no live nodes: vacuously conformant
    };
    let part =
        Partitioner::new_degraded(&built.machine, &built.program, built.config.clone(), &state)
            .map_err(|e| format!("degraded partitioner construction failed: {e:?}"))?;
    let out = part.partition_with_data(&built.program, &built.data);

    if !state.is_trivial() {
        for nest in &out.nests {
            for step in &nest.schedule.steps {
                if !state.is_usable(step.node) {
                    return Err(format!(
                        "degraded plan placed step {:?} on unusable node {:?}",
                        step.id, step.node
                    ));
                }
            }
        }
    }

    let mut want = built.data.clone();
    run_sequential(&built.program, &mut want);
    let got = run_plan(&out.nests, &built.data);
    compare("degraded plan", &got, &want, rel_tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::{gen_div_case, gen_mask_case};

    #[test]
    fn mask_family_conforms_bit_exactly() {
        let mut rng = Rng64::new(1);
        for _ in 0..15 {
            let spec = gen_mask_case(&mut rng, 192);
            let built = spec.build().expect("builds");
            check_healthy(&built, &mut rng, 2, 0.0)
                .unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
    }

    #[test]
    fn div_family_conforms_within_tolerance() {
        let mut rng = Rng64::new(2);
        for _ in 0..8 {
            let spec = gen_div_case(&mut rng);
            let built = spec.build().expect("builds");
            check_healthy(&built, &mut rng, 2, 1e-9)
                .unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
    }

    #[test]
    fn degraded_cases_conform_and_stay_on_live_nodes() {
        let mut rng = Rng64::new(3);
        let mut exercised = 0;
        for _ in 0..25 {
            let spec = gen_mask_case(&mut rng, 192);
            if spec.faults.is_none() {
                continue;
            }
            exercised += 1;
            let built = spec.build().expect("builds");
            check_degraded(&built, 0.0).unwrap_or_else(|e| panic!("{e}\ncase:\n{spec}"));
        }
        assert!(exercised > 3, "generator produced too few faulted cases");
    }

    #[test]
    fn random_topo_orders_are_valid_permutations() {
        let mut rng = Rng64::new(4);
        let spec = gen_mask_case(&mut rng, 128);
        let built = spec.build().expect("builds");
        let part = Partitioner::new(&built.machine, &built.program, built.config.clone());
        let out = part.partition_with_data(&built.program, &built.data);
        for nest in &out.nests {
            let order = random_topo_order(&nest.schedule, &mut rng);
            assert_eq!(order.len(), nest.schedule.steps.len());
            let mut seen = vec![false; order.len()];
            for &k in &order {
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
    }
}
