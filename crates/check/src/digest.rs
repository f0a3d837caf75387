//! Stable plan fingerprints.
//!
//! [`plan_digest`] folds every semantically meaningful field of a
//! [`PartitionOutput`] — step nodes, accumulator seeds, fold inputs,
//! store targets, sync arcs, statement tags — through the same FNV-1a
//! [`StableHasher`] the IR uses for structural hashes. Two outputs get
//! the same digest iff the schedules are step-for-step identical, so the
//! golden-plan tests can pin one `u64` per workload instead of a
//! multi-megabyte snapshot.
//!
//! Cache-line identities are *not* hashed: they are derived from
//! (array, element) and the machine layout, both of which are already
//! covered.

use dmcp_core::{Operand, PartitionOutput, Schedule, Step};
use dmcp_ir::StableHasher;
use dmcp_mach::NodeId;

fn hash_node(h: &mut StableHasher, n: NodeId) {
    h.write_u32(u32::from(n.x()));
    h.write_u32(u32::from(n.y()));
}

fn hash_step(h: &mut StableHasher, schedule: &Schedule, step: &Step) {
    hash_node(h, step.node);
    match step.seed {
        Some(v) => {
            h.write_u8(1);
            h.write_f64(v);
        }
        None => h.write_u8(0),
    }
    let inputs = schedule.inputs_of(step);
    h.write_len(inputs.len());
    for input in inputs {
        h.write_u8(input.op as u8);
        match input.operand {
            Operand::Const(v) => {
                h.write_u8(0);
                h.write_f64(v);
            }
            Operand::Elem(loc) => {
                h.write_u8(1);
                h.write_u64(loc.array.index() as u64);
                h.write_u64(loc.elem);
                hash_node(h, loc.believed);
                h.write_u8(u8::from(loc.hot));
            }
            Operand::Temp(t) => {
                h.write_u8(2);
                h.write_u64(t.index() as u64);
            }
        }
    }
    match step.store {
        Some(st) => {
            h.write_u8(1);
            h.write_u64(st.array.index() as u64);
            h.write_u64(st.elem);
            hash_node(h, st.home);
            h.write_u8(u8::from(st.hot));
        }
        None => h.write_u8(0),
    }
    let waits = schedule.waits_of(step);
    h.write_len(waits.len());
    for w in waits {
        h.write_u64(w.index() as u64);
    }
    h.write_u32(step.tag.nest);
    h.write_u32(step.tag.stmt);
    h.write_u64(step.tag.instance);
}

fn hash_schedule(h: &mut StableHasher, s: &Schedule) {
    h.write_len(s.steps.len());
    for step in &s.steps {
        hash_step(h, s, step);
    }
}

/// A stable fingerprint of a partitioner output: equal iff the schedules
/// (and the per-nest window choices reflected in them) are identical.
pub fn plan_digest(out: &PartitionOutput) -> u64 {
    let mut h = StableHasher::new();
    h.write_len(out.nests.len());
    for nest in &out.nests {
        h.write_u64(nest.nest as u64);
        hash_schedule(&mut h, &nest.schedule);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gencase::gen_mask_case;
    use dmcp_core::Partitioner;
    use dmcp_mach::rng::Rng64;

    #[test]
    fn digest_is_deterministic_and_discriminates() {
        let mut rng = Rng64::new(77);
        let spec = gen_mask_case(&mut rng, 128);
        let built = spec.build().expect("builds");
        let part = Partitioner::new(&built.machine, &built.program, built.config.clone());
        let out = part.plan(&built.program, &built.data, false).unwrap();
        let again = part.plan(&built.program, &built.data, false).unwrap();
        assert_eq!(plan_digest(&out), plan_digest(&again));

        // Perturbing a single step's node must change the digest.
        let mut mutated = out.clone();
        if let Some(step) =
            mutated.nests.iter_mut().flat_map(|n| n.schedule.steps.iter_mut()).next()
        {
            step.node = NodeId::new(step.node.x() + 1, step.node.y());
            assert_ne!(plan_digest(&out), plan_digest(&mutated));
        }
    }

    #[test]
    fn digest_of_empty_output_is_stable() {
        let out = PartitionOutput::default();
        assert_eq!(plan_digest(&out), plan_digest(&PartitionOutput::default()));
    }
}
