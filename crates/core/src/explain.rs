//! Human-readable rendering of schedules — the "show me the plan" tool.
//!
//! Renders a statement instance's subcomputations the way the paper's
//! Figures 6/8 sketch them: one line per step with its node, fold and
//! operand sources, plus per-statement movement accounting.

use crate::step::{Operand, Schedule};
use dmcp_ir::Program;
use std::fmt::Write;

/// Renders the steps implementing one statement instance.
///
/// Returns `None` when no step carries the tag.
pub fn explain_instance(
    schedule: &Schedule,
    program: &Program,
    nest: u32,
    instance: u64,
) -> Option<String> {
    let steps: Vec<_> = schedule
        .steps
        .iter()
        .filter(|s| s.tag.nest == nest && s.tag.instance == instance)
        .collect();
    if steps.is_empty() {
        return None;
    }
    let mut out = String::new();
    let tag = steps[0].tag;
    let _ = writeln!(out, "statement {} of nest {}, instance {}:", tag.stmt, nest, instance);
    for s in &steps {
        let inputs: Vec<String> = schedule
            .inputs_of(s)
            .iter()
            .map(|i| {
                let src = match i.operand {
                    Operand::Const(v) => format!("{v}"),
                    Operand::Temp(t) => format!("t{}", t.0),
                    Operand::Elem(e) => {
                        format!("{}[{}]@{}", program.array_name(e.array), e.elem, e.believed)
                    }
                };
                format!("{} {}", i.op, src)
            })
            .collect();
        let store = match &s.store {
            Some(st) => {
                format!(" => {}[{}] home {}", program.array_name(st.array), st.elem, st.home)
            }
            None => format!(" => t{}", s.id.0),
        };
        let waits = schedule.waits_of(s);
        let waits = if waits.is_empty() {
            String::new()
        } else {
            format!("  (waits: {:?})", waits.iter().map(|w| w.0).collect::<Vec<_>>())
        };
        let _ = writeln!(out, "  @{}: fold[{}]{}{}", s.node, inputs.join(", "), store, waits);
    }
    Some(out)
}

/// Renders the full schedule of one nest as Graphviz DOT: steps are nodes
/// (labelled with their mesh tile), temp/wait dependences are edges.
/// Statement instances beyond `max_instances` are elided to keep graphs
/// readable.
pub fn schedule_to_dot(schedule: &Schedule, max_instances: u64) -> String {
    let mut out = String::from("digraph schedule {\n  rankdir=LR;\n  node [shape=box];\n");
    for s in &schedule.steps {
        if s.tag.instance >= max_instances {
            break;
        }
        let kind = if s.store.is_some() { ",peripheries=2" } else { "" };
        let _ = writeln!(
            out,
            "  s{} [label=\"#{} @{}\\nstmt {} inst {}\"{}];",
            s.id.0, s.id.0, s.node, s.tag.stmt, s.tag.instance, kind
        );
        for input in schedule.inputs_of(s) {
            if let Operand::Temp(t) = input.operand {
                let _ = writeln!(out, "  s{} -> s{};", t.0, s.id.0);
            }
        }
        for w in schedule.waits_of(s) {
            let _ = writeln!(out, "  s{} -> s{} [style=dashed];", w.0, s.id.0);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionConfig, Partitioner};
    use dmcp_ir::ProgramBuilder;
    use dmcp_mach::MachineConfig;

    fn schedule() -> (Program, Schedule) {
        let mut b = ProgramBuilder::new();
        for n in ["A", "B", "C", "D", "E"] {
            b.array(n, &[64], 64);
        }
        b.nest(&[("i", 0, 8)], &["A[i] = B[i] + C[i] + D[i] + E[i]"]).unwrap();
        let p = b.build();
        let machine = MachineConfig::knl_like();
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = part.plan(&p, &p.initial_data(), false).unwrap();
        (p, out.nests[0].schedule.clone())
    }

    #[test]
    fn explains_an_instance() {
        let (p, s) = schedule();
        let text = explain_instance(&s, &p, 0, 0).expect("instance 0 exists");
        assert!(text.contains("statement 0 of nest 0, instance 0"));
        assert!(text.contains("=>"), "store or temp target shown: {text}");
        assert!(text.contains('@'), "node placement shown");
    }

    #[test]
    fn missing_instance_is_none() {
        let (p, s) = schedule();
        assert!(explain_instance(&s, &p, 0, 999_999).is_none());
        assert!(explain_instance(&s, &p, 7, 0).is_none());
    }

    #[test]
    fn dot_export_is_wellformed() {
        let (_, s) = schedule();
        let dot = schedule_to_dot(&s, 3);
        assert!(dot.starts_with("digraph schedule {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("s0 [label="));
        // Edges only reference declared steps (all ids < elided cutoff's
        // last id; structural sanity).
        assert!(dot.matches("->").count() >= 1);
    }
}
