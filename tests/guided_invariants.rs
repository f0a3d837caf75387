//! Invariants of the profile-guided acceptance step: "our approach" never
//! loses to the default it was measured against, on any workload or
//! configuration.

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::mach::{ClusterMode, MachineConfig};
use dmcp::mem::MemoryMode;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{all, Scale};
use dmcp_bench::scenarios::partition_guided;

#[test]
fn guided_partitioning_never_loses_to_the_baseline() {
    let machine = MachineConfig::knl_like();
    for w in all(Scale::Tiny) {
        let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
        let sim = SimOptions::default();
        let guided = partition_guided(&part, &w.program, &w.data, sim);
        let base = part.plan(&w.program, &w.data, true).unwrap();
        let r_g = run_schedules(&w.program, part.layout(), &guided, sim);
        let r_b = run_schedules(&w.program, part.layout(), &base, sim);
        assert!(
            r_g.exec_time <= r_b.exec_time,
            "{}: guided {} slower than baseline {}",
            w.name,
            r_g.exec_time,
            r_b.exec_time
        );
    }
}

#[test]
fn guided_invariant_holds_across_cluster_modes() {
    // A lighter sweep: one splitting and one defaulting app per mode.
    for name in ["lu", "ocean"] {
        let w = dmcp::workloads::by_name(name, Scale::Tiny).unwrap();
        for cluster in ClusterMode::ALL {
            let machine = MachineConfig::knl_like().with_cluster(cluster);
            let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
            for memory in [MemoryMode::Flat, MemoryMode::Cache] {
                let sim = SimOptions { memory_mode: memory, ..SimOptions::default() };
                let guided = partition_guided(&part, &w.program, &w.data, sim);
                let base = part.plan(&w.program, &w.data, true).unwrap();
                let r_g = run_schedules(&w.program, part.layout(), &guided, sim);
                let r_b = run_schedules(&w.program, part.layout(), &base, sim);
                assert!(
                    r_g.exec_time <= r_b.exec_time,
                    "{name} ({cluster}, {memory}): guided {} vs base {}",
                    r_g.exec_time,
                    r_b.exec_time
                );
            }
        }
    }
}

#[test]
fn guided_output_is_always_numerically_correct() {
    let machine = MachineConfig::knl_like();
    for w in all(Scale::Tiny) {
        let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
        let guided = partition_guided(&part, &w.program, &w.data, SimOptions::default());
        let mut got = w.data.clone();
        for nest in &guided.nests {
            nest.schedule.execute_values(&mut got);
        }
        let mut want = w.data.clone();
        dmcp::ir::exec::run_sequential(&w.program, &mut want);
        assert!(got.approx_eq(&want, 1e-9), "{}: guided schedule diverges", w.name);
    }
}
