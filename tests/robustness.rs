//! Robustness: random programs, configuration ablations, odd machine
//! shapes, fault injection, and determinism.
//!
//! The random-program tests draw statement compositions from seeded
//! [`Rng64`] streams (the build is offline, so no property-testing crate),
//! which keeps every case reproducible from the printed seed.

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::ir::{Program, ProgramBuilder};
use dmcp::mach::rng::Rng64;
use dmcp::mach::{FaultPlan, FaultState, MachineConfig, Mesh};
use dmcp::mem::page::PagePolicy;
use dmcp::sim::{run_schedules, run_schedules_degraded, SimOptions};

/// Statement templates a random program draws from (all over arrays
/// A..H and loop variable i).
const TEMPLATES: &[&str] = &[
    "A[i] = B[i] + C[i] + D[i] + E[i]",
    "F[i] = A[i] * (B[i] - C[i])",
    "G[i] = D[i] / (E[i] + 1) + F[i]",
    "H[i] = (A[i] + B[i]) * (C[i] + D[i])",
    "B[i] = H[i] - G[i] + 2",
    "C[i] = B[i+1] + B[i-1] - D[i]",
    "D[i] = (A[i] & 7) + (E[i] >> 1)",
    "E[i] = E[i] + A[i] * 3",
    "A[i] = A[i] + F[i] - G[i] / 2",
];

fn random_program(picks: &[usize], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    for n in ["A", "B", "C", "D", "E", "F", "G", "H"] {
        b.array(n, &[128], 64);
    }
    let stmts: Vec<&str> = picks.iter().map(|&k| TEMPLATES[k % TEMPLATES.len()]).collect();
    b.nest(&[("t", 0, 2), ("i", 1, iters)], &stmts).unwrap();
    b.build()
}

fn random_picks(rng: &mut Rng64, min: u64, max: u64) -> Vec<usize> {
    let n = min + rng.gen_range(max - min);
    (0..n).map(|_| rng.gen_range(TEMPLATES.len() as u64) as usize).collect()
}

fn check(program: &Program, cfg: PartitionConfig) {
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, program, cfg);
    let out = part.plan(program, &program.initial_data(), false).unwrap();
    let mut got = program.initial_data();
    for nest in &out.nests {
        nest.schedule.validate().expect("valid schedule");
        nest.schedule.execute_values(&mut got);
    }
    let mut want = program.initial_data();
    dmcp::ir::exec::run_sequential(program, &mut want);
    assert!(got.approx_eq(&want, 1e-9), "partitioned values diverge from the sequential reference");
    // And the schedule must actually simulate.
    let r = run_schedules(program, part.layout(), &out, SimOptions::default());
    assert!(r.exec_time > 0.0);
}

/// Any composition of the statement templates partitions into a
/// numerically correct schedule.
#[test]
fn random_programs_stay_correct() {
    for seed in 0..12 {
        let mut rng = Rng64::new(seed);
        let picks = random_picks(&mut rng, 1, 5);
        let iters = 8 + rng.gen_range(32) as i64;
        check(&random_program(&picks, iters), PartitionConfig::default());
    }
}

/// The same holds with every knob moved off its default.
#[test]
fn random_programs_stay_correct_with_odd_knobs() {
    for seed in 0..12 {
        let mut rng = Rng64::new(seed);
        let picks = random_picks(&mut rng, 1, 4);
        let window = 1 + rng.gen_range(8) as usize;
        let cfg = PartitionConfig {
            window,
            opts: dmcp::core::PlanOptions {
                reuse_aware: rng.gen_bool(0.5),
                split_threshold: 2.0, // force splitting even when unprofitable
                ..Default::default()
            },
            ..PartitionConfig::default()
        };
        check(&random_program(&picks, 16), cfg);
    }
}

#[test]
fn scramble_page_policy_still_correct_but_hurts_location_knowledge() {
    let p = random_program(&[0, 1, 2], 32);
    let machine = MachineConfig::knl_like();
    // Colour-preserving (the paper's OS support) vs a stock allocator.
    let preserving = Partitioner::new(&machine, &p, PartitionConfig::default());
    let scrambled = Partitioner::new(
        &machine,
        &p,
        PartitionConfig { page_policy: PagePolicy::Scramble, ..PartitionConfig::default() },
    );
    // Both must stay numerically correct.
    for part in [&preserving, &scrambled] {
        let out = part.plan(&p, &p.initial_data(), false).unwrap();
        let mut got = p.initial_data();
        for nest in &out.nests {
            nest.schedule.execute_values(&mut got);
        }
        let mut want = p.initial_data();
        dmcp::ir::exec::run_sequential(&p, &mut want);
        assert!(got.approx_eq(&want, 1e-9));
    }
}

#[test]
fn tiny_meshes_partition_and_simulate() {
    let p = random_program(&[0, 3], 24);
    for (c, r) in [(2u16, 2u16), (4, 2), (3, 5)] {
        let machine = MachineConfig::knl_like().with_mesh(Mesh::new(c, r));
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = part.plan(&p, &p.initial_data(), false).unwrap();
        for nest in &out.nests {
            nest.schedule.validate().unwrap();
            for s in &nest.schedule.steps {
                assert!(machine.mesh.contains(s.node), "{c}x{r}: step off-mesh");
            }
        }
        let rep = run_schedules(&p, part.layout(), &out, SimOptions::default());
        assert!(rep.exec_time > 0.0, "{c}x{r} mesh failed to simulate");
    }
}

#[test]
fn partitioning_and_simulation_are_deterministic() {
    let p = random_program(&[0, 1, 4], 32);
    let machine = MachineConfig::knl_like();
    let run = || {
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = part.plan(&p, &p.initial_data(), false).unwrap();
        let rep = run_schedules(&p, part.layout(), &out, SimOptions::default());
        (out, rep)
    };
    let (o1, r1) = run();
    let (o2, r2) = run();
    assert_eq!(o1.nests.len(), o2.nests.len());
    for (a, b) in o1.nests.iter().zip(&o2.nests) {
        assert_eq!(a.schedule, b.schedule, "schedules differ between runs");
    }
    assert_eq!(r1.exec_time, r2.exec_time);
    assert_eq!(r1.movement, r2.movement);
}

#[test]
fn single_iteration_nests_work() {
    let mut b = ProgramBuilder::new();
    for n in ["A", "B", "C"] {
        b.array(n, &[8], 64);
    }
    b.nest(&[("i", 0, 1)], &["A[i] = B[i] + C[i]"]).unwrap();
    let p = b.build();
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &p, PartitionConfig::default());
    let out = part.plan(&p, &p.initial_data(), false).unwrap();
    assert!(!out.nests[0].schedule.is_empty());
    let mut got = p.initial_data();
    out.nests[0].schedule.execute_values(&mut got);
    let mut want = p.initial_data();
    dmcp::ir::exec::run_sequential(&p, &mut want);
    assert_eq!(got, want);
}

#[test]
fn balance_threshold_extremes_are_safe() {
    let p = random_program(&[0, 1], 24);
    let _machine = MachineConfig::knl_like();
    for threshold in [0.0, 0.10, 10.0] {
        let cfg = PartitionConfig {
            opts: dmcp::core::PlanOptions { balance_threshold: threshold, ..Default::default() },
            ..PartitionConfig::default()
        };
        check(&p, cfg);
    }
}

/// Under any random fault plan, degraded partitioning is deterministic,
/// never schedules a step on an unusable node, and stays numerically
/// correct.
#[test]
fn degraded_partitioning_avoids_dead_nodes_and_is_deterministic() {
    let machine = MachineConfig::knl_like();
    for seed in 0..10 {
        let mut rng = Rng64::new(seed);
        let picks = random_picks(&mut rng, 1, 4);
        let p = random_program(&picks, 8 + rng.gen_range(24) as i64);
        let plan = FaultPlan::random(machine.mesh, 0.15, 0.05, 0.05, 0.25, 0xFA + seed);
        let faults = FaultState::new(plan, machine.mesh).expect("valid plan");
        let run = || {
            let part = Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults)
                .expect("degraded partitioner");
            part.plan(&p, &p.initial_data(), false).expect("degraded partition")
        };
        let out = run();
        for nest in &out.nests {
            nest.schedule.validate().expect("valid degraded schedule");
            for s in &nest.schedule.steps {
                assert!(
                    faults.is_usable(s.node),
                    "seed {seed}: step scheduled on unusable node {}",
                    s.node
                );
            }
        }
        // Deterministic: a second run produces the identical schedules.
        let again = run();
        assert_eq!(out.nests.len(), again.nests.len(), "seed {seed}");
        for (a, b) in out.nests.iter().zip(&again.nests) {
            assert_eq!(a.schedule, b.schedule, "seed {seed}: degraded schedules differ");
        }
        // Degraded schedules still compute the right values.
        let mut got = p.initial_data();
        for nest in &out.nests {
            nest.schedule.execute_values(&mut got);
        }
        let mut want = p.initial_data();
        dmcp::ir::exec::run_sequential(&p, &mut want);
        assert!(got.approx_eq(&want, 1e-9), "seed {seed}: degraded values diverge");
    }
}

/// A degraded schedule also simulates end-to-end on the faulty network,
/// and the faulty run is never cheaper than the healthy one.
#[test]
fn degraded_simulation_completes_with_fault_accounting() {
    let machine = MachineConfig::knl_like();
    let p = random_program(&[0, 1, 3], 24);
    let healthy = {
        let part = Partitioner::new(&machine, &p, PartitionConfig::default());
        let out = part.plan(&p, &p.initial_data(), false).unwrap();
        run_schedules(&p, part.layout(), &out, SimOptions::default())
    };
    let plan = FaultPlan::random(machine.mesh, 0.10, 0.05, 0.10, 0.25, 0xBEEF);
    let faults = FaultState::new(plan, machine.mesh).expect("valid plan");
    let part = Partitioner::new_degraded(&machine, &p, PartitionConfig::default(), &faults)
        .expect("degraded partitioner");
    let out = part.plan(&p, &p.initial_data(), false).expect("degraded partition");
    let rep = run_schedules_degraded(&p, part.layout(), &out, SimOptions::default(), faults);
    assert!(rep.exec_time > 0.0, "degraded run failed to simulate");
    assert!(
        rep.exec_time >= healthy.exec_time,
        "losing tiles should not speed the program up: {} < {}",
        rep.exec_time,
        healthy.exec_time
    );
}
