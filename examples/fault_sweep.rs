//! Fault sweep: kill a growing fraction of the mesh and watch the
//! partitioner degrade gracefully instead of falling over.
//!
//! For each dead-node fraction a random fault plan is sampled (dead tiles,
//! severed links, lossy links), the program is re-partitioned in degraded
//! mode — dead nodes excluded from every placement, their L2 banks
//! re-homed — and simulated on the faulty network with detour routing and
//! retry accounting. The 0% row is bit-identical to a fault-free run.
//!
//! The degraded compiles are routed through the plan service
//! ([`dmcp::serve::PlanService`]): every (program, machine, config, fault
//! plan) combination fingerprints to its own [`dmcp::serve::PlanKey`], so
//! degraded-mode plans cache exactly like healthy ones — re-sweeping the
//! same fault scenarios is pure cache hits.
//!
//! Run with: `cargo run -p dmcp --example fault_sweep`

use dmcp::core::{PartitionConfig, Partitioner};
use dmcp::ir::ProgramBuilder;
use dmcp::mach::{FaultPlan, FaultState, MachineConfig};
use dmcp::serve::{PlanRequest, PlanService, ServeConfig};
use dmcp::sim::{degradation_table, fault_sweep, run_schedules_degraded, FaultSweepConfig};

fn main() {
    // The paper's running example, large enough that movement matters.
    let mut b = ProgramBuilder::new();
    for name in ["A", "B", "C", "D", "E"] {
        b.array(name, &[1024], 64);
    }
    b.nest(&[("t", 0, 4), ("i", 0, 1024)], &["A[i] = B[i] + C[i] + D[i] + E[i]"])
        .expect("statement parses");
    let program = b.build();

    let machine = MachineConfig::knl_like();
    let config = PartitionConfig::default();
    let sweep = FaultSweepConfig::default();
    println!(
        "sweeping dead-node fractions {:?} on a {}x{} mesh (link failure {:.0}%, lossy {:.0}%)\n",
        sweep.dead_fracs,
        machine.mesh.cols(),
        machine.mesh.rows(),
        100.0 * sweep.link_fail,
        100.0 * sweep.lossy,
    );

    // The severity sweep with simulation on the faulty network.
    let rows = fault_sweep(&program, &machine, &config, &sweep).expect("sweep completes");
    println!("{}", degradation_table(&rows));

    let worst = rows.last().expect("at least one row");
    println!(
        "\nat {:.0}% dead: {} of {} nodes usable, {:.2}x movement, {:.2}x exec time, \
         {} retries, {} detour hops",
        100.0 * worst.dead_frac,
        worst.live_nodes,
        machine.mesh.node_count(),
        worst.movement_ratio,
        worst.exec_time_ratio,
        worst.report.net_retries,
        worst.report.net_detour_hops,
    );

    // Now the same compiles through the plan service: one request per
    // fault scenario, each content-addressed by its fault fingerprint.
    // This program's plans run ~3 MB each and several scenarios can land
    // on one cache shard, so give the cache room for the whole sweep.
    let service = PlanService::new(ServeConfig { cache_bytes: 256 << 20, ..Default::default() });
    let requests: Vec<PlanRequest> = sweep
        .dead_fracs
        .iter()
        .enumerate()
        .map(|(i, &frac)| {
            let base = PlanRequest::new(program.clone(), machine.clone(), config.clone());
            if frac == 0.0 {
                base
            } else {
                base.with_faults(FaultPlan::random(
                    machine.mesh,
                    frac,
                    sweep.link_fail,
                    sweep.lossy,
                    sweep.drop_prob,
                    sweep.seed.wrapping_add(i as u64),
                ))
            }
        })
        .collect();

    let round1 = service.serve_batch(requests.clone());
    let round2 = service.serve_batch(requests.clone());
    for (a, b) in round1.iter().zip(&round2) {
        assert_eq!(
            a.as_ref().expect("compiles"),
            b.as_ref().expect("cache hit"),
            "cached degraded plan must be bit-identical"
        );
    }

    // The healthy service plan is bit-identical to a direct run that never
    // heard of the service (or of faults).
    let direct = Partitioner::new(&machine, &program, config.clone());
    let healthy = direct.plan(&program, &program.initial_data(), false).expect("plans");
    assert_eq!(**round1[0].as_ref().expect("healthy plan"), healthy);

    // And a degraded service plan simulates exactly like the sweep row.
    let (worst_idx, &worst_frac) =
        sweep.dead_fracs.iter().enumerate().next_back().expect("at least one fraction");
    if worst_frac > 0.0 {
        let faults = requests[worst_idx].faults.clone().expect("worst row has faults");
        let state = FaultState::new(faults, machine.mesh).expect("usable plan");
        let degraded = Partitioner::new_degraded(&machine, &program, config.clone(), &state)
            .expect("degraded partitioner");
        let plan = round1[worst_idx].as_ref().expect("degraded plan");
        let replay = run_schedules_degraded(
            &program,
            degraded.layout(),
            plan,
            dmcp::sim::SimOptions::default(),
            state,
        );
        assert_eq!(replay.movement, worst.report.movement);
    }

    let stats = service.stats();
    println!(
        "\nplan service: {} requests, {} compiles, {} cache hits ({} scenarios cached \
         after round one — degraded configs fingerprint and cache like healthy ones)",
        stats.submitted,
        stats.compiles,
        stats.cache.hits,
        sweep.dead_fracs.len(),
    );
    assert_eq!(stats.compiles, sweep.dead_fracs.len() as u64);
    service.shutdown();
}
