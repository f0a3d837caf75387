//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. level-based (nested-set) MSTs vs flattening everything into one set,
//! 2. reuse-aware vs reuse-agnostic windows (paper Section 6.3 reports an
//!    11 % gap),
//! 3. the load-balance threshold (paper default 10 %),
//! 4. colour-preserving vs scrambled page allocation (the paper's OS
//!    support vs a stock allocator),
//! 5. synchronization transitive reduction on vs off (arc counts),
//! 6. the optimality gap (movement / `dmcp-bound` lower bound) with reuse
//!    awareness on vs off.
//!
//! Each study fans its 12 workloads out over `dmcp-pool` (one task per
//! application, rows printed in suite order; every task plans
//! sequentially so thread count never changes a number).
//!
//! ```text
//! cargo run --release -p dmcp-bench --bin ablations [-- --scale-tiny]
//! ```

use dmcp::core::{PartitionConfig, Partitioner, PlanOptions};
use dmcp::mach::MachineConfig;
use dmcp::mem::page::PagePolicy;
use dmcp::pool::Pool;
use dmcp::sim::{run_schedules, SimOptions};
use dmcp::workloads::{all, Scale, Workload};
use dmcp_bench::gap_reports_pooled;
use std::time::Instant;

fn main() {
    let scale =
        if std::env::args().any(|a| a == "--scale-tiny") { Scale::Tiny } else { Scale::Small };
    let pool = Pool::default();
    println!("(workload sweeps run on {} pool thread(s))", pool.threads());
    reuse_ablation(scale, &pool);
    gap_ablation(scale, &pool);
    balance_ablation(scale, &pool);
    page_policy_ablation(scale, &pool);
    sync_reduction_stats(scale, &pool);
}

/// `partition_guided` under `cfg`, staged so the planner is timed and
/// runs sequentially (the suite-level pool provides the parallelism).
/// Returns `(exec_time, movement, plan_seconds)` of the guarded winner.
fn run(w: &Workload, cfg: PartitionConfig) -> (f64, u64, f64) {
    let machine = MachineConfig::knl_like();
    let part = Partitioner::new(&machine, &w.program, cfg);
    let sim = SimOptions::default();
    let t0 = Instant::now();
    let planned = part.partition_with_data_pooled(&w.program, &w.data, &Pool::single());
    let plan_seconds = t0.elapsed().as_secs_f64();
    let base = part.baseline(&w.program, &w.data);
    let r_planned = run_schedules(&w.program, part.layout(), &planned, sim);
    let r_base = run_schedules(&w.program, part.layout(), &base, sim);
    let r = if r_planned.exec_time <= r_base.exec_time { r_planned } else { r_base };
    (r.exec_time, r.movement, plan_seconds)
}

/// Reuse-aware vs reuse-agnostic planning (Figure 20's companion text).
fn reuse_ablation(scale: Scale, pool: &Pool) {
    println!("\n== Ablation: reuse-aware vs reuse-agnostic planning ==");
    println!("{:<10} {:>14} {:>14} {:>8}", "app", "aware(move)", "agnostic(move)", "gap");
    let rows = pool.map(&all(scale), |_, w| {
        let aware = run(w, PartitionConfig::default()).1;
        let agnostic = run(
            w,
            PartitionConfig {
                opts: PlanOptions { reuse_aware: false, ..PlanOptions::default() },
                ..PartitionConfig::default()
            },
        )
        .1;
        (w.name, aware, agnostic)
    });
    for (name, aware, agnostic) in rows {
        let gap = if aware == 0 { 0.0 } else { agnostic as f64 / aware as f64 - 1.0 };
        println!("{:<10} {:>14} {:>14} {:>+7.1}%", name, aware, agnostic, 100.0 * gap);
    }
}

/// Optimality gap under reuse-aware vs reuse-agnostic planning: how far
/// above its mode-specific `dmcp-bound` floor each mode's movement sits.
/// The floors differ — without reuse every per-core-fresh line is
/// chargeable, so the agnostic floor is tighter and its ratio smaller
/// even though its movement is higher. A ratio below 1.0 anywhere is a
/// soundness bug.
fn gap_ablation(scale: Scale, pool: &Pool) {
    println!("\n== Ablation: optimality gap (movement / lower bound) ==");
    println!("{:<10} {:>12} {:>12} {:>12}", "app", "bound", "aware-gap", "agnostic-gap");
    let aware = gap_reports_pooled(scale, pool, PlanOptions::default());
    let agnostic = gap_reports_pooled(
        scale,
        pool,
        PlanOptions { reuse_aware: false, ..PlanOptions::default() },
    );
    for (a, g) in aware.iter().zip(&agnostic) {
        assert!(a.sound() && g.sound(), "{}: movement fell below its lower bound", a.name);
        println!(
            "{:<10} {:>12} {:>11.2}x {:>11.2}x",
            a.name,
            a.bound,
            a.gap_ratio(),
            g.gap_ratio()
        );
    }
}

/// Load-balance threshold sweep (the paper's configurable 10 %).
fn balance_ablation(scale: Scale, pool: &Pool) {
    println!("\n== Ablation: load-balance skip threshold (exec time) ==");
    print!("{:<10}", "app");
    let thresholds = [0.0, 0.05, 0.10, 0.25, 1.0];
    for t in thresholds {
        print!(" {:>9}", format!("{:.0}%", t * 100.0));
    }
    println!();
    let rows = pool.map(&all(scale), |_, w| {
        let times: Vec<f64> = thresholds
            .iter()
            .map(|&t| {
                run(
                    w,
                    PartitionConfig {
                        opts: PlanOptions { balance_threshold: t, ..PlanOptions::default() },
                        ..PartitionConfig::default()
                    },
                )
                .0
            })
            .collect();
        (w.name, times)
    });
    for (name, times) in rows {
        print!("{name:<10}");
        for time in times {
            print!(" {time:>9.0}");
        }
        println!();
    }
}

/// The paper's colour-preserving OS page allocation vs a stock allocator:
/// without preserved bits the compiler's location detection degrades.
fn page_policy_ablation(scale: Scale, pool: &Pool) {
    println!("\n== Ablation: colour-preserving vs scrambled page allocation ==");
    println!("{:<10} {:>16} {:>16}", "app", "preserving(move)", "scrambled(move)");
    let rows = pool.map(&all(scale), |_, w| {
        let keep = run(w, PartitionConfig::default()).1;
        let scram = run(
            w,
            PartitionConfig { page_policy: PagePolicy::Scramble, ..PartitionConfig::default() },
        )
        .1;
        (w.name, keep, scram)
    });
    for (name, keep, scram) in rows {
        println!("{name:<10} {keep:>16} {scram:>16}");
    }
}

/// Synchronization arcs before/after transitive reduction (Figure 15's
/// companion: how much the Midkiff–Padua-style pass removes), plus the
/// planner wall-time each workload cost.
fn sync_reduction_stats(scale: Scale, pool: &Pool) {
    println!("\n== Ablation: synchronization transitive reduction ==");
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>9}",
        "app", "arcs-before", "arcs-after", "removed", "plan-ms"
    );
    let machine = MachineConfig::knl_like();
    let rows = pool.map(&all(scale), |_, w| {
        let part = Partitioner::new(&machine, &w.program, PartitionConfig::default());
        let t0 = Instant::now();
        let out = part.partition_with_data_pooled(&w.program, &w.data, &Pool::single());
        let plan_seconds = t0.elapsed().as_secs_f64();
        let before: u64 = out.nests.iter().map(|n| n.stats.syncs_before).sum();
        let after: u64 = out.nests.iter().map(|n| n.stats.syncs_after).sum();
        (w.name, before, after, plan_seconds)
    });
    for (name, before, after, plan_seconds) in rows {
        let removed =
            if before == 0 { 0.0 } else { 100.0 * (before - after) as f64 / before as f64 };
        println!(
            "{:<10} {:>10} {:>10} {:>8.1}% {:>9.2}",
            name,
            before,
            after,
            removed,
            1e3 * plan_seconds
        );
    }
}
