//! Per-pass allocation counts of the planner, and the simulator's.
//!
//! The number of heap allocations a pass makes repeats from run to run
//! where its time does not, so it can be gated like a digest. This binary
//! installs a global allocator that counts per thread — tests running
//! beside each other in this binary do not add to each other's counts —
//! plans the 24 golden inputs (the 12 Tiny workloads, healthy and under
//! the canonical faults) through `PlanCtx` and `passes()`, and checks
//! every pass against [`PINNED`]. It then simulates the 24 golden plans
//! and checks the simulator's total against [`PINNED_SIM`]. Separately it
//! checks that placing (the place and split passes) allocates less than
//! once per 100 steps it emits.
//!
//! Every pass repeats its count exactly, whatever key the process draws
//! for its hash maps: the two maps left on the planning path — line
//! interning in analyze, whose dense ids then index the predictor's
//! last-access table, and element interning in sync, both hashed with
//! `dmcp_hash::KeyedState` — only insert, so when they grow does not
//! depend on where keys hash. Any change to a count, up or down, fails
//! here and is re-pinned from:
//!
//! ```text
//! cargo test -p dmcp --test alloc_budget -- --ignored --nocapture
//! ```
//!
//! The pins belong to the toolchain they were taken with, rustc
//! [`PINNED_WITH`]: std's `Vec` growth, sort scratch buffers and hash-map
//! resizing decide the counts, so a new Rust release may move them with
//! no change to this code. CI's `test` job installs that toolchain; a
//! toolchain bump re-pins here in the same change.

use dmcp::check::golden::{canonical_faults, GoldenInput, GOLDEN_HEALTHY};
use dmcp::core::{passes, PartitionConfig, Partitioner, PlanCtx};
use dmcp::mach::{FaultState, MachineConfig};
use dmcp::pool::Pool;
use dmcp::sim::SimOptions;
use dmcp::workloads::{all, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`
/// calls on the calling thread.
struct PerThreadCounting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread's locals are torn down, when
    // nothing is being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only other effect is a
// thread-local counter update, which neither allocates nor touches memory
// handed out.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: PerThreadCounting = PerThreadCounting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The toolchain [`PINNED`] was taken with.
const PINNED_WITH: &str = "1.95.0";

/// Allocations per pass over the 24 golden inputs, in pipeline order.
const PINNED: [(&str, u64); 4] =
    [("analyze", 21_616), ("place", 1_718), ("split", 777), ("sync", 3_927)];

/// Allocations of simulating the 24 golden plans with default options
/// (each degraded run's copy of the fault state included).
const PINNED_SIM: u64 = 6_610;

/// Plans the 24 golden inputs and returns each pass's allocations, in
/// pipeline order.
fn pass_allocations() -> Vec<(&'static str, u64)> {
    let machine = MachineConfig::knl_like();
    let faults = FaultState::new(canonical_faults(), machine.mesh).expect("canonical faults fit");
    let pool = Pool::single();
    let mut counts: Vec<(&str, u64)> = passes().iter().map(|p| (p.name(), 0)).collect();
    for w in all(Scale::Tiny) {
        let config = PartitionConfig::default();
        let healthy = Partitioner::new(&machine, &w.program, config.clone());
        let degraded = Partitioner::new_degraded(&machine, &w.program, config, &faults)
            .expect("default config is valid");
        for partitioner in [&healthy, &degraded] {
            let mut ctx = PlanCtx::new(partitioner, &w.program, &w.data, &pool, false, &[]);
            for (pass, (_, count)) in passes().into_iter().zip(&mut counts) {
                let before = allocations();
                pass.run(&mut ctx);
                *count += allocations() - before;
            }
        }
    }
    counts
}

#[test]
fn every_pass_stays_within_its_allocation_budget() {
    let counts = pass_allocations();
    assert_eq!(counts.len(), PINNED.len(), "one pin per pass");
    for ((name, got), (pinned_name, pinned)) in counts.into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name, "pass order changed");
        assert_eq!(
            got, pinned,
            "{name}: {got} allocations, pinned at {pinned} with rustc {PINNED_WITH}; re-pin from \
             `cargo test -p dmcp --test alloc_budget -- --ignored --nocapture`"
        );
    }
}

/// Simulates the 24 golden plans (planned outside the count) and returns
/// the simulator's allocations.
fn sim_allocations() -> u64 {
    let mut total = 0;
    for (name, _) in GOLDEN_HEALTHY {
        for machine in ["healthy", "degraded"] {
            let input = GoldenInput::plan(machine, name);
            let before = allocations();
            let _report = input.simulate(SimOptions::default());
            total += allocations() - before;
        }
    }
    total
}

#[test]
fn the_simulator_stays_within_its_allocation_budget() {
    let got = sim_allocations();
    assert_eq!(
        got, PINNED_SIM,
        "simulator: {got} allocations, pinned at {PINNED_SIM} with rustc {PINNED_WITH}; re-pin \
         from `cargo test -p dmcp --test alloc_budget -- --ignored --nocapture`"
    );
}

/// Plans the 24 golden inputs and returns the allocations of the place
/// and split passes together, and the steps they emit: every placed nest's
/// steps, plus the steps of each nest the split pass re-places (the nests
/// whose warm movement fails the split rule after placement).
fn place_and_split_allocations() -> (u64, usize) {
    let machine = MachineConfig::knl_like();
    let faults = FaultState::new(canonical_faults(), machine.mesh).expect("canonical faults fit");
    let pool = Pool::single();
    let (mut allocs, mut steps) = (0, 0);
    let steps_of = |ctx: &PlanCtx, pos: usize| ctx.nests[pos].plan.as_ref().unwrap().schedule.len();
    for w in all(Scale::Tiny) {
        let config = PartitionConfig::default();
        let threshold = config.opts.split_threshold;
        let healthy = Partitioner::new(&machine, &w.program, config.clone());
        let degraded = Partitioner::new_degraded(&machine, &w.program, config, &faults)
            .expect("default config is valid");
        for partitioner in [&healthy, &degraded] {
            let mut ctx = PlanCtx::new(partitioner, &w.program, &w.data, &pool, false, &[]);
            let [analyze, place, split, sync] = passes();
            analyze.run(&mut ctx);
            let before = allocations();
            place.run(&mut ctx);
            allocs += allocations() - before;
            let replanned: Vec<usize> = (0..ctx.nests.len())
                .filter(|&pos| {
                    let (opt, def) = ctx.nests[pos].plan.as_ref().unwrap().stats.warm_movement();
                    opt as f64 > threshold * def as f64
                })
                .collect();
            steps += (0..ctx.nests.len()).map(|pos| steps_of(&ctx, pos)).sum::<usize>();
            let before = allocations();
            split.run(&mut ctx);
            allocs += allocations() - before;
            steps += replanned.iter().map(|&pos| steps_of(&ctx, pos)).sum::<usize>();
            sync.run(&mut ctx);
        }
    }
    (allocs, steps)
}

#[test]
fn place_and_split_allocate_less_than_once_per_hundred_steps() {
    let (allocs, steps) = place_and_split_allocations();
    assert!(
        allocs * 100 < steps as u64,
        "place and split made {allocs} allocations for {steps} emitted steps"
    );
}

#[test]
#[ignore]
fn print_pass_allocations() {
    for (name, count) in pass_allocations() {
        println!("{name:>14} {count:>10}");
    }
    println!("{:>14} {:>10}", "simulator", sim_allocations());
    let (allocs, steps) = place_and_split_allocations();
    println!("place + split: {allocs} allocations for {steps} emitted steps");
}
