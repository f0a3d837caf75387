//! Per-pass allocation budget of the planner.
//!
//! The number of heap allocations a pass makes repeats from run to run
//! where its time does not, so it can be gated like a digest. This binary
//! installs a global allocator that counts per thread — tests running
//! beside each other in this binary do not add to each other's counts —
//! plans the 24 golden inputs (the 12 Tiny workloads, healthy and under
//! the canonical faults) on `Pool::single()` through `PlanCtx` and
//! `passes()`, and checks every pass against [`BUDGET`].
//!
//! The counts are not exact to the unit: the std hash maps draw random
//! keys, which moves a few in-place rehashes, so counts differ by a
//! handful between runs. The budget is the counts the planner makes
//! today plus 2 %. To see them:
//!
//! ```text
//! cargo test -p dmcp --test alloc_budget -- --ignored --nocapture
//! ```

use dmcp::check::golden::canonical_faults;
use dmcp::core::{passes, PartitionConfig, Partitioner, PlanCtx};
use dmcp::mach::{FaultState, MachineConfig};
use dmcp::pool::Pool;
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

/// Allocations per pass over the 24 golden inputs, in pipeline order: the
/// planner's counts plus 2 %.
const BUDGET: [(&str, u64); 5] = [
    ("analyze", 88_485),
    ("window-search", 4_283_051),
    ("place", 4_022_857),
    ("split", 2_305_110),
    ("sync", 1_366_804),
];

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
    assert_eq!(counts.len(), BUDGET.len(), "one budget per pass");
    for ((name, got), (budget_name, budget)) in counts.into_iter().zip(BUDGET) {
        assert_eq!(name, budget_name, "pass order changed");
        assert!(got <= budget, "{name}: {got} allocations exceed its budget of {budget}");
    }
}

#[test]
#[ignore]
fn print_pass_allocations() {
    for (name, count) in pass_allocations() {
        println!("{name:>14} {count:>10}  budget {}", count + count / 50);
    }
}
