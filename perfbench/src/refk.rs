//! The reference kernel: a fixed CPU- and cache-bound job timed between
//! the planner and simulator calls, so that their times can be reported in
//! units of it.
//!
//! The host this benchmark was built on is a 2-vCPU guest whose speed
//! drifts for tens of seconds at a time, with no hardware counters to
//! count work instead of time. A ratio of two times taken moments apart
//! cancels most of that drift. The kernel uses only the standard library:
//! nothing a change to the repository does can change its cost.

use crate::rng::mix;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Values sorted per run; half as many keys go into the hash map.
const N: u64 = 80_000;
/// Ordered-map operations and small vectors built per run.
const M: u64 = 32_000;

/// One run of the kernel, about 10 ms on the 2-vCPU host it was tuned on.
/// Half of it inserts `N/2` splitmix64 keys into a `HashMap` with a
/// fixed-key hasher, looks up `N` keys (half present) and sorts `N`
/// values; the other half churns a `BTreeMap` of small vectors and builds
/// and sorts many short vectors. The planner is heavy on exactly these:
/// hashing, ordered maps and short-lived small allocations, and on this
/// host the mix tracked the planner's slow phases better than either half
/// alone. Returns a checksum so the work cannot be optimised away.
#[must_use]
pub fn kernel() -> u64 {
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher((N / 2) as usize, BuildHasherDefault::default());
    for i in 0..N / 2 {
        map.insert(mix(i), i);
    }
    let mut sum = 0u64;
    for i in 0..N {
        if let Some(v) = map.get(&mix(black_box(i))) {
            sum = sum.wrapping_add(*v);
        }
    }
    let mut values: Vec<u64> = (0..N).map(|i| mix(i ^ 0xA5A5)).collect();
    values.sort_unstable();
    sum ^= values[(N / 2) as usize];

    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for i in 0..M {
        let group = groups.entry(mix(black_box(i)) % (M / 3)).or_default();
        group.push(i);
        if group.len() > 4 {
            sum = sum.wrapping_add(group.iter().sum::<u64>());
            group.clear();
        }
    }
    let mut small: Vec<Vec<u32>> = Vec::new();
    for i in 0..M as u32 {
        let mut v: Vec<u32> = (0..i % 13).map(|x| x ^ black_box(i)).collect();
        v.sort_unstable();
        small.push(v);
        if small.len() > 512 {
            small.clear();
        }
    }
    sum ^ groups.len() as u64 ^ small.len() as u64
}

/// Times one kernel run, in seconds.
#[must_use]
pub fn time_once() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        assert_eq!(kernel(), kernel());
    }
}
