//! The compile-time L2 hit/miss predictor (paper Section 4.1, Table 2).
//!
//! When locating data, the compiler must decide whether a reference will be
//! served by its home L2 bank (location = home node) or will miss to memory
//! (location = memory controller). The paper uses a predictor in the style of
//! Chandra et al. (ref. \[11\]); we model it as a *stack-distance* predictor: a
//! reference is predicted to hit in L2 if its reuse distance (number of
//! distinct lines touched since the previous access to the same line) is
//! below the predictor's capacity estimate.
//!
//! The predictor is deliberately imperfect — it ignores associativity,
//! bank-conflict and cross-thread interference — which is exactly what
//! produces the per-application accuracies the paper reports in Table 2. Its
//! accuracy is *measured* against the real cache model by the simulator.

use crate::addr::LineAddr;
use std::collections::HashMap;

/// Reuse-distance-based L2 hit/miss predictor.
///
/// # Examples
///
/// ```
/// use dmcp_mem::{LineAddr, MissPredictor};
///
/// let mut p = MissPredictor::new(2);
/// assert!(!p.predict_hit(LineAddr::new(1))); // cold: predicted miss
/// assert!(p.predict_hit(LineAddr::new(1)));  // immediate reuse: hit
/// ```
#[derive(Clone, Debug)]
pub struct MissPredictor {
    /// Estimated L2 capacity in lines; reuse distances beyond this predict a
    /// miss.
    capacity_lines: u64,
    /// Logical access clock.
    clock: u64,
    /// Last-access time per line.
    last_access: HashMap<LineAddr, u64>,
    /// Approximate distinct-line counter: number of distinct lines seen in
    /// the window `[clock - capacity_window, clock]`, approximated by the
    /// time difference (the classic footprint approximation: with a roughly
    /// uniform mix, elapsed accesses ≈ distinct lines × reuse factor).
    reuse_factor: f64,
}

impl MissPredictor {
    /// Creates a predictor that believes the on-chip L2 holds
    /// `capacity_lines` lines.
    pub fn new(capacity_lines: u64) -> Self {
        Self {
            capacity_lines: capacity_lines.max(1),
            clock: 0,
            last_access: HashMap::new(),
            reuse_factor: 2.0,
        }
    }

    /// Predicts whether an access to `line` hits on-chip (L2), and records
    /// the access in the predictor's compile-time model.
    ///
    /// A cold line predicts a miss; a line re-referenced within the capacity
    /// window predicts a hit.
    pub fn predict_hit(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let hit = match self.last_access.get(&line) {
            None => false,
            Some(&t) => {
                let elapsed = (self.clock - t) as f64;
                elapsed <= self.capacity_lines as f64 * self.reuse_factor
            }
        };
        self.last_access.insert(line, self.clock);
        hit
    }

    /// Forgets all history (e.g. between loop nests).
    pub fn reset(&mut self) {
        self.clock = 0;
        self.last_access.clear();
    }
}

/// Tracks predictor accuracy against the ground truth observed by the cache
/// simulation (this produces the paper's Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictorAccuracy {
    /// Predictions that matched the simulated outcome.
    pub correct: u64,
    /// Total predictions checked.
    pub total: u64,
}

impl PredictorAccuracy {
    /// Records one (prediction, actual) pair.
    pub fn record(&mut self, predicted_hit: bool, actual_hit: bool) {
        self.total += 1;
        if predicted_hit == actual_hit {
            self.correct += 1;
        }
    }

    /// Fraction of correct predictions; 1.0 when nothing was checked.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_lines_predict_miss() {
        let mut p = MissPredictor::new(64);
        for i in 0..10 {
            assert!(!p.predict_hit(LineAddr::new(i)), "line {i}");
        }
    }

    #[test]
    fn tight_reuse_predicts_hit() {
        let mut p = MissPredictor::new(64);
        p.predict_hit(LineAddr::new(1));
        assert!(p.predict_hit(LineAddr::new(1)));
    }

    #[test]
    fn distant_reuse_predicts_miss() {
        let mut p = MissPredictor::new(4);
        p.predict_hit(LineAddr::new(0));
        for i in 1..100 {
            p.predict_hit(LineAddr::new(i));
        }
        assert!(!p.predict_hit(LineAddr::new(0)));
    }

    #[test]
    fn reset_forgets_history() {
        let mut p = MissPredictor::new(64);
        p.predict_hit(LineAddr::new(1));
        p.reset();
        assert!(!p.predict_hit(LineAddr::new(1)));
    }

    #[test]
    fn accuracy_tracking() {
        let mut acc = PredictorAccuracy::default();
        acc.record(true, true);
        acc.record(false, true);
        acc.record(false, false);
        acc.record(true, false);
        assert_eq!(acc.total, 4);
        assert!((acc.accuracy() - 0.5).abs() < 1e-12);
        assert_eq!(PredictorAccuracy::default().accuracy(), 1.0);
    }
}
