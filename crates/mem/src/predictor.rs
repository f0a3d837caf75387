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
//!
//! Lines are named by dense ids the caller assigns (the planner interns
//! each line of a nest once), so the last-access table is a vector and a
//! prediction is one index, not a hash probe.

/// Reuse-distance-based L2 hit/miss predictor over dense line ids.
///
/// # Examples
///
/// ```
/// use dmcp_mem::MissPredictor;
///
/// let mut p = MissPredictor::new(2);
/// assert!(!p.predict_hit(1)); // cold: predicted miss
/// assert!(p.predict_hit(1));  // immediate reuse: hit
/// ```
#[derive(Clone, Debug)]
pub struct MissPredictor {
    /// Reuse distances (in accesses) beyond this predict a miss: the
    /// estimated L2 capacity in lines times the reuse factor.
    ///
    /// The distinct-line count since a line's previous access is
    /// approximated by the elapsed accesses divided by a reuse factor of 2
    /// (the classic footprint approximation: with a roughly uniform mix,
    /// elapsed accesses ≈ distinct lines × reuse factor).
    horizon: f64,
    /// Logical access clock; the first access happens at time 1.
    clock: u64,
    /// Last-access time per line id; 0 for a line not accessed yet.
    last_access: Vec<u64>,
}

impl MissPredictor {
    /// The reuse factor of the footprint approximation.
    const REUSE_FACTOR: f64 = 2.0;

    /// Creates a predictor that believes the on-chip L2 holds
    /// `capacity_lines` lines.
    pub fn new(capacity_lines: u64) -> Self {
        let capacity_lines = capacity_lines.max(1);
        Self {
            horizon: capacity_lines as f64 * Self::REUSE_FACTOR,
            clock: 0,
            last_access: Vec::new(),
        }
    }

    /// Predicts whether an access to the line with dense id `line` hits
    /// on-chip (L2), and records the access in the predictor's
    /// compile-time model.
    ///
    /// A cold line predicts a miss; a line re-referenced within the capacity
    /// window predicts a hit. Ids index a table that grows to the largest
    /// id seen, so they should be dense.
    pub fn predict_hit(&mut self, line: u32) -> bool {
        self.clock += 1;
        let l = line as usize;
        if l >= self.last_access.len() {
            self.last_access.resize(l + 1, 0);
        }
        let last = std::mem::replace(&mut self.last_access[l], self.clock);
        last != 0 && (self.clock - last) as f64 <= self.horizon
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
            assert!(!p.predict_hit(i), "line {i}");
        }
    }

    #[test]
    fn tight_reuse_predicts_hit() {
        let mut p = MissPredictor::new(64);
        p.predict_hit(1);
        assert!(p.predict_hit(1));
    }

    #[test]
    fn distant_reuse_predicts_miss() {
        let mut p = MissPredictor::new(4);
        p.predict_hit(0);
        for i in 1..100 {
            p.predict_hit(i);
        }
        assert!(!p.predict_hit(0));
    }

    #[test]
    fn reset_forgets_history() {
        let mut p = MissPredictor::new(64);
        p.predict_hit(1);
        p.reset();
        assert!(!p.predict_hit(1));
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
