//! Array references: the operands the partitioner places near their data.

use std::fmt;

/// Identifier of a declared array within a [`crate::Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// Index into the program's array table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates an id from a raw table index. Intended for tooling that
    /// enumerates a program's arrays.
    pub fn from_index(index: usize) -> Self {
        ArrayId(index as u32)
    }
}

impl fmt::Debug for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr#{}", self.0)
    }
}

/// Identifier of a loop variable: its depth within the enclosing nest
/// (0 = outermost).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Nesting depth of the variable.
    pub fn depth(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable id from a nesting depth.
    pub fn from_depth(depth: usize) -> Self {
        VarId(depth as u32)
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "var#{}", self.0)
    }
}

/// An affine function of the loop variables: `c0 + Σ coeff_d · var_d`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// Constant term.
    pub c0: i64,
    /// `(variable, coefficient)` pairs; at most one entry per variable.
    pub terms: Vec<(VarId, i64)>,
}

impl AffineExpr {
    /// The constant `c0`.
    pub fn constant(c0: i64) -> Self {
        Self { c0, terms: Vec::new() }
    }

    /// The bare variable `v`.
    pub fn var(v: VarId) -> Self {
        Self { c0: 0, terms: vec![(v, 1)] }
    }

    /// Adds `coeff · v` to the expression. Coefficients combine with
    /// wrapping arithmetic, matching [`AffineExpr::eval`] (a parsed
    /// subscript like `B[i*9223372036854775807 + i*2]` must fold without
    /// panicking).
    pub fn plus_term(mut self, v: VarId, coeff: i64) -> Self {
        if coeff != 0 {
            match self.terms.iter_mut().find(|(tv, _)| *tv == v) {
                Some((_, c)) => *c = c.wrapping_add(coeff),
                None => self.terms.push((v, coeff)),
            }
            self.terms.retain(|&(_, c)| c != 0);
        }
        self
    }

    /// Evaluates at a concrete iteration vector.
    ///
    /// Arithmetic wraps: subscript values are reduced into array bounds by
    /// `rem_euclid` downstream anyway, so two's-complement wrapping is the
    /// defined semantics for extreme coefficients (the `dmcp-check` fuzzer
    /// found debug-build overflow panics here with coefficients near
    /// `i64::MAX`).
    pub fn eval(&self, iter: &[i64]) -> i64 {
        self.terms.iter().fold(self.c0, |acc, &(v, c)| {
            acc.wrapping_add(c.wrapping_mul(iter.get(v.depth()).copied().unwrap_or(0)))
        })
    }

    /// `true` if the expression involves no loop variable.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Inclusive `(min, max)` of the expression over an iteration box:
    /// `ranges[d]` is the half-open `lo..hi` range of the depth-`d` loop
    /// variable (a [`crate::program::LoopDim`]). Variables beyond the box
    /// evaluate as 0, matching [`AffineExpr::eval`]. Computed in 128-bit
    /// arithmetic and saturated to `i64`, so extreme coefficients report a
    /// conservative (full-range) answer instead of a wrapped one.
    pub fn bounds_over(&self, ranges: &[(i64, i64)]) -> (i64, i64) {
        let mut lo = i128::from(self.c0);
        let mut hi = i128::from(self.c0);
        for &(v, c) in &self.terms {
            let (vlo, vhi) = match ranges.get(v.depth()) {
                Some(&(a, b)) if a < b => (i128::from(a), i128::from(b) - 1),
                _ => (0, 0),
            };
            let (a, b) = (i128::from(c) * vlo, i128::from(c) * vhi);
            lo += a.min(b);
            hi += a.max(b);
        }
        (
            lo.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64,
            hi.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64,
        )
    }

    /// Upper bound on the number of *distinct* values the expression takes
    /// over the iteration box (same conventions as
    /// [`AffineExpr::bounds_over`]): the smaller of the value span and the
    /// number of iteration points the participating variables enumerate.
    /// Exact for the single-variable strides the workloads use.
    pub fn distinct_over(&self, ranges: &[(i64, i64)]) -> u64 {
        let mut points = 1u128;
        let mut varies = false;
        for &(v, _) in &self.terms {
            if let Some(&(a, b)) = ranges.get(v.depth()) {
                if a < b {
                    varies = true;
                    points = points.saturating_mul((b - a) as u128);
                }
            }
        }
        if !varies {
            return 1;
        }
        let (lo, hi) = self.bounds_over(ranges);
        let span = (i128::from(hi) - i128::from(lo) + 1) as u128;
        u64::try_from(points.min(span)).unwrap_or(u64::MAX)
    }
}

/// One subscript of an array reference.
#[derive(Clone, Debug, PartialEq)]
pub enum IndexExpr {
    /// An affine subscript (`i`, `i+1`, `2*i+j`): statically analyzable.
    Affine(AffineExpr),
    /// An indirect subscript (`Y[i]` in `X[Y[i]]`): the subscript is the
    /// run-time value of another reference, so the target is a
    /// may-dependence / unanalyzable location at compile time.
    Indirect(Box<ArrayRef>),
}

impl IndexExpr {
    /// `true` for affine subscripts.
    pub fn is_affine(&self) -> bool {
        matches!(self, IndexExpr::Affine(_))
    }
}

/// A reference to an array element, e.g. `B[i+1]` or `X[Y[i]]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// One subscript per array dimension.
    pub indices: Vec<IndexExpr>,
    /// Whether the compiler's static analysis can pin down this reference's
    /// location. Indirect subscripts force `false`; workload generators may
    /// also clear it on affine references to model aliasing/analysis limits
    /// (paper Table 1).
    pub analyzable: bool,
}

impl ArrayRef {
    /// Creates an affine, analyzable reference.
    pub fn affine(array: ArrayId, indices: Vec<AffineExpr>) -> Self {
        Self {
            array,
            indices: indices.into_iter().map(IndexExpr::Affine).collect(),
            analyzable: true,
        }
    }

    /// Creates a reference with arbitrary subscripts; analyzability follows
    /// from the subscripts (any indirect subscript ⇒ not analyzable).
    pub fn new(array: ArrayId, indices: Vec<IndexExpr>) -> Self {
        let analyzable = indices.iter().all(IndexExpr::is_affine);
        Self { array, indices, analyzable }
    }

    /// `true` if every subscript is affine.
    pub fn is_affine(&self) -> bool {
        self.indices.iter().all(IndexExpr::is_affine)
    }

    /// Marks the reference as unanalyzable (used by workload generators to
    /// model references the paper's compiler could not disambiguate).
    pub fn mark_unanalyzable(&mut self) {
        self.analyzable = false;
    }

    /// Upper bound on the number of distinct index tuples the reference
    /// touches over an iteration box (`ranges[d]` = half-open `lo..hi` of
    /// the depth-`d` loop variable): the product of each affine
    /// subscript's [`AffineExpr::distinct_over`]. `None` for indirect
    /// references, whose footprint is data-dependent.
    ///
    /// This is the static "distinct footprint" term of the compulsory
    /// lower-bound construction (`dmcp_core::bound`); subscript wrapping into
    /// the array extents downstream can only merge tuples, so the product
    /// stays an upper bound on touched elements.
    pub fn footprint_over(&self, ranges: &[(i64, i64)]) -> Option<u64> {
        let mut total = 1u128;
        for idx in &self.indices {
            match idx {
                IndexExpr::Affine(a) => {
                    total = total.saturating_mul(u128::from(a.distinct_over(ranges)));
                }
                IndexExpr::Indirect(_) => return None,
            }
        }
        Some(u64::try_from(total).unwrap_or(u64::MAX))
    }

    /// All references contained in this one, including itself and any
    /// references nested in indirect subscripts.
    pub fn all_refs(&self) -> Vec<&ArrayRef> {
        let mut out = vec![self];
        for idx in &self.indices {
            if let IndexExpr::Indirect(inner) = idx {
                out.extend(inner.all_refs());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(d: usize) -> VarId {
        VarId::from_depth(d)
    }

    #[test]
    fn affine_eval() {
        // 3 + 2*i - j at (i,j) = (5, 4) -> 9
        let e = AffineExpr::constant(3).plus_term(v(0), 2).plus_term(v(1), -1);
        assert_eq!(e.eval(&[5, 4]), 9);
    }

    #[test]
    fn plus_term_merges_and_cancels() {
        let e = AffineExpr::var(v(0)).plus_term(v(0), -1);
        assert!(e.is_constant());
        assert_eq!(e.eval(&[100]), 0);
    }

    #[test]
    fn missing_vars_evaluate_as_zero() {
        let e = AffineExpr::var(v(3));
        assert_eq!(e.eval(&[1, 2]), 0);
    }

    // dmcp-check shrunken counterexample: `B[i*4611686018427387904]` at
    // i = 4 overflowed `c * iter` in debug builds. Evaluation now wraps.
    #[test]
    fn eval_wraps_on_extreme_coefficients() {
        let e = AffineExpr::constant(i64::MAX).plus_term(v(0), 1 << 62);
        assert_eq!(e.eval(&[4]), i64::MAX.wrapping_add((1i64 << 62).wrapping_mul(4)));
    }

    // dmcp-check shrunken counterexample: parsing
    // `B[i*9223372036854775807 + i*2]` folded the two coefficients with a
    // checked add and panicked in debug builds.
    #[test]
    fn plus_term_wraps_when_merging_coefficients() {
        let e = AffineExpr::var(v(0)).plus_term(v(0), i64::MAX);
        assert_eq!(e.terms, vec![(v(0), i64::MIN)]);
    }

    #[test]
    fn affine_ref_is_analyzable() {
        let r = ArrayRef::affine(ArrayId(0), vec![AffineExpr::var(v(0))]);
        assert!(r.is_affine());
        assert!(r.analyzable);
    }

    #[test]
    fn indirect_ref_is_not_analyzable() {
        let inner = ArrayRef::affine(ArrayId(1), vec![AffineExpr::var(v(0))]);
        let r = ArrayRef::new(ArrayId(0), vec![IndexExpr::Indirect(Box::new(inner))]);
        assert!(!r.is_affine());
        assert!(!r.analyzable);
    }

    #[test]
    fn all_refs_includes_nested() {
        let inner = ArrayRef::affine(ArrayId(1), vec![AffineExpr::var(v(0))]);
        let r = ArrayRef::new(ArrayId(0), vec![IndexExpr::Indirect(Box::new(inner))]);
        let refs = r.all_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].array, ArrayId(0));
        assert_eq!(refs[1].array, ArrayId(1));
    }

    #[test]
    fn bounds_over_tracks_signs_and_missing_vars() {
        // 3 + 2*i - j over i ∈ 0..4, j ∈ 1..3 → min 3+0-2=1, max 3+6-1=8.
        let e = AffineExpr::constant(3).plus_term(v(0), 2).plus_term(v(1), -1);
        assert_eq!(e.bounds_over(&[(0, 4), (1, 3)]), (1, 8));
        // A variable beyond the box evaluates as 0, like eval().
        let f = AffineExpr::constant(5).plus_term(v(3), 7);
        assert_eq!(f.bounds_over(&[(0, 4)]), (5, 5));
        // Extreme coefficients saturate instead of wrapping.
        let g = AffineExpr::constant(0).plus_term(v(0), i64::MAX);
        assert_eq!(g.bounds_over(&[(-2, 3)]).0, i64::MIN);
        assert_eq!(g.bounds_over(&[(-2, 3)]).1, i64::MAX);
    }

    #[test]
    fn distinct_over_is_exact_for_strides() {
        // i over 0..10: 10 distinct values.
        assert_eq!(AffineExpr::var(v(0)).distinct_over(&[(0, 10)]), 10);
        // 4*i over 0..10: still 10 (span 37 but only 10 points).
        let strided = AffineExpr::constant(0).plus_term(v(0), 4);
        assert_eq!(strided.distinct_over(&[(0, 10)]), 10);
        // i + j over i,j ∈ 0..4: span 0..=6 → 7 < 16 points.
        let sum = AffineExpr::var(v(0)).plus_term(v(1), 1);
        assert_eq!(sum.distinct_over(&[(0, 4), (0, 4)]), 7);
        // Constants take one value.
        assert_eq!(AffineExpr::constant(9).distinct_over(&[(0, 100)]), 1);
    }

    #[test]
    fn footprint_over_multiplies_subscripts_and_rejects_indirect() {
        let r = ArrayRef::affine(ArrayId(0), vec![AffineExpr::var(v(0)), AffineExpr::var(v(1))]);
        assert_eq!(r.footprint_over(&[(0, 8), (0, 3)]), Some(24));
        let inner = ArrayRef::affine(ArrayId(1), vec![AffineExpr::var(v(0))]);
        let ind = ArrayRef::new(ArrayId(0), vec![IndexExpr::Indirect(Box::new(inner))]);
        assert_eq!(ind.footprint_over(&[(0, 8)]), None);
    }

    #[test]
    fn mark_unanalyzable() {
        let mut r = ArrayRef::affine(ArrayId(0), vec![AffineExpr::constant(0)]);
        r.mark_unanalyzable();
        assert!(!r.analyzable);
        assert!(r.is_affine());
    }
}
