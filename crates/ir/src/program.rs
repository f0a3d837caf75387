//! Programs: array declarations, loop nests, statements and data.

use crate::access::{ArrayId, ArrayRef, IndexExpr, VarId};
use crate::expr::Expr;
use crate::parser::{parse_statement, ParseCtx, ParseError};
use crate::symbol::{Symbol, SymbolTable};
use std::fmt;

/// A concrete iteration vector (outermost loop first).
pub type IterVec = Vec<i64>;

/// One dimension of a loop nest: `for var in lo..hi`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopDim {
    /// Interned source name of the loop variable (resolved through the
    /// owning program's [`SymbolTable`]; display-only).
    pub name: Symbol,
    /// Inclusive lower bound.
    pub lo: i64,
    /// Exclusive upper bound.
    pub hi: i64,
}

impl LoopDim {
    /// Number of iterations of this dimension. Saturates instead of
    /// overflowing for pathological bounds like `(i64::MIN, i64::MAX)`
    /// (found by the `dmcp-check` program-shape fuzzer).
    pub fn trip_count(&self) -> u64 {
        if self.hi <= self.lo {
            return 0;
        }
        u64::try_from(i128::from(self.hi) - i128::from(self.lo)).unwrap_or(u64::MAX)
    }
}

/// A statement `lhs = rhs` inside a loop body.
#[derive(Clone, Debug, PartialEq)]
pub struct Statement {
    /// The written reference (the "store node" owner in the paper).
    pub lhs: ArrayRef,
    /// The right-hand side.
    pub rhs: Expr,
}

impl Statement {
    /// All references *read* by the statement (rhs reads plus reads embedded
    /// in the lhs's indirect subscripts).
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = self.rhs.reads();
        for idx in &self.lhs.indices {
            if let IndexExpr::Indirect(inner) = idx {
                out.extend(inner.all_refs());
            }
        }
        out
    }

    /// All references touched by the statement, writes and reads.
    pub fn all_refs(&self) -> Vec<&ArrayRef> {
        let mut out = vec![&self.lhs];
        out.extend(self.reads());
        out
    }

    /// Visits every array reference of the statement mutably (lhs first,
    /// then rhs, including references nested inside indirect subscripts).
    /// Used by workload generators to adjust analyzability flags.
    pub fn for_each_ref_mut(&mut self, f: &mut dyn FnMut(&mut ArrayRef)) {
        visit_ref_mut(&mut self.lhs, f);
        visit_expr_mut(&mut self.rhs, f);
    }
}

fn visit_ref_mut(r: &mut ArrayRef, f: &mut dyn FnMut(&mut ArrayRef)) {
    f(r);
    for idx in &mut r.indices {
        if let IndexExpr::Indirect(inner) = idx {
            visit_ref_mut(inner, f);
        }
    }
}

fn visit_expr_mut(e: &mut crate::expr::Expr, f: &mut dyn FnMut(&mut ArrayRef)) {
    match e {
        crate::expr::Expr::Const(_) => {}
        crate::expr::Expr::Ref(r) => visit_ref_mut(r, f),
        crate::expr::Expr::Bin { lhs, rhs, .. } => {
            visit_expr_mut(lhs, f);
            visit_expr_mut(rhs, f);
        }
    }
}

/// A perfectly nested loop with a multi-statement body.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopNest {
    /// The loop dimensions, outermost first.
    pub dims: Vec<LoopDim>,
    /// The loop body, in textual order.
    pub body: Vec<Statement>,
}

impl LoopNest {
    /// Total number of iterations (product of trip counts, saturating: a
    /// nest whose true count exceeds `u64::MAX` reports `u64::MAX` rather
    /// than overflowing).
    pub fn iteration_count(&self) -> u64 {
        self.dims.iter().map(LoopDim::trip_count).fold(1u64, u64::saturating_mul)
    }

    /// Iterates over all iteration vectors in lexicographic (execution)
    /// order.
    pub fn iterations(&self) -> NestIterations<'_> {
        NestIterations { nest: self, next: self.first_iter(), done: self.iteration_count() == 0 }
    }

    fn first_iter(&self) -> IterVec {
        self.dims.iter().map(|d| d.lo).collect()
    }
}

/// Iterator over a nest's iteration vectors.
#[derive(Clone, Debug)]
pub struct NestIterations<'a> {
    nest: &'a LoopNest,
    next: IterVec,
    done: bool,
}

impl Iterator for NestIterations<'_> {
    type Item = IterVec;

    fn next(&mut self) -> Option<IterVec> {
        if self.done {
            return None;
        }
        let current = self.next.clone();
        // Advance like an odometer, innermost dimension fastest.
        let mut d = self.nest.dims.len();
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.next[d] += 1;
            if self.next[d] < self.nest.dims[d].hi {
                break;
            }
            self.next[d] = self.nest.dims[d].lo;
        }
        Some(current)
    }
}

/// A declared array.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Interned source name (resolved through the owning program's
    /// [`SymbolTable`]; display-only).
    pub name: Symbol,
    /// Extents, outermost dimension first.
    pub dims: Vec<u64>,
    /// Element size in bytes.
    pub elem_size: u32,
    /// Base virtual address (assigned by the builder).
    pub base_va: u64,
    /// Whether the workload placed this array into fast (MCDRAM) memory
    /// under the flat memory mode.
    pub hot: bool,
}

impl ArrayDecl {
    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.dims.iter().product()
    }

    /// `true` if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Virtual address of a linear element index (wrapped into bounds).
    pub fn va_of(&self, linear: u64) -> u64 {
        self.base_va + (linear % self.len().max(1)) * u64::from(self.elem_size)
    }
}

/// A whole program: arrays plus loop nests.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
    symbols: SymbolTable,
}

impl Program {
    /// The declared arrays, indexable by [`ArrayId::index`].
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The program's identifier names (display/explain only — nothing
    /// semantic keys on them).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Source name of an array (`"?"` for placeholder symbols).
    pub fn array_name(&self, id: ArrayId) -> &str {
        self.symbols.name_or_unknown(self.array(id).name)
    }

    /// The loop nests in program order.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }

    /// Mutable access to the nests, for workload generators that
    /// post-process statements (e.g. clearing analyzability flags to model
    /// references the compiler could not disambiguate, or setting them on
    /// indirect references covered by the inspector/executor scheme).
    pub fn nests_mut(&mut self) -> &mut [LoopNest] {
        &mut self.nests
    }

    /// Declaration of an array.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.index()]
    }

    /// Linear element index of a reference at a concrete iteration, wrapped
    /// into the array bounds (synthetic workloads stay in bounds by
    /// construction; wrapping keeps evaluation total).
    ///
    /// Indirect subscripts read their index from `data`.
    pub fn element_of(&self, r: &ArrayRef, iter: &[i64], data: &DataStore) -> u64 {
        let decl = self.array(r.array);
        let mut linear: u64 = 0;
        for (d, idx) in r.indices.iter().enumerate() {
            let extent = decl.dims.get(d).copied().unwrap_or(1).max(1);
            let value = match idx {
                IndexExpr::Affine(a) => a.eval(iter),
                IndexExpr::Indirect(inner) => {
                    let inner_elem = self.element_of(inner, iter, data);
                    data.get(inner.array, inner_elem) as i64
                }
            };
            let wrapped = value.rem_euclid(extent as i64) as u64;
            linear = linear * extent + wrapped;
        }
        linear % decl.len().max(1)
    }

    /// Linear element index of a purely affine reference (no data store
    /// needed).
    ///
    /// # Panics
    ///
    /// Panics if the reference has an indirect subscript.
    pub fn element_of_affine(&self, r: &ArrayRef, iter: &[i64]) -> u64 {
        assert!(r.is_affine(), "element_of_affine on indirect reference");
        let decl = self.array(r.array);
        let mut linear: u64 = 0;
        for (d, idx) in r.indices.iter().enumerate() {
            let extent = decl.dims.get(d).copied().unwrap_or(1).max(1);
            let value = match idx {
                IndexExpr::Affine(a) => a.eval(iter),
                IndexExpr::Indirect(_) => unreachable!("checked affine above"),
            };
            linear = linear * extent + value.rem_euclid(extent as i64) as u64;
        }
        linear % decl.len().max(1)
    }

    /// Static fraction of references (across all nests) whose location is
    /// compile-time analyzable — the paper's Table 1, weighted statically.
    pub fn static_analyzability(&self) -> f64 {
        let (mut total, mut ok) = (0u64, 0u64);
        for nest in &self.nests {
            for stmt in &nest.body {
                for r in stmt.all_refs() {
                    total += 1;
                    if r.analyzable {
                        ok += 1;
                    }
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Analyzable fraction weighted by dynamic instance counts (each nest's
    /// references weighted by its iteration count).
    pub fn dynamic_analyzability(&self) -> f64 {
        let (mut total, mut ok) = (0u64, 0u64);
        for nest in &self.nests {
            let weight = nest.iteration_count();
            for stmt in &nest.body {
                for r in stmt.all_refs() {
                    // Saturate: a nest at the `u64::MAX` trip-count ceiling
                    // contributes ceiling weight per reference, not a wrap.
                    total = total.saturating_add(weight);
                    if r.analyzable {
                        ok = ok.saturating_add(weight);
                    }
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Creates the deterministic initial data for this program.
    pub fn initial_data(&self) -> DataStore {
        DataStore::for_program(self)
    }
}

/// Concrete element values for every array, used for indirect subscripts and
/// for end-to-end numerical correctness checks of generated schedules.
///
/// Initial values are deterministic and never zero (so divisions stay
/// finite).
#[derive(Clone, Debug, PartialEq)]
pub struct DataStore {
    values: Vec<Vec<f64>>,
}

/// One element where two [`DataStore`]s disagree, as reported by
/// [`DataStore::first_mismatch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mismatch {
    /// The array the disagreeing element belongs to.
    pub array: ArrayId,
    /// Linear element index within the array.
    pub elem: u64,
    /// The value in `self`.
    pub left: f64,
    /// The value in `other`.
    pub right: f64,
}

impl DataStore {
    /// Builds the default initial values for a program.
    pub fn for_program(program: &Program) -> Self {
        let values = program
            .arrays
            .iter()
            .enumerate()
            .map(|(ai, decl)| {
                (0..decl.len()).map(|e| ((ai as u64 * 31 + e * 17) % 97) as f64 + 1.0).collect()
            })
            .collect();
        Self { values }
    }

    /// Reads one element (wrapped into bounds).
    pub fn get(&self, array: ArrayId, elem: u64) -> f64 {
        let v = &self.values[array.index()];
        v[(elem % v.len().max(1) as u64) as usize]
    }

    /// Writes one element (wrapped into bounds).
    pub fn set(&mut self, array: ArrayId, elem: u64, value: f64) {
        let len = self.values[array.index()].len().max(1) as u64;
        let slot = (elem % len) as usize;
        self.values[array.index()][slot] = value;
    }

    /// `true` if every element matches `other` within relative tolerance
    /// `rel_tol` (reordered `/` chains are equal only up to rounding).
    pub fn approx_eq(&self, other: &DataStore, rel_tol: f64) -> bool {
        self.same_shape(other) && self.first_mismatch(other, rel_tol).is_none()
    }

    /// `true` if both stores hold the same arrays with the same lengths
    /// (i.e. were built for structurally identical programs).
    pub fn same_shape(&self, other: &DataStore) -> bool {
        self.values.len() == other.values.len()
            && self.values.iter().zip(&other.values).all(|(a, b)| a.len() == b.len())
    }

    /// The first element (in array-major order) where the two stores differ
    /// by more than `rel_tol` relative tolerance, or `None` if they agree.
    /// With `rel_tol == 0.0` this is a bit-exactness check. Non-finite
    /// values conform only to the same class — equal infinities or both
    /// NaN — never to a finite value, whatever the tolerance (`inf − inf`
    /// is NaN, so the relative formula alone would both reject agreeing
    /// infinities and accept a finite value against infinity).
    /// Conformance checkers use the returned [`Mismatch`] to report
    /// *where* a schedule diverged from the interpreter.
    ///
    /// # Panics
    ///
    /// Panics if the stores have different shapes; compare shapes first
    /// with [`DataStore::same_shape`] when that is not already known.
    pub fn first_mismatch(&self, other: &DataStore, rel_tol: f64) -> Option<Mismatch> {
        assert!(self.same_shape(other), "first_mismatch on differently-shaped stores");
        for (ai, (a, b)) in self.values.iter().zip(&other.values).enumerate() {
            for (e, (&x, &y)) in a.iter().zip(b).enumerate() {
                let agree = if x.is_finite() && y.is_finite() {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    if rel_tol == 0.0 {
                        x == y
                    } else {
                        (x - y).abs() <= rel_tol * scale
                    }
                } else {
                    x == y || (x.is_nan() && y.is_nan())
                };
                if !agree {
                    return Some(Mismatch {
                        array: ArrayId::from_index(ai),
                        elem: e as u64,
                        left: x,
                        right: y,
                    });
                }
            }
        }
        None
    }

    /// Number of arrays in the store.
    pub fn array_count(&self) -> usize {
        self.values.len()
    }

    /// Number of elements held for `array`.
    pub fn len_of(&self, array: ArrayId) -> u64 {
        self.values[array.index()].len() as u64
    }

    /// The raw per-array value vectors, for the structural hasher.
    pub(crate) fn raw_values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Replaces an entire array's contents (used by workloads to install
    /// index arrays for indirect accesses). Values are truncated or repeated
    /// to the array length.
    pub fn fill(&mut self, array: ArrayId, values: &[f64]) {
        let len = self.values[array.index()].len();
        for i in 0..len {
            self.values[array.index()][i] = values[i % values.len().max(1)];
        }
    }
}

/// An error from [`ProgramBuilder::nest`].
#[derive(Clone, Debug, PartialEq)]
pub enum BuildError {
    /// A statement failed to parse.
    Parse(ParseError),
    /// A nest declared no loops.
    EmptyNest,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "statement parse error: {e}"),
            BuildError::EmptyNest => f.write_str("a loop nest needs at least one loop"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Parse(e) => Some(e),
            BuildError::EmptyNest => None,
        }
    }
}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}

/// Incrementally builds a [`Program`].
///
/// # Examples
///
/// ```
/// use dmcp_ir::program::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// b.array("A", &[128], 8);
/// b.array("B", &[128], 8);
/// b.nest(&[("i", 0, 128)], &["A[i] = B[i] * 2"])?;
/// let p = b.build();
/// assert_eq!(p.nests()[0].iteration_count(), 128);
/// # Ok::<(), dmcp_ir::program::BuildError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
    symbols: SymbolTable,
    next_va: u64,
}

/// Base of the synthetic virtual address space arrays are laid out in.
const VA_BASE: u64 = 0x10_0000;
/// Guard gap between arrays, in bytes.
const VA_GAP: u64 = 4096;

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            arrays: Vec::new(),
            nests: Vec::new(),
            symbols: SymbolTable::new(),
            next_va: VA_BASE,
        }
    }

    /// Declares an array and returns its id.
    ///
    /// Arrays are laid out sequentially in virtual memory, page-aligned,
    /// each shifted by a per-array line offset so that different arrays'
    /// first elements home onto different L2 banks (as different heap
    /// allocations do in practice).
    pub fn array(&mut self, name: impl Into<String>, dims: &[u64], elem_size: u32) -> ArrayId {
        self.array_with(name, dims, elem_size, false)
    }

    /// Declares an array placed into fast (MCDRAM) memory under the flat
    /// memory mode.
    pub fn hot_array(&mut self, name: impl Into<String>, dims: &[u64], elem_size: u32) -> ArrayId {
        self.array_with(name, dims, elem_size, true)
    }

    fn array_with(
        &mut self,
        name: impl Into<String>,
        dims: &[u64],
        elem_size: u32,
        hot: bool,
    ) -> ArrayId {
        assert!(!dims.is_empty(), "arrays need at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "array extents must be nonzero");
        assert!(elem_size > 0, "element size must be nonzero");
        let idx = self.arrays.len();
        // Line-granularity skew: spread array bases over banks.
        let skew = (idx as u64 * 7 % 64) * 64;
        let base_va = self.next_va + skew;
        let bytes = dims.iter().product::<u64>() * u64::from(elem_size);
        self.next_va += ((bytes + skew + VA_GAP) / 4096 + 1) * 4096;
        self.arrays.push(ArrayDecl {
            name: self.symbols.intern(&name.into()),
            dims: dims.to_vec(),
            elem_size,
            base_va,
            hot,
        });
        ArrayId::from_index(idx)
    }

    /// Adds a loop nest. `loops` gives `(name, lo, hi)` per dimension,
    /// outermost first; `stmts` are statement sources parsed in that scope.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the nest is empty or a statement does not
    /// parse.
    pub fn nest(&mut self, loops: &[(&str, i64, i64)], stmts: &[&str]) -> Result<(), BuildError> {
        if loops.is_empty() {
            return Err(BuildError::EmptyNest);
        }
        let mut ctx = ParseCtx::new();
        for (i, a) in self.arrays.iter().enumerate() {
            ctx.add_array(self.symbols.name_or_unknown(a.name), ArrayId::from_index(i));
        }
        for (d, (name, _, _)) in loops.iter().enumerate() {
            ctx.add_var(*name, VarId::from_depth(d));
        }
        let body = stmts
            .iter()
            .map(|s| parse_statement(s, &ctx).map(|p| Statement { lhs: p.lhs, rhs: p.rhs }))
            .collect::<Result<Vec<_>, _>>()?;
        self.nests.push(LoopNest {
            dims: loops
                .iter()
                .map(|&(name, lo, hi)| LoopDim { name: self.symbols.intern(name), lo, hi })
                .collect(),
            body,
        });
        Ok(())
    }

    /// Adds an already-constructed nest (used by workload generators that
    /// post-process statements, e.g. to clear analyzability flags).
    pub fn push_nest(&mut self, nest: LoopNest) {
        self.nests.push(nest);
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        Program { arrays: self.arrays, nests: self.nests, symbols: self.symbols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_array_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.array("A", &[16], 8);
        b.array("B", &[16], 8);
        b.nest(&[("i", 0, 16)], &["A[i] = B[i] + 1"]).unwrap();
        b.build()
    }

    #[test]
    fn iteration_order_is_lexicographic() {
        let nest = LoopNest {
            dims: vec![
                LoopDim { name: Symbol::default(), lo: 0, hi: 2 },
                LoopDim { name: Symbol::default(), lo: 0, hi: 2 },
            ],
            body: vec![],
        };
        let iters: Vec<_> = nest.iterations().collect();
        assert_eq!(iters, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
        assert_eq!(nest.iteration_count(), 4);
    }

    #[test]
    fn empty_trip_count_yields_no_iterations() {
        let nest = LoopNest {
            dims: vec![LoopDim { name: Symbol::default(), lo: 5, hi: 5 }],
            body: vec![],
        };
        assert_eq!(nest.iterations().count(), 0);
    }

    // dmcp-check shrunken counterexample: a generated nest with bounds
    // `(i64::MIN, i64::MAX)` overflowed `hi - lo` in debug builds; two such
    // dimensions then overflowed the trip-count product. Both saturate now.
    #[test]
    fn trip_count_saturates_on_extreme_bounds() {
        let d = LoopDim { name: Symbol::default(), lo: i64::MIN, hi: i64::MAX };
        assert_eq!(d.trip_count(), u64::MAX);
        let nest = LoopNest {
            dims: vec![
                LoopDim { name: Symbol::default(), lo: i64::MIN, hi: i64::MAX },
                LoopDim { name: Symbol::default(), lo: 0, hi: 3 },
            ],
            body: vec![],
        };
        assert_eq!(nest.iteration_count(), u64::MAX);
        let backwards = LoopDim { name: Symbol::default(), lo: i64::MAX, hi: i64::MIN };
        assert_eq!(backwards.trip_count(), 0);
    }

    #[test]
    fn first_mismatch_compares_non_finite_values_by_class() {
        // Shrunken fuzz counterexample: a generated division by zero made
        // both the plan and the interpreter store +inf, and the relative
        // formula rejected the agreement (inf − inf is NaN).
        let p = two_array_program();
        let a_id = ArrayId::from_index(0);
        let mut a = p.initial_data();
        let mut b = a.clone();
        a.set(a_id, 0, f64::INFINITY);
        b.set(a_id, 0, f64::INFINITY);
        a.set(a_id, 1, f64::NAN);
        b.set(a_id, 1, f64::NAN);
        assert!(a.first_mismatch(&b, 1e-9).is_none(), "matching non-finites must conform");
        b.set(a_id, 0, 1e300);
        let m = a.first_mismatch(&b, 1e-9).expect("inf vs finite must not conform");
        assert_eq!(m.elem, 0);
        b.set(a_id, 0, f64::NEG_INFINITY);
        assert!(a.first_mismatch(&b, 1e-9).is_some(), "opposite infinities differ");
    }

    #[test]
    fn dynamic_analyzability_saturates_on_extreme_trip_counts() {
        // Shrunken fuzz counterexample: a full-range nest weighs each
        // reference at u64::MAX; summing two references used to wrap and
        // panic in debug builds.
        let mut b = ProgramBuilder::new();
        b.array("a0", &[8], 8);
        b.array("a1", &[8], 8);
        b.nest(&[("i0", i64::MIN, i64::MAX)], &["a0[i0] = a1[i0] + 1"]).unwrap();
        let p = b.build();
        let f = p.dynamic_analyzability();
        assert!((0.0..=1.0).contains(&f), "not a fraction: {f}");
    }

    #[test]
    fn first_mismatch_reports_location_and_values() {
        let p = two_array_program();
        let a = p.initial_data();
        let mut b = a.clone();
        assert!(a.first_mismatch(&b, 0.0).is_none());
        b.set(ArrayId::from_index(1), 3, -7.5);
        let m = a.first_mismatch(&b, 0.0).expect("stores differ");
        assert_eq!(m.array, ArrayId::from_index(1));
        assert_eq!(m.elem, 3);
        assert_eq!(m.right, -7.5);
        assert!(!a.approx_eq(&b, 1e-9));
        assert_eq!(a.array_count(), 2);
        assert_eq!(a.len_of(ArrayId::from_index(0)), 16);
    }

    #[test]
    fn nonzero_lower_bounds() {
        let nest = LoopNest {
            dims: vec![LoopDim { name: Symbol::default(), lo: 2, hi: 5 }],
            body: vec![],
        };
        let iters: Vec<_> = nest.iterations().collect();
        assert_eq!(iters, vec![vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn arrays_are_laid_out_disjointly() {
        let p = two_array_program();
        let a = &p.arrays()[0];
        let b = &p.arrays()[1];
        let a_end = a.base_va + a.len() * u64::from(a.elem_size);
        assert!(a_end <= b.base_va, "arrays overlap");
    }

    #[test]
    fn array_bases_hit_different_lines() {
        let mut b = ProgramBuilder::new();
        let ids: Vec<_> = (0..4).map(|i| b.array(format!("X{i}"), &[8], 8)).collect();
        let p = b.build();
        let lines: std::collections::HashSet<_> =
            ids.iter().map(|&id| (p.array(id).base_va / 64) % 64).collect();
        assert!(lines.len() > 1, "all arrays landed on the same line offset");
    }

    #[test]
    fn element_addressing_2d() {
        let mut b = ProgramBuilder::new();
        b.array("M", &[4, 8], 8);
        b.array("N", &[4, 8], 8);
        b.nest(&[("i", 0, 4), ("j", 0, 8)], &["M[i][j] = N[i][j]"]).unwrap();
        let p = b.build();
        let data = p.initial_data();
        let stmt = &p.nests()[0].body[0];
        // (i, j) = (2, 3) -> linear 2*8 + 3 = 19.
        assert_eq!(p.element_of(&stmt.lhs, &[2, 3], &data), 19);
    }

    #[test]
    fn indirect_elements_read_data() {
        let mut b = ProgramBuilder::new();
        b.array("X", &[8], 8);
        let y = b.array("Y", &[8], 8);
        b.array("Z", &[8], 8);
        b.nest(&[("i", 0, 8)], &["X[Y[i]] = Z[i]"]).unwrap();
        let p = b.build();
        let mut data = p.initial_data();
        data.fill(y, &[3.0, 1.0, 4.0, 1.0, 5.0, 2.0, 6.0, 0.0]);
        let stmt = &p.nests()[0].body[0];
        assert_eq!(p.element_of(&stmt.lhs, &[2], &data), 4);
        assert_eq!(p.element_of(&stmt.lhs, &[4], &data), 5);
    }

    #[test]
    fn initial_data_is_deterministic_and_nonzero() {
        let p = two_array_program();
        let d1 = p.initial_data();
        let d2 = p.initial_data();
        assert_eq!(d1, d2);
        for e in 0..16 {
            assert!(d1.get(ArrayId::from_index(0), e) != 0.0);
        }
    }

    #[test]
    fn analyzability_counts_indirect_refs() {
        let mut b = ProgramBuilder::new();
        b.array("X", &[8], 8);
        b.array("Y", &[8], 8);
        b.array("Z", &[8], 8);
        b.nest(&[("i", 0, 8)], &["X[Y[i]] = Z[i]"]).unwrap();
        let p = b.build();
        // Refs: X[Y[i]] (no), Y[i] inside it (yes), Z[i] (yes) -> 2/3.
        let frac = p.static_analyzability();
        assert!((frac - 2.0 / 3.0).abs() < 1e-12, "got {frac}");
    }

    #[test]
    fn dynamic_analyzability_weights_by_trip_count() {
        let mut b = ProgramBuilder::new();
        b.array("X", &[64], 8);
        b.array("Y", &[64], 8);
        b.array("Z", &[64], 8);
        // Nest 1: fully analyzable, 60 iterations.
        b.nest(&[("i", 0, 60)], &["X[i] = Z[i]"]).unwrap();
        // Nest 2: 1/3 unanalyzable refs, 4 iterations.
        b.nest(&[("i", 0, 4)], &["X[Y[i]] = Z[i]"]).unwrap();
        let p = b.build();
        assert!(p.dynamic_analyzability() > p.static_analyzability());
    }

    #[test]
    fn statement_reads_include_lhs_indirection() {
        let mut b = ProgramBuilder::new();
        b.array("X", &[8], 8);
        b.array("Y", &[8], 8);
        b.array("Z", &[8], 8);
        b.nest(&[("i", 0, 8)], &["X[Y[i]] = Z[i]"]).unwrap();
        let p = b.build();
        let reads = p.nests()[0].body[0].reads();
        // Z[i] plus Y[i] (the lhs's index read).
        assert_eq!(reads.len(), 2);
    }

    #[test]
    fn build_error_on_bad_statement() {
        let mut b = ProgramBuilder::new();
        b.array("A", &[8], 8);
        let err = b.nest(&[("i", 0, 8)], &["A[i] = Q[i]"]).unwrap_err();
        assert!(matches!(err, BuildError::Parse(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn build_error_on_empty_nest() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.nest(&[], &[]).unwrap_err(), BuildError::EmptyNest);
    }

    #[test]
    fn hot_arrays_are_flagged() {
        let mut b = ProgramBuilder::new();
        let h = b.hot_array("H", &[8], 8);
        let c = b.array("C", &[8], 8);
        let p = b.build();
        assert!(p.array(h).hot);
        assert!(!p.array(c).hot);
    }

    #[test]
    fn va_wraps_out_of_bounds_linear_index() {
        let decl = ArrayDecl {
            name: Symbol::default(),
            dims: vec![4],
            elem_size: 8,
            base_va: 1000,
            hot: false,
        };
        assert_eq!(decl.va_of(5), decl.va_of(1));
    }
}
