//! Nested operand sets (paper Section 4.2, "level-based" splitting).
//!
//! A statement's right-hand side is classified into nested sets following
//! operator priority and parentheses: `x = a*(b+c) + d*(e+f+g)` yields an
//! additive top-level set whose elements are the multiplicative groups
//! `(a,(b,c))` and `(d,(e,f,g))`. MSTs are built innermost-set-first, and a
//! processed set becomes a single "component" at the next level — this is
//! what guarantees computation priority (and therefore correctness) while
//! still allowing the MST to reorder freely *within* a set.
//!
//! Reordering a `+`/`-` or `*`/`/` chain is only legal if subtraction and
//! division are normalised away; we track an `inverted` flag per element
//! (`a - b + c` becomes `{a, b⁻, c}` under the additive class), making every
//! reorderable set a commutative monoid fold. Shifts are not reorderable and
//! form [`OpClass::Fixed`] two-element groups.

use crate::access::ArrayRef;
use crate::expr::Expr;
use crate::op::BinOp;

/// Algebraic class of a nested set: which commutative fold combines its
/// elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpClass {
    /// `+` / `-` chain (inverted elements are subtracted).
    AddLike,
    /// `*` / `/` chain (inverted elements divide).
    MulLike,
    /// `&` chain.
    AndLike,
    /// `|` chain.
    OrLike,
    /// `^` chain.
    XorLike,
    /// A non-reorderable operator; the group has exactly two ordered
    /// elements.
    Fixed(BinOp),
}

impl OpClass {
    /// The class a binary operator belongs to.
    pub fn of(op: BinOp) -> OpClass {
        match op {
            BinOp::Add | BinOp::Sub => OpClass::AddLike,
            BinOp::Mul | BinOp::Div => OpClass::MulLike,
            BinOp::And => OpClass::AndLike,
            BinOp::Or => OpClass::OrLike,
            BinOp::Xor => OpClass::XorLike,
            BinOp::Shl | BinOp::Shr => OpClass::Fixed(op),
        }
    }

    /// `true` if elements of the class may be combined in any order.
    pub fn is_reorderable(self) -> bool {
        !matches!(self, OpClass::Fixed(_))
    }

    /// The concrete operator that merges an accumulated value with an
    /// element carrying the given `inverted` flag.
    pub fn op_for(self, inverted: bool) -> BinOp {
        match (self, inverted) {
            (OpClass::AddLike, false) => BinOp::Add,
            (OpClass::AddLike, true) => BinOp::Sub,
            (OpClass::MulLike, false) => BinOp::Mul,
            (OpClass::MulLike, true) => BinOp::Div,
            (OpClass::AndLike, _) => BinOp::And,
            (OpClass::OrLike, _) => BinOp::Or,
            (OpClass::XorLike, _) => BinOp::Xor,
            (OpClass::Fixed(op), _) => op,
        }
    }

    /// Identity element of the fold (meaningful for reorderable classes).
    pub fn identity(self) -> f64 {
        match self {
            OpClass::AddLike | OpClass::OrLike | OpClass::XorLike => 0.0,
            OpClass::MulLike => 1.0,
            OpClass::AndLike => -1.0, // all bits set as i64
            OpClass::Fixed(_) => f64::NAN,
        }
    }
}

/// One element of a nested set.
#[derive(Clone, Debug, PartialEq)]
pub struct Element {
    /// The element itself.
    pub term: Term,
    /// Whether the element enters the fold through the class's inverse
    /// operator (subtraction / division).
    pub inverted: bool,
}

/// The payload of an element: a leaf operand, a constant, or a nested group.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A numeric literal.
    Const(f64),
    /// An array-element read — the thing that has a *location* on the mesh.
    Leaf(ArrayRef),
    /// A nested (higher-priority) set.
    Group(Group),
}

/// A nested set: a class plus its elements.
#[derive(Clone, Debug, PartialEq)]
pub struct Group {
    /// How the elements combine.
    pub class: OpClass,
    /// The elements, in source order (order is semantically irrelevant for
    /// reorderable classes).
    pub elems: Vec<Element>,
}

impl Group {
    /// Builds the nested-set representation of an expression.
    ///
    /// # Examples
    ///
    /// ```
    /// use dmcp_ir::parser::{parse_expr, ParseCtx};
    /// use dmcp_ir::{ArrayId, Group, access::VarId};
    ///
    /// let mut ctx = ParseCtx::new();
    /// for (i, n) in ["a", "b", "c", "d", "e", "f", "g"].iter().enumerate() {
    ///     ctx.add_array(*n, ArrayId::from_index(i));
    /// }
    /// ctx.add_var("i", VarId::from_depth(0));
    /// let e = parse_expr("a[i]*(b[i]+c[i]) + d[i]*(e[i]+f[i]+g[i])", &ctx)?;
    /// let g = Group::of_expr(&e);
    /// // Additive top level with two multiplicative sub-groups.
    /// assert_eq!(g.elems.len(), 2);
    /// # Ok::<(), dmcp_ir::parser::ParseError>(())
    /// ```
    pub fn of_expr(expr: &Expr) -> Group {
        match expr {
            Expr::Bin { op, .. } => {
                let class = OpClass::of(*op);
                if class.is_reorderable() {
                    let mut elems = Vec::new();
                    flatten(expr, class, false, &mut elems);
                    Group { class, elems }
                } else {
                    let (lhs, rhs) = match expr {
                        Expr::Bin { lhs, rhs, .. } => (lhs, rhs),
                        _ => unreachable!(),
                    };
                    Group {
                        class,
                        elems: vec![
                            Element { term: term_of(lhs), inverted: false },
                            Element { term: term_of(rhs), inverted: false },
                        ],
                    }
                }
            }
            // A single operand still forms a (degenerate) one-element set.
            other => Group {
                class: OpClass::AddLike,
                elems: vec![Element { term: term_of(other), inverted: false }],
            },
        }
    }

    /// All leaf references, recursively.
    pub fn all_leaves(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        for e in &self.elems {
            match &e.term {
                Term::Leaf(r) => out.push(r),
                Term::Group(g) => g.collect_leaves(out),
                Term::Const(_) => {}
            }
        }
    }

    /// Maximum nesting depth (1 for a flat set).
    pub fn depth(&self) -> usize {
        1 + self
            .elems
            .iter()
            .map(|e| match &e.term {
                Term::Group(g) => g.depth(),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the group numerically, resolving each leaf with `leaf`.
    /// Used to check that reordering schedules preserve statement values.
    pub fn eval(&self, leaf: &mut dyn FnMut(&ArrayRef) -> f64) -> f64 {
        match self.class {
            OpClass::Fixed(op) => {
                let a = eval_term(&self.elems[0].term, leaf);
                let b = eval_term(&self.elems[1].term, leaf);
                op.apply(a, b)
            }
            class => {
                let mut acc = class.identity();
                for e in &self.elems {
                    let v = eval_term(&e.term, leaf);
                    acc = class.op_for(e.inverted).apply(acc, v);
                }
                acc
            }
        }
    }
}

fn eval_term(t: &Term, leaf: &mut dyn FnMut(&ArrayRef) -> f64) -> f64 {
    match t {
        Term::Const(v) => *v,
        Term::Leaf(r) => leaf(r),
        Term::Group(g) => g.eval(leaf),
    }
}

fn term_of(e: &Expr) -> Term {
    match e {
        Expr::Const(v) => Term::Const(*v),
        Expr::Ref(r) => Term::Leaf(r.clone()),
        Expr::Bin { .. } => Term::Group(Group::of_expr(e)),
    }
}

/// Flattens same-class chains into `out`, propagating inversion:
/// `a - (b - c)` ⇒ `a + b⁻ + c`.
fn flatten(e: &Expr, class: OpClass, inverted: bool, out: &mut Vec<Element>) {
    match e {
        Expr::Bin { op, lhs, rhs } if OpClass::of(*op) == class && class.is_reorderable() => {
            flatten(lhs, class, inverted, out);
            flatten(rhs, class, inverted ^ op.is_inverse(), out);
        }
        other => out.push(Element { term: term_of(other), inverted }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{ArrayId, VarId};
    use crate::parser::{parse_expr, ParseCtx};

    fn ctx() -> ParseCtx {
        let mut c = ParseCtx::new();
        for (i, n) in ["a", "b", "c", "d", "e", "f", "g"].iter().enumerate() {
            c.add_array(*n, ArrayId::from_index(i));
        }
        c.add_var("i", VarId::from_depth(0));
        c
    }

    fn group(src: &str) -> Group {
        Group::of_expr(&parse_expr(src, &ctx()).unwrap())
    }

    /// Leaf resolver returning a fixed value per array id.
    fn values(vals: &[f64]) -> impl FnMut(&ArrayRef) -> f64 + '_ {
        move |r: &ArrayRef| vals[r.array.index()]
    }

    #[test]
    fn paper_example_nested_sets() {
        // x = a*(b+c) + d*(e+f+g): additive top with two mul groups.
        let g = group("a[i]*(b[i]+c[i]) + d[i]*(e[i]+f[i]+g[i])");
        assert_eq!(g.class, OpClass::AddLike);
        assert_eq!(g.elems.len(), 2);
        for e in &g.elems {
            match &e.term {
                Term::Group(mg) => {
                    assert_eq!(mg.class, OpClass::MulLike);
                    assert_eq!(mg.elems.len(), 2);
                    // One leaf + one nested additive group.
                    let has_inner = mg.elems.iter().any(
                        |e| matches!(&e.term, Term::Group(ig) if ig.class == OpClass::AddLike),
                    );
                    assert!(has_inner);
                }
                other => panic!("expected mul group, got {other:?}"),
            }
        }
        assert_eq!(g.depth(), 3);
        assert_eq!(g.all_leaves().len(), 7);
    }

    #[test]
    fn flat_chain_flattens_fully() {
        let g = group("b[i] + c[i] + d[i] + e[i]");
        assert_eq!(g.class, OpClass::AddLike);
        assert_eq!(g.elems.len(), 4);
        assert_eq!(g.depth(), 1);
        assert!(g.elems.iter().all(|e| matches!(e.term, Term::Leaf(_))));
    }

    #[test]
    fn subtraction_sets_inverted_flags() {
        let g = group("a[i] - b[i] + c[i]");
        let flags: Vec<_> = g.elems.iter().map(|e| e.inverted).collect();
        assert_eq!(flags, vec![false, true, false]);
    }

    #[test]
    fn nested_subtraction_propagates_inversion() {
        // a - (b - c) = a - b + c
        let g = Group::of_expr(&parse_expr("a[i] - (b[i] - c[i])", &ctx()).unwrap());
        assert_eq!(g.elems.len(), 3);
        let flags: Vec<_> = g.elems.iter().map(|e| e.inverted).collect();
        assert_eq!(flags, vec![false, true, false]);
        let mut leaf = values(&[10.0, 4.0, 1.0]);
        assert_eq!(g.eval(&mut leaf), 7.0);
    }

    #[test]
    fn division_chains_invert() {
        // a / b / c = a * b^-1 * c^-1
        let g = group("a[i] / b[i] / c[i]");
        assert_eq!(g.class, OpClass::MulLike);
        let flags: Vec<_> = g.elems.iter().map(|e| e.inverted).collect();
        assert_eq!(flags, vec![false, true, true]);
        let mut leaf = values(&[24.0, 2.0, 3.0]);
        assert_eq!(g.eval(&mut leaf), 4.0);
    }

    #[test]
    fn eval_matches_parse_semantics() {
        let vals = [7.0, 2.0, 3.0, 5.0, 1.0, 4.0, 6.0];
        let g = group("a[i]*(b[i]+c[i]) + d[i]*(e[i]+f[i]+g[i])");
        let mut leaf = values(&vals);
        // 7*(2+3) + 5*(1+4+6) = 35 + 55 = 90
        assert_eq!(g.eval(&mut leaf), 90.0);
    }

    #[test]
    fn shift_groups_are_fixed_and_ordered() {
        let g = group("a[i] << b[i]");
        assert_eq!(g.class, OpClass::Fixed(BinOp::Shl));
        assert!(!g.class.is_reorderable());
        assert_eq!(g.elems.len(), 2);
        let mut leaf = values(&[2.0, 3.0]);
        assert_eq!(g.eval(&mut leaf), 16.0);
    }

    #[test]
    fn logical_chain_flattens() {
        let g = group("a[i] & b[i] & c[i]");
        assert_eq!(g.class, OpClass::AndLike);
        assert_eq!(g.elems.len(), 3);
        let mut leaf = values(&[7.0, 6.0, 3.0]);
        assert_eq!(g.eval(&mut leaf), 2.0);
    }

    #[test]
    fn single_operand_is_degenerate_group() {
        let g = group("a[i]");
        assert_eq!(g.elems.len(), 1);
        assert_eq!(g.depth(), 1);
        let mut leaf = values(&[42.0]);
        assert_eq!(g.eval(&mut leaf), 42.0);
    }

    #[test]
    fn constants_participate_in_groups() {
        let g = group("a[i] + 3");
        assert_eq!(g.elems.len(), 2);
        let mut leaf = values(&[1.0]);
        assert_eq!(g.eval(&mut leaf), 4.0);
        assert_eq!(g.all_leaves().len(), 1);
    }

    #[test]
    fn op_for_class() {
        assert_eq!(OpClass::AddLike.op_for(true), BinOp::Sub);
        assert_eq!(OpClass::MulLike.op_for(true), BinOp::Div);
        assert_eq!(OpClass::XorLike.op_for(false), BinOp::Xor);
    }

    #[test]
    fn mul_of_sums_keeps_priority() {
        // (a+b) * (c+d): mul top-level, two additive groups; reordering the
        // additive groups into the mul set would change the value.
        let g = group("(a[i]+b[i]) * (c[i]+d[i])");
        assert_eq!(g.class, OpClass::MulLike);
        assert_eq!(g.elems.len(), 2);
        let mut leaf = values(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(g.eval(&mut leaf), 21.0);
    }
}
