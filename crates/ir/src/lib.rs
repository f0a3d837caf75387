//! Loop-nest intermediate representation for the partitioning compiler.
//!
//! The paper's algorithm operates on *statements inside loop nests*: it needs
//! to see each statement's operand array references, the operator
//! priority/parenthesis structure (to build the "nested sets" of
//! Section 4.2) and the loop iteration space (to enumerate statement
//! instances and windows). This crate supplies exactly that. The data
//! dependences between nearby statements (Section 4.5) are tracked per
//! element by the planner's sync pass (`dmcp-core`), and an indirect
//! reference resolves through the request's [`DataStore`]
//! ([`Program::element_of`]), which holds the inspector's data:
//!
//! - [`op`] — binary operators, their reorderability classes and cost
//!   weights (division is 10× an add for load balancing);
//! - [`lexer`] / [`parser`] — a small statement language
//!   (`"A[i] = B[i] + C[i] * (D[i] - E[i+1])"`) with affine and indirect
//!   (`X[Y[i]]`) subscripts;
//! - [`expr`] / [`access`] — the expression AST and array references;
//! - [`program`] — array declarations, loop nests, whole programs, plus a
//!   deterministic initial-value model so schedules can be checked for
//!   *numerical* correctness;
//! - [`nested`] — extraction of the paper's nested operand sets from an
//!   expression, normalising `-`/`/` chains into sign/inverse flags so the
//!   MST may legally reorder them;
//! - [`fingerprint`] — the canonical structural hash (`StableHash`) the
//!   serving layer keys its plan cache on.
//!
//! # Examples
//!
//! ```
//! use dmcp_ir::program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.array("A", &[64], 8);
//! b.array("B", &[64], 8);
//! b.nest(&[("i", 0, 64)], &["A[i] = B[i] + 2"]).unwrap();
//! let program = b.build();
//! assert_eq!(program.nests().len(), 1);
//! ```

pub mod access;
pub mod display;
pub mod exec;
pub mod expr;
pub mod fingerprint;
pub mod lexer;
pub mod nested;
pub mod op;
pub mod parser;
pub mod program;
pub mod symbol;

pub use access::{ArrayId, ArrayRef, IndexExpr};
pub use expr::Expr;
pub use fingerprint::{StableHash, StableHasher};
pub use nested::{Element, Group, OpClass, Term};
pub use op::BinOp;
pub use program::{
    ArrayDecl, DataStore, IterVec, LoopDim, LoopNest, Mismatch, Program, ProgramBuilder, Statement,
};
pub use symbol::{Symbol, SymbolTable};
