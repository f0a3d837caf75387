//! Recursive-descent / Pratt parser for statements.
//!
//! Grammar (whitespace insignificant, `;` ignored):
//!
//! ```text
//! stmt      := ref '=' expr
//! expr      := Pratt over | ^ & << >> + - * / with '(' ')'
//! primary   := number | ref | '(' expr ')' | '-' primary
//! ref       := IDENT ('[' index ']')+
//! index     := affine | ref            // `X[Y[i]]` is an indirect subscript
//! affine    := term (('+'|'-') term)*
//! term      := INT | INT '*' IDENT | IDENT ('*' INT)?
//! ```
//!
//! Identifiers are resolved against the enclosing nest's loop variables and
//! the program's array table.

use crate::access::{AffineExpr, ArrayId, ArrayRef, IndexExpr, VarId};
use crate::expr::Expr;
use crate::lexer::{tokenize, LexError, Token};
use crate::op::BinOp;
use crate::symbol::SymbolTable;
use std::fmt;

/// Name-resolution context: array and loop-variable names in scope.
///
/// Names are interned once at registration; resolution is one symbol
/// lookup followed by a dense `u32`-indexed table probe, so parsing never
/// hashes an identifier string more than once.
#[derive(Clone, Debug, Default)]
pub struct ParseCtx {
    symbols: SymbolTable,
    arrays: Vec<Option<ArrayId>>,
    vars: Vec<Option<VarId>>,
}

impl ParseCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an array name.
    pub fn add_array(&mut self, name: impl Into<String>, id: ArrayId) {
        let s = self.symbols.intern(&name.into());
        if self.arrays.len() <= s.index() {
            self.arrays.resize(s.index() + 1, None);
        }
        self.arrays[s.index()] = Some(id);
    }

    /// Registers a loop-variable name.
    pub fn add_var(&mut self, name: impl Into<String>, id: VarId) {
        let s = self.symbols.intern(&name.into());
        if self.vars.len() <= s.index() {
            self.vars.resize(s.index() + 1, None);
        }
        self.vars[s.index()] = Some(id);
    }

    fn array(&self, name: &str) -> Option<ArrayId> {
        let s = self.symbols.lookup(name)?;
        self.arrays.get(s.index()).copied().flatten()
    }

    fn var(&self, name: &str) -> Option<VarId> {
        let s = self.symbols.lookup(name)?;
        self.vars.get(s.index()).copied().flatten()
    }
}

/// An error produced while parsing a statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// Tokenization failed.
    Lex(LexError),
    /// The token stream ended unexpectedly.
    UnexpectedEnd,
    /// An unexpected token was found.
    Unexpected {
        /// The token that was found.
        found: String,
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// An identifier resolved to neither an array nor a loop variable.
    UnknownName(String),
    /// A subscript mixed an indirect reference with other terms.
    MixedIndex,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => write!(f, "lex error: {e}"),
            ParseError::UnexpectedEnd => f.write_str("unexpected end of statement"),
            ParseError::Unexpected { found, expected } => {
                write!(f, "unexpected token `{found}`, expected {expected}")
            }
            ParseError::UnknownName(n) => write!(f, "unknown name `{n}`"),
            ParseError::MixedIndex => {
                f.write_str("a subscript must be either affine or a single indirect reference")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Lex(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// A parsed `lhs = rhs` pair (not yet attached to a loop nest).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedStatement {
    /// The written reference.
    pub lhs: ArrayRef,
    /// The right-hand-side expression.
    pub rhs: Expr,
}

/// Parses one statement like `"A[i] = B[i] + C[i] * (D[i] - 1)"`.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or unresolved names.
///
/// # Examples
///
/// ```
/// use dmcp_ir::parser::{parse_statement, ParseCtx};
/// use dmcp_ir::{ArrayId, access};
///
/// let mut ctx = ParseCtx::new();
/// ctx.add_array("A", ArrayId::from_index(0));
/// ctx.add_array("B", ArrayId::from_index(1));
/// ctx.add_var("i", access::VarId::from_depth(0));
/// let stmt = parse_statement("A[i] = B[i+1] * 3", &ctx)?;
/// assert_eq!(stmt.rhs.op_count(), 1);
/// # Ok::<(), dmcp_ir::parser::ParseError>(())
/// ```
pub fn parse_statement(src: &str, ctx: &ParseCtx) -> Result<ParsedStatement, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0, ctx };
    let lhs = p.parse_ref()?;
    p.expect(&Token::Assign, "`=`")?;
    let rhs = p.parse_expr(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::Unexpected {
            found: p.tokens[p.pos].to_string(),
            expected: "end of statement",
        });
    }
    Ok(ParsedStatement { lhs, rhs })
}

/// Parses a bare expression (used in tests and tools).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or unresolved names.
pub fn parse_expr(src: &str, ctx: &ParseCtx) -> Result<Expr, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0, ctx };
    let e = p.parse_expr(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::Unexpected {
            found: p.tokens[p.pos].to_string(),
            expected: "end of expression",
        });
    }
    Ok(e)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    ctx: &'a ParseCtx,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, ParseError> {
        let t = self.tokens.get(self.pos).cloned().ok_or(ParseError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &Token, what: &'static str) -> Result<(), ParseError> {
        let t = self.next()?;
        if &t == tok {
            Ok(())
        } else {
            Err(ParseError::Unexpected { found: t.to_string(), expected: what })
        }
    }

    fn binop_of(tok: &Token) -> Option<BinOp> {
        Some(match tok {
            Token::Plus => BinOp::Add,
            Token::Minus => BinOp::Sub,
            Token::Star => BinOp::Mul,
            Token::Slash => BinOp::Div,
            Token::Amp => BinOp::And,
            Token::Pipe => BinOp::Or,
            Token::Caret => BinOp::Xor,
            Token::Shl => BinOp::Shl,
            Token::Shr => BinOp::Shr,
            _ => return None,
        })
    }

    fn parse_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_primary()?;
        while let Some(op) = self.peek().and_then(Self::binop_of) {
            if op.precedence() < min_prec {
                break;
            }
            self.pos += 1;
            // All operators are left-associative.
            let rhs = self.parse_expr(op.precedence() + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.next()? {
            Token::Int(v) => Ok(Expr::Const(v as f64)),
            Token::Float(v) => Ok(Expr::Const(v)),
            Token::Minus => {
                let inner = self.parse_primary()?;
                Ok(Expr::bin(BinOp::Sub, Expr::Const(0.0), inner))
            }
            Token::LParen => {
                let e = self.parse_expr(0)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(e)
            }
            Token::Ident(_) => {
                self.pos -= 1;
                let r = self.parse_ref()?;
                Ok(Expr::Ref(r))
            }
            other => Err(ParseError::Unexpected {
                found: other.to_string(),
                expected: "a literal, reference or `(`",
            }),
        }
    }

    fn parse_ref(&mut self) -> Result<ArrayRef, ParseError> {
        let name = match self.next()? {
            Token::Ident(n) => n,
            other => {
                return Err(ParseError::Unexpected {
                    found: other.to_string(),
                    expected: "an array name",
                })
            }
        };
        let array = self.ctx.array(&name).ok_or(ParseError::UnknownName(name))?;
        let mut indices = Vec::new();
        while self.peek() == Some(&Token::LBracket) {
            self.pos += 1;
            indices.push(self.parse_index()?);
            self.expect(&Token::RBracket, "`]`")?;
        }
        if indices.is_empty() {
            // A scalar: treat as a zero-dimensional reference at index 0.
            indices.push(IndexExpr::Affine(AffineExpr::constant(0)));
        }
        Ok(ArrayRef::new(array, indices))
    }

    /// Parses a subscript: either an affine combination of loop variables or
    /// a single indirect array reference.
    fn parse_index(&mut self) -> Result<IndexExpr, ParseError> {
        // Indirect subscript: IDENT that resolves to an array and is
        // followed by `[`.
        if let Some(Token::Ident(name)) = self.peek() {
            if self.ctx.array(name).is_some() {
                if self.tokens.get(self.pos + 1) == Some(&Token::LBracket) {
                    let inner = self.parse_ref()?;
                    if self.peek() != Some(&Token::RBracket) {
                        return Err(ParseError::MixedIndex);
                    }
                    return Ok(IndexExpr::Indirect(Box::new(inner)));
                }
                return Err(ParseError::MixedIndex);
            }
        }
        let mut affine = AffineExpr::constant(0);
        let mut negate = false;
        loop {
            let (var, coeff) = self.parse_affine_term()?;
            let signed = if negate { -coeff } else { coeff };
            // Wrapping, like AffineExpr::eval: `B[9223372036854775807 + 1]`
            // must parse without a debug-build overflow panic.
            match var {
                Some(v) => affine = affine.plus_term(v, signed),
                None => affine.c0 = affine.c0.wrapping_add(signed),
            }
            match self.peek() {
                Some(Token::Plus) => {
                    negate = false;
                    self.pos += 1;
                }
                Some(Token::Minus) => {
                    negate = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        Ok(IndexExpr::Affine(affine))
    }

    /// One affine term: `INT`, `INT*var`, `var` or `var*INT`.
    fn parse_affine_term(&mut self) -> Result<(Option<VarId>, i64), ParseError> {
        match self.next()? {
            Token::Int(c) => {
                if self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    match self.next()? {
                        Token::Ident(n) => {
                            let v = self.ctx.var(&n).ok_or(ParseError::UnknownName(n))?;
                            Ok((Some(v), c))
                        }
                        other => Err(ParseError::Unexpected {
                            found: other.to_string(),
                            expected: "a loop variable",
                        }),
                    }
                } else {
                    Ok((None, c))
                }
            }
            Token::Ident(n) => {
                let v = self.ctx.var(&n).ok_or(ParseError::UnknownName(n))?;
                if self.peek() == Some(&Token::Star) {
                    self.pos += 1;
                    match self.next()? {
                        Token::Int(c) => Ok((Some(v), c)),
                        other => Err(ParseError::Unexpected {
                            found: other.to_string(),
                            expected: "an integer coefficient",
                        }),
                    }
                } else {
                    Ok((Some(v), 1))
                }
            }
            other => {
                Err(ParseError::Unexpected { found: other.to_string(), expected: "an affine term" })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::IndexExpr;

    fn ctx() -> ParseCtx {
        let mut c = ParseCtx::new();
        for (i, name) in ["A", "B", "C", "D", "E", "Y"].iter().enumerate() {
            c.add_array(*name, ArrayId::from_index(i));
        }
        c.add_var("i", VarId::from_depth(0));
        c.add_var("j", VarId::from_depth(1));
        c
    }

    // dmcp-check shrunken counterexample: the constant-fold in
    // `parse_index` overflowed `c0 + signed` in debug builds.
    #[test]
    fn subscript_constant_fold_wraps() {
        let s = parse_statement("A[9223372036854775807 + 1] = B[i]", &ctx()).unwrap();
        match &s.lhs.indices[0] {
            IndexExpr::Affine(a) => assert_eq!(a.c0, i64::MIN),
            other => panic!("expected affine subscript, got {other:?}"),
        }
    }

    #[test]
    fn parses_flat_sum() {
        let s = parse_statement("A[i] = B[i] + C[i] + D[i] + E[i]", &ctx()).unwrap();
        assert_eq!(s.rhs.op_count(), 3);
        assert_eq!(s.rhs.reads().len(), 4);
        assert_eq!(s.lhs.array.index(), 0);
    }

    #[test]
    fn precedence_mul_binds_tighter() {
        let e = parse_expr("B[i] + C[i] * D[i]", &ctx()).unwrap();
        match e {
            Expr::Bin { op: BinOp::Add, rhs, .. } => match *rhs {
                Expr::Bin { op: BinOp::Mul, .. } => {}
                other => panic!("expected Mul on the right, got {other:?}"),
            },
            other => panic!("expected Add at root, got {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let e = parse_expr("(B[i] + C[i]) * D[i]", &ctx()).unwrap();
        match e {
            Expr::Bin { op: BinOp::Mul, lhs, .. } => match *lhs {
                Expr::Bin { op: BinOp::Add, .. } => {}
                other => panic!("expected Add inside, got {other:?}"),
            },
            other => panic!("expected Mul at root, got {other:?}"),
        }
    }

    #[test]
    fn affine_subscripts() {
        let s = parse_statement("A[2*i+1] = B[i-1]", &ctx()).unwrap();
        match &s.lhs.indices[0] {
            IndexExpr::Affine(a) => {
                assert_eq!(a.eval(&[3]), 7);
            }
            other => panic!("expected affine, got {other:?}"),
        }
        match &s.rhs.reads()[0].indices[0] {
            IndexExpr::Affine(a) => assert_eq!(a.eval(&[3]), 2),
            other => panic!("expected affine, got {other:?}"),
        }
    }

    #[test]
    fn two_dimensional_subscripts() {
        let s = parse_statement("A[i][j] = B[j][i]", &ctx()).unwrap();
        assert_eq!(s.lhs.indices.len(), 2);
    }

    #[test]
    fn indirect_subscript() {
        let s = parse_statement("A[Y[i]] = B[i]", &ctx()).unwrap();
        assert!(!s.lhs.analyzable);
        match &s.lhs.indices[0] {
            IndexExpr::Indirect(inner) => assert_eq!(inner.array.index(), 5),
            other => panic!("expected indirect, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus() {
        let e = parse_expr("-B[i] + 3", &ctx()).unwrap();
        assert_eq!(e.op_count(), 2); // (0 - B[i]) + 3
    }

    #[test]
    fn scalar_reference_gets_index_zero() {
        let e = parse_expr("A + 1", &ctx()).unwrap();
        let reads = e.reads();
        assert_eq!(reads.len(), 1);
        match &reads[0].indices[0] {
            IndexExpr::Affine(a) => assert!(a.is_constant()),
            other => panic!("expected constant subscript, got {other:?}"),
        }
    }

    #[test]
    fn unknown_array_is_an_error() {
        let err = parse_statement("Q[i] = B[i]", &ctx()).unwrap_err();
        assert_eq!(err, ParseError::UnknownName("Q".into()));
    }

    #[test]
    fn unknown_var_is_an_error() {
        let err = parse_statement("A[k] = B[i]", &ctx()).unwrap_err();
        assert_eq!(err, ParseError::UnknownName("k".into()));
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = parse_statement("A[i] = B[i] )", &ctx()).unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn mixed_index_rejected() {
        let err = parse_statement("A[Y[i]+1] = B[i]", &ctx()).unwrap_err();
        assert_eq!(err, ParseError::MixedIndex);
    }

    #[test]
    fn shift_expression() {
        let e = parse_expr("B[i] << 2", &ctx()).unwrap();
        assert_eq!(e.ops(), vec![BinOp::Shl]);
    }

    #[test]
    fn error_display_is_nonempty() {
        let err = parse_statement("A[i] =", &ctx()).unwrap_err();
        assert_eq!(err, ParseError::UnexpectedEnd);
        assert!(!err.to_string().is_empty());
    }
}
