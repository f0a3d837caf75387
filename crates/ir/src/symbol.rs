//! Interned identifier names.
//!
//! Identifier names (array and loop-variable names) are *surface syntax*:
//! nothing in partitioning, fingerprinting or simulation depends on them
//! (structural hashes deliberately exclude them — see
//! [`crate::fingerprint`]). Interning replaces every `String` name in the
//! IR with a dense [`Symbol`] (`u32`) so program clones stop copying
//! strings, name maps key on integers, and the parser resolves an
//! identifier with one table lookup. The only places names come back out
//! are display and explain paths, which resolve through the owning
//! [`SymbolTable`].
//!
//! [`Symbol`]s are meaningful only relative to the table that interned
//! them; the [`crate::ProgramBuilder`] owns one table per program and
//! stores it in the built [`crate::Program`].

use std::collections::HashMap;

/// A dense interned name: an index into a [`SymbolTable`].
///
/// `Symbol::default()` is a placeholder that resolves to nothing — used
/// by tests that build nests whose names never reach a display path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The table index this symbol stands for.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only string interner: each distinct string gets one
/// [`Symbol`], and equal strings always intern to the same symbol.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SymbolTable {
    names: Vec<String>,
    map: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its (new or existing) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = Symbol(u32::try_from(self.names.len()).expect("symbol table overflow"));
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    /// Looks up an already-interned name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.map.get(name).copied()
    }

    /// Resolves a symbol back to its name; `None` for symbols this table
    /// never interned (e.g. `Symbol::default()` placeholders).
    #[must_use]
    pub fn name(&self, s: Symbol) -> Option<&str> {
        self.names.get(s.index()).map(String::as_str)
    }

    /// Resolves a symbol, rendering unknown symbols as `"?"` — the
    /// lenient form display paths use.
    #[must_use]
    pub fn name_or_unknown(&self, s: Symbol) -> &str {
        self.name(s).unwrap_or("?")
    }

    /// Number of interned symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut t = SymbolTable::new();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern("alpha"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
    }

    #[test]
    fn resolution_round_trips() {
        let mut t = SymbolTable::new();
        let s = t.intern("row");
        assert_eq!(t.name(s), Some("row"));
        assert_eq!(t.lookup("row"), Some(s));
        assert_eq!(t.lookup("col"), None);
        assert_eq!(t.name_or_unknown(Symbol(99)), "?");
    }

    #[test]
    fn default_symbol_is_a_placeholder() {
        let t = SymbolTable::new();
        assert_eq!(t.name(Symbol::default()), None);
        assert!(t.is_empty());
    }
}
