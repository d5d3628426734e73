//! Seeded fixture: a waived panic site and a stale waiver.

/// Properly waived: suppressed by the justification above the line.
pub fn head(xs: &[u32]) -> u32 {
    // lint:allow(panic): fixture invariant — callers verify non-emptiness.
    *xs.first().expect("non-empty")
}

/// A stale waiver: nothing below it violates anything.
// lint:allow(det): nothing here is nondeterministic any more.
pub fn stale() -> u32 {
    7
}

/// A waiver for a rule family that no longer exists.
// lint:allow(nondet): the lexical families went to clippy.
pub fn retired() -> u32 {
    9
}
