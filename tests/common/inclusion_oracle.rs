//! The reference inclusion construction for the differential tests: the
//! textbook determinize/complement/product path that the antichain search
//! replaced. `L(a) \ L(b)` is the product of `a` with the complement of
//! `det(b)`, so `L(a) ⊆ L(b)` holds iff it is empty, and its shortest
//! member is a shortest counterexample.

use dprle::automata::{dfa, ops, Nfa};

/// `L(a) \ L(b)` as an NFA.
pub fn difference(a: &Nfa, b: &Nfa) -> Nfa {
    ops::intersect(a, &dfa::complement(b)).nfa
}

/// Asserts `witness` is a genuine separator for `a ⊄ b`: accepted by the
/// LHS NFA and rejected by the RHS NFA. A verdict-only diff would miss a
/// search that says "not subset" for the right reason but fabricates the
/// witness.
pub fn assert_valid_witness(a: &Nfa, b: &Nfa, witness: &[u8], source: &str) {
    assert!(
        a.contains(witness),
        "{source}: witness {witness:?} not in L(a)"
    );
    assert!(
        !b.contains(witness),
        "{source}: witness {witness:?} in L(b)"
    );
}
