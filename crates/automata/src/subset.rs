//! The subset-construction kernel behind every determinization
//! ([`crate::dfa::determinize_counted`]) and every `⊆` search
//! ([`crate::inclusion::try_counterexample`]).
//!
//! A state set is a sorted `u32` slice. Stepping a set on a byte writes the
//! ε-closed successor set into a caller's reused buffer: the states the
//! byte reaches, then a walk along ε-edges from them, each state entering
//! at most once under a stamped mark array. A step therefore allocates
//! nothing and visits each state and ε-edge of its result once. (Caching
//! each state's closure instead costs quadratic time and memory when
//! closures overlap without containing each other: in `a*a*…a*` every
//! star's loop state reaches the rest of the chain, and 1 600 stars cached
//! 3.8 million pool entries for a two-state DFA.) A set lists its states
//! in ascending order, so equal sets are equal slices and everything
//! numbered from them — DFA states, antichain entries, counterexamples —
//! depends only on the sets.

use crate::byteclass::{minterms, ByteClass};
use crate::nfa::{Nfa, StateId};
use std::collections::HashSet;

/// The minterm alphabet of `classes`: the coarsest partition of the bytes
/// they cover that respects each of them, in [`minterms`]'s block order.
///
/// Each distinct class is refined in once, at its first occurrence.
/// Refining by a class a second time splits no block and adds none (every
/// block already lies inside or outside it), so the partition and its
/// order are exactly those of [`minterms`] over the whole sequence.
pub(crate) fn alphabet(classes: impl IntoIterator<Item = ByteClass>) -> Vec<ByteClass> {
    let mut seen = HashSet::new();
    let distinct: Vec<ByteClass> = classes.into_iter().filter(|c| seen.insert(*c)).collect();
    minterms(distinct.iter())
}

/// One byte per minterm block: every byte of a block steps every state set
/// to the same successor, so its smallest byte stands for the block.
pub(crate) fn representatives(alphabet: &[ByteClass]) -> Vec<u8> {
    alphabet
        .iter()
        .map(|block| block.min_byte().expect("minterm blocks are nonempty"))
        .collect()
}

/// Subset-construction state for one machine: finality, and the scratch
/// marks and stack a step builds its set with.
pub(crate) struct Subsets<'a> {
    nfa: &'a Nfa,
    finals: Vec<bool>,
    /// `mark[q] == stamp` iff `q` is in the set being built.
    mark: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl<'a> Subsets<'a> {
    pub(crate) fn new(nfa: &'a Nfa) -> Subsets<'a> {
        let n = nfa.num_states();
        let mut finals = vec![false; n];
        for f in nfa.finals() {
            finals[f.index()] = true;
        }
        Subsets {
            nfa,
            finals,
            mark: vec![0; n],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// Whether state `q` is final.
    pub(crate) fn is_final(&self, q: u32) -> bool {
        self.finals[q as usize]
    }

    /// Whether `set` holds a final state.
    pub(crate) fn any_final(&self, set: &[u32]) -> bool {
        set.iter().any(|&q| self.finals[q as usize])
    }

    /// Writes the ε-closure of the start state into `out`, sorted.
    pub(crate) fn start(&mut self, out: &mut Vec<u32>) {
        self.begin(out);
        self.add_closure(self.nfa.start().0, out);
        out.sort_unstable();
    }

    /// Writes the ε-closure of the states `set` reaches on `byte` into
    /// `out`, sorted; empty when no state of `set` has a `byte` edge.
    pub(crate) fn step(&mut self, set: &[u32], byte: u8, out: &mut Vec<u32>) {
        self.begin(out);
        let nfa = self.nfa;
        for &q in set {
            for &(class, t) in &nfa.state(StateId(q)).edges {
                if class.contains(byte) {
                    self.add_closure(t.0, out);
                }
            }
        }
        out.sort_unstable();
    }

    fn begin(&mut self, out: &mut Vec<u32>) {
        out.clear();
        if self.stamp == u32::MAX {
            self.mark.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// Adds `q`'s ε-closure to the set being built in `out`. The walk stops
    /// at marked states: their closures are in the set already.
    fn add_closure(&mut self, q: u32, out: &mut Vec<u32>) {
        if self.mark[q as usize] == self.stamp {
            return;
        }
        self.mark[q as usize] = self.stamp;
        out.push(q);
        let nfa = self.nfa;
        self.stack.push(q);
        while let Some(p) = self.stack.pop() {
            for &t in &nfa.state(StateId(p)).eps {
                if self.mark[t.index()] != self.stamp {
                    self.mark[t.index()] = self.stamp;
                    out.push(t.0);
                    self.stack.push(t.0);
                }
            }
        }
    }
}

/// Whether sorted `small` is a subset of sorted `big`.
pub(crate) fn is_sorted_subset(small: &[u32], big: &[u32]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut rest = big;
    for &x in small {
        match rest.iter().position(|&y| y >= x) {
            Some(i) if rest[i] == x => rest = &rest[i + 1..],
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use std::collections::BTreeSet;

    fn sorted(set: &BTreeSet<StateId>) -> Vec<u32> {
        set.iter().map(|q| q.0).collect()
    }

    #[test]
    fn steps_match_the_set_simulation() {
        let m = ops::concat(
            &ops::star(&ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"a"))),
            &Nfa::sigma_star(),
        )
        .nfa;
        let mut kernel = Subsets::new(&m);
        let mut set = Vec::new();
        kernel.start(&mut set);
        let mut reference = m.eps_closure(&BTreeSet::from([m.start()]));
        assert_eq!(set, sorted(&reference));
        let mut next = Vec::new();
        for &b in b"abbaxab" {
            kernel.step(&set, b, &mut next);
            reference = m.eps_closure(&m.step(&reference, b));
            assert_eq!(next, sorted(&reference), "byte {b}");
            assert_eq!(
                kernel.any_final(&next),
                reference.iter().any(|q| m.is_final(*q))
            );
            std::mem::swap(&mut set, &mut next);
        }
    }

    #[test]
    fn alphabet_refines_each_class_once_in_order() {
        let (a, b, ab) = (
            ByteClass::singleton(b'a'),
            ByteClass::singleton(b'b'),
            ByteClass::from_bytes([b'a', b'b']),
        );
        let classes = [ab, a, ab, b, a, ByteClass::FULL, ab];
        assert_eq!(alphabet(classes), minterms(classes.iter()));
    }

    #[test]
    fn sorted_subset_tests() {
        assert!(is_sorted_subset(&[], &[]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(is_sorted_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_sorted_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(!is_sorted_subset(&[0, 1], &[1]));
        assert!(!is_sorted_subset(&[2], &[1, 3]));
    }
}
