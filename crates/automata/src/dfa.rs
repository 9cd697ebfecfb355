//! Deterministic automata: subset construction, completion, complement.
//!
//! The decision procedure itself works on NFAs, but several supporting
//! judgments — language inclusion, equivalence, complement, universal
//! quotients, and Hopcroft minimization — need a deterministic machine.
//! Determinization runs over the *minterm* alphabet (the coarsest partition
//! of the byte alphabet respecting every transition class), so the effective
//! alphabet size is proportional to the number of distinct classes rather
//! than 256.

use crate::byteclass::ByteClass;
use crate::inclusion::{self, InclusionLimits};
use crate::nfa::{Nfa, StateId};
use crate::subset;

/// A deterministic finite automaton over byte classes.
///
/// Transitions out of a state carry pairwise-disjoint classes; bytes not
/// covered by any class are an implicit dead transition. [`Dfa::complete`]
/// makes the dead state explicit when total transition functions are needed
/// (complementation, minimization).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dfa {
    states: Vec<Vec<(ByteClass, StateId)>>,
    start: StateId,
    finals: Vec<bool>,
}

impl Dfa {
    /// The number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals[q.index()]
    }

    /// The outgoing transitions of `q`.
    pub fn transitions(&self, q: StateId) -> &[(ByteClass, StateId)] {
        &self.states[q.index()]
    }

    /// The successor of `q` on byte `b`, if any.
    pub fn step(&self, q: StateId, b: u8) -> Option<StateId> {
        self.states[q.index()]
            .iter()
            .find(|(c, _)| c.contains(b))
            .map(|&(_, t)| t)
    }

    /// Tests whether the DFA accepts `word`.
    pub fn contains(&self, word: &[u8]) -> bool {
        let mut q = self.start;
        for &b in word {
            match self.step(q, b) {
                Some(t) => q = t,
                None => return false,
            }
        }
        self.finals[q.index()]
    }

    /// Makes the transition function total by adding an explicit non-final
    /// sink state (if any byte is uncovered anywhere).
    pub fn complete(&self) -> Dfa {
        let mut out = self.clone();
        let sink = StateId(out.states.len() as u32);
        let mut used_sink = false;
        for row in out.states.iter_mut() {
            let mut covered = ByteClass::EMPTY;
            for (c, _) in row.iter() {
                covered = covered.union(c);
            }
            let rest = covered.complement();
            if !rest.is_empty() {
                row.push((rest, sink));
                used_sink = true;
            }
        }
        if used_sink {
            out.states.push(vec![(ByteClass::FULL, sink)]);
            out.finals.push(false);
        }
        out
    }

    /// The DFA for the complement language Σ* \ L.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for f in out.finals.iter_mut() {
            *f = !*f;
        }
        out
    }

    /// Converts back to an NFA (a DFA is an NFA without epsilon edges).
    pub fn to_nfa(&self) -> Nfa {
        let mut out = Nfa::new();
        let mut map = Vec::with_capacity(self.states.len());
        map.push(out.start());
        for _ in 1..self.states.len() {
            map.push(out.add_state());
        }
        out.set_start(map[self.start.index()]);
        for (i, row) in self.states.iter().enumerate() {
            for &(c, t) in row {
                out.add_edge(map[i], c, map[t.index()]);
            }
        }
        for (i, &f) in self.finals.iter().enumerate() {
            if f {
                out.add_final(map[i]);
            }
        }
        out
    }

    /// Direct construction access for the minimizer.
    pub(crate) fn from_parts(
        states: Vec<Vec<(ByteClass, StateId)>>,
        start: StateId,
        finals: Vec<bool>,
    ) -> Dfa {
        Dfa {
            states,
            start,
            finals,
        }
    }
}

/// Subset construction: converts an epsilon-NFA into an equivalent DFA.
///
/// Runs over the minterm alphabet of the input's transition classes. Only
/// reachable subset-states are materialized. The result's transition
/// function is partial (no explicit dead state).
pub fn determinize(nfa: &Nfa) -> Dfa {
    determinize_counted(nfa).0
}

/// Cost report of one determinization, consumed by the metrics registry's
/// "determinization blowup" histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeterminizeCost {
    /// DFA subset-states produced.
    pub dfa_states: usize,
    /// Total states returned across every ε-closure evaluated by the
    /// construction — the "ε-closure work" cost driver.
    pub closure_visited: usize,
}

/// Like [`determinize`], additionally reporting the subset-construction
/// cost (output states and ε-closure work).
///
/// Reads the crate's subset table (`subset::with_table`): states are
/// numbered in breadth-first discovery order, and each row merges the
/// minterm blocks that lead to one target and lists its edges by target.
pub fn determinize_counted(nfa: &Nfa) -> (Dfa, DeterminizeCost) {
    subset::with_table(nfa, read_table)
}

/// The DFA a finished subset table describes, and its cost.
fn read_table(table: &mut subset::Table) -> (Dfa, DeterminizeCost) {
    let mut row = Vec::new();
    let states = (0..table.num_states())
        .map(|q| {
            table.merged_row(q, &mut row);
            // Merged targets are distinct.
            row.sort_unstable_by_key(|&(_, t)| t);
            row.clone()
        })
        .collect();
    let dfa = Dfa {
        states,
        start: StateId(0),
        finals: table.finals.clone(),
    };
    (dfa, table.cost)
}

/// The NFA for the complement language Σ* \ L(nfa).
pub fn complement(nfa: &Nfa) -> Nfa {
    try_complement(nfa, usize::MAX).expect("an unlimited determinization completes")
}

/// [`complement`], or `None` when determinizing `nfa` would number more
/// than `max_states` states; the determinization stops there.
pub fn try_complement(nfa: &Nfa, max_states: usize) -> Option<Nfa> {
    let (dfa, _) = subset::try_with_table(nfa, max_states, read_table).ok()?;
    Some(dfa.complement().to_nfa().trim().0)
}

/// Language inclusion: is `L(a) ⊆ L(b)`? Unlimited
/// [`inclusion::try_subset`]; callers that enforce a budget call that
/// directly.
pub fn is_subset(a: &Nfa, b: &Nfa) -> bool {
    inclusion::try_subset(a, b, &InclusionLimits::UNLIMITED)
        .expect("unlimited queries cannot abort")
        .0
}

/// Language equivalence: is `L(a) = L(b)`? Unlimited
/// [`inclusion::try_equivalent`].
pub fn equivalent(a: &Nfa, b: &Nfa) -> bool {
    inclusion::try_equivalent(a, b, &InclusionLimits::UNLIMITED)
        .expect("unlimited queries cannot abort")
        .0
}

/// A shortest counterexample to `L(a) ⊆ L(b)`, i.e. a shortest member of
/// `L(a) \ L(b)`, or `None` when the inclusion holds. Unlimited
/// [`inclusion::try_counterexample`].
pub fn inclusion_counterexample(a: &Nfa, b: &Nfa) -> Option<Vec<u8>> {
    inclusion::try_counterexample(a, b, &InclusionLimits::UNLIMITED)
        .expect("unlimited queries cannot abort")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    #[test]
    fn determinize_preserves_language() {
        let n = ops::union(&Nfa::literal(b"ab"), &ops::star(&Nfa::literal(b"a")));
        let d = determinize(&n);
        for w in [&b""[..], b"a", b"aa", b"ab", b"aaa", b"b", b"ba", b"abab"] {
            assert_eq!(n.contains(w), d.contains(w), "word {w:?}");
        }
    }

    #[test]
    fn determinize_empty_language() {
        let d = determinize(&Nfa::empty_language());
        assert!(!d.contains(b""));
        assert!(!d.contains(b"a"));
        assert_eq!(d.num_states(), 1);
    }

    #[test]
    fn determinism_invariant() {
        let n = ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"ac"));
        let d = determinize(&n);
        for q in 0..d.num_states() {
            let row = d.transitions(StateId(q as u32));
            for (i, (c1, _)) in row.iter().enumerate() {
                for (c2, _) in row.iter().skip(i + 1) {
                    assert!(c1.is_disjoint(c2), "overlapping classes in DFA row");
                }
            }
        }
    }

    #[test]
    fn complete_covers_alphabet() {
        let d = determinize(&Nfa::literal(b"a")).complete();
        for q in 0..d.num_states() {
            let mut covered = ByteClass::EMPTY;
            for (c, _) in d.transitions(StateId(q as u32)) {
                covered = covered.union(c);
            }
            assert!(covered.is_full());
        }
    }

    #[test]
    fn complement_flips_membership() {
        let n = Nfa::literal(b"ab");
        let c = complement(&n);
        assert!(!c.contains(b"ab"));
        assert!(c.contains(b""));
        assert!(c.contains(b"a"));
        assert!(c.contains(b"abx"));
        // Double complement restores the language.
        let cc = complement(&c);
        assert!(cc.contains(b"ab"));
        assert!(!cc.contains(b"a"));
    }

    #[test]
    fn complement_of_sigma_star_is_empty() {
        assert!(complement(&Nfa::sigma_star()).is_empty_language());
        assert!(equivalent(
            &complement(&Nfa::empty_language()),
            &Nfa::sigma_star()
        ));
    }

    #[test]
    fn subset_judgments() {
        let a = Nfa::literal(b"aa");
        let astar = ops::star(&Nfa::literal(b"a"));
        assert!(is_subset(&a, &astar));
        assert!(!is_subset(&astar, &a));
        assert!(is_subset(&Nfa::empty_language(), &a));
        assert!(is_subset(&a, &Nfa::sigma_star()));
    }

    #[test]
    fn equivalence_judgments() {
        // a(ba)* == (ab)*a
        let a = Nfa::literal(b"a");
        let b = Nfa::literal(b"b");
        let lhs = ops::concat(&a, &ops::star(&ops::concat(&b, &a).nfa)).nfa;
        let rhs = ops::concat(&ops::star(&ops::concat(&a, &b).nfa), &a).nfa;
        assert!(equivalent(&lhs, &rhs));
        assert!(!equivalent(&lhs, &ops::star(&a)));
    }

    #[test]
    fn counterexample_is_minimal_witness() {
        let astar = ops::star(&Nfa::literal(b"a"));
        let aa = Nfa::literal(b"aa");
        let cex = inclusion_counterexample(&astar, &aa).expect("inclusion fails");
        assert!(astar.contains(&cex));
        assert!(!aa.contains(&cex));
        assert!(
            cex.len() <= 1,
            "shortest counterexample is ε or 'a', got {cex:?}"
        );
        assert_eq!(inclusion_counterexample(&aa, &astar), None);
    }

    #[test]
    fn counted_determinization_reports_cost() {
        let n = ops::union(&Nfa::literal(b"ab"), &ops::star(&Nfa::literal(b"a")));
        let (d, cost) = determinize_counted(&n);
        assert_eq!(cost.dfa_states, d.num_states());
        assert!(cost.closure_visited > 0);
        // The counted path is the path: plain determinize is identical.
        assert_eq!(determinize(&n), d);
    }

    #[test]
    fn dfa_roundtrip_to_nfa() {
        let n = ops::union(&Nfa::literal(b"x"), &Nfa::literal(b"yz"));
        let back = determinize(&n).to_nfa();
        assert!(equivalent(&n, &back));
    }
}

/// The constructions [`determinize_counted`] replaced, kept verbatim as
/// the references it must match exactly: the same `Dfa`, numbering
/// included, and the same cost. `determinize_counted` is the first subset
/// kernel's (sets interned in a `HashMap`, rows merged per target);
/// `btree_determinize_counted` the `BTreeSet` construction before it.
#[cfg(test)]
pub(crate) mod reference {
    use super::{DeterminizeCost, Dfa};
    use crate::byteclass::{minterms, ByteClass};
    use crate::nfa::{Nfa, StateId};
    use crate::subset::{self, Subsets};
    use std::collections::{BTreeSet, HashMap, VecDeque};

    /// Marks an empty slot in [`determinize_counted`]'s row-merge table.
    const NONE: u32 = u32::MAX;

    /// Like [`determinize`](super::determinize), additionally reporting the
    /// subset-construction cost (output states and ε-closure work).
    ///
    /// Runs on the crate's subset kernel: macrostates are sorted state slices,
    /// interned once, and numbered in breadth-first discovery order; each row
    /// merges the minterm blocks that lead to one target and lists its edges
    /// by target.
    pub(crate) fn determinize_counted(nfa: &Nfa) -> (Dfa, DeterminizeCost) {
        let alphabet = subset::alphabet(nfa.edges().map(|(_, c, _)| c));
        let symbols = subset::representatives(&alphabet);
        let mut kernel = Subsets::new(nfa);
        let mut cost = DeterminizeCost::default();
        let mut next: Vec<u32> = Vec::new();
        kernel.start(&mut next);
        cost.closure_visited += next.len();
        // Macrostate `i` is `pool[spans[i].0..spans[i].1]`; `index` interns them.
        let mut index: HashMap<Box<[u32]>, StateId> = HashMap::new();
        index.insert(next.as_slice().into(), StateId(0));
        let mut pool: Vec<u32> = next.clone();
        let mut spans: Vec<(usize, usize)> = vec![(0, next.len())];
        let mut finals: Vec<bool> = vec![kernel.any_final(&next)];
        let mut states: Vec<Vec<(ByteClass, StateId)>> = Vec::new();
        let mut cur: Vec<u32> = Vec::new();
        // `slot[t]`: where target `t` sits in the row being built, or NONE.
        let mut slot: Vec<u32> = Vec::new();
        // Work is processed in creation order, so the queue is an index.
        while states.len() < spans.len() {
            let (from, to) = spans[states.len()];
            cur.clear();
            cur.extend_from_slice(&pool[from..to]);
            let mut row: Vec<(ByteClass, StateId)> = Vec::new();
            for (block, &b) in alphabet.iter().zip(&symbols) {
                kernel.step(&cur, b, &mut next);
                cost.closure_visited += next.len();
                if next.is_empty() {
                    continue;
                }
                let t = match index.get(next.as_slice()) {
                    Some(&t) => t,
                    None => {
                        let t = StateId(spans.len() as u32);
                        index.insert(next.as_slice().into(), t);
                        finals.push(kernel.any_final(&next));
                        spans.push((pool.len(), pool.len() + next.len()));
                        pool.extend_from_slice(&next);
                        t
                    }
                };
                if slot.len() <= t.index() {
                    slot.resize(spans.len(), NONE);
                }
                match slot[t.index()] {
                    NONE => {
                        slot[t.index()] = row.len() as u32;
                        row.push((*block, t));
                    }
                    j => row[j as usize].0 = row[j as usize].0.union(block),
                }
            }
            for &(_, t) in &row {
                slot[t.index()] = NONE;
            }
            // Merged targets are distinct.
            row.sort_unstable_by_key(|&(_, t)| t);
            states.push(row);
        }
        cost.dfa_states = states.len();
        (
            Dfa {
                states,
                start: StateId(0),
                finals,
            },
            cost,
        )
    }

    pub(crate) fn btree_determinize_counted(nfa: &Nfa) -> (Dfa, DeterminizeCost) {
        let mut cost = DeterminizeCost::default();
        let classes: Vec<ByteClass> = nfa.edges().map(|(_, c, _)| c).collect();
        let alphabet = minterms(classes.iter());
        let start_set = nfa.eps_closure(&BTreeSet::from([nfa.start()]));
        cost.closure_visited += start_set.len();
        let mut index: HashMap<BTreeSet<StateId>, StateId> = HashMap::new();
        let mut sets: Vec<BTreeSet<StateId>> = vec![start_set.clone()];
        index.insert(start_set, StateId(0));
        let mut states: Vec<Vec<(ByteClass, StateId)>> = vec![Vec::new()];
        let mut finals: Vec<bool> = Vec::new();
        let mut work: VecDeque<usize> = VecDeque::from([0]);
        finals.push(sets[0].iter().any(|q| nfa.is_final(*q)));
        while let Some(i) = work.pop_front() {
            let cur = sets[i].clone();
            for block in &alphabet {
                // All minterm members behave identically, so step on any one.
                let b = block.min_byte().expect("minterm blocks are nonempty");
                let next = nfa.eps_closure(&nfa.step(&cur, b));
                cost.closure_visited += next.len();
                if next.is_empty() {
                    continue;
                }
                let t = match index.get(&next) {
                    Some(&t) => t,
                    None => {
                        let t = StateId(sets.len() as u32);
                        index.insert(next.clone(), t);
                        finals.push(next.iter().any(|q| nfa.is_final(*q)));
                        sets.push(next);
                        states.push(Vec::new());
                        work.push_back(t.index());
                        t
                    }
                };
                states[i].push((*block, t));
            }
            // Merge parallel edges to the same target into one class.
            let row = &mut states[i];
            let mut merged: HashMap<StateId, ByteClass> = HashMap::new();
            for &(c, t) in row.iter() {
                let e = merged.entry(t).or_insert(ByteClass::EMPTY);
                *e = e.union(&c);
            }
            let mut new_row: Vec<(ByteClass, StateId)> =
                merged.into_iter().map(|(t, c)| (c, t)).collect();
            new_row.sort_by_key(|&(_, t)| t);
            *row = new_row;
        }
        cost.dfa_states = states.len();
        (
            Dfa {
                states,
                start: StateId(0),
                finals,
            },
            cost,
        )
    }
}
