//! Regular operations on NFAs: concatenation, union, Kleene closures, and
//! the cross-product intersection.
//!
//! Concatenation and intersection return *provenance* alongside the machine:
//! the decision procedure (paper Figure 3 and §3.4.3) must later locate the
//! epsilon transition introduced by a concatenation inside derived product
//! machines, so [`concat()`] reports where operand states landed and
//! [`intersect`] reports which operand pair each product state represents.

use crate::nfa::{Nfa, StateId};
use std::collections::{HashMap, VecDeque};

/// Result of [`concat()`]: the machine for `L(a)·L(b)` plus provenance.
#[derive(Clone, Debug)]
pub struct Concatenation {
    /// The concatenation machine, in normalized shape.
    pub nfa: Nfa,
    /// For each state of the (normalized) left operand, its id in `nfa`.
    pub left_map: Vec<StateId>,
    /// For each state of the (normalized) right operand, its id in `nfa`.
    pub right_map: Vec<StateId>,
    /// The single epsilon *bridge* `(f₁, s₂)` joining the operands
    /// (paper Figure 3, line 6). Slicing the machine at instances of this
    /// edge is the heart of the CI algorithm.
    pub bridge: (StateId, StateId),
}

/// Concatenates two machines with a single epsilon bridge between the left
/// operand's final state and the right operand's start state.
///
/// Operands are normalized first, so the resulting machine is itself
/// normalized and the bridge is the unique epsilon edge between the two
/// halves.
///
/// # Examples
///
/// ```
/// use dprle_automata::{Nfa, ops};
///
/// let ab = ops::concat(&Nfa::literal(b"a"), &Nfa::literal(b"b"));
/// assert!(ab.nfa.contains(b"ab"));
/// assert!(!ab.nfa.contains(b"a"));
/// ```
pub fn concat(a: &Nfa, b: &Nfa) -> Concatenation {
    let a = a.normalize();
    let b = b.normalize();
    // Copy the left operand one-for-one: left_map[i] == i.
    let mut out = Nfa::new();
    let mut left_map = Vec::with_capacity(a.num_states());
    left_map.push(out.start());
    for _ in 1..a.num_states() {
        left_map.push(out.add_state());
    }
    out.set_start(left_map[a.start().index()]);
    for (from, class, to) in a.edges() {
        out.add_edge(left_map[from.index()], class, left_map[to.index()]);
    }
    for (from, to) in a.eps_edges() {
        out.add_eps(left_map[from.index()], left_map[to.index()]);
    }
    // Copy right operand.
    let mut right_map = Vec::with_capacity(b.num_states());
    for _ in b.state_ids() {
        right_map.push(out.add_state());
    }
    for (from, class, to) in b.edges() {
        out.add_edge(right_map[from.index()], class, right_map[to.index()]);
    }
    for (from, to) in b.eps_edges() {
        out.add_eps(right_map[from.index()], right_map[to.index()]);
    }
    let f1 = left_map[a.single_final().index()];
    let s2 = right_map[b.start().index()];
    out.add_eps(f1, s2);
    out.add_final(right_map[b.single_final().index()]);
    Concatenation {
        nfa: out,
        left_map,
        right_map,
        bridge: (f1, s2),
    }
}

/// The machine for `L(a) ∪ L(b)`, in normalized shape.
pub fn union(a: &Nfa, b: &Nfa) -> Nfa {
    union_all([a, b])
}

/// The machine for the union of any number of languages, in normalized
/// shape. An empty iterator yields the empty language.
pub fn union_all<'a, I: IntoIterator<Item = &'a Nfa>>(machines: I) -> Nfa {
    let mut out = Nfa::new();
    let final_ = out.add_state();
    for m in machines {
        let m = m.normalize();
        let mut map = Vec::with_capacity(m.num_states());
        for _ in m.state_ids() {
            map.push(out.add_state());
        }
        for (from, class, to) in m.edges() {
            out.add_edge(map[from.index()], class, map[to.index()]);
        }
        for (from, to) in m.eps_edges() {
            out.add_eps(map[from.index()], map[to.index()]);
        }
        out.add_eps(out.start(), map[m.start().index()]);
        out.add_eps(map[m.single_final().index()], final_);
    }
    out.add_final(final_);
    out
}

/// The machine for `L(a)*` (Kleene star), in normalized shape.
pub fn star(a: &Nfa) -> Nfa {
    let a = a.normalize();
    let mut out = Nfa::new();
    let mut map = Vec::with_capacity(a.num_states());
    for _ in a.state_ids() {
        map.push(out.add_state());
    }
    for (from, class, to) in a.edges() {
        out.add_edge(map[from.index()], class, map[to.index()]);
    }
    for (from, to) in a.eps_edges() {
        out.add_eps(map[from.index()], map[to.index()]);
    }
    let s = map[a.start().index()];
    let f = map[a.single_final().index()];
    let final_ = out.add_state();
    out.add_eps(out.start(), s);
    out.add_eps(out.start(), final_); // zero iterations
    out.add_eps(f, s); // loop
    out.add_eps(f, final_);
    out.add_final(final_);
    out
}

/// The machine for `L(a)+` (one or more repetitions), in normalized shape.
pub fn plus(a: &Nfa) -> Nfa {
    concat(a, &star(a)).nfa
}

/// The machine for `L(a)?` (zero or one occurrence), in normalized shape.
pub fn optional(a: &Nfa) -> Nfa {
    union(a, &Nfa::epsilon())
}

/// The machine for `L(a)` repeated exactly `n` times.
pub fn repeat_exact(a: &Nfa, n: usize) -> Nfa {
    let mut out = Nfa::epsilon();
    for _ in 0..n {
        out = concat(&out, a).nfa;
    }
    out.normalize()
}

/// The machine for `L(a){min,max}` (between `min` and `max` repetitions).
///
/// # Panics
///
/// Panics if `min > max`.
pub fn repeat_range(a: &Nfa, min: usize, max: usize) -> Nfa {
    assert!(min <= max, "repeat_range requires min <= max");
    let mut out = repeat_exact(a, min);
    let opt = optional(a);
    for _ in min..max {
        out = concat(&out, &opt).nfa;
    }
    out
}

/// Result of [`intersect`]: the product machine plus, for each product
/// state, the pair of operand states it represents (paper Figure 3,
/// lines 7–8: states of `M₅` are written `q_x q_y`).
#[derive(Clone, Debug)]
pub struct Product {
    /// The product machine. Only pairs reachable from the start pair are
    /// materialized.
    pub nfa: Nfa,
    /// `pairs[i]` is the `(left, right)` operand-state pair represented by
    /// product state `i`.
    pub pairs: Vec<(StateId, StateId)>,
}

impl Product {
    /// Finds the product state representing `(left, right)`, if reachable.
    pub fn state_for(&self, left: StateId, right: StateId) -> Option<StateId> {
        self.pairs
            .iter()
            .position(|&p| p == (left, right))
            .map(|i| StateId(i as u32))
    }
}

/// Cross-product intersection of two epsilon-NFAs: the language of the
/// result is `L(a) ∩ L(b)`.
///
/// Epsilon transitions are handled asynchronously (an ε-move of either
/// operand is an ε-move of the product), which is the standard construction
/// and the one the paper's correctness argument relies on: every ε-edge of
/// the left operand reappears as product ε-edges whose right component is
/// unchanged.
///
/// # Examples
///
/// ```
/// use dprle_automata::{Nfa, ops};
///
/// let p = ops::intersect(&Nfa::sigma_star(), &Nfa::literal(b"hi"));
/// assert!(p.nfa.contains(b"hi"));
/// assert!(!p.nfa.contains(b"h"));
/// ```
pub fn intersect(a: &Nfa, b: &Nfa) -> Product {
    try_intersect(a, b, usize::MAX).expect("unlimited product cannot exceed its cap")
}

/// Like [`intersect`], but aborts — returning `None` — as soon as the
/// product would materialize more than `max_states` states.
///
/// This is the enforcement point for the solver's `max_product_states`
/// resource budget: the BFS stops *before* exceeding the cap, so at most
/// `max_states` product states (and their edges) ever exist. The bound
/// depends only on the operands, which keeps budgeted solves
/// deterministic across worklist thread counts.
pub fn try_intersect(a: &Nfa, b: &Nfa, max_states: usize) -> Option<Product> {
    let mut out = Nfa::new();
    let mut pairs: Vec<(StateId, StateId)> = vec![(a.start(), b.start())];
    if max_states == 0 {
        return None;
    }
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    index.insert((a.start(), b.start()), out.start());
    let mut work: VecDeque<StateId> = VecDeque::from([out.start()]);
    let mut exhausted = false;
    while let Some(pq) = work.pop_front() {
        let (p, q) = pairs[pq.index()];
        let mut intern = |pair: (StateId, StateId),
                          out: &mut Nfa,
                          pairs: &mut Vec<(StateId, StateId)>,
                          work: &mut VecDeque<StateId>|
         -> Option<StateId> {
            if let Some(&id) = index.get(&pair) {
                return Some(id);
            }
            if pairs.len() >= max_states {
                return None;
            }
            let id = out.add_state();
            index.insert(pair, id);
            pairs.push(pair);
            work.push_back(id);
            Some(id)
        };
        // Synchronized byte moves.
        for &(ca, t1) in &a.state(p).edges {
            for &(cb, t2) in &b.state(q).edges {
                let c = ca.intersect(&cb);
                if c.is_empty() {
                    continue;
                }
                match intern((t1, t2), &mut out, &mut pairs, &mut work) {
                    Some(t) => out.add_edge(pq, c, t),
                    None => exhausted = true,
                }
            }
        }
        // Asynchronous epsilon moves.
        for &t1 in &a.state(p).eps {
            match intern((t1, q), &mut out, &mut pairs, &mut work) {
                Some(t) => out.add_eps(pq, t),
                None => exhausted = true,
            }
        }
        for &t2 in &b.state(q).eps {
            match intern((p, t2), &mut out, &mut pairs, &mut work) {
                Some(t) => out.add_eps(pq, t),
                None => exhausted = true,
            }
        }
        if exhausted {
            return None;
        }
        if a.is_final(p) && b.is_final(q) {
            out.add_final(pq);
        }
    }
    Some(Product { nfa: out, pairs })
}

/// Convenience wrapper: the intersection machine without provenance,
/// trimmed.
pub fn intersect_lang(a: &Nfa, b: &Nfa) -> Nfa {
    intersect_lang_counted(a, b).0
}

/// Cost report of one intersection: the §3.5 "product states explored vs.
/// reachable" numbers the metrics registry records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntersectCost {
    /// Product states materialized by the BFS (explored pairs).
    pub explored: usize,
    /// Product states surviving the trim (on a live start→final path).
    pub reachable: usize,
}

/// Like [`intersect_lang`], additionally reporting the explored and
/// reachable product-state counts so callers can record them without
/// recomputing the product.
pub fn intersect_lang_counted(a: &Nfa, b: &Nfa) -> (Nfa, IntersectCost) {
    let product = intersect(a, b);
    let explored = product.pairs.len();
    let trimmed = product.nfa.trim().0;
    let cost = IntersectCost {
        explored,
        reachable: trimmed.num_states(),
    };
    (trimmed, cost)
}

/// The intersection of any number of languages, trimmed after each step
/// (pairwise products would otherwise grow multiplicatively). An empty
/// iterator yields Σ* (the intersection's identity).
pub fn intersect_all<'a, I: IntoIterator<Item = &'a Nfa>>(machines: I) -> Nfa {
    let mut out: Option<Nfa> = None;
    for m in machines {
        out = Some(match out {
            None => m.clone(),
            Some(acc) => intersect_lang(&acc, m),
        });
    }
    out.unwrap_or_else(Nfa::sigma_star)
}

/// Convenience wrapper: the concatenation machine without provenance.
pub fn concat_lang(a: &Nfa, b: &Nfa) -> Nfa {
    concat(a, b).nfa
}

/// The product construction [`try_intersect`] replaced, kept verbatim as
/// the reference it must match exactly: the same machine and the same
/// `pairs`, in the same order.
#[cfg(test)]
pub(crate) mod reference {
    use super::Product;
    use crate::nfa::{Nfa, StateId};
    use std::collections::{HashMap, VecDeque};

    pub(crate) fn try_intersect(a: &Nfa, b: &Nfa, max_states: usize) -> Option<Product> {
        let mut out = Nfa::new();
        let mut pairs: Vec<(StateId, StateId)> = vec![(a.start(), b.start())];
        if max_states == 0 {
            return None;
        }
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        index.insert((a.start(), b.start()), out.start());
        let mut work: VecDeque<StateId> = VecDeque::from([out.start()]);
        let mut exhausted = false;
        while let Some(pq) = work.pop_front() {
            let (p, q) = pairs[pq.index()];
            let mut intern = |pair: (StateId, StateId),
                              out: &mut Nfa,
                              pairs: &mut Vec<(StateId, StateId)>,
                              work: &mut VecDeque<StateId>|
             -> Option<StateId> {
                if let Some(&id) = index.get(&pair) {
                    return Some(id);
                }
                if pairs.len() >= max_states {
                    return None;
                }
                let id = out.add_state();
                index.insert(pair, id);
                pairs.push(pair);
                work.push_back(id);
                Some(id)
            };
            // Synchronized byte moves.
            let pa = a.state(p).edges.clone();
            let qb = b.state(q).edges.clone();
            for &(ca, t1) in &pa {
                for &(cb, t2) in &qb {
                    let c = ca.intersect(&cb);
                    if c.is_empty() {
                        continue;
                    }
                    match intern((t1, t2), &mut out, &mut pairs, &mut work) {
                        Some(t) => out.add_edge(pq, c, t),
                        None => exhausted = true,
                    }
                }
            }
            // Asynchronous epsilon moves.
            for &t1 in &a.state(p).eps.clone() {
                match intern((t1, q), &mut out, &mut pairs, &mut work) {
                    Some(t) => out.add_eps(pq, t),
                    None => exhausted = true,
                }
            }
            for &t2 in &b.state(q).eps.clone() {
                match intern((p, t2), &mut out, &mut pairs, &mut work) {
                    Some(t) => out.add_eps(pq, t),
                    None => exhausted = true,
                }
            }
            if exhausted {
                return None;
            }
            if a.is_final(p) && b.is_final(q) {
                out.add_final(pq);
            }
        }
        Some(Product { nfa: out, pairs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const AB: &[u8] = b"ab";

    fn langs_equal_upto(a: &Nfa, b: &Nfa, alphabet: &[u8], n: usize) -> bool {
        a.enumerate_upto(alphabet, n) == b.enumerate_upto(alphabet, n)
    }

    #[test]
    fn concat_bridge_is_the_join() {
        let c = concat(&Nfa::literal(b"x"), &Nfa::literal(b"y"));
        assert!(c.nfa.contains(b"xy"));
        assert!(!c.nfa.contains(b"x"));
        assert!(c.nfa.is_normalized());
        let (f1, s2) = c.bridge;
        // The bridge connects the left final to the right start.
        assert!(c.left_map.contains(&f1));
        assert!(c.right_map.contains(&s2));
        assert!(c.nfa.state(f1).eps.contains(&s2));
    }

    #[test]
    fn concat_with_epsilon_identity() {
        let a = Nfa::literal(b"ab");
        let left = concat(&Nfa::epsilon(), &a).nfa;
        let right = concat(&a, &Nfa::epsilon()).nfa;
        assert!(langs_equal_upto(&left, &a, AB, 4));
        assert!(langs_equal_upto(&right, &a, AB, 4));
    }

    #[test]
    fn concat_with_empty_is_empty() {
        let a = Nfa::literal(b"ab");
        assert!(concat(&a, &Nfa::empty_language()).nfa.is_empty_language());
        assert!(concat(&Nfa::empty_language(), &a).nfa.is_empty_language());
    }

    #[test]
    fn union_covers_both() {
        let u = union(&Nfa::literal(b"a"), &Nfa::literal(b"bb"));
        assert!(u.contains(b"a"));
        assert!(u.contains(b"bb"));
        assert!(!u.contains(b"b"));
        assert!(u.is_normalized());
    }

    #[test]
    fn union_all_empty_iterator() {
        let u = union_all(std::iter::empty());
        assert!(u.is_empty_language());
    }

    #[test]
    fn union_all_empty_iterator_pins_shape() {
        // Pinned behavior (not a panic): the empty union is the empty
        // language, materialized as a start state plus a disconnected
        // final — never zero states, so budget/metrics accounting that
        // divides by or logs state counts sees a nonzero machine.
        let u = union_all(std::iter::empty());
        assert_eq!(u.num_states(), 2);
        assert!(!u.contains(b""));
        assert!(u.is_empty_language());
        // Degenerate singleton union is the identity.
        let one = union_all([&Nfa::literal(b"q")]);
        assert!(one.contains(b"q"));
        assert!(!one.contains(b""));
    }

    #[test]
    fn intersect_all_empty_iterator_pins_sigma_star() {
        // Pinned behavior (not a panic): the empty intersection is the
        // neutral element Σ*, a nonzero-state machine.
        let top = intersect_all(std::iter::empty());
        assert!(top.num_states() >= 1);
        assert!(top.contains(b""));
        assert!(top.contains(b"anything"));
        // Degenerate singleton intersection is the identity.
        let one = intersect_all([&Nfa::literal(b"q")]);
        assert!(one.contains(b"q"));
        assert!(!one.contains(b"qq"));
    }

    #[test]
    fn star_and_plus() {
        let a = Nfa::literal(b"ab");
        let s = star(&a);
        for w in [&b""[..], b"ab", b"abab", b"ababab"] {
            assert!(s.contains(w), "star should accept {w:?}");
        }
        assert!(!s.contains(b"aba"));
        let p = plus(&a);
        assert!(!p.contains(b""));
        assert!(p.contains(b"ab"));
        assert!(p.contains(b"abab"));
    }

    #[test]
    fn star_of_empty_language_is_epsilon() {
        let s = star(&Nfa::empty_language());
        assert!(s.contains(b""));
        assert_eq!(s.enumerate_upto(AB, 2), BTreeSet::from([vec![]]));
    }

    #[test]
    fn optional_adds_epsilon() {
        let o = optional(&Nfa::literal(b"a"));
        assert!(o.contains(b""));
        assert!(o.contains(b"a"));
        assert!(!o.contains(b"aa"));
    }

    #[test]
    fn repeat_exact_and_range() {
        let a = Nfa::literal(b"a");
        let three = repeat_exact(&a, 3);
        assert!(three.contains(b"aaa"));
        assert!(!three.contains(b"aa"));
        let r = repeat_range(&a, 1, 3);
        assert!(!r.contains(b""));
        assert!(r.contains(b"a"));
        assert!(r.contains(b"aaa"));
        assert!(!r.contains(b"aaaa"));
        assert!(repeat_exact(&a, 0).contains(b""));
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn repeat_range_validates() {
        repeat_range(&Nfa::epsilon(), 3, 1);
    }

    #[test]
    fn intersect_is_conjunction() {
        // (xx)+y  ∩  x*y  — the paper's §3.1.1 example: equal to (xx)+y.
        let xx_plus_y = concat(&plus(&Nfa::literal(b"xx")), &Nfa::literal(b"y")).nfa;
        let xstar_y = concat(&star(&Nfa::literal(b"x")), &Nfa::literal(b"y")).nfa;
        let i = intersect(&xx_plus_y, &xstar_y).nfa;
        assert!(langs_equal_upto(&i, &xx_plus_y, b"xy", 7));
    }

    #[test]
    fn intersect_tracks_pairs() {
        let a = Nfa::literal(b"ab");
        let b = Nfa::sigma_star();
        let p = intersect(&a, &b);
        // Every product state's left component is a state of `a`.
        for &(l, _) in &p.pairs {
            assert!(l.index() < a.num_states());
        }
        assert_eq!(p.state_for(a.start(), b.start()), Some(p.nfa.start()));
        assert!(p.nfa.contains(b"ab"));
    }

    #[test]
    fn intersect_disjoint_is_empty() {
        let i = intersect_lang(&Nfa::literal(b"a"), &Nfa::literal(b"b"));
        assert!(i.is_empty_language());
    }

    #[test]
    fn intersect_epsilon_asynchrony() {
        // Left machine reaches finals only through epsilon chains.
        let mut a = Nfa::new();
        let m1 = a.add_state();
        let m2 = a.add_state();
        a.add_eps(a.start(), m1);
        a.add_edge(m1, crate::byteclass::ByteClass::singleton(b'z'), m2);
        let f = a.add_state();
        a.add_eps(m2, f);
        a.add_final(f);
        let i = intersect_lang(&a, &Nfa::literal(b"z"));
        assert!(i.contains(b"z"));
        assert!(!i.contains(b""));
    }

    #[test]
    fn intersect_all_folds() {
        let a = ops_star_ab();
        fn ops_star_ab() -> Nfa {
            star(&union(&Nfa::literal(b"a"), &Nfa::literal(b"b")))
        }
        let ends_b = concat(&a, &Nfa::literal(b"b")).nfa;
        let starts_a = concat(&Nfa::literal(b"a"), &a).nfa;
        let both = intersect_all([&ends_b, &starts_a]);
        assert!(both.contains(b"ab"));
        assert!(!both.contains(b"ba"));
        assert!(!both.contains(b"a"));
        // Identity case.
        let top = intersect_all(std::iter::empty());
        assert!(top.contains(b"anything"));
    }

    #[test]
    fn product_size_bounded_by_state_product() {
        let a = Nfa::literal(b"aaaa");
        let b = Nfa::sigma_star();
        let p = intersect(&a, &b);
        assert!(p.nfa.num_states() <= a.num_states() * b.num_states());
    }

    #[test]
    fn try_intersect_honors_the_cap() {
        let a = Nfa::literal(b"aaaa");
        let b = Nfa::sigma_star();
        let full = intersect(&a, &b);
        let need = full.pairs.len();
        // A generous cap succeeds with the identical product.
        let ok = try_intersect(&a, &b, need).expect("cap not hit");
        assert_eq!(ok.pairs.len(), need);
        assert!(ok.nfa.contains(b"aaaa"));
        // One state short: aborts, never exceeding the cap.
        assert!(try_intersect(&a, &b, need - 1).is_none());
        assert!(try_intersect(&a, &b, 0).is_none());
    }

    #[test]
    fn counted_intersection_reports_explored_vs_reachable() {
        // `aaaa ∩ Σ*` explores the full line but every state is live.
        let a = Nfa::literal(b"aaaa");
        let (m, cost) = intersect_lang_counted(&a, &Nfa::sigma_star());
        assert!(m.contains(b"aaaa"));
        assert_eq!(cost.explored, intersect(&a, &Nfa::sigma_star()).pairs.len());
        assert!(cost.reachable <= cost.explored);
        assert!(cost.reachable >= 1);
        // A disjoint intersection explores states but none survive trim.
        let (empty, cost) = intersect_lang_counted(&Nfa::literal(b"a"), &Nfa::literal(b"b"));
        assert!(empty.is_empty_language());
        assert!(cost.explored >= 1);
    }
}
