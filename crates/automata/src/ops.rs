//! Regular operations on NFAs: concatenation, union, Kleene closures, and
//! the cross-product intersection.
//!
//! Concatenation and intersection return *provenance* alongside the machine:
//! the decision procedure (paper Figure 3 and §3.4.3) must later locate the
//! epsilon transition introduced by a concatenation inside derived product
//! machines, so [`concat()`] reports where operand states landed and
//! [`intersect`] reports which operand pair each product state represents.

use crate::byteclass::ByteClass;
use crate::nfa::{Nfa, State, StateId};
use crate::subset::{self, footprint};
use std::cell::Cell;
use std::convert::Infallible;
use std::ops::ControlFlow;

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
    concat_owned(a.clone(), b)
}

/// [`concat()`], building on the left operand instead of copying it: the
/// same machine and provenance.
pub fn concat_owned(a: Nfa, b: &Nfa) -> Concatenation {
    // The left operand stays where it is: left_map[i] == i.
    let mut out = a.into_normalized();
    let b = b.normalized();
    let left_map = out.state_ids().collect();
    let offset = out.append(&b);
    let right_map = b.state_ids().map(|q| StateId(q.0 + offset)).collect();
    let f1 = out.single_final();
    let s2 = StateId(b.start().0 + offset);
    out.add_eps(f1, s2);
    out.set_single_final(StateId(b.single_final().0 + offset));
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
        let m = m.normalized();
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
    let a = a.normalized();
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
/// deterministic.
pub fn try_intersect(a: &Nfa, b: &Nfa, max_states: usize) -> Option<Product> {
    with_product(a, b, max_states, |scratch, pairs| Product {
        nfa: scratch.emit_all(),
        pairs,
    })
}

/// Result of [`try_intersect_trimmed`]: the product machine trimmed, with
/// its provenance.
#[derive(Clone, Debug)]
pub struct TrimmedProduct {
    /// The product machine as [`Nfa::trim`] leaves it: the start first,
    /// then the states on a start→final path in exploration order.
    pub nfa: Nfa,
    /// For each state of `nfa`, the explored product state it keeps (the
    /// mapping `trim` returns); an index into `pairs`.
    pub old_of_new: Vec<StateId>,
    /// Every explored pair, in exploration order: [`Product::pairs`].
    pub pairs: Vec<(StateId, StateId)>,
}

/// [`try_intersect`] followed by [`Nfa::trim`], in one pass: the same
/// machine, mapping and pairs, and `None` under the same cap.
///
/// Every explored pair is reachable from the start pair by construction,
/// so trimming needs only the backward pass from the finals.
pub fn try_intersect_trimmed(a: &Nfa, b: &Nfa, max_states: usize) -> Option<TrimmedProduct> {
    with_product(a, b, max_states, |scratch, pairs| {
        let (nfa, old_of_new) = scratch.emit_trimmed();
        TrimmedProduct {
            nfa,
            old_of_new,
            pairs,
        }
    })
}

/// The scratch of one product construction, kept for the next: the
/// explored product as flat lists, and the trim's reverse adjacency.
#[derive(Default)]
struct ProductScratch {
    /// Numbers pairs through their seeded hash; the pairs are the caller's.
    index: subset::Index,
    a_final: Vec<bool>,
    b_final: Vec<bool>,
    /// Product state `i`'s edges are `edges[edge_end[i - 1]..edge_end[i]]`
    /// (from 0 for state 0), in the order the construction adds them; its
    /// ε-edges likewise through `eps_end`.
    edges: Vec<(ByteClass, u32)>,
    edge_end: Vec<u32>,
    eps: Vec<u32>,
    eps_end: Vec<u32>,
    finals: Vec<bool>,
    /// Reverse adjacency in compressed rows: the predecessors of `t` are
    /// `preds[first[t]..first[t + 1]]`.
    first: Vec<u32>,
    fill: Vec<u32>,
    preds: Vec<u32>,
    live: Vec<bool>,
    stack: Vec<u32>,
    new_of_old: Vec<u32>,
}

thread_local! {
    /// This thread's product scratch, reused from one construction to the
    /// next.
    static PRODUCT: Cell<ProductScratch> = Cell::new(ProductScratch::default());
}

/// Runs `f` on this thread's product scratch, which is kept for the next
/// call unless it grew past [`subset::RETAINED_BYTES`].
fn with_scratch<R>(f: impl FnOnce(&mut ProductScratch) -> R) -> R {
    let mut scratch = PRODUCT.with(Cell::take);
    let result = f(&mut scratch);
    if scratch.footprint() <= subset::RETAINED_BYTES {
        PRODUCT.with(|cell| cell.set(scratch));
    }
    result
}

/// Explores the product of `a` and `b` breadth-first from the start pair
/// into this thread's scratch, and hands it with the explored pairs to
/// `f`; `None` once more than `max_states` pairs would be explored.
fn with_product<R>(
    a: &Nfa,
    b: &Nfa,
    max_states: usize,
    f: impl FnOnce(&mut ProductScratch, Vec<(StateId, StateId)>) -> R,
) -> Option<R> {
    with_scratch(|scratch| {
        let keep_going = |_| ControlFlow::<Infallible>::Continue(());
        let pairs = scratch.explore(a, b, max_states, keep_going).ok()?;
        Some(f(scratch, pairs))
    })
}

/// Walks the product of `a` and `b` in [`try_intersect`]'s order without
/// keeping it, calling `expand` with whether each pair is accepting just
/// before the pair is expanded; the value of the first `Break`, or `None`
/// once every pair was expanded.
pub(crate) fn walk_product<B>(
    a: &Nfa,
    b: &Nfa,
    expand: impl FnMut(bool) -> ControlFlow<B>,
) -> Option<B> {
    with_scratch(|scratch| match scratch.explore(a, b, usize::MAX, expand) {
        Ok(_) => None,
        Err(Halt::Break(value)) => Some(value),
        Err(Halt::Cap) => unreachable!("an unlimited walk has no cap"),
    })
}

/// Why [`ProductScratch::explore`] stopped early.
enum Halt<B> {
    /// One more pair would pass the cap.
    Cap,
    /// The caller's `expand` broke off with this value.
    Break(B),
}

impl ProductScratch {
    /// The breadth-first pair exploration. Pairs are numbered in discovery
    /// order; each pair's synchronized edges (its left edges in order, each
    /// against its right edges in order), then its left ε-moves, then its
    /// right ε-moves, are listed as it is expanded. Every listed class is
    /// nonempty. `expand` is told whether each pair is accepting before
    /// the pair is expanded, and may stop the exploration there.
    fn explore<B>(
        &mut self,
        a: &Nfa,
        b: &Nfa,
        max_states: usize,
        mut expand: impl FnMut(bool) -> ControlFlow<B>,
    ) -> Result<Vec<(StateId, StateId)>, Halt<B>> {
        if max_states == 0 {
            return Err(Halt::Cap);
        }
        for (bits, m) in [(&mut self.a_final, a), (&mut self.b_final, b)] {
            bits.clear();
            bits.resize(m.num_states(), false);
            for f in m.finals() {
                bits[f.index()] = true;
            }
        }
        self.edges.clear();
        self.edge_end.clear();
        self.eps.clear();
        self.eps_end.clear();
        self.finals.clear();
        self.index.clear();
        let start = (a.start(), b.start());
        let mut pairs = vec![start];
        let slot = self
            .index
            .find(pair_hash(start), |_| false)
            .expect_err("the index starts empty");
        self.index.insert(slot, pair_hash(start));
        let index = &mut self.index;
        // The number of `pair`, numbering it next if it is new; `None` when
        // that would explore more than `max_states` pairs.
        let mut intern = |pair: (StateId, StateId), pairs: &mut Vec<(StateId, StateId)>| {
            let h = pair_hash(pair);
            match index.find(h, |id| pairs[id as usize] == pair) {
                Ok(id) => Ok(id),
                Err(_) if pairs.len() >= max_states => Err(Halt::Cap),
                Err(slot) => {
                    pairs.push(pair);
                    Ok(index.insert(slot, h))
                }
            }
        };
        let mut i = 0;
        while i < pairs.len() {
            let (p, q) = pairs[i];
            let accepting = self.a_final[p.index()] && self.b_final[q.index()];
            if let ControlFlow::Break(value) = expand(accepting) {
                return Err(Halt::Break(value));
            }
            let (sp, sq) = (a.state(p), b.state(q));
            for &(ca, t1) in &sp.edges {
                for &(cb, t2) in &sq.edges {
                    let c = ca.intersect(&cb);
                    if !c.is_empty() {
                        let t = intern((t1, t2), &mut pairs)?;
                        self.edges.push((c, t));
                    }
                }
            }
            self.edge_end.push(self.edges.len() as u32);
            for &t1 in &sp.eps {
                let t = intern((t1, q), &mut pairs)?;
                self.eps.push(t);
            }
            for &t2 in &sq.eps {
                let t = intern((p, t2), &mut pairs)?;
                self.eps.push(t);
            }
            self.eps_end.push(self.eps.len() as u32);
            self.finals.push(accepting);
            i += 1;
        }
        Ok(pairs)
    }

    /// Product state `i`'s edges and ε-edges.
    fn rows(&self, i: usize) -> (&[(ByteClass, u32)], &[u32]) {
        (
            &self.edges[span(&self.edge_end, i)],
            &self.eps[span(&self.eps_end, i)],
        )
    }

    /// The explored product as a machine, every state kept.
    fn emit_all(&self) -> Nfa {
        let n = self.finals.len();
        let states = (0..n)
            .map(|i| {
                let (edges, eps) = self.rows(i);
                State {
                    edges: edges.iter().map(|&(c, t)| (c, StateId(t))).collect(),
                    eps: eps.iter().map(|&t| StateId(t)).collect(),
                }
            })
            .collect();
        let finals = (0..n)
            .filter(|&i| self.finals[i])
            .map(|i| StateId(i as u32))
            .collect();
        Nfa::from_states(states, finals)
    }

    /// The explored product trimmed, and `trim`'s new-to-old mapping. The
    /// live states are those a backward search from the finals reaches;
    /// the start is kept whether or not it is live, and a dead start keeps
    /// no edges.
    fn emit_trimmed(&mut self) -> (Nfa, Vec<StateId>) {
        let n = self.finals.len();
        let Self {
            edges,
            edge_end,
            eps,
            eps_end,
            finals,
            first,
            fill,
            preds,
            live,
            stack,
            new_of_old,
            ..
        } = self;
        let rows = |i: usize| (&edges[span(edge_end, i)], &eps[span(eps_end, i)]);
        let targets = |i: usize| {
            let (edges, eps) = rows(i);
            edges.iter().map(|&(_, t)| t).chain(eps.iter().copied())
        };
        first.clear();
        first.resize(n + 1, 0);
        for i in 0..n {
            for t in targets(i) {
                first[t as usize + 1] += 1;
            }
        }
        for k in 1..=n {
            first[k] += first[k - 1];
        }
        fill.clear();
        fill.extend_from_slice(&first[..n]);
        preds.clear();
        preds.resize(first[n] as usize, 0);
        for i in 0..n {
            for t in targets(i) {
                preds[fill[t as usize] as usize] = i as u32;
                fill[t as usize] += 1;
            }
        }
        live.clear();
        live.extend_from_slice(finals);
        stack.clear();
        stack.extend((0..n as u32).filter(|&i| finals[i as usize]));
        while let Some(t) = stack.pop() {
            for &p in &preds[first[t as usize] as usize..first[t as usize + 1] as usize] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        new_of_old.clear();
        new_of_old.resize(n, subset::NONE);
        let mut old_of_new = vec![StateId(0)];
        new_of_old[0] = 0;
        for i in 1..n {
            if live[i] {
                new_of_old[i] = old_of_new.len() as u32;
                old_of_new.push(StateId(i as u32));
            }
        }
        let kept = |t: u32| match new_of_old[t as usize] {
            subset::NONE => None,
            new => Some(StateId(new)),
        };
        let states = old_of_new
            .iter()
            .map(|old| {
                if !live[old.index()] {
                    return State::default();
                }
                let (edges, eps) = rows(old.index());
                State {
                    edges: edges
                        .iter()
                        .filter_map(|&(c, t)| Some((c, kept(t)?)))
                        .collect(),
                    eps: eps.iter().filter_map(|&t| kept(t)).collect(),
                }
            })
            .collect();
        let finals = (0..n)
            .filter(|&i| finals[i])
            .map(|i| StateId(new_of_old[i]))
            .collect();
        (Nfa::from_states(states, finals), old_of_new)
    }

    fn footprint(&self) -> usize {
        self.index.footprint()
            + footprint(&self.a_final)
            + footprint(&self.b_final)
            + footprint(&self.edges)
            + footprint(&self.edge_end)
            + footprint(&self.eps)
            + footprint(&self.eps_end)
            + footprint(&self.finals)
            + footprint(&self.first)
            + footprint(&self.fill)
            + footprint(&self.preds)
            + footprint(&self.live)
            + footprint(&self.stack)
            + footprint(&self.new_of_old)
    }
}

/// The range of entry `i`'s items in a list whose entries end at `ends`.
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    (if i == 0 { 0 } else { ends[i - 1] as usize })..ends[i] as usize
}

/// The index hash of a product pair.
fn pair_hash((p, q): (StateId, StateId)) -> u64 {
    subset::hash_words([u64::from(p.0) << 32 | u64::from(q.0)])
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
    let product =
        try_intersect_trimmed(a, b, usize::MAX).expect("unlimited product cannot exceed its cap");
    let cost = IntersectCost {
        explored: product.pairs.len(),
        reachable: product.nfa.num_states(),
    };
    (product.nfa, cost)
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

/// The product construction and trim that [`try_intersect`] and
/// [`try_intersect_trimmed`] replaced, kept verbatim as the reference they
/// must match exactly: the same machines, the same `pairs` in the same
/// order, and the same trim mapping.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Product, TrimmedProduct};
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

    /// The product, then [`Nfa::trim`].
    pub(crate) fn try_intersect_trimmed(
        a: &Nfa,
        b: &Nfa,
        max_states: usize,
    ) -> Option<TrimmedProduct> {
        let product = try_intersect(a, b, max_states)?;
        let (nfa, old_of_new) = product.nfa.trim();
        Some(TrimmedProduct {
            nfa,
            old_of_new,
            pairs: product.pairs,
        })
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
