//! Language inclusion, budgeted. The antichain search decides every `⊆`
//! judgment whose right-hand side has no canonical key — subset,
//! equivalence, counterexample extraction. [`try_subset_of_key`] decides
//! one whose right-hand side has a key by one product walk with the key's
//! complement: the intersection-emptiness walk
//! ([`try_intersection_empty`]), with no subset construction (DESIGN.md
//! §8).
//!
//! The search is lazy inclusion checking in the style of
//! De Wulf–Doyen–Henzinger–Raskin: it interleaves an on-the-fly subset
//! construction of the right-hand side with product exploration over
//! *macrostates* `(q, S)` (one LHS state, one ε-closed RHS subset), and
//! prunes any new macrostate subsumed by an already-visited `(q, S')` with
//! `S' ⊆ S`. Only the reachable, non-subsumed part of the subset
//! construction is ever built.
//!
//! Every search checks a macrostate cap and a wall-clock deadline inside
//! its frontier loop, so a breach surfaces as a typed [`InclusionAbort`]
//! carrying the partial [`InclusionCost`] instead of an unbounded blowup.
//! That check is why this is the procedure the solver uses: the textbook
//! determinize/complement/product construction must finish the whole RHS
//! subset construction before it can look at a deadline (DESIGN.md §8).
//!
//! The searches are pure — same operands in, same verdict and cost out —
//! which keeps memoized results and parallel solves deterministic. Their
//! buffers are thread-local and reset by every query, so nothing one query
//! leaves behind reaches the next one's answer.

use crate::byteclass::ByteClass;
use crate::minimize::CanonicalKey;
use crate::nfa::{Nfa, StateId};
use crate::ops;
use crate::subset::{
    footprint, is_sorted_subset, AlphabetBuilder, Marks, SetIndex, Subsets, NONE, RETAINED_BYTES,
};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::time::Instant;

/// Resource limits enforced inside the search loop.
///
/// `max_macrostates` caps the frontier macrostates a query may *explore*
/// — the same per-op semantics as [`crate::ops::try_intersect`]'s state
/// cap. `deadline` is an absolute wall-clock cutoff. The default is
/// unlimited.
#[derive(Clone, Copy, Debug, Default)]
pub struct InclusionLimits {
    /// Abort once this many macrostates were explored.
    pub max_macrostates: Option<u64>,
    /// Abort once this instant has passed.
    pub deadline: Option<Instant>,
}

impl InclusionLimits {
    /// No limits: every query runs to completion.
    pub const UNLIMITED: InclusionLimits = InclusionLimits {
        max_macrostates: None,
        deadline: None,
    };

    /// The limits left after `spent` macrostates of earlier work in the
    /// same query (used when one logical query runs several passes, e.g.
    /// the two directions of an equivalence check).
    fn minus(self, spent: u64) -> InclusionLimits {
        InclusionLimits {
            max_macrostates: self.max_macrostates.map(|m| m.saturating_sub(spent)),
            deadline: self.deadline,
        }
    }
}

/// Cost report of one inclusion query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InclusionCost {
    /// Frontier macrostates popped.
    pub macrostates: u64,
    /// Final antichain size (maximal frontier knowledge retained).
    pub antichain_size: u64,
    /// Macrostates dropped by antichain subsumption.
    pub prunes: u64,
}

impl InclusionCost {
    /// Accumulates another pass's cost into this one.
    pub fn absorb(&mut self, other: InclusionCost) {
        self.macrostates += other.macrostates;
        self.antichain_size += other.antichain_size;
        self.prunes += other.prunes;
    }
}

/// A budget breach inside the search's frontier loop.
///
/// Carries the partial [`InclusionCost`] at the moment of the breach so
/// callers can fold the wasted work into their metrics snapshot before
/// propagating a `ResourceExhausted`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InclusionAbort {
    /// The `max_macrostates` cap was hit.
    MacrostateCap {
        /// The cap that was breached.
        limit: u64,
        /// Work done up to the breach.
        cost: InclusionCost,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// Work done up to the breach.
        cost: InclusionCost,
    },
}

impl InclusionAbort {
    /// The partial work report carried by either variant.
    pub fn cost(&self) -> InclusionCost {
        match *self {
            InclusionAbort::MacrostateCap { cost, .. } => cost,
            InclusionAbort::Deadline { cost } => cost,
        }
    }
}

/// Re-bases an abort from a later pass onto the cost of earlier passes in
/// the same logical query.
fn absorb_abort(abort: InclusionAbort, mut earlier: InclusionCost) -> InclusionAbort {
    earlier.absorb(abort.cost());
    match abort {
        InclusionAbort::MacrostateCap { limit, .. } => InclusionAbort::MacrostateCap {
            limit,
            cost: earlier,
        },
        InclusionAbort::Deadline { .. } => InclusionAbort::Deadline { cost: earlier },
    }
}

fn deadline_passed(limits: &InclusionLimits) -> bool {
    limits.deadline.is_some_and(|d| Instant::now() >= d)
}

/// Is `L(a) ⊆ L(b)`? Budgeted.
pub fn try_subset(
    a: &Nfa,
    b: &Nfa,
    limits: &InclusionLimits,
) -> Result<(bool, InclusionCost), InclusionAbort> {
    let (cex, cost) = try_counterexample(a, b, limits)?;
    Ok((cex.is_none(), cost))
}

/// A shortest member of `L(a) \ L(b)`, or `None` when `L(a) ⊆ L(b)`.
/// Budgeted.
///
/// The frontier holds macrostates `(q, S)` — `q` an ε-closed-reachable LHS
/// state, `S` the ε-closed set of RHS states reachable on the same input.
/// A counterexample exists iff some reachable macrostate has `q` final and
/// `S` free of finals. A new macrostate is *subsumed* (and dropped) when a
/// visited `(q, S')` with `S' ⊆ S` exists: every word rejected from `S` is
/// rejected from `S'` too, so the smaller set finds every counterexample
/// the larger one would, no later. Conversely, inserting a new minimal `S`
/// evicts visited supersets from the pruning store — they stay queued (BFS
/// order, and thus shortest-counterexample extraction, is preserved) but
/// no longer block future inserts.
///
/// Macrostates are expanded on the minterms of both machines' classes, in
/// alphabet order. An LHS state's *row*, built the first time one of its
/// macrostates is expanded, lists the minterms it has edges on with their
/// direct targets, so a macrostate steps on those alone; each step still
/// walks the targets' ε-closure. An RHS set's successor on a minterm is
/// computed once per query and looked up after that. All of it runs in
/// this thread's buffers, reused from one query to the next.
pub fn try_counterexample(
    a: &Nfa,
    b: &Nfa,
    limits: &InclusionLimits,
) -> Result<(Option<Vec<u8>>, InclusionCost), InclusionAbort> {
    let mut search = SEARCH.with(Cell::take);
    let mut lhs = Subsets::reusing(a, std::mem::take(&mut search.lhs_marks));
    let mut rhs = Subsets::reusing(b, std::mem::take(&mut search.rhs_marks));
    let result = search.run(&mut lhs, &mut rhs, a, b, limits);
    search.lhs_marks = lhs.into_marks();
    search.rhs_marks = rhs.into_marks();
    if search.footprint() <= RETAINED_BYTES {
        SEARCH.with(|cell| cell.set(search));
    }
    result
}

thread_local! {
    /// This thread's search scratch, reused from one query to the next.
    static SEARCH: Cell<Search> = Cell::new(Search::default());
}

/// The scratch of one `⊆` search, kept for the next query unless it grew
/// past [`RETAINED_BYTES`].
#[derive(Default)]
struct Search {
    alphabet: AlphabetBuilder,
    /// The minterm alphabet of both machines' classes, and the smallest
    /// byte of each block: every byte of a block steps every state set to
    /// the same successor.
    minterms: Vec<ByteClass>,
    symbols: Vec<u8>,
    lhs_marks: Marks,
    rhs_marks: Marks,
    rows: Rows,
    sets: RhsSets,
    antichain: Antichain,
    /// Macrostates `(q, S, word)` in the order they were admitted, which
    /// is the order they are expanded in.
    queue: Vec<(u32, u32, u32)>,
    words: Words,
    a_next: Vec<u32>,
    s_next: Vec<u32>,
}

impl Search {
    fn run(
        &mut self,
        lhs: &mut Subsets,
        rhs: &mut Subsets,
        a: &Nfa,
        b: &Nfa,
        limits: &InclusionLimits,
    ) -> Result<(Option<Vec<u8>>, InclusionCost), InclusionAbort> {
        let mut cost = InclusionCost::default();
        if !lhs.accepts_some_word() {
            // ∅ ⊆ L(b) for every b.
            return Ok((None, cost));
        }
        let Search {
            alphabet,
            minterms,
            symbols,
            rows,
            sets,
            antichain,
            queue,
            words,
            a_next,
            s_next,
            ..
        } = self;
        alphabet.build(
            a.edges()
                .map(|(_, c, _)| c)
                .chain(b.edges().map(|(_, c, _)| c)),
            minterms,
        );
        symbols.clear();
        symbols.extend(
            minterms
                .iter()
                .map(|block| block.min_byte().expect("minterm blocks are nonempty")),
        );
        rows.clear(a.num_states());
        sets.clear(symbols.len());
        antichain.clear(a.num_states());
        queue.clear();
        words.clear();

        rhs.start(s_next);
        let s0 = sets.intern(s_next, rhs);
        lhs.start(a_next);
        let s0_rejecting = sets.rejecting[s0 as usize];
        for &q in a_next.iter() {
            if lhs.is_final(q) && s0_rejecting {
                // ε ∈ L(a) \ L(b).
                cost.antichain_size = antichain.size;
                return Ok((Some(Vec::new()), cost));
            }
            if antichain.admit(q, s0, &sets.sets, &mut cost) {
                queue.push((q, s0, Words::EMPTY));
            }
        }

        let mut head = 0;
        while let Some(&(q, s, word)) = queue.get(head) {
            head += 1;
            if let Some(cap) = limits.max_macrostates {
                if cost.macrostates >= cap {
                    cost.antichain_size = antichain.size;
                    return Err(InclusionAbort::MacrostateCap { limit: cap, cost });
                }
            }
            if deadline_passed(limits) {
                cost.antichain_size = antichain.size;
                return Err(InclusionAbort::Deadline { cost });
            }
            cost.macrostates += 1;
            for e in rows.row(q, a, symbols) {
                let (m, targets) = rows.entry(e);
                let byte = symbols[m];
                lhs.close(targets, a_next);
                let s_next = sets.step(s, m, byte, rhs, s_next);
                let s_next_rejecting = sets.rejecting[s_next as usize];
                // Shared by every successor queued on this minterm.
                let mut node = None;
                for &qn in a_next.iter() {
                    if lhs.is_final(qn) && s_next_rejecting {
                        // First counterexample discovered is shortest: the
                        // BFS pops macrostates in word-length order and
                        // subsumption never removes queued entries.
                        let mut witness = words.spell(word);
                        witness.push(byte);
                        cost.antichain_size = antichain.size;
                        return Ok((Some(witness), cost));
                    }
                    if antichain.admit(qn, s_next, &sets.sets, &mut cost) {
                        let node = *node.get_or_insert_with(|| words.extend(word, byte));
                        queue.push((qn, s_next, node));
                    }
                }
            }
        }
        cost.antichain_size = antichain.size;
        Ok((None, cost))
    }

    fn footprint(&self) -> usize {
        self.alphabet.footprint()
            + footprint(&self.minterms)
            + footprint(&self.symbols)
            + self.lhs_marks.footprint()
            + self.rhs_marks.footprint()
            + self.rows.footprint()
            + self.sets.footprint()
            + self.antichain.footprint()
            + footprint(&self.queue)
            + footprint(&self.words.nodes)
            + footprint(&self.a_next)
            + footprint(&self.s_next)
    }
}

/// The LHS states' rows, each built the first time it is asked for: the
/// minterms a state has edges on, in alphabet order, each with the
/// state's direct targets on it. Rows hold targets, not their ε-closures,
/// which overlap and can sum to the square of the machine's size.
#[derive(Default)]
struct Rows {
    /// `of[q]`: the range of `q`'s entries, or `(NONE, _)` while unbuilt.
    of: Vec<(u32, u32)>,
    /// A minterm and the range of its targets in `targets`.
    entries: Vec<(u32, u32, u32)>,
    targets: Vec<u32>,
}

impl Rows {
    fn clear(&mut self, states: usize) {
        self.of.clear();
        self.of.resize(states, (NONE, 0));
        self.entries.clear();
        self.targets.clear();
    }

    /// The entries of `q`'s row, building it if needed.
    fn row(&mut self, q: u32, a: &Nfa, symbols: &[u8]) -> std::ops::Range<usize> {
        let (first, end) = self.of[q as usize];
        if first != NONE {
            return first as usize..end as usize;
        }
        let first = self.entries.len();
        let edges = &a.state(StateId(q)).edges;
        for (m, &byte) in symbols.iter().enumerate() {
            let from = self.targets.len();
            self.targets.extend(
                edges
                    .iter()
                    .filter(|(class, _)| class.contains(byte))
                    .map(|&(_, t)| t.0),
            );
            if self.targets.len() > from {
                self.entries
                    .push((m as u32, from as u32, self.targets.len() as u32));
            }
        }
        self.of[q as usize] = (first as u32, self.entries.len() as u32);
        first..self.entries.len()
    }

    /// Entry `e`'s minterm and targets.
    fn entry(&self, e: usize) -> (usize, &[u32]) {
        let (m, from, to) = self.entries[e];
        (m as usize, &self.targets[from as usize..to as usize])
    }

    fn footprint(&self) -> usize {
        footprint(&self.of) + footprint(&self.entries) + footprint(&self.targets)
    }
}

/// The RHS sets a query meets, interned, with whether each is free of
/// finals and a successor table filled on demand: set `s` steps on
/// minterm `m` to set `succ[s * k + m]`, which is [`NONE`] until first
/// asked for.
#[derive(Default)]
struct RhsSets {
    sets: SetIndex,
    rejecting: Vec<bool>,
    succ: Vec<u32>,
    k: usize,
}

impl RhsSets {
    fn clear(&mut self, k: usize) {
        self.sets.clear();
        self.rejecting.clear();
        self.succ.clear();
        self.k = k;
    }

    /// The number of `set`, numbering it if it is new.
    fn intern(&mut self, set: &[u32], rhs: &Subsets) -> u32 {
        let (id, new) = self.sets.intern(set);
        if new {
            self.rejecting.push(!rhs.any_final(set));
            self.succ.resize(self.succ.len() + self.k, NONE);
        }
        id
    }

    /// The set `s` steps to on minterm `m`, whose smallest byte is `byte`.
    fn step(&mut self, s: u32, m: usize, byte: u8, rhs: &mut Subsets, buf: &mut Vec<u32>) -> u32 {
        let at = s as usize * self.k + m;
        if self.succ[at] == NONE {
            rhs.step(self.sets.get(s as usize), byte, buf);
            self.succ[at] = self.intern(buf, rhs);
        }
        self.succ[at]
    }

    fn footprint(&self) -> usize {
        self.sets.footprint() + footprint(&self.rejecting) + footprint(&self.succ)
    }
}

/// The per-LHS-state antichain of minimal visited RHS subsets: state `q`'s
/// sets are a list through `links` from `heads[q]`, each link holding a
/// set number and the next link.
#[derive(Default)]
struct Antichain {
    heads: Vec<u32>,
    links: Vec<(u32, u32)>,
    /// The number of sets held.
    size: u64,
}

impl Antichain {
    fn clear(&mut self, lhs_states: usize) {
        self.heads.clear();
        self.heads.resize(lhs_states, NONE);
        self.links.clear();
        self.size = 0;
    }

    /// Admits `(q, s)` unless a visited `(q, s')` with `s' ⊆ s` subsumes
    /// it; whether it was admitted. A new `s` is a new minimal element, so
    /// visited strict supersets are dropped (they could never prune
    /// anything `s` would not).
    fn admit(&mut self, q: u32, s: u32, sets: &SetIndex, cost: &mut InclusionCost) -> bool {
        let set = sets.get(s as usize);
        let mut at = self.heads[q as usize];
        while at != NONE {
            let (t, next) = self.links[at as usize];
            if t == s || is_sorted_subset(sets.get(t as usize), set) {
                cost.prunes += 1;
                return false;
            }
            at = next;
        }
        let (mut prev, mut at) = (NONE, self.heads[q as usize]);
        while at != NONE {
            let (t, next) = self.links[at as usize];
            if is_sorted_subset(set, sets.get(t as usize)) {
                match prev {
                    NONE => self.heads[q as usize] = next,
                    _ => self.links[prev as usize].1 = next,
                }
                self.size -= 1;
            } else {
                prev = at;
            }
            at = next;
        }
        self.links.push((s, self.heads[q as usize]));
        self.heads[q as usize] = (self.links.len() - 1) as u32;
        self.size += 1;
        true
    }

    fn footprint(&self) -> usize {
        footprint(&self.heads) + footprint(&self.links)
    }
}

/// The words of queued macrostates as a parent-pointer tree: node 0 is ε,
/// and node `i > 0` is its parent's word followed by one byte. Only a
/// counterexample is ever spelled out.
#[derive(Default)]
struct Words {
    nodes: Vec<(u32, u8)>,
}

impl Words {
    const EMPTY: u32 = 0;

    fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push((0, 0));
    }

    fn extend(&mut self, parent: u32, byte: u8) -> u32 {
        self.nodes.push((parent, byte));
        (self.nodes.len() - 1) as u32
    }

    fn spell(&self, mut node: u32) -> Vec<u8> {
        let mut word = Vec::new();
        while node != Words::EMPTY {
            let (parent, byte) = self.nodes[node as usize];
            word.push(byte);
            node = parent;
        }
        word.reverse();
        word
    }
}

/// Is `L(a) = L(b)`? Budgeted; the two directions share the budget.
pub fn try_equivalent(
    a: &Nfa,
    b: &Nfa,
    limits: &InclusionLimits,
) -> Result<(bool, InclusionCost), InclusionAbort> {
    let (forward, mut cost) = try_subset(a, b, limits)?;
    if !forward {
        return Ok((false, cost));
    }
    let (backward, back_cost) = try_subset(b, a, &limits.minus(cost.macrostates))
        .map_err(|abort| absorb_abort(abort, cost))?;
    cost.absorb(back_cost);
    Ok((backward, cost))
}

/// Is `L(a) ⊆ L(key)`, for the language `key` canonicalizes? Budgeted.
///
/// The key is the right-hand side's minimal DFA, already determinized,
/// so the judgment needs no subset construction and no antichain: it is
/// `L(a) ∩ L(complement(key)) = ∅`, one [`try_intersection_empty`] walk
/// of `a` against [`CanonicalKey::complement`], which stops at the first
/// accepting pair. Each pair expanded counts as one macrostate; the walk
/// keeps no antichain and prunes nothing.
pub fn try_subset_of_key(
    a: &Nfa,
    key: &CanonicalKey,
    limits: &InclusionLimits,
) -> Result<(bool, InclusionCost), InclusionAbort> {
    try_intersection_empty(a, &key.complement(), limits)
}

/// Is `L(a) ∩ L(b) = ∅`? Budgeted. The pair walk of
/// [`crate::ops::try_intersect`] without materializing the product,
/// early-exiting at the first accepting pair; each pair expanded counts
/// as one macrostate.
pub fn try_intersection_empty(
    a: &Nfa,
    b: &Nfa,
    limits: &InclusionLimits,
) -> Result<(bool, InclusionCost), InclusionAbort> {
    let mut cost = InclusionCost::default();
    let stop = ops::walk_product(a, b, |accepting| {
        if let Some(cap) = limits.max_macrostates {
            if cost.macrostates >= cap {
                return ControlFlow::Break(Err(InclusionAbort::MacrostateCap { limit: cap, cost }));
            }
        }
        if deadline_passed(limits) {
            return ControlFlow::Break(Err(InclusionAbort::Deadline { cost }));
        }
        cost.macrostates += 1;
        if accepting {
            ControlFlow::Break(Ok(()))
        } else {
            ControlFlow::Continue(())
        }
    });
    match stop {
        None => Ok((true, cost)),
        Some(Ok(())) => Ok((false, cost)),
        Some(Err(abort)) => Err(abort),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byteclass::ByteClass;
    use crate::dfa;
    use crate::generate::{random_nonempty_nfa, RandomNfaConfig};
    use crate::ops;
    use std::time::Duration;

    /// The textbook construction the search replaces, kept as the unit
    /// tests' reference: `L(a) \ L(b)` as the product of `a` with the
    /// complement of `det(b)`.
    fn reference_difference(a: &Nfa, b: &Nfa) -> Nfa {
        ops::intersect(a, &dfa::complement(b)).nfa
    }

    fn subset(a: &Nfa, b: &Nfa) -> bool {
        try_subset(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0
    }

    fn subset_costed(a: &Nfa, b: &Nfa) -> (bool, InclusionCost) {
        try_subset(a, b, &InclusionLimits::UNLIMITED).expect("unlimited")
    }

    fn equivalent(a: &Nfa, b: &Nfa) -> bool {
        try_equivalent(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0
    }

    fn counterexample(a: &Nfa, b: &Nfa) -> Option<Vec<u8>> {
        try_counterexample(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0
    }

    fn intersection_empty(a: &Nfa, b: &Nfa) -> bool {
        try_intersection_empty(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0
    }

    #[test]
    fn decides_basic_judgments() {
        let aa = Nfa::literal(b"aa");
        let astar = ops::star(&Nfa::literal(b"a"));
        assert!(subset(&aa, &astar));
        assert!(!subset(&astar, &aa));
        assert!(subset(&Nfa::empty_language(), &aa));
        assert!(subset(&aa, &Nfa::sigma_star()));
        assert!(!equivalent(&aa, &astar));
        assert!(!equivalent(&astar, &ops::star(&aa)));
    }

    #[test]
    fn finds_shortest_counterexamples() {
        let astar = ops::star(&Nfa::literal(b"a"));
        let aa = Nfa::literal(b"aa");
        let cex = counterexample(&astar, &aa).expect("inclusion fails");
        assert!(astar.contains(&cex));
        assert!(!aa.contains(&cex));
        assert!(cex.len() <= 1, "ε or 'a', got {cex:?}");
        assert_eq!(counterexample(&aa, &astar), None);
    }

    #[test]
    fn decides_intersection_emptiness() {
        let a = Nfa::literal(b"ab");
        let b = Nfa::literal(b"ba");
        let pre = ops::concat(&Nfa::literal(b"ab"), &Nfa::sigma_star()).nfa;
        assert!(intersection_empty(&a, &b));
        assert!(!intersection_empty(&a, &pre));
        assert!(intersection_empty(
            &Nfa::empty_language(),
            &Nfa::sigma_star()
        ));
    }

    #[test]
    fn antichain_matches_reference_on_random_pairs() {
        let config = RandomNfaConfig {
            states: 6,
            alphabet: vec![b'a', b'b'],
            ..Default::default()
        };
        for seed in 0..120u64 {
            let a = random_nonempty_nfa(seed, &config);
            let b = random_nonempty_nfa(seed.wrapping_add(1_000_003), &config);
            let a_minus_b = reference_difference(&a, &b);
            let b_minus_a = reference_difference(&b, &a);
            assert_eq!(
                subset(&a, &b),
                a_minus_b.is_empty_language(),
                "seed {seed} a⊆b"
            );
            assert_eq!(
                subset(&b, &a),
                b_minus_a.is_empty_language(),
                "seed {seed} b⊆a"
            );
            assert_eq!(
                equivalent(&a, &b),
                a_minus_b.is_empty_language() && b_minus_a.is_empty_language(),
                "seed {seed} a≡b"
            );
            assert_eq!(
                intersection_empty(&a, &b),
                ops::intersect(&a, &b).nfa.is_empty_language(),
                "seed {seed} a∩b=∅"
            );
            // Counterexamples agree on existence and are valid witnesses of
            // equal (shortest) length.
            let reference = a_minus_b.shortest_member();
            let found = counterexample(&a, &b);
            assert_eq!(reference.is_some(), found.is_some(), "seed {seed}");
            if let (Some(reference), Some(found)) = (reference, found) {
                assert_eq!(reference.len(), found.len(), "seed {seed}: shortest");
                assert!(a.contains(&found), "seed {seed}");
                assert!(!b.contains(&found), "seed {seed}");
            }
        }
    }

    #[test]
    fn antichain_prunes_subsumed_macrostates() {
        // A union of redundant branches makes the RHS subset construction
        // revisit comparable subsets; the antichain must report prunes.
        let a = ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b'])));
        let b1 = ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b'])));
        let b2 = ops::concat(
            &Nfa::class(ByteClass::singleton(b'a')),
            &ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b']))),
        )
        .nfa;
        let b = ops::union(&b1, &b2);
        let (holds, cost) = subset_costed(&a, &b);
        assert!(holds);
        assert!(cost.macrostates > 0);
        assert!(cost.antichain_size > 0);
        assert!(cost.prunes > 0, "redundant RHS branches must be pruned");
    }

    #[test]
    fn frontier_loop_enforces_macrostate_cap() {
        // Σ* ⊆ (ab)* explores several macrostates; a cap of 1 must abort
        // from inside the loop with the partial work attached.
        let a = Nfa::sigma_star();
        let b = ops::star(&Nfa::literal(b"ab"));
        let limits = InclusionLimits {
            max_macrostates: Some(1),
            deadline: None,
        };
        let err = try_subset(&a, &b, &limits).expect_err("cap of 1 must trip");
        match err {
            InclusionAbort::MacrostateCap { limit, cost } => {
                assert_eq!(limit, 1);
                assert_eq!(cost.macrostates, 1, "exactly the cap was explored");
            }
            other => panic!("expected macrostate cap, got {other:?}"),
        }
        // The same query decides fine above its true cost.
        assert!(!subset_costed(&a, &b).0, "Σ* ⊄ (ab)*");
    }

    /// `(a|b)*a(a|b)^n`: its RHS subset construction has 2^(n+1) states,
    /// which a determinize-first procedure must build before it can look
    /// at a deadline.
    fn nth_from_last_is_a(n: usize) -> Nfa {
        let ab = ByteClass::from_bytes([b'a', b'b']);
        let tail = ops::concat(&Nfa::literal(b"a"), &Nfa::class_repeat(ab, n, n)).nfa;
        ops::concat(&ops::star(&Nfa::class(ab)), &tail).nfa
    }

    #[test]
    fn frontier_loop_enforces_deadline() {
        let a = Nfa::sigma_star();
        let b = ops::star(&Nfa::literal(b"ab"));
        let limits = InclusionLimits {
            max_macrostates: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        let err = try_subset(&a, &b, &limits).expect_err("expired deadline must trip");
        assert!(matches!(err, InclusionAbort::Deadline { .. }));

        // A live deadline inside a determinization blowup: the language
        // against itself, built separately, with 10 ms to decide. The
        // determinize/complement/product construction noticed the deadline
        // only after 5.5 s on this query (release build, 2-vCPU VM); the
        // frontier loop must stop close to it.
        let (lhs, rhs) = (nth_from_last_is_a(18), nth_from_last_is_a(18));
        let started = Instant::now();
        let limits = InclusionLimits {
            max_macrostates: None,
            deadline: Some(started + Duration::from_millis(10)),
        };
        let err = try_subset(&lhs, &rhs, &limits).expect_err("10 ms cannot decide the blowup");
        assert!(matches!(err, InclusionAbort::Deadline { .. }), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "deadline overrun: {:?}",
            started.elapsed()
        );
    }

    /// `a*` concatenated 1 600 times ⊆ `(a|b)*`: every star's loop state
    /// reaches the rest of the chain, so the ε-closures a step walks
    /// overlap without containing each other.
    #[test]
    fn overlapping_closures_keep_their_cost_and_rows_hold_targets() {
        let star = ops::star(&Nfa::literal(b"a"));
        let stars = (1..1600).fold(star.clone(), |m, _| ops::concat(&m, &star).nfa);
        let ab = ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b'])));
        let (holds, cost) = subset_costed(&stars, &ab);
        assert!(holds);
        assert_eq!(
            (cost.macrostates, cost.prunes),
            (11_199, 7_678_401),
            "{cost:?}"
        );
        // Every row, built: one entry per edge, on the minterm `a`.
        let mut rows = Rows::default();
        rows.clear(stars.num_states());
        for q in stars.state_ids() {
            rows.row(q.0, &stars, b"ab");
        }
        assert_eq!(rows.targets.len(), stars.edges().count());
        assert_eq!(rows.entries.len(), stars.edges().count());
    }

    /// The walk against the right-hand side's key decides what the
    /// antichain search decides, on 3 000 seeded pairs: ε-NFAs on both
    /// sides, one-word right-hand sides, and ε-heavy left-hand sides.
    #[test]
    fn the_key_walk_decides_as_the_antichain_search() {
        use crate::generate::{random_literal_chain, random_nfa};
        use crate::minimize::canonical_key;
        let lhs_configs = [
            RandomNfaConfig {
                states: 6,
                alphabet: vec![b'a', b'b'],
                ..Default::default()
            },
            RandomNfaConfig {
                states: 10,
                edges_per_state: 1.0,
                eps_per_state: 2.5,
                alphabet: vec![b'a', b'b', b'c'],
                final_probability: 0.3,
            },
        ];
        let rhs_config = RandomNfaConfig {
            states: 6,
            alphabet: vec![b'a', b'b', b'c'],
            final_probability: 0.4,
            ..Default::default()
        };
        let (mut held, mut failed) = (0, 0);
        for seed in 0..3000u64 {
            let a = random_nfa(seed, &lhs_configs[seed as usize % 2]);
            let b = match seed % 3 {
                0 => random_literal_chain(seed, seed as usize % 4, b"abc"),
                _ => random_nfa(seed.wrapping_add(1_000_003), &rhs_config),
            };
            let (walked, cost) =
                try_subset_of_key(&a, &canonical_key(&b), &InclusionLimits::UNLIMITED)
                    .expect("unlimited");
            assert_eq!(walked, subset(&a, &b), "seed {seed}");
            assert_eq!((cost.antichain_size, cost.prunes), (0, 0), "seed {seed}");
            if walked {
                held += 1;
            } else {
                failed += 1;
            }
        }
        assert!(held >= 300 && failed >= 300, "held {held}, failed {failed}");
    }

    #[test]
    fn the_key_walk_aborts_at_its_cap_with_its_partial_cost() {
        // Σ* ⊄ (ab)*: the walk meets the accepting pair after `a`.
        let a = Nfa::sigma_star();
        let key = crate::minimize::canonical_key(&ops::star(&Nfa::literal(b"ab")));
        let unlimited = try_subset_of_key(&a, &key, &InclusionLimits::UNLIMITED);
        let need = unlimited.expect("unlimited").1.macrostates;
        assert!(need >= 2, "{need}");
        for cap in 1..need {
            let limits = InclusionLimits {
                max_macrostates: Some(cap),
                deadline: None,
            };
            let partial = InclusionCost {
                macrostates: cap,
                ..InclusionCost::default()
            };
            assert_eq!(
                try_subset_of_key(&a, &key, &limits),
                Err(InclusionAbort::MacrostateCap {
                    limit: cap,
                    cost: partial
                })
            );
        }
        let at_need = InclusionLimits {
            max_macrostates: Some(need),
            deadline: None,
        };
        assert_eq!(try_subset_of_key(&a, &key, &at_need), unlimited);
        let expired = InclusionLimits {
            max_macrostates: None,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
        };
        assert_eq!(
            try_subset_of_key(&a, &key, &expired),
            Err(InclusionAbort::Deadline {
                cost: InclusionCost::default()
            })
        );
    }

    #[test]
    fn equivalence_budget_spans_both_directions() {
        let lhs = ops::star(&Nfa::literal(b"ab"));
        let rhs = ops::star(&Nfa::literal(b"ab"));
        let unlimited = try_equivalent(&lhs, &rhs, &InclusionLimits::UNLIMITED).expect("unlimited");
        assert!(unlimited.0);
        let need = unlimited.1.macrostates;
        assert!(need >= 2, "two directions do real work");
        let limits = InclusionLimits {
            max_macrostates: Some(need - 1),
            deadline: None,
        };
        let err = try_equivalent(&lhs, &rhs, &limits)
            .expect_err("shared budget below the two-direction cost must trip");
        assert!(err.cost().macrostates <= need);
    }
}

/// The searches [`try_counterexample`] and [`try_intersection_empty`]
/// replaced, kept verbatim as the references they must match exactly: the
/// same verdict, the same witness, the same [`InclusionCost`] and the
/// same abort.
#[cfg(test)]
pub(crate) mod reference {
    use crate::nfa::Nfa;

    /// Cheap structural pre-checks the references run first: answers that
    /// need no subset construction at all.
    pub(crate) fn subset_precheck(a: &Nfa, b: &Nfa) -> Option<bool> {
        if a.is_empty_language() {
            // ∅ ⊆ L(b) for every b.
            return Some(true);
        }
        if b.is_empty_language() {
            // L(a) ≠ ∅ here, and nothing is included in ∅.
            return Some(false);
        }
        None
    }

    /// The `BTreeSet` antichain search.
    pub(crate) mod btree {
        use super::super::{deadline_passed, InclusionAbort, InclusionCost, InclusionLimits};
        use super::subset_precheck;
        use crate::byteclass::{minterms, ByteClass};
        use crate::nfa::{Nfa, StateId};
        use std::collections::{BTreeSet, HashMap, VecDeque};
        use std::rc::Rc;

        /// The per-LHS-state antichain of minimal visited RHS subsets.
        struct Antichain {
            sets: HashMap<StateId, Vec<Rc<BTreeSet<StateId>>>>,
        }

        impl Antichain {
            fn new() -> Antichain {
                Antichain {
                    sets: HashMap::new(),
                }
            }

            /// Inserts `(q, s)` unless a visited `(q, s')` with `s' ⊆ s` subsumes
            /// it. Returns whether the macrostate is new (and must be queued).
            fn insert(
                &mut self,
                q: StateId,
                s: &Rc<BTreeSet<StateId>>,
                cost: &mut InclusionCost,
            ) -> bool {
                let entry = self.sets.entry(q).or_default();
                if entry.iter().any(|t| t.is_subset(s)) {
                    cost.prunes += 1;
                    return false;
                }
                // `s` is a new minimal element: visited strict supersets can never
                // prune anything `s` would not, so drop them from the store.
                entry.retain(|t| !s.is_subset(t));
                entry.push(s.clone());
                true
            }

            fn size(&self) -> u64 {
                self.sets.values().map(|v| v.len() as u64).sum()
            }
        }

        /// A shortest member of `L(a) \ L(b)`, or `None` when `L(a) ⊆ L(b)`.
        /// Budgeted.
        ///
        /// The frontier holds macrostates `(q, S)` — `q` an ε-closed-reachable LHS
        /// state, `S` the ε-closed set of RHS states reachable on the same input.
        /// A counterexample exists iff some reachable macrostate has `q` final and
        /// `S` free of finals. A new macrostate is *subsumed* (and dropped) when a
        /// visited `(q, S')` with `S' ⊆ S` exists: every word rejected from `S` is
        /// rejected from `S'` too, so the smaller set finds every counterexample
        /// the larger one would, no later. Conversely, inserting a new minimal `S`
        /// evicts visited supersets from the pruning store — they stay queued (BFS
        /// order, and thus shortest-counterexample extraction, is preserved) but
        /// no longer block future inserts.
        pub(crate) fn try_counterexample(
            a: &Nfa,
            b: &Nfa,
            limits: &InclusionLimits,
        ) -> Result<(Option<Vec<u8>>, InclusionCost), InclusionAbort> {
            let mut cost = InclusionCost::default();
            if subset_precheck(a, b) == Some(true) {
                return Ok((None, cost));
            }
            // Minterms of *both* machines' classes: within a block, every byte
            // induces the same successor macrostate, so one representative
            // byte per block explores the whole alphabet.
            let classes: Vec<ByteClass> = a
                .edges()
                .map(|(_, c, _)| c)
                .chain(b.edges().map(|(_, c, _)| c))
                .collect();
            let alphabet = minterms(classes.iter());
            let rejecting = |s: &BTreeSet<StateId>| !s.iter().any(|q| b.is_final(*q));

            let s0 = Rc::new(b.eps_closure(&BTreeSet::from([b.start()])));
            let a0 = a.eps_closure(&BTreeSet::from([a.start()]));
            let mut antichain = Antichain::new();
            let mut queue: VecDeque<(StateId, Rc<BTreeSet<StateId>>, Vec<u8>)> = VecDeque::new();
            let s0_rejecting = rejecting(&s0);
            for &q in &a0 {
                if a.is_final(q) && s0_rejecting {
                    // ε ∈ L(a) \ L(b).
                    cost.antichain_size = antichain.size();
                    return Ok((Some(Vec::new()), cost));
                }
                if antichain.insert(q, &s0, &mut cost) {
                    queue.push_back((q, s0.clone(), Vec::new()));
                }
            }

            while let Some((q, s, word)) = queue.pop_front() {
                if let Some(cap) = limits.max_macrostates {
                    if cost.macrostates >= cap {
                        cost.antichain_size = antichain.size();
                        return Err(InclusionAbort::MacrostateCap { limit: cap, cost });
                    }
                }
                if deadline_passed(limits) {
                    cost.antichain_size = antichain.size();
                    return Err(InclusionAbort::Deadline { cost });
                }
                cost.macrostates += 1;
                let q_set = BTreeSet::from([q]);
                for block in &alphabet {
                    let byte = block.min_byte().expect("minterm blocks are nonempty");
                    let a_next = a.eps_closure(&a.step(&q_set, byte));
                    if a_next.is_empty() {
                        continue;
                    }
                    let s_next = Rc::new(b.eps_closure(&b.step(&s, byte)));
                    let s_next_rejecting = rejecting(&s_next);
                    for &qn in &a_next {
                        if a.is_final(qn) && s_next_rejecting {
                            // First counterexample discovered is shortest: the
                            // BFS pops macrostates in word-length order and
                            // subsumption never removes queued entries.
                            let mut witness = word.clone();
                            witness.push(byte);
                            cost.antichain_size = antichain.size();
                            return Ok((Some(witness), cost));
                        }
                        if antichain.insert(qn, &s_next, &mut cost) {
                            let mut w = word.clone();
                            w.push(byte);
                            queue.push_back((qn, s_next.clone(), w));
                        }
                    }
                }
            }
            cost.antichain_size = antichain.size();
            Ok((None, cost))
        }
    }

    /// The search on the subset kernel's steps with `Rc` sets, which
    /// stepped every minterm of every macrostate.
    pub(crate) mod subsets {
        use super::super::{deadline_passed, InclusionAbort, InclusionCost, InclusionLimits};
        use super::subset_precheck;
        use crate::nfa::Nfa;
        use crate::subset::{self, is_sorted_subset, Subsets};
        use std::collections::VecDeque;
        use std::rc::Rc;

        /// The per-LHS-state antichain of minimal visited RHS subsets.
        struct Antichain {
            sets: Vec<Vec<Rc<[u32]>>>,
        }

        impl Antichain {
            fn new(lhs_states: usize) -> Antichain {
                Antichain {
                    sets: vec![Vec::new(); lhs_states],
                }
            }

            /// Whether `(q, s)` is new: no visited `(q, s')` with `s' ⊆ s`
            /// subsumes it. A new `s` is a new minimal element, so visited strict
            /// supersets are dropped (they could never prune anything `s` would
            /// not); the caller then [`Antichain::push`]es it.
            fn admit(&mut self, q: u32, s: &[u32], cost: &mut InclusionCost) -> bool {
                let entry = &mut self.sets[q as usize];
                if entry.iter().any(|t| is_sorted_subset(t, s)) {
                    cost.prunes += 1;
                    return false;
                }
                entry.retain(|t| !is_sorted_subset(s, t));
                true
            }

            fn push(&mut self, q: u32, s: Rc<[u32]>) {
                self.sets[q as usize].push(s);
            }

            fn size(&self) -> u64 {
                self.sets.iter().map(|v| v.len() as u64).sum()
            }
        }

        /// The words of queued macrostates as a parent-pointer tree: node 0 is ε,
        /// and node `i > 0` is its parent's word followed by one byte. Only a
        /// counterexample is ever spelled out.
        struct Words {
            nodes: Vec<(u32, u8)>,
        }

        impl Words {
            const EMPTY: u32 = 0;

            fn new() -> Words {
                Words {
                    nodes: vec![(0, 0)],
                }
            }

            fn extend(&mut self, parent: u32, byte: u8) -> u32 {
                self.nodes.push((parent, byte));
                (self.nodes.len() - 1) as u32
            }

            fn spell(&self, mut node: u32) -> Vec<u8> {
                let mut word = Vec::new();
                while node != Words::EMPTY {
                    let (parent, byte) = self.nodes[node as usize];
                    word.push(byte);
                    node = parent;
                }
                word.reverse();
                word
            }
        }

        /// A shortest member of `L(a) \ L(b)`, or `None` when `L(a) ⊆ L(b)`.
        /// Budgeted.
        ///
        /// The frontier holds macrostates `(q, S)` — `q` an ε-closed-reachable LHS
        /// state, `S` the ε-closed set of RHS states reachable on the same input.
        /// A counterexample exists iff some reachable macrostate has `q` final and
        /// `S` free of finals. A new macrostate is *subsumed* (and dropped) when a
        /// visited `(q, S')` with `S' ⊆ S` exists: every word rejected from `S` is
        /// rejected from `S'` too, so the smaller set finds every counterexample
        /// the larger one would, no later. Conversely, inserting a new minimal `S`
        /// evicts visited supersets from the pruning store — they stay queued (BFS
        /// order, and thus shortest-counterexample extraction, is preserved) but
        /// no longer block future inserts.
        pub(crate) fn try_counterexample(
            a: &Nfa,
            b: &Nfa,
            limits: &InclusionLimits,
        ) -> Result<(Option<Vec<u8>>, InclusionCost), InclusionAbort> {
            let mut cost = InclusionCost::default();
            if subset_precheck(a, b) == Some(true) {
                return Ok((None, cost));
            }
            // Minterms of *both* machines' classes: within a block, every byte
            // induces the same successor macrostate, so one representative
            // byte per block explores the whole alphabet.
            let alphabet = subset::alphabet(
                a.edges()
                    .map(|(_, c, _)| c)
                    .chain(b.edges().map(|(_, c, _)| c)),
            );
            let symbols = subset::representatives(&alphabet);
            let (mut lhs, mut rhs) = (Subsets::new(a), Subsets::new(b));
            let (mut a_next, mut s_next) = (Vec::new(), Vec::new());

            rhs.start(&mut s_next);
            let s0: Rc<[u32]> = Rc::from(s_next.as_slice());
            lhs.start(&mut a_next);
            let mut antichain = Antichain::new(a.num_states());
            let mut words = Words::new();
            let mut queue: VecDeque<(u32, Rc<[u32]>, u32)> = VecDeque::new();
            let s0_rejecting = !rhs.any_final(&s0);
            for &q in &a_next {
                if lhs.is_final(q) && s0_rejecting {
                    // ε ∈ L(a) \ L(b).
                    cost.antichain_size = antichain.size();
                    return Ok((Some(Vec::new()), cost));
                }
                if antichain.admit(q, &s0, &mut cost) {
                    antichain.push(q, s0.clone());
                    queue.push_back((q, s0.clone(), Words::EMPTY));
                }
            }

            while let Some((q, s, word)) = queue.pop_front() {
                if let Some(cap) = limits.max_macrostates {
                    if cost.macrostates >= cap {
                        cost.antichain_size = antichain.size();
                        return Err(InclusionAbort::MacrostateCap { limit: cap, cost });
                    }
                }
                if deadline_passed(limits) {
                    cost.antichain_size = antichain.size();
                    return Err(InclusionAbort::Deadline { cost });
                }
                cost.macrostates += 1;
                for &byte in &symbols {
                    lhs.step(&[q], byte, &mut a_next);
                    if a_next.is_empty() {
                        continue;
                    }
                    rhs.step(&s, byte, &mut s_next);
                    let s_next_rejecting = !rhs.any_final(&s_next);
                    // Shared by every successor queued on this byte.
                    let mut shared: Option<(Rc<[u32]>, u32)> = None;
                    for &qn in &a_next {
                        if lhs.is_final(qn) && s_next_rejecting {
                            // First counterexample discovered is shortest: the
                            // BFS pops macrostates in word-length order and
                            // subsumption never removes queued entries.
                            let mut witness = words.spell(word);
                            witness.push(byte);
                            cost.antichain_size = antichain.size();
                            return Ok((Some(witness), cost));
                        }
                        if antichain.admit(qn, &s_next, &mut cost) {
                            let (set, node) = shared.get_or_insert_with(|| {
                                (Rc::from(s_next.as_slice()), words.extend(word, byte))
                            });
                            antichain.push(qn, set.clone());
                            queue.push_back((qn, set.clone(), *node));
                        }
                    }
                }
            }
            cost.antichain_size = antichain.size();
            Ok((None, cost))
        }
    }

    /// The intersection-emptiness search on `BTreeSet` pairs that
    /// [`super::super::try_intersection_empty`] replaced.
    pub(crate) mod pairs {
        use super::super::{deadline_passed, InclusionAbort, InclusionCost, InclusionLimits};
        use crate::nfa::{Nfa, StateId};
        use std::collections::{BTreeSet, VecDeque};

        /// Is `L(a) ∩ L(b) = ∅`? Budgeted. The pair-BFS of
        /// [`crate::ops::try_intersect`] without materializing the product,
        /// early-exiting at the first accepting pair.
        pub(crate) fn try_intersection_empty(
            a: &Nfa,
            b: &Nfa,
            limits: &InclusionLimits,
        ) -> Result<(bool, InclusionCost), InclusionAbort> {
            let mut cost = InclusionCost::default();
            let start = (a.start(), b.start());
            let mut seen: BTreeSet<(StateId, StateId)> = BTreeSet::from([start]);
            let mut queue: VecDeque<(StateId, StateId)> = VecDeque::from([start]);
            while let Some((p, q)) = queue.pop_front() {
                if let Some(cap) = limits.max_macrostates {
                    if cost.macrostates >= cap {
                        return Err(InclusionAbort::MacrostateCap { limit: cap, cost });
                    }
                }
                if deadline_passed(limits) {
                    return Err(InclusionAbort::Deadline { cost });
                }
                cost.macrostates += 1;
                if a.is_final(p) && b.is_final(q) {
                    return Ok((false, cost));
                }
                for &(ca, t1) in &a.state(p).edges {
                    for &(cb, t2) in &b.state(q).edges {
                        if !ca.intersect(&cb).is_empty() && seen.insert((t1, t2)) {
                            queue.push_back((t1, t2));
                        }
                    }
                }
                for &t1 in &a.state(p).eps {
                    if seen.insert((t1, q)) {
                        queue.push_back((t1, q));
                    }
                }
                for &t2 in &b.state(q).eps {
                    if seen.insert((p, t2)) {
                        queue.push_back((p, t2));
                    }
                }
            }
            Ok((true, cost))
        }
    }
}
