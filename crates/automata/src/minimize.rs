//! DFA minimization by partition refinement.
//!
//! The paper (§4) observes that its prototype tracked large string constants
//! through every machine transformation and that "applying NFA minimization
//! techniques might improve performance" on the pathological `secure` case.
//! This module provides that optimization: refine the states of the
//! machine's subset table (`subset::Table`) to the Myhill–Nerode
//! congruence (Hopcroft's algorithm over the minterm alphabet), and emit
//! the quotient straight from the classes, in the canonical numbering that
//! both [`minimize`] and [`canonical_key`] produce.
//!
//! Hopcroft's refinement costs O(k·n·log n) for n states and k minterms.
//! Moore's round-based refinement needs about n rounds on the chain-shaped
//! machines long string constants compile to, so O(k·n²) there; it survives
//! only as the test suite's reference oracle.

use crate::byteclass::ByteClass;
use crate::dfa::{DeterminizeCost, Dfa};
use crate::nfa::{Nfa, State, StateId};
use crate::subset::{self, footprint, NONE, RETAINED_BYTES};
use std::cell::Cell;
use std::collections::BTreeSet;

/// Minimizes a DFA by Hopcroft's partition refinement.
///
/// The result is the minimal DFA for the language with its dead state
/// dropped, in canonical form: states are numbered in breadth-first order
/// from the start (state 0), visiting each state's edges in class order, and
/// each row lists its edges in that order. The minimal DFA is unique up to
/// isomorphism and this numbering depends only on the language, so
/// language-equal inputs produce *identical* results. The empty language
/// yields one non-final state with no edges.
pub fn minimize_dfa(dfa: &Dfa) -> Dfa {
    // The DFA as a successor table over the minterms of its row classes.
    let n = dfa.num_states();
    let alphabet = subset::alphabet(
        (0..n).flat_map(|q| dfa.transitions(StateId(q as u32)).iter().map(|&(c, _)| c)),
    );
    let symbols = subset::representatives(&alphabet);
    let k = symbols.len();
    let mut delta = vec![NONE; n * k];
    for q in 0..n {
        for &(c, t) in dfa.transitions(StateId(q as u32)) {
            for (s, &b) in symbols.iter().enumerate() {
                if c.contains(b) {
                    delta[q * k + s] = t.0;
                }
            }
        }
    }
    let finals: Vec<bool> = (0..n).map(|q| dfa.is_final(StateId(q as u32))).collect();
    with_refiner(|r| {
        r.refine(k, &delta, &finals);
        let (_, minimal) = r.emit(&alphabet, &delta, &finals, dfa.start().0, Emit::Machine);
        minimal.expect("asked for the machine")
    })
}

/// What [`Refiner::emit`] writes: the canonical key or the canonical
/// minimal DFA.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Key,
    Machine,
}

/// Partition-refinement scratch, reused from one refinement to the next.
#[derive(Default)]
struct Refiner {
    /// Per-symbol inverse of the table (CSR): the states entering `t` on
    /// symbol `s` are `sources[start[s * size + t]..start[s * size + t + 1]]`.
    start: Vec<u32>,
    sources: Vec<u32>,
    /// The partition: `elems` lists the states block by block, `loc`
    /// inverts it, and block `b` owns `elems[first[b]..end[b]]`, whose first
    /// `marked[b]` entries are the states the current splitter has marked.
    elems: Vec<u32>,
    loc: Vec<u32>,
    class_of: Vec<u32>,
    first: Vec<u32>,
    end: Vec<u32>,
    marked: Vec<u32>,
    in_work: Vec<bool>,
    work: Vec<u32>,
    splitter: Vec<u32>,
    touched: Vec<u32>,
    /// What [`Refiner::emit`] numbers the classes with.
    member: Vec<u32>,
    number: Vec<u32>,
    order: Vec<u32>,
    slot: Vec<u32>,
    row: Vec<(ByteClass, u32)>,
}

thread_local! {
    /// This thread's refinement scratch.
    static REFINER: Cell<Refiner> = Cell::new(Refiner::default());
}

/// Runs `f` with this thread's refinement scratch, keeping it afterwards
/// unless it grew past [`RETAINED_BYTES`].
fn with_refiner<R>(f: impl FnOnce(&mut Refiner) -> R) -> R {
    let mut refiner = REFINER.with(Cell::take);
    let result = f(&mut refiner);
    if refiner.footprint() <= RETAINED_BYTES {
        REFINER.with(|cell| cell.set(refiner));
    }
    result
}

impl Refiner {
    /// Refines the states of a successor table (`delta`, `k` symbols per
    /// row, [`NONE`] for no successor), completed by an explicit non-final
    /// sink numbered `finals.len()`, to the Myhill–Nerode congruence by
    /// Hopcroft's algorithm. Leaves each state's class in `class_of` (the
    /// sink's last).
    ///
    /// Bytes outside the table's alphabet lead every state to the sink, so
    /// they separate no two states and need no symbol of their own. A
    /// splitter is a whole block, applied on every symbol in turn.
    fn refine(&mut self, k: usize, delta: &[u32], finals: &[bool]) {
        let n = finals.len();
        let size = n + 1;
        let sink = n as u32;
        let succ = |i: usize| match delta.get(i) {
            Some(&t) if t != NONE => t,
            _ => sink,
        };
        let Refiner {
            start,
            sources,
            elems,
            loc,
            class_of,
            first,
            end,
            marked,
            in_work,
            work,
            splitter,
            touched,
            ..
        } = self;
        start.clear();
        start.resize(k * size + 1, 0);
        for i in 0..size * k {
            start[(i % k) * size + succ(i) as usize] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        sources.clear();
        sources.resize(size * k, 0);
        for i in (0..size * k).rev() {
            let bucket = (i % k) * size + succ(i) as usize;
            start[bucket] -= 1;
            sources[start[bucket] as usize] = (i / k) as u32;
        }

        // Initial partition: rejecting states (the sink among them), then
        // accepting ones when there are any.
        let accepting = |q: u32| q != sink && finals[q as usize];
        elems.clear();
        elems.extend((0..size as u32).filter(|&q| !accepting(q)));
        let rejecting = elems.len() as u32;
        elems.extend((0..size as u32).filter(|&q| accepting(q)));
        loc.clear();
        loc.resize(size, 0);
        for (i, &q) in elems.iter().enumerate() {
            loc[q as usize] = i as u32;
        }
        class_of.clear();
        class_of.resize(size, 0);
        first.clear();
        first.push(0);
        end.clear();
        end.push(rejecting);
        work.clear();
        if rejecting < size as u32 {
            for &q in &elems[rejecting as usize..] {
                class_of[q as usize] = 1;
            }
            first.push(rejecting);
            end.push(size as u32);
            // The whole state set is a trivial splitter, so one half suffices.
            work.push(u32::from(size as u32 - rejecting <= rejecting));
        }
        marked.clear();
        marked.resize(first.len(), 0);
        in_work.clear();
        in_work.resize(first.len(), false);
        if let Some(&b) = work.first() {
            in_work[b as usize] = true;
        }

        touched.clear();
        while let Some(b) = work.pop() {
            in_work[b as usize] = false;
            // Snapshot: the splitter may itself split on an early symbol, but
            // must still be applied whole on every later one.
            splitter.clear();
            splitter
                .extend_from_slice(&elems[first[b as usize] as usize..end[b as usize] as usize]);
            for s in 0..k {
                // Mark every state entering the splitter on `s` by swapping it
                // into its block's marked prefix. A DFA state has one successor
                // per symbol, so no state is marked twice.
                for &t in splitter.iter() {
                    let bucket = s * size + t as usize;
                    for &q in &sources[start[bucket] as usize..start[bucket + 1] as usize] {
                        let c = class_of[q as usize] as usize;
                        let to = first[c] + marked[c];
                        let from = loc[q as usize];
                        let other = elems[to as usize];
                        elems[from as usize] = other;
                        loc[other as usize] = from;
                        elems[to as usize] = q;
                        loc[q as usize] = to;
                        if marked[c] == 0 {
                            touched.push(c as u32);
                        }
                        marked[c] += 1;
                    }
                }
                // Split each partially marked block: the marked prefix becomes
                // a new block. Hopcroft's rule: a pending block's new half is
                // queued too; otherwise only the smaller half is.
                for c in touched.drain(..) {
                    let c = c as usize;
                    let count = std::mem::take(&mut marked[c]);
                    if count == end[c] - first[c] {
                        continue;
                    }
                    let split = first.len() as u32;
                    first.push(first[c]);
                    end.push(first[c] + count);
                    first[c] += count;
                    marked.push(0);
                    for &q in &elems[first[split as usize] as usize..end[split as usize] as usize] {
                        class_of[q as usize] = split;
                    }
                    let queued = if in_work[c] || count <= end[c] - first[c] {
                        split
                    } else {
                        c as u32
                    };
                    in_work.push(false);
                    in_work[queued as usize] = true;
                    work.push(queued);
                }
            }
        }
    }

    /// Emits the quotient of the table [`Refiner::refine`] just refined,
    /// from `start`'s class, straight in canonical form: classes numbered
    /// breadth-first, each row's edges merged per target class and listed
    /// in class order, the dead class (the sink's, which holds every state
    /// that reaches no final one) dropped. Returns the key serializing it
    /// and the machine itself, as `what` asks.
    fn emit(
        &mut self,
        alphabet: &[ByteClass],
        delta: &[u32],
        finals: &[bool],
        start: u32,
        what: Emit,
    ) -> (Option<CanonicalKey>, Option<Dfa>) {
        let (key, machine) = (what == Emit::Key, what == Emit::Machine);
        let k = alphabet.len();
        let n = finals.len();
        let Refiner {
            class_of,
            first,
            member,
            number,
            order,
            slot,
            row,
            ..
        } = self;
        let num_classes = first.len();
        let dead = class_of[n];
        member.clear();
        member.resize(num_classes, NONE);
        for q in (0..n).rev() {
            member[class_of[q] as usize] = q as u32;
        }
        let start = class_of[start as usize];
        number.clear();
        number.resize(num_classes, NONE);
        number[start as usize] = 0;
        order.clear();
        order.push(start);
        slot.clear();
        slot.resize(num_classes, NONE);
        let mut words: Vec<u64> = Vec::new();
        if key {
            // The state count, written once it is known.
            words.push(0);
        }
        let mut states = Vec::new();
        let mut minimal_finals = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let q = member[order[i] as usize] as usize;
            i += 1;
            // The bytes leading into each live class, merged per class.
            row.clear();
            for (block, &t) in alphabet.iter().zip(&delta[q * k..(q + 1) * k]) {
                if t == NONE {
                    continue;
                }
                let c = class_of[t as usize];
                if c == dead {
                    continue;
                }
                match slot[c as usize] {
                    NONE => {
                        slot[c as usize] = row.len() as u32;
                        row.push((*block, c));
                    }
                    j => row[j as usize].0 = row[j as usize].0.union(block),
                }
            }
            for &(_, c) in row.iter() {
                slot[c as usize] = NONE;
            }
            // Merged classes are disjoint and nonempty, hence distinct.
            row.sort_unstable_by_key(|&(bytes, _)| bytes);
            for (_, c) in row.iter_mut() {
                if number[*c as usize] == NONE {
                    number[*c as usize] = order.len() as u32;
                    order.push(*c);
                }
                *c = number[*c as usize];
            }
            if key {
                words.push(u64::from(finals[q]));
                words.push(row.len() as u64);
                for &(bytes, t) in row.iter() {
                    words.extend(bytes.words());
                    words.push(u64::from(t));
                }
            }
            if machine {
                states.push(row.iter().map(|&(bytes, t)| (bytes, StateId(t))).collect());
                minimal_finals.push(finals[q]);
            }
        }
        let key = key.then(|| {
            words[0] = order.len() as u64;
            CanonicalKey::new(words)
        });
        let machine = machine.then(|| Dfa::from_parts(states, StateId(0), minimal_finals));
        (key, machine)
    }

    fn footprint(&self) -> usize {
        [
            &self.start,
            &self.sources,
            &self.elems,
            &self.loc,
            &self.class_of,
            &self.first,
            &self.end,
            &self.marked,
            &self.work,
            &self.splitter,
            &self.touched,
            &self.member,
            &self.number,
            &self.order,
            &self.slot,
        ]
        .into_iter()
        .map(footprint)
        .sum::<usize>()
            + footprint(&self.in_work)
            + footprint(&self.row)
    }
}

/// The one canonicalization pass: the subset table of `nfa`, refined and
/// emitted as `what` asks (see [`Refiner::emit`]), with the table's cost;
/// the partial table's cost when it would number more than `max_states`
/// states.
fn canonicalize(
    nfa: &Nfa,
    what: Emit,
    max_states: usize,
) -> Result<(Option<CanonicalKey>, Option<Dfa>, DeterminizeCost), DeterminizeCost> {
    subset::try_with_table(nfa, max_states, |table| {
        let (key, machine) = with_refiner(|r| {
            r.refine(table.alphabet.len(), &table.delta, &table.finals);
            r.emit(&table.alphabet, &table.delta, &table.finals, 0, what)
        });
        (key, machine, table.cost)
    })
}

/// Minimizes the language of an NFA: determinize, refine, and convert back.
///
/// The result is a deterministic (epsilon-free) NFA recognizing the same
/// language with the minimal number of live states, rebuilt under the
/// canonical BFS numbering (the one [`canonical_key`] serializes). That
/// makes the output a *value*: any two inputs with the same language
/// produce the identical `Nfa`, not merely isomorphic ones, so concurrent
/// sessions that race to minimize language-equal machines on one store
/// end up with interchangeable results.
pub fn minimize(nfa: &Nfa) -> Nfa {
    minimize_counted(nfa).0
}

/// [`minimize`] plus the cost of the subset construction it performs: how
/// many DFA states the input determinized into and how much ε-closure work
/// that took. The canonical quotient is emitted straight from the refined
/// partition of the input's subset table.
pub fn minimize_counted(nfa: &Nfa) -> (Nfa, DeterminizeCost) {
    let (_, minimal, cost) =
        canonicalize(nfa, Emit::Machine, usize::MAX).expect("an unlimited pass completes");
    (minimal.expect("asked for the machine").to_nfa(), cost)
}

/// A canonical fingerprint of an NFA's *language*: two machines have equal
/// keys iff they recognize the same language.
///
/// The key serializes the minimal DFA without its dead state, in the
/// canonical form [`minimize_dfa`] produces, which is unique because the
/// minimal DFA is unique up to isomorphism. Comparing keys turns the
/// solver's quadratic pile of language-equivalence queries into one
/// minimization per machine plus cheap `Vec` comparisons.
pub fn canonical_key(nfa: &Nfa) -> CanonicalKey {
    canonical_key_counted(nfa).0
}

/// [`canonical_key`] plus the cost of the subset construction, under the
/// same accounting as [`minimize_counted`].
pub fn canonical_key_counted(nfa: &Nfa) -> (CanonicalKey, DeterminizeCost) {
    try_canonical_key_counted(nfa, usize::MAX).expect("an unlimited pass completes")
}

/// [`canonical_key_counted`], or the cost of the work done when the subset
/// construction would number more than `max_states` DFA states: it stops
/// at the first state set past them, before any refinement.
pub(crate) fn try_canonical_key_counted(
    nfa: &Nfa,
    max_states: usize,
) -> Result<(CanonicalKey, DeterminizeCost), DeterminizeCost> {
    let (key, _, cost) = canonicalize(nfa, Emit::Key, max_states)?;
    Ok((key.expect("asked for the key"), cost))
}

/// Opaque language fingerprint produced by [`canonical_key`]. Equal keys ⟺
/// equal languages.
///
/// A key carries a seeded digest of its words ([`CanonicalKey::digest`]),
/// computed once when the key is made, so that tables keyed by it hash one
/// word. Equality compares the digests, then every word. `Hash`, `Ord` and
/// `Debug` see the words only, so nothing derived from them depends on the
/// per-process seed.
#[derive(Clone)]
pub struct CanonicalKey {
    words: Vec<u64>,
    digest: u64,
}

impl PartialEq for CanonicalKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.words == other.words
    }
}

impl Eq for CanonicalKey {}

impl std::hash::Hash for CanonicalKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.words.hash(state);
    }
}

impl PartialOrd for CanonicalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CanonicalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words.cmp(&other.words)
    }
}

impl std::fmt::Debug for CanonicalKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("CanonicalKey").field(&self.words).finish()
    }
}

impl CanonicalKey {
    /// A key over `words`, with its digest.
    fn new(words: Vec<u64>) -> CanonicalKey {
        let digest = subset::hash_words(words.iter().copied());
        CanonicalKey { words, digest }
    }

    /// A 64-bit digest of the key, hashed once when the key was made with a
    /// seed drawn once per process: equal keys digest equally within a
    /// process, and no input can be built in advance to collide. It is for
    /// hash tables only; [`CanonicalKey::hash64`] is the stable digest for
    /// anything written out.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The minimal DFA the key serializes: its states in key order from
    /// start 0, each state's edges in key order. This is exactly the
    /// machine [`minimize`] returns for the key's language, rebuilt in
    /// O(key) with no subset construction.
    pub fn to_nfa(&self) -> Nfa {
        self.decode(false)
    }

    /// The complement of the key's language: the machine
    /// [`CanonicalKey::to_nfa`] returns, completed by one dead state (each
    /// state's bytes outside its row go there, and it loops on every
    /// byte), with every state's finality flipped. A complete DFA, so
    /// `L(A) ⊆ L(key)` is one product walk of `A` with it
    /// ([`crate::inclusion::try_subset_of_key`]).
    pub fn complement(&self) -> Nfa {
        self.decode(true)
    }

    /// Reads the words [`Refiner::emit`] wrote back into a machine,
    /// completed and complemented when `complement` is set.
    fn decode(&self, complement: bool) -> Nfa {
        let words = &self.words;
        let n = words[0] as usize;
        let dead = StateId(n as u32);
        let mut states = Vec::with_capacity(n + usize::from(complement));
        let mut finals = BTreeSet::new();
        let mut at = 1;
        for q in 0..n {
            let (accepting, len) = (words[at] == 1, words[at + 1] as usize);
            at += 2;
            let mut edges = Vec::with_capacity(len + usize::from(complement));
            let mut covered = ByteClass::EMPTY;
            for edge in words[at..at + 5 * len].chunks_exact(5) {
                let class = ByteClass::from_words([edge[0], edge[1], edge[2], edge[3]]);
                covered = covered.union(&class);
                edges.push((class, StateId(edge[4] as u32)));
            }
            at += 5 * len;
            let rest = covered.complement();
            if complement && !rest.is_empty() {
                edges.push((rest, dead));
            }
            if accepting != complement {
                finals.insert(StateId(q as u32));
            }
            states.push(State {
                edges,
                eps: Vec::new(),
            });
        }
        if complement {
            states.push(State {
                edges: vec![(ByteClass::FULL, dead)],
                eps: Vec::new(),
            });
            finals.insert(dead);
        }
        Nfa::from_states(states, finals)
    }

    /// Serializes a canonical minimal DFA: the state count, then per state
    /// its finality, its edge count, and per edge the class's four bitmap
    /// words and the target. [`Refiner::emit`] writes the same words as it
    /// numbers the classes.
    #[cfg(test)]
    fn of_minimal(min: &Dfa) -> CanonicalKey {
        let mut words: Vec<u64> = vec![min.num_states() as u64];
        for q in (0..min.num_states() as u32).map(StateId) {
            let row = min.transitions(q);
            words.push(u64::from(min.is_final(q)));
            words.push(row.len() as u64);
            for (class, t) in row {
                words.extend(class.words());
                words.push(u64::from(t.0));
            }
        }
        CanonicalKey::new(words)
    }

    /// Approximate heap footprint of the key in bytes (its word payload).
    /// Used by the store's memo byte accounting.
    pub fn byte_len(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// A stable 64-bit digest of the key (FNV-1a over its word payload in
    /// little-endian order), used by the query cost ledger to name
    /// languages compactly. Equal keys — equal languages — always digest
    /// equally, on every platform, so ledger fingerprints can be matched
    /// across machines and runs.
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &word in &self.words {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::equivalent;
    use crate::ops;

    #[test]
    fn minimize_preserves_language() {
        let n = ops::union(
            &ops::concat(&Nfa::literal(b"a"), &ops::star(&Nfa::literal(b"b"))).nfa,
            &Nfa::literal(b"a"),
        );
        let m = minimize(&n);
        assert!(equivalent(&n, &m));
        assert!(m.num_states() <= n.num_states());
    }

    #[test]
    fn minimize_collapses_redundant_states() {
        // a|b|c as a union has many states; minimal DFA has 2 live states.
        let n = ops::union_all([
            &Nfa::literal(b"a"),
            &Nfa::literal(b"b"),
            &Nfa::literal(b"c"),
        ]);
        let m = minimize(&n);
        assert_eq!(m.num_states(), 2);
        assert!(m.contains(b"b"));
        assert!(!m.contains(b"ab"));
    }

    #[test]
    fn minimize_empty_and_epsilon() {
        let e = minimize(&Nfa::empty_language());
        assert!(e.is_empty_language());
        let eps = minimize(&Nfa::epsilon());
        assert!(eps.contains(b""));
        assert!(!eps.contains(b"a"));
        assert_eq!(eps.num_states(), 1);
    }

    #[test]
    fn minimize_sigma_star_is_one_state() {
        let m = minimize(&Nfa::sigma_star());
        assert_eq!(m.num_states(), 1);
        assert!(m.contains(b""));
        assert!(m.contains(b"xyz"));
    }

    #[test]
    fn minimize_is_value_canonical() {
        // Language-equal but structurally different inputs minimize to the
        // *identical* machine (same state numbering, same edge order), not
        // merely isomorphic ones — the property concurrent memo sharing
        // relies on.
        let a = ops::star(&Nfa::literal(b"ab"));
        let b = ops::union(
            &Nfa::epsilon(),
            &ops::concat(&Nfa::literal(b"ab"), &ops::star(&Nfa::literal(b"ab"))).nfa,
        );
        let (ma, mb) = (minimize(&a), minimize(&b));
        assert_eq!(ma.num_states(), mb.num_states());
        assert_eq!(ma.start(), mb.start());
        assert_eq!(ma.finals(), mb.finals());
        let edges = |m: &Nfa| m.edges().collect::<Vec<_>>();
        assert_eq!(edges(&ma), edges(&mb));
    }

    #[test]
    fn counted_variants_match_uncounted_and_report_cost() {
        let n = ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"ba"));
        let (m, cost) = minimize_counted(&n);
        assert!(equivalent(&m, &minimize(&n)));
        assert!(cost.dfa_states > 0);
        assert!(cost.closure_visited > 0);
        let (k, kcost) = canonical_key_counted(&n);
        assert_eq!(k, canonical_key(&n));
        assert_eq!(kcost.dfa_states, cost.dfa_states);
        assert!(k.byte_len() >= std::mem::size_of::<u64>());
    }

    #[test]
    fn minimal_dfa_is_canonical_size() {
        // Two structurally different machines for the same language minimize
        // to the same number of states.
        let a = ops::star(&Nfa::literal(b"ab"));
        let b = ops::union(
            &Nfa::epsilon(),
            &ops::concat(&Nfa::literal(b"ab"), &ops::star(&Nfa::literal(b"ab"))).nfa,
        );
        assert!(equivalent(&a, &b));
        assert_eq!(minimize(&a).num_states(), minimize(&b).num_states());
    }
}

/// The minimizer the table refinement replaced, kept verbatim as the
/// reference it must match exactly: `minimize_dfa` over a determinized
/// `Dfa`, refined by `nerode_classes` over the minterms of its merged rows.
#[cfg(test)]
pub(crate) mod reference {
    use super::CanonicalKey;
    use crate::byteclass::{minterms, ByteClass};
    use crate::dfa::reference::determinize_counted;
    use crate::dfa::{DeterminizeCost, Dfa};
    use crate::nfa::{Nfa, StateId};

    /// Marks an unassigned slot in the minimizer's index arrays.
    const NONE: u32 = u32::MAX;

    /// The key, minimal DFA and cost the replaced pipeline produced:
    /// determinize, refine, serialize.
    pub(crate) fn canonical_minimal_counted(nfa: &Nfa) -> (CanonicalKey, Dfa, DeterminizeCost) {
        let (dfa, cost) = determinize_counted(nfa);
        let minimal = minimize_dfa(&dfa);
        (CanonicalKey::of_minimal(&minimal), minimal, cost)
    }

    /// Minimizes a DFA by Hopcroft's partition refinement.
    ///
    /// The result is the minimal DFA for the language with its dead state
    /// dropped, in canonical form: states are numbered in breadth-first order
    /// from the start (state 0), visiting each state's edges in class order, and
    /// each row lists its edges in that order. The minimal DFA is unique up to
    /// isomorphism and this numbering depends only on the language, so
    /// language-equal inputs produce *identical* results. The empty language
    /// yields one non-final state with no edges.
    pub(crate) fn minimize_dfa(dfa: &Dfa) -> Dfa {
        let (class_of, num_classes) = nerode_classes(dfa);
        let n = dfa.num_states();
        // Every state from which no final state is reachable is equivalent to
        // the completion sink, so the sink's class is the one dead class.
        let dead = class_of[n];
        let mut member = vec![NONE; num_classes];
        for q in (0..n).rev() {
            member[class_of[q] as usize] = q as u32;
        }
        // Breadth-first over classes: `order` lists them by canonical number.
        let start = class_of[dfa.start().index()];
        let mut number = vec![NONE; num_classes];
        number[start as usize] = 0;
        let mut order = vec![start];
        let mut slot = vec![NONE; num_classes];
        let mut states = Vec::new();
        let mut finals = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let q = StateId(member[order[i] as usize]);
            i += 1;
            // The bytes leading into each live class, merged per class.
            let mut row: Vec<(ByteClass, u32)> = Vec::new();
            for &(bytes, t) in dfa.transitions(q) {
                let c = class_of[t.index()];
                if c == dead {
                    continue;
                }
                match slot[c as usize] {
                    NONE => {
                        slot[c as usize] = row.len() as u32;
                        row.push((bytes, c));
                    }
                    j => row[j as usize].0 = row[j as usize].0.union(&bytes),
                }
            }
            for &(_, c) in &row {
                slot[c as usize] = NONE;
            }
            // Merged classes are disjoint and nonempty, hence distinct.
            row.sort_unstable_by_key(|&(bytes, _)| bytes);
            let edges = row
                .into_iter()
                .map(|(bytes, c)| {
                    if number[c as usize] == NONE {
                        number[c as usize] = order.len() as u32;
                        order.push(c);
                    }
                    (bytes, StateId(number[c as usize]))
                })
                .collect();
            states.push(edges);
            finals.push(dfa.is_final(q));
        }
        Dfa::from_parts(states, StateId(0), finals)
    }

    /// Refines the states of `dfa`, completed by an explicit non-final sink
    /// numbered `dfa.num_states()`, to the Myhill–Nerode congruence by
    /// Hopcroft's algorithm. Returns each state's class (the sink's last) and
    /// the number of classes.
    ///
    /// The transition function is a dense table over the minterms of the row
    /// classes, plus their complement when that is nonempty. The partition
    /// lives in arrays: `elems` lists the states block by block, `loc` inverts
    /// it, and block `b` owns `elems[first[b]..end[b]]`, whose first `marked[b]`
    /// entries are the states the current splitter has marked. A splitter is a
    /// whole block, applied on every symbol in turn.
    fn nerode_classes(dfa: &Dfa) -> (Vec<u32>, usize) {
        let n = dfa.num_states();
        let size = n + 1;
        let sink = n as u32;
        let mut classes: Vec<ByteClass> = (0..n)
            .flat_map(|q| dfa.transitions(StateId(q as u32)).iter().map(|&(c, _)| c))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let mut alphabet = minterms(classes.iter());
        let unused = alphabet
            .iter()
            .fold(ByteClass::FULL, |rest, m| rest.difference(m));
        if !unused.is_empty() {
            alphabet.push(unused);
        }
        let symbols: Vec<u8> = alphabet
            .iter()
            .map(|m| m.min_byte().expect("minterms are nonempty"))
            .collect();
        let k = symbols.len();

        // delta[q * k + s]: the successor of q on symbol s.
        let mut delta = vec![sink; size * k];
        for q in 0..n {
            let row = &mut delta[q * k..(q + 1) * k];
            for &(c, t) in dfa.transitions(StateId(q as u32)) {
                for (s, &b) in symbols.iter().enumerate() {
                    if c.contains(b) {
                        row[s] = t.0;
                    }
                }
            }
        }
        // Per-symbol inverse (CSR): the states entering t on symbol s are
        // sources[start[s * size + t]..start[s * size + t + 1]].
        let mut start = vec![0u32; k * size + 1];
        for (i, &t) in delta.iter().enumerate() {
            start[(i % k) * size + t as usize] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut sources = vec![0u32; size * k];
        for (i, &t) in delta.iter().enumerate().rev() {
            let bucket = (i % k) * size + t as usize;
            start[bucket] -= 1;
            sources[start[bucket] as usize] = (i / k) as u32;
        }

        // Initial partition: rejecting states (the sink among them), then
        // accepting ones when there are any.
        let accepting = |q: u32| q != sink && dfa.is_final(StateId(q));
        let mut elems: Vec<u32> = (0..size as u32).filter(|&q| !accepting(q)).collect();
        let rejecting = elems.len() as u32;
        elems.extend((0..size as u32).filter(|&q| accepting(q)));
        let mut loc = vec![0u32; size];
        for (i, &q) in elems.iter().enumerate() {
            loc[q as usize] = i as u32;
        }
        let mut class_of = vec![0u32; size];
        let mut first = vec![0u32];
        let mut end = vec![rejecting];
        let mut work: Vec<u32> = Vec::new();
        if rejecting < size as u32 {
            for &q in &elems[rejecting as usize..] {
                class_of[q as usize] = 1;
            }
            first.push(rejecting);
            end.push(size as u32);
            // The whole state set is a trivial splitter, so one half suffices.
            work.push(u32::from(size as u32 - rejecting <= rejecting));
        }
        let mut marked = vec![0u32; first.len()];
        let mut in_work = vec![false; first.len()];
        if let Some(&b) = work.first() {
            in_work[b as usize] = true;
        }

        let mut splitter: Vec<u32> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        while let Some(b) = work.pop() {
            in_work[b as usize] = false;
            // Snapshot: the splitter may itself split on an early symbol, but
            // must still be applied whole on every later one.
            splitter.clear();
            splitter
                .extend_from_slice(&elems[first[b as usize] as usize..end[b as usize] as usize]);
            for s in 0..k {
                // Mark every state entering the splitter on `s` by swapping it
                // into its block's marked prefix. A DFA state has one successor
                // per symbol, so no state is marked twice.
                for &t in &splitter {
                    let bucket = s * size + t as usize;
                    for &q in &sources[start[bucket] as usize..start[bucket + 1] as usize] {
                        let c = class_of[q as usize] as usize;
                        let to = first[c] + marked[c];
                        let from = loc[q as usize];
                        let other = elems[to as usize];
                        elems[from as usize] = other;
                        loc[other as usize] = from;
                        elems[to as usize] = q;
                        loc[q as usize] = to;
                        if marked[c] == 0 {
                            touched.push(c as u32);
                        }
                        marked[c] += 1;
                    }
                }
                // Split each partially marked block: the marked prefix becomes
                // a new block. Hopcroft's rule: a pending block's new half is
                // queued too; otherwise only the smaller half is.
                for c in touched.drain(..) {
                    let c = c as usize;
                    let count = std::mem::take(&mut marked[c]);
                    if count == end[c] - first[c] {
                        continue;
                    }
                    let split = first.len() as u32;
                    first.push(first[c]);
                    end.push(first[c] + count);
                    first[c] += count;
                    marked.push(0);
                    for &q in &elems[first[split as usize] as usize..end[split as usize] as usize] {
                        class_of[q as usize] = split;
                    }
                    let queued = if in_work[c] || count <= end[c] - first[c] {
                        split
                    } else {
                        c as u32
                    };
                    in_work.push(false);
                    in_work[queued as usize] = true;
                    work.push(queued);
                }
            }
        }
        (class_of, first.len())
    }
}

/// Moore's round-based refinement and the determinize → minimize → BFS
/// pipeline that once produced every key and minimized machine, kept
/// verbatim as the reference the Hopcroft path must match exactly.
#[cfg(test)]
mod moore {
    use super::CanonicalKey;
    use crate::byteclass::{minterms, ByteClass};
    use crate::dfa::{determinize, Dfa};
    use crate::nfa::{Nfa, StateId};

    fn minimize_dfa(dfa: &Dfa) -> Dfa {
        let dfa = dfa.complete();
        let n = dfa.num_states();
        if n == 0 {
            return dfa;
        }
        let classes: Vec<ByteClass> = (0..n)
            .flat_map(|q| dfa.transitions(StateId(q as u32)).iter().map(|&(c, _)| c))
            .collect();
        let alphabet = minterms(classes.iter());
        let symbols: Vec<u8> = alphabet
            .iter()
            .map(|c| c.min_byte().expect("minterms nonempty"))
            .collect();
        let mut block_of: Vec<usize> = (0..n)
            .map(|q| usize::from(dfa.is_final(StateId(q as u32))))
            .collect();
        let mut num_blocks = 2;
        loop {
            let mut sigs: Vec<(usize, Vec<usize>)> = Vec::with_capacity(n);
            for q in 0..n {
                let succ_blocks: Vec<usize> = symbols
                    .iter()
                    .map(|&b| {
                        let t = dfa.step(StateId(q as u32), b).expect("complete DFA");
                        block_of[t.index()]
                    })
                    .collect();
                sigs.push((block_of[q], succ_blocks));
            }
            let mut index = std::collections::HashMap::new();
            let mut new_block_of = vec![0usize; n];
            let mut new_num = 0usize;
            for q in 0..n {
                let id = *index.entry(sigs[q].clone()).or_insert_with(|| {
                    let id = new_num;
                    new_num += 1;
                    id
                });
                new_block_of[q] = id;
            }
            if new_num == num_blocks {
                break;
            }
            block_of = new_block_of;
            num_blocks = new_num;
        }
        let start_block = block_of[dfa.start().index()];
        let mut rep: Vec<Option<usize>> = vec![None; num_blocks];
        for q in 0..n {
            rep[block_of[q]].get_or_insert(q);
        }
        let mut states: Vec<Vec<(ByteClass, StateId)>> = vec![Vec::new(); num_blocks];
        let mut finals = vec![false; num_blocks];
        for blk in 0..num_blocks {
            let q = rep[blk].expect("every block has a member");
            finals[blk] = dfa.is_final(StateId(q as u32));
            let mut by_target: std::collections::HashMap<usize, ByteClass> =
                std::collections::HashMap::new();
            for &(c, t) in dfa.transitions(StateId(q as u32)) {
                let e = by_target
                    .entry(block_of[t.index()])
                    .or_insert(ByteClass::EMPTY);
                *e = e.union(&c);
            }
            let mut row: Vec<(ByteClass, StateId)> = by_target
                .into_iter()
                .map(|(blk, c)| (c, StateId(blk as u32)))
                .collect();
            row.sort_by_key(|&(_, t)| t);
            states[blk] = row;
        }
        let min = Dfa::from_parts(states, StateId(start_block as u32), finals);
        determinize(&min.to_nfa().trim().0)
    }

    fn bfs_order(dfa: &Dfa) -> Vec<StateId> {
        let mut seen: Vec<bool> = vec![false; dfa.num_states()];
        let mut bfs: Vec<StateId> = vec![dfa.start()];
        seen[dfa.start().index()] = true;
        let mut i = 0;
        while i < bfs.len() {
            let q = bfs[i];
            i += 1;
            let mut row: Vec<(ByteClass, StateId)> = dfa.transitions(q).to_vec();
            row.sort();
            for (_, t) in row {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    bfs.push(t);
                }
            }
        }
        bfs
    }

    pub(super) fn canonical_key(nfa: &Nfa) -> CanonicalKey {
        let min = minimize_dfa(&determinize(nfa));
        let bfs = bfs_order(&min);
        let mut order: Vec<Option<u32>> = vec![None; min.num_states()];
        for (new, &old) in bfs.iter().enumerate() {
            order[old.index()] = Some(new as u32);
        }
        let mut words: Vec<u64> = vec![bfs.len() as u64];
        for &q in &bfs {
            words.push(u64::from(min.is_final(q)));
            let mut row: Vec<(ByteClass, StateId)> = min.transitions(q).to_vec();
            row.sort();
            words.push(row.len() as u64);
            for (class, t) in row {
                let mut class_words = [0u64; 4];
                for b in class.iter() {
                    class_words[b as usize / 64] |= 1 << (b % 64);
                }
                words.extend(class_words);
                words.push(u64::from(
                    order[t.index()].expect("BFS covered all reachable states"),
                ));
            }
        }
        CanonicalKey::new(words)
    }

    pub(super) fn minimize(nfa: &Nfa) -> Nfa {
        let min = minimize_dfa(&determinize(nfa));
        let order = bfs_order(&min);
        let mut rank: Vec<u32> = vec![0; min.num_states()];
        for (new, &old) in order.iter().enumerate() {
            rank[old.index()] = new as u32;
        }
        let mut out = Nfa::new();
        for _ in 1..order.len() {
            out.add_state();
        }
        for (new, &old) in order.iter().enumerate() {
            let mut row: Vec<(ByteClass, StateId)> = min.transitions(old).to_vec();
            row.sort();
            for (class, t) in row {
                out.add_edge(StateId(new as u32), class, StateId(rank[t.index()]));
            }
            if min.is_final(old) {
                out.add_final(StateId(new as u32));
            }
        }
        out.trim().0
    }
}

/// The production minimizer against the Moore reference: identical keys
/// and identical minimized machines, not merely equivalent ones.
#[cfg(test)]
mod hopcroft_tests {
    use super::*;
    use crate::dfa::determinize;
    use crate::generate::{random_nfa, two_state_unary_machines, RandomNfaConfig};
    use crate::ops;

    fn assert_matches_moore(nfa: &Nfa, what: &str) {
        assert_eq!(canonical_key(nfa), moore::canonical_key(nfa), "{what}: key");
        assert_eq!(minimize(nfa), moore::minimize(nfa), "{what}: machine");
    }

    #[test]
    fn hopcroft_agrees_with_moore_on_fixtures() {
        let not_a = ByteClass::singleton(b'a').complement();
        let fixtures = [
            ("empty", Nfa::empty_language()),
            ("epsilon", Nfa::epsilon()),
            ("sigma*", Nfa::sigma_star()),
            ("abc", Nfa::literal(b"abc")),
            (
                "a|bb",
                ops::union(&Nfa::literal(b"a"), &Nfa::literal(b"bb")),
            ),
            (
                "(ab|ba)*",
                ops::star(&ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"ba"))),
            ),
            // Complete DFAs: no completion sink is reachable.
            ("[^a]*", ops::star(&Nfa::class(not_a))),
            (
                "(a|[^a])*a",
                ops::concat(
                    &ops::star(&ops::union(&Nfa::literal(b"a"), &Nfa::class(not_a))),
                    &Nfa::literal(b"a"),
                )
                .nfa,
            ),
        ];
        for (what, m) in &fixtures {
            assert_matches_moore(m, what);
        }
    }

    #[test]
    fn hopcroft_agrees_with_moore_on_random_machines() {
        let configs = [
            RandomNfaConfig {
                states: 7,
                alphabet: vec![b'a', b'b'],
                ..Default::default()
            },
            RandomNfaConfig {
                states: 12,
                edges_per_state: 3.0,
                alphabet: vec![b'a', b'b', b'c', b'x', b'y'],
                final_probability: 0.3,
                ..Default::default()
            },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            for seed in 0..150 {
                assert_matches_moore(&random_nfa(seed, cfg), &format!("config {i} seed {seed}"));
            }
        }
    }

    #[test]
    fn hopcroft_agrees_with_moore_on_all_two_state_machines() {
        for (i, m) in two_state_unary_machines().iter().enumerate() {
            assert_matches_moore(m, &format!("machine #{i}"));
        }
    }

    #[test]
    fn long_literals_minimize_to_their_own_chain() {
        // The chain shape of a SQL-template constant, on which Moore's
        // refinement needs one round per byte. A literal's chain machine is
        // already its canonical minimal form, which gives an exact oracle
        // at 2000 bytes; Moore itself checks a prefix short enough for its
        // quadratic rounds in an unoptimized test build.
        let alphabet: Vec<u8> = (b'0'..=b'9').chain(b'a'..=b'z').chain(*b" '=_").collect();
        assert_eq!(alphabet.len(), 40);
        let word: Vec<u8> = (0..2000).map(|i| alphabet[(i * 7 + i / 40) % 40]).collect();
        let literal = Nfa::literal(&word);
        assert_eq!(minimize(&literal), literal);
        let mut key = vec![word.len() as u64 + 1];
        for (i, &b) in word.iter().enumerate() {
            key.extend([0, 1]);
            key.extend(ByteClass::singleton(b).words());
            key.push(i as u64 + 1);
        }
        key.extend([1, 0]);
        assert_eq!(canonical_key(&literal), CanonicalKey::new(key));
        assert_matches_moore(&Nfa::literal(&word[..250]), "250-byte literal");
    }

    #[test]
    fn minimal_dfa_is_canonical_and_sink_free() {
        let m = ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"b"));
        let min = minimize_dfa(&determinize(&m));
        assert_eq!(min.start(), StateId(0));
        assert_eq!(min.to_nfa(), minimize(&m));
        // ab|b: start, after-a and accept, with no dead state.
        assert_eq!(min.num_states(), 3);
        let none = minimize_dfa(&determinize(&Nfa::empty_language()));
        assert_eq!(none.num_states(), 1);
        assert!(none.transitions(StateId(0)).is_empty());
        assert!(!none.is_final(StateId(0)));
    }
}

/// The key's two decoders: the machine [`minimize`] returns, and a
/// complete DFA for the complement.
#[cfg(test)]
mod decode_tests {
    use super::*;
    use crate::dfa::{self, equivalent};
    use crate::generate::{random_nfa, two_state_unary_machines, RandomNfaConfig};
    use crate::ops;

    fn assert_decodes(m: &Nfa, what: &str) {
        let key = canonical_key(m);
        let minimal = key.to_nfa();
        assert_eq!(minimal, minimize(m), "{what}: to_nfa");
        let complement = key.complement();
        assert!(
            equivalent(&complement, &dfa::complement(m)),
            "{what}: complement"
        );
        // The same states plus one dead state, none of them with ε-edges,
        // and each state's classes partitioning Σ.
        assert_eq!(complement.num_states(), minimal.num_states() + 1, "{what}");
        for q in complement.state_ids() {
            let state = complement.state(q);
            assert!(state.eps.is_empty(), "{what}: state {q}");
            let mut covered = ByteClass::EMPTY;
            for (class, _) in &state.edges {
                assert!(covered.is_disjoint(class), "{what}: state {q}");
                covered = covered.union(class);
            }
            assert!(covered.is_full(), "{what}: state {q} is complete");
        }
    }

    #[test]
    fn keys_decode_to_the_minimal_machine_and_a_complete_complement() {
        let configs = [
            RandomNfaConfig::default(),
            RandomNfaConfig {
                states: 10,
                edges_per_state: 1.5,
                eps_per_state: 1.5,
                alphabet: vec![b'a', b'b', b'x', b'y'],
                final_probability: 0.3,
            },
        ];
        for (i, cfg) in configs.iter().enumerate() {
            for seed in 0..200 {
                assert_decodes(&random_nfa(seed, cfg), &format!("config {i} seed {seed}"));
            }
        }
        for (i, m) in two_state_unary_machines().iter().enumerate() {
            assert_decodes(m, &format!("machine #{i}"));
        }
        let not_a = ByteClass::singleton(b'a').complement();
        for (what, m) in [
            ("epsilon", Nfa::epsilon()),
            ("abc", Nfa::literal(b"abc")),
            ("[^a]*", ops::star(&Nfa::class(not_a))),
            (
                "(ab|ba)*",
                ops::star(&ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"ba"))),
            ),
        ] {
            assert_decodes(&m, what);
        }
    }

    #[test]
    fn the_empty_and_universal_keys_complement_each_other() {
        let empty = canonical_key(&Nfa::empty_language());
        let universal = canonical_key(&Nfa::sigma_star());
        assert_eq!(empty, CanonicalKey::new(vec![1, 0, 0]));
        assert_decodes(&Nfa::empty_language(), "empty");
        assert_decodes(&Nfa::sigma_star(), "sigma*");
        assert!(equivalent(&empty.complement(), &Nfa::sigma_star()));
        assert!(universal.complement().is_empty_language());
        assert_eq!(canonical_key(&empty.complement()), universal);
        assert_eq!(canonical_key(&universal.complement()), empty);
    }
}

#[cfg(test)]
mod canonical_tests {
    use super::*;
    use crate::ops;

    #[test]
    fn equal_languages_equal_keys() {
        // a(ba)* and (ab)*a — same language, very different machines.
        let a = Nfa::literal(b"a");
        let b = Nfa::literal(b"b");
        let lhs = ops::concat(&a, &ops::star(&ops::concat(&b, &a).nfa)).nfa;
        let rhs = ops::concat(&ops::star(&ops::concat(&a, &b).nfa), &a).nfa;
        assert_eq!(canonical_key(&lhs), canonical_key(&rhs));
    }

    #[test]
    fn different_languages_different_keys() {
        assert_ne!(
            canonical_key(&Nfa::literal(b"a")),
            canonical_key(&Nfa::literal(b"b"))
        );
        assert_ne!(
            canonical_key(&Nfa::empty_language()),
            canonical_key(&Nfa::epsilon())
        );
        assert_ne!(
            canonical_key(&Nfa::sigma_star()),
            canonical_key(&Nfa::epsilon())
        );
    }

    #[test]
    fn key_is_structure_independent() {
        let m = ops::union(&Nfa::literal(b"x"), &Nfa::literal(b"x"));
        assert_eq!(canonical_key(&m), canonical_key(&Nfa::literal(b"x")));
    }

    #[test]
    fn keys_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(canonical_key(&Nfa::literal(b"a")));
        set.insert(canonical_key(&Nfa::literal(b"a").normalize()));
        assert_eq!(set.len(), 1);
    }
}
