//! The subset-construction kernel behind every determinization and
//! canonicalization ([`Table`]) and every `⊆` search
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
//!
//! The kernel's hash tables (state sets in [`Table`] and in the `⊆`
//! search, classes in [`alphabet`], and the pairs of the product
//! construction in [`crate::ops`]) are open-addressed and probed from a
//! hash seeded once per process, so no machine can be built in advance to
//! collide in them.

use crate::byteclass::{refine_minterms, ByteClass};
use crate::dfa::DeterminizeCost;
use crate::nfa::{Nfa, StateId};
use std::cell::Cell;
use std::sync::OnceLock;

/// Marks an absent successor in a [`Table`] and an empty hash-table slot.
pub(crate) const NONE: u32 = u32::MAX;

/// The most bytes of scratch a thread keeps between constructions. A
/// construction that grew its buffers past this frees them when it ends,
/// so a thread retains at most this much however large its last machine.
pub(crate) const RETAINED_BYTES: usize = 16 * 1024;

/// The hash seed: random, drawn once per process.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(0x6470_726c_6500);
        h.finish()
    })
}

/// A seeded multiply-rotate hash of a word sequence. The words are folded
/// in (internal iteration), so a chain of iterators over a machine's parts
/// hashes it in place.
pub(crate) fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let h = words.into_iter().fold(seed(), |h, w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    });
    h ^ (h >> 32)
}

/// The bytes a `Vec`'s allocation holds.
pub(crate) fn footprint<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Numbers entries in an open-addressed table, at most half full, probed
/// linearly from each entry's seeded hash. The caller keeps the entries
/// and says, through [`Index::find`]'s test, which one is which.
#[derive(Default)]
pub(crate) struct Index {
    slots: Vec<u32>,
    hashes: Vec<u64>,
}

impl Index {
    pub(crate) fn clear(&mut self) {
        self.hashes.clear();
        self.slots.clear();
        self.slots.resize(16, NONE);
    }

    /// The number of the entry hashing to `h` that `is` accepts, or the
    /// slot a new one goes in.
    pub(crate) fn find(&self, h: u64, is: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.slots[i] {
                NONE => return Err(i),
                id if self.hashes[id as usize] == h && is(id) => return Ok(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Numbers a new entry hashing to `h`, in the `slot` [`Index::find`]
    /// returned for it.
    pub(crate) fn insert(&mut self, slot: usize, h: u64) -> u32 {
        let id = self.hashes.len() as u32;
        self.slots[slot] = id;
        self.hashes.push(h);
        if self.hashes.len() * 2 > self.slots.len() {
            let size = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(size, NONE);
            for (id, &h) in self.hashes.iter().enumerate() {
                let mut i = h as usize & (size - 1);
                while self.slots[i] != NONE {
                    i = (i + 1) & (size - 1);
                }
                self.slots[i] = id as u32;
            }
        }
        id
    }

    pub(crate) fn footprint(&self) -> usize {
        footprint(&self.slots) + footprint(&self.hashes)
    }
}

/// The distinct classes of a sequence, in order of first occurrence.
#[derive(Default)]
struct ClassSet {
    index: Index,
    distinct: Vec<ByteClass>,
}

impl ClassSet {
    fn clear(&mut self) {
        self.index.clear();
        self.distinct.clear();
    }

    /// Records `class`; whether it was new.
    fn insert(&mut self, class: ByteClass) -> bool {
        let h = hash_words(class.words());
        match self.index.find(h, |j| self.distinct[j as usize] == class) {
            Ok(_) => false,
            Err(slot) => {
                self.index.insert(slot, h);
                self.distinct.push(class);
                true
            }
        }
    }

    fn footprint(&self) -> usize {
        self.index.footprint() + footprint(&self.distinct)
    }
}

/// Builds minterm alphabets in reused buffers.
#[derive(Default)]
pub(crate) struct AlphabetBuilder {
    seen: ClassSet,
    spare: Vec<ByteClass>,
}

impl AlphabetBuilder {
    /// Writes the minterm alphabet of `classes` into `out`: the coarsest
    /// partition of the bytes they cover that respects each of them, in
    /// [`minterms`](crate::byteclass::minterms)'s block order.
    ///
    /// Each distinct class is refined in once, at its first occurrence.
    /// Refining by a class a second time splits no block and adds none
    /// (every block already lies inside or outside it), so the partition
    /// and its order are exactly those of `minterms` over the whole
    /// sequence.
    pub(crate) fn build(
        &mut self,
        classes: impl IntoIterator<Item = ByteClass>,
        out: &mut Vec<ByteClass>,
    ) {
        out.clear();
        self.seen.clear();
        for class in classes {
            if !class.is_empty() && self.seen.insert(class) {
                refine_minterms(out, &mut self.spare, &class);
            }
        }
    }

    pub(crate) fn footprint(&self) -> usize {
        self.seen.footprint() + footprint(&self.spare)
    }
}

/// The minterm alphabet of `classes` (see [`AlphabetBuilder::build`]).
pub(crate) fn alphabet(classes: impl IntoIterator<Item = ByteClass>) -> Vec<ByteClass> {
    let mut out = Vec::new();
    AlphabetBuilder::default().build(classes, &mut out);
    out
}

/// One byte per minterm block: every byte of a block steps every state set
/// to the same successor, so its smallest byte stands for the block.
pub(crate) fn representatives(alphabet: &[ByteClass]) -> Vec<u8> {
    alphabet
        .iter()
        .map(|block| block.min_byte().expect("minterm blocks are nonempty"))
        .collect()
}

/// The scratch a [`Subsets`] builds its sets with: reusable from one
/// machine to the next.
#[derive(Default)]
pub(crate) struct Marks {
    finals: Vec<bool>,
    /// `mark[q] == stamp` iff `q` is in the set being built.
    mark: Vec<u32>,
    stamp: u32,
    stack: Vec<u32>,
}

impl Marks {
    pub(crate) fn footprint(&self) -> usize {
        footprint(&self.finals) + footprint(&self.mark) + footprint(&self.stack)
    }
}

/// Subset-construction state for one machine: finality, and the scratch
/// marks and stack a step builds its set with.
pub(crate) struct Subsets<'a> {
    nfa: &'a Nfa,
    marks: Marks,
}

impl<'a> Subsets<'a> {
    #[cfg(test)]
    pub(crate) fn new(nfa: &'a Nfa) -> Subsets<'a> {
        Subsets::reusing(nfa, Marks::default())
    }

    /// Like [`Subsets::new`], building in `marks`' buffers.
    pub(crate) fn reusing(nfa: &'a Nfa, mut marks: Marks) -> Subsets<'a> {
        let n = nfa.num_states();
        marks.finals.clear();
        marks.finals.resize(n, false);
        for f in nfa.finals() {
            marks.finals[f.index()] = true;
        }
        marks.mark.clear();
        marks.mark.resize(n, 0);
        marks.stamp = 0;
        Subsets { nfa, marks }
    }

    /// The buffers, for the next machine.
    pub(crate) fn into_marks(self) -> Marks {
        self.marks
    }

    /// Whether state `q` is final.
    pub(crate) fn is_final(&self, q: u32) -> bool {
        self.marks.finals[q as usize]
    }

    /// Whether `set` holds a final state.
    pub(crate) fn any_final(&self, set: &[u32]) -> bool {
        set.iter().any(|&q| self.marks.finals[q as usize])
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

    /// Writes the ε-closure of `targets` into `out`, sorted: the set a
    /// step reaches when `targets` are the states its byte enters.
    pub(crate) fn close(&mut self, targets: &[u32], out: &mut Vec<u32>) {
        self.begin(out);
        for &t in targets {
            self.add_closure(t, out);
        }
        out.sort_unstable();
    }

    /// Whether a final state is reachable from the start along ε-edges
    /// and edges with a nonempty class: whether the language is nonempty.
    pub(crate) fn accepts_some_word(&mut self) -> bool {
        let nfa = self.nfa;
        let start = nfa.start().0;
        let mut work = std::mem::take(&mut self.marks.stack);
        self.begin(&mut work);
        let Marks {
            finals,
            mark,
            stamp,
            ..
        } = &mut self.marks;
        mark[start as usize] = *stamp;
        work.push(start);
        let mut found = false;
        while let Some(p) = work.pop() {
            if finals[p as usize] {
                found = true;
                break;
            }
            let st = nfa.state(StateId(p));
            let live = st
                .edges
                .iter()
                .filter(|(c, _)| !c.is_empty())
                .map(|&(_, t)| t);
            for t in live.chain(st.eps.iter().copied()) {
                if mark[t.index()] != *stamp {
                    mark[t.index()] = *stamp;
                    work.push(t.0);
                }
            }
        }
        work.clear();
        self.marks.stack = work;
        found
    }

    fn begin(&mut self, out: &mut Vec<u32>) {
        out.clear();
        let marks = &mut self.marks;
        if marks.stamp == u32::MAX {
            marks.mark.fill(0);
            marks.stamp = 0;
        }
        marks.stamp += 1;
    }

    /// Adds `q`'s ε-closure to the set being built in `out`. The walk stops
    /// at marked states: their closures are in the set already.
    fn add_closure(&mut self, q: u32, out: &mut Vec<u32>) {
        let Marks {
            mark, stamp, stack, ..
        } = &mut self.marks;
        if mark[q as usize] == *stamp {
            return;
        }
        mark[q as usize] = *stamp;
        out.push(q);
        stack.push(q);
        while let Some(p) = stack.pop() {
            for &t in &self.nfa.state(StateId(p)).eps {
                if mark[t.index()] != *stamp {
                    mark[t.index()] = *stamp;
                    out.push(t.0);
                    stack.push(t.0);
                }
            }
        }
    }
}

/// State sets interned in one pool of state ids: set `i` is
/// `pool[bounds[i]..bounds[i + 1]]`, numbered through an [`Index`].
#[derive(Default)]
pub(crate) struct SetIndex {
    index: Index,
    pool: Vec<u32>,
    bounds: Vec<usize>,
}

impl SetIndex {
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.pool.clear();
        self.bounds.clear();
        self.bounds.push(0);
    }

    pub(crate) fn get(&self, i: usize) -> &[u32] {
        &self.pool[self.bounds[i]..self.bounds[i + 1]]
    }

    /// The number of `set`, numbering it next if it is new; whether it was.
    pub(crate) fn intern(&mut self, set: &[u32]) -> (u32, bool) {
        let h = hash_words(set.iter().map(|&q| u64::from(q)));
        match self.index.find(h, |id| self.get(id as usize) == set) {
            Ok(id) => (id, false),
            Err(slot) => {
                self.pool.extend_from_slice(set);
                self.bounds.push(self.pool.len());
                (self.index.insert(slot, h), true)
            }
        }
    }

    pub(crate) fn footprint(&self) -> usize {
        self.index.footprint() + footprint(&self.pool) + footprint(&self.bounds)
    }
}

/// The subset construction of one machine as a dense successor table:
/// DFA state `q` steps on minterm `s` to `delta[q * k + s]`, or nowhere
/// when that is [`NONE`], for `k = alphabet.len()`.
///
/// States are numbered in breadth-first discovery order from the start
/// set (state 0), trying minterms in alphabet order: the numbering
/// [`crate::dfa::determinize_counted`] returns. [`with_table`] builds one
/// in a thread's reused buffers.
#[derive(Default)]
pub(crate) struct Table {
    /// The minterm alphabet of the machine's edge classes.
    pub(crate) alphabet: Vec<ByteClass>,
    /// The successor table, one row of `alphabet.len()` entries per state.
    pub(crate) delta: Vec<u32>,
    /// Whether each DFA state holds a final NFA state.
    pub(crate) finals: Vec<bool>,
    /// The construction's cost.
    pub(crate) cost: DeterminizeCost,
    scratch: TableScratch,
}

/// What a [`Table`] is built with, kept for the next construction.
#[derive(Default)]
struct TableScratch {
    alphabet: AlphabetBuilder,
    symbols: Vec<u8>,
    marks: Marks,
    sets: SetIndex,
    cur: Vec<u32>,
    next: Vec<u32>,
    /// `slot[t]`: where target `t` sits in the row being merged, or NONE.
    slot: Vec<u32>,
}

impl Table {
    /// The number of DFA states.
    pub(crate) fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// Runs the subset construction of `nfa` into this table; `false`,
    /// leaving the table unfinished, at the first state set past
    /// `max_states`, before it is numbered.
    fn build(&mut self, nfa: &Nfa, max_states: usize) -> bool {
        let TableScratch {
            alphabet,
            symbols,
            marks,
            sets,
            cur,
            next,
            ..
        } = &mut self.scratch;
        alphabet.build(nfa.edges().map(|(_, c, _)| c), &mut self.alphabet);
        symbols.clear();
        symbols.extend(
            self.alphabet
                .iter()
                .map(|block| block.min_byte().expect("minterm blocks are nonempty")),
        );
        let mut kernel = Subsets::reusing(nfa, std::mem::take(marks));
        let mut cost = DeterminizeCost::default();
        self.delta.clear();
        self.finals.clear();
        sets.clear();
        let finals = &mut self.finals;
        let delta = &mut self.delta;
        let mut explore = || {
            if max_states == 0 {
                return false;
            }
            kernel.start(next);
            cost.closure_visited += next.len();
            sets.intern(next);
            finals.push(kernel.any_final(next));
            // Work is processed in creation order, so the queue is an index.
            let mut q = 0;
            while q < finals.len() {
                cur.clear();
                cur.extend_from_slice(sets.get(q));
                for &byte in symbols.iter() {
                    kernel.step(cur, byte, next);
                    cost.closure_visited += next.len();
                    if next.is_empty() {
                        delta.push(NONE);
                        continue;
                    }
                    let (t, new) = sets.intern(next);
                    if new {
                        if finals.len() == max_states {
                            return false;
                        }
                        finals.push(kernel.any_final(next));
                    }
                    delta.push(t);
                }
                q += 1;
            }
            true
        };
        let complete = explore();
        cost.dfa_states = self.finals.len();
        self.cost = cost;
        *marks = kernel.marks;
        complete
    }

    /// Row `q` with the minterms that lead to one state merged into one
    /// class, written to `out` in order of first occurrence.
    pub(crate) fn merged_row(&mut self, q: usize, out: &mut Vec<(ByteClass, StateId)>) {
        out.clear();
        let k = self.alphabet.len();
        let slot = &mut self.scratch.slot;
        if slot.len() < self.finals.len() {
            slot.resize(self.finals.len(), NONE);
        }
        for (block, &t) in self.alphabet.iter().zip(&self.delta[q * k..(q + 1) * k]) {
            if t == NONE {
                continue;
            }
            match slot[t as usize] {
                NONE => {
                    slot[t as usize] = out.len() as u32;
                    out.push((*block, StateId(t)));
                }
                j => out[j as usize].0 = out[j as usize].0.union(block),
            }
        }
        for &(_, t) in out.iter() {
            slot[t.index()] = NONE;
        }
    }

    fn footprint(&self) -> usize {
        let s = &self.scratch;
        footprint(&self.alphabet)
            + footprint(&self.delta)
            + footprint(&self.finals)
            + s.alphabet.footprint()
            + footprint(&s.symbols)
            + s.marks.footprint()
            + s.sets.footprint()
            + footprint(&s.cur)
            + footprint(&s.next)
            + footprint(&s.slot)
    }
}

thread_local! {
    /// This thread's table, reused from one construction to the next.
    static TABLE: Cell<Table> = Cell::new(Table::default());
}

/// Runs `f` on the subset table of `nfa`, built in this thread's reused
/// buffers: a construction allocates only while its machine outgrows
/// every earlier one the thread has kept, and keeps at most
/// [`RETAINED_BYTES`]. A nested call (none exists today) would build in
/// fresh buffers.
pub(crate) fn with_table<R>(nfa: &Nfa, f: impl FnOnce(&mut Table) -> R) -> R {
    try_with_table(nfa, usize::MAX, f).expect("an unlimited construction completes")
}

/// [`with_table`], or the cost of the work done when the construction
/// would number more than `max_states` states: it stops at the first state
/// set past them.
pub(crate) fn try_with_table<R>(
    nfa: &Nfa,
    max_states: usize,
    f: impl FnOnce(&mut Table) -> R,
) -> Result<R, DeterminizeCost> {
    let mut table = TABLE.with(Cell::take);
    let result = if table.build(nfa, max_states) {
        Ok(f(&mut table))
    } else {
        Err(table.cost)
    };
    if table.footprint() <= RETAINED_BYTES {
        TABLE.with(|cell| cell.set(table));
    }
    result
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
    use crate::byteclass::minterms;
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
