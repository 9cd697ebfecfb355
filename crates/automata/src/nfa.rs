//! Nondeterministic finite automata with epsilon transitions.
//!
//! This is the machine representation the paper's constructions operate on:
//! every constant and intermediate language in the decision procedure is an
//! [`Nfa`]. Transitions are labelled with [`ByteClass`]es (sets of bytes) or
//! are epsilon transitions. Machines carry one start state and a set of final
//! states; the paper's algorithms additionally assume a *normalized* shape
//! (single final state, no edges out of the final state, no edges into the
//! start state) which [`Nfa::normalize`] establishes.

use crate::byteclass::ByteClass;
use std::borrow::Cow;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Identifier of an NFA state. Indexes into the machine's state vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

impl StateId {
    /// The state's index into the machine's state vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A single NFA state: its labelled out-edges and epsilon out-edges.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct State {
    /// Byte-class-labelled transitions out of this state.
    pub edges: Vec<(ByteClass, StateId)>,
    /// Epsilon transitions out of this state.
    pub eps: Vec<StateId>,
}

/// An epsilon-NFA over the byte alphabet.
///
/// # Examples
///
/// ```
/// use dprle_automata::Nfa;
///
/// let m = Nfa::literal(b"nid_");
/// assert!(m.contains(b"nid_"));
/// assert!(!m.contains(b"nid"));
/// ```
///
/// Equality and hashing are *structural*: two machines compare equal only
/// when their states, edges (in order), start and final states coincide.
/// Equal languages built differently are different machines; language
/// equality is [`Lang::fingerprint`](crate::Lang::fingerprint)'s job.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Nfa {
    states: Vec<State>,
    start: StateId,
    finals: BTreeSet<StateId>,
}

impl Nfa {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a machine with a single start state and no transitions or
    /// final states; recognizes the empty language.
    pub fn new() -> Self {
        Nfa {
            states: vec![State::default()],
            start: StateId(0),
            finals: BTreeSet::new(),
        }
    }

    /// The machine for the empty language ∅.
    pub fn empty_language() -> Self {
        Self::new()
    }

    /// The machine for the language {ε} containing only the empty string.
    pub fn epsilon() -> Self {
        let mut m = Self::new();
        m.finals.insert(m.start);
        m
    }

    /// The machine recognizing exactly the byte string `word`.
    pub fn literal(word: &[u8]) -> Self {
        let mut m = Self::new();
        let mut cur = m.start;
        for &b in word {
            let next = m.add_state();
            m.add_edge(cur, ByteClass::singleton(b), next);
            cur = next;
        }
        m.finals.insert(cur);
        m
    }

    /// The machine recognizing exactly the single-byte strings drawn from
    /// `class`. An empty class yields the empty language.
    pub fn class(class: ByteClass) -> Self {
        let mut m = Self::new();
        let f = m.add_state();
        if !class.is_empty() {
            m.add_edge(m.start, class, f);
        }
        m.finals.insert(f);
        m
    }

    /// The machine for Σ* (every byte string). Two states, normalized shape.
    pub fn sigma_star() -> Self {
        let mut m = Self::new();
        let mid = m.add_state();
        let f = m.add_state();
        m.add_eps(m.start, mid);
        m.add_edge(mid, ByteClass::FULL, mid);
        m.add_eps(mid, f);
        m.finals.insert(f);
        m
    }

    /// The machine for all strings of length exactly `n`.
    pub fn exact_length(n: usize) -> Self {
        let mut m = Self::new();
        let mut cur = m.start;
        for _ in 0..n {
            let next = m.add_state();
            m.add_edge(cur, ByteClass::FULL, next);
            cur = next;
        }
        m.finals.insert(cur);
        m
    }

    /// The machine for `class{min,max}`: between `min` and `max` bytes, each
    /// drawn from `class`. A lean chain of `max` states with no epsilon
    /// edges — preferred over composing `class` with `ops::repeat_range`
    /// when machine size matters (e.g. in scaling studies).
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn class_repeat(class: ByteClass, min: usize, max: usize) -> Self {
        assert!(min <= max, "class_repeat requires min <= max");
        let mut m = Self::new();
        let mut cur = m.start;
        for i in 0..=max {
            if i >= min {
                m.finals.insert(cur);
            }
            if i < max && !class.is_empty() {
                let next = m.add_state();
                m.add_edge(cur, class, next);
                cur = next;
            } else if i < max {
                break; // empty class: only lengths covered so far (i.e. 0)
            }
        }
        if min > 0 && class.is_empty() {
            m.clear_finals();
        }
        m
    }

    /// The machine for a finite set of words, built as a byte trie —
    /// deterministic and far smaller than a union of literal machines.
    ///
    /// ```
    /// use dprle_automata::Nfa;
    ///
    /// let m = Nfa::from_words([&b"cat"[..], b"car", b"dog"]);
    /// assert!(m.contains(b"car"));
    /// assert!(!m.contains(b"ca"));
    /// ```
    pub fn from_words<'a, I: IntoIterator<Item = &'a [u8]>>(words: I) -> Self {
        let mut m = Self::new();
        for word in words {
            let mut cur = m.start;
            for &b in word {
                // Follow an existing singleton edge when present.
                let existing = m.states[cur.index()]
                    .edges
                    .iter()
                    .find(|(c, _)| c.len() == 1 && c.contains(b))
                    .map(|&(_, t)| t);
                cur = match existing {
                    Some(t) => t,
                    None => {
                        let next = m.add_state();
                        m.add_edge(cur, ByteClass::singleton(b), next);
                        next
                    }
                };
            }
            m.finals.insert(cur);
        }
        m
    }

    /// The machine for all strings whose length lies in `min..=max`.
    pub fn length_between(min: usize, max: usize) -> Self {
        let mut m = Self::new();
        let mut cur = m.start;
        for i in 0..=max {
            if i >= min {
                m.finals.insert(cur);
            }
            if i < max {
                let next = m.add_state();
                m.add_edge(cur, ByteClass::FULL, next);
                cur = next;
            }
        }
        m
    }

    // ------------------------------------------------------------------
    // Raw construction
    // ------------------------------------------------------------------

    /// The machine with these states, starting at state 0: for kernels
    /// that build every state's edge lists themselves.
    pub(crate) fn from_states(states: Vec<State>, finals: BTreeSet<StateId>) -> Nfa {
        debug_assert!(!states.is_empty());
        Nfa {
            states,
            start: StateId(0),
            finals,
        }
    }

    /// Appends a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.states.push(State::default());
        StateId((self.states.len() - 1) as u32)
    }

    /// Adds a byte-class transition `from --class--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn add_edge(&mut self, from: StateId, class: ByteClass, to: StateId) {
        assert!(to.index() < self.states.len(), "edge target out of range");
        self.states[from.index()].edges.push((class, to));
    }

    /// Adds an epsilon transition `from --ε--> to`.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn add_eps(&mut self, from: StateId, to: StateId) {
        assert!(to.index() < self.states.len(), "edge target out of range");
        self.states[from.index()].eps.push(to);
    }

    /// Changes the start state.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn set_start(&mut self, start: StateId) {
        assert!(start.index() < self.states.len(), "start out of range");
        self.start = start;
    }

    /// Marks `state` as final.
    pub fn add_final(&mut self, state: StateId) {
        assert!(state.index() < self.states.len(), "final out of range");
        self.finals.insert(state);
    }

    /// Removes all final markers.
    pub fn clear_finals(&mut self) {
        self.finals.clear();
    }

    /// Replaces the final-state set with exactly `{state}`.
    ///
    /// This is the primitive behind the paper's `induce_from_final`.
    pub fn set_single_final(&mut self, state: StateId) {
        assert!(state.index() < self.states.len(), "final out of range");
        self.finals.clear();
        self.finals.insert(state);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The total number of transitions (byte-class plus epsilon).
    pub fn num_transitions(&self) -> usize {
        self.states
            .iter()
            .map(|s| s.edges.len() + s.eps.len())
            .sum()
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The set of final states.
    pub fn finals(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(&state)
    }

    /// Borrows the state record for `state`.
    pub fn state(&self, state: StateId) -> &State {
        &self.states[state.index()]
    }

    /// Iterates over all state ids.
    pub fn state_ids(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.states.len() as u32).map(StateId)
    }

    /// Iterates over all byte-class edges as `(from, class, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (StateId, ByteClass, StateId)> + '_ {
        self.states
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.edges.iter().map(move |&(c, t)| (StateId(i as u32), c, t)))
    }

    /// Iterates over all epsilon edges as `(from, to)`.
    pub fn eps_edges(&self) -> impl Iterator<Item = (StateId, StateId)> + '_ {
        self.states
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.eps.iter().map(move |&t| (StateId(i as u32), t)))
    }

    // ------------------------------------------------------------------
    // Simulation
    // ------------------------------------------------------------------

    /// The epsilon closure of a set of states.
    pub fn eps_closure(&self, set: &BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut closure = set.clone();
        let mut work: Vec<StateId> = set.iter().copied().collect();
        while let Some(q) = work.pop() {
            for &t in &self.states[q.index()].eps {
                if closure.insert(t) {
                    work.push(t);
                }
            }
        }
        closure
    }

    /// One simulation step: all states reachable from `set` by consuming `b`
    /// (without taking the epsilon closure of the result).
    pub fn step(&self, set: &BTreeSet<StateId>, b: u8) -> BTreeSet<StateId> {
        let mut out = BTreeSet::new();
        for &q in set {
            for &(c, t) in &self.states[q.index()].edges {
                if c.contains(b) {
                    out.insert(t);
                }
            }
        }
        out
    }

    /// Tests whether the machine accepts `word`.
    pub fn contains(&self, word: &[u8]) -> bool {
        let mut cur = self.eps_closure(&BTreeSet::from([self.start]));
        for &b in word {
            if cur.is_empty() {
                return false;
            }
            cur = self.eps_closure(&self.step(&cur, b));
        }
        cur.iter().any(|q| self.finals.contains(q))
    }

    /// Tests whether the recognized language is empty.
    pub fn is_empty_language(&self) -> bool {
        self.shortest_member_len().is_none()
    }

    /// Tests whether the machine accepts the empty string.
    pub fn accepts_epsilon(&self) -> bool {
        self.eps_closure(&BTreeSet::from([self.start]))
            .iter()
            .any(|q| self.finals.contains(q))
    }

    // ------------------------------------------------------------------
    // Reachability and witnesses
    // ------------------------------------------------------------------

    /// States reachable from the start state (following any edge kind).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut work = vec![self.start];
        seen[self.start.index()] = true;
        while let Some(q) = work.pop() {
            let st = &self.states[q.index()];
            for &(c, t) in &st.edges {
                if !c.is_empty() && !seen[t.index()] {
                    seen[t.index()] = true;
                    work.push(t);
                }
            }
            for &t in &st.eps {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    work.push(t);
                }
            }
        }
        seen
    }

    /// States from which some final state is reachable (co-reachable states).
    pub fn co_reachable(&self) -> Vec<bool> {
        // Build reverse adjacency once, then BFS from all finals.
        let mut radj: Vec<Vec<StateId>> = vec![Vec::new(); self.states.len()];
        for (i, st) in self.states.iter().enumerate() {
            for &(c, t) in &st.edges {
                if !c.is_empty() {
                    radj[t.index()].push(StateId(i as u32));
                }
            }
            for &t in &st.eps {
                radj[t.index()].push(StateId(i as u32));
            }
        }
        let mut seen = vec![false; self.states.len()];
        let mut work: Vec<StateId> = Vec::new();
        for &f in &self.finals {
            if !seen[f.index()] {
                seen[f.index()] = true;
                work.push(f);
            }
        }
        while let Some(q) = work.pop() {
            for &p in &radj[q.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    work.push(p);
                }
            }
        }
        seen
    }

    /// The length of a shortest accepted string, or `None` if the language is
    /// empty. Epsilon edges cost 0; byte edges cost 1 (0-1 BFS).
    pub fn shortest_member_len(&self) -> Option<usize> {
        let mut dist: Vec<Option<usize>> = vec![None; self.states.len()];
        let mut dq: VecDeque<StateId> = VecDeque::new();
        dist[self.start.index()] = Some(0);
        dq.push_back(self.start);
        while let Some(q) = dq.pop_front() {
            let d = dist[q.index()].expect("queued state has distance");
            if self.finals.contains(&q) {
                return Some(d);
            }
            for &t in &self.states[q.index()].eps {
                if dist[t.index()].is_none_or(|old| d < old) {
                    dist[t.index()] = Some(d);
                    dq.push_front(t);
                }
            }
            for &(c, t) in &self.states[q.index()].edges {
                if !c.is_empty() && dist[t.index()].is_none_or(|old| d + 1 < old) {
                    dist[t.index()] = Some(d + 1);
                    dq.push_back(t);
                }
            }
        }
        None
    }

    /// A shortest accepted string, or `None` if the language is empty.
    ///
    /// When several bytes label the chosen edge a printable representative is
    /// preferred, so witnesses produced for, e.g., SQL-injection exploits are
    /// readable.
    pub fn shortest_member(&self) -> Option<Vec<u8>> {
        #[derive(Clone)]
        enum Back {
            Root,
            Eps(StateId),
            Byte(StateId, u8),
        }
        let mut back: Vec<Option<(usize, Back)>> = vec![None; self.states.len()];
        let mut dq: VecDeque<StateId> = VecDeque::new();
        back[self.start.index()] = Some((0, Back::Root));
        dq.push_back(self.start);
        let mut hit: Option<StateId> = None;
        while let Some(q) = dq.pop_front() {
            let d = back[q.index()].as_ref().expect("queued state has entry").0;
            if self.finals.contains(&q) {
                hit = Some(q);
                break;
            }
            for &t in &self.states[q.index()].eps {
                if back[t.index()].as_ref().is_none_or(|(old, _)| d < *old) {
                    back[t.index()] = Some((d, Back::Eps(q)));
                    dq.push_front(t);
                }
            }
            for &(c, t) in &self.states[q.index()].edges {
                if c.is_empty() {
                    continue;
                }
                if back[t.index()].as_ref().is_none_or(|(old, _)| d + 1 < *old) {
                    let b = c.pick_representative().expect("nonempty class");
                    back[t.index()] = Some((d + 1, Back::Byte(q, b)));
                    dq.push_back(t);
                }
            }
        }
        let mut cur = hit?;
        let mut word = Vec::new();
        loop {
            match back[cur.index()].as_ref().expect("path entry").1.clone() {
                Back::Root => break,
                Back::Eps(p) => cur = p,
                Back::Byte(p, b) => {
                    word.push(b);
                    cur = p;
                }
            }
        }
        word.reverse();
        Some(word)
    }

    /// Enumerates every accepted string over the restricted alphabet
    /// `alphabet` with length at most `max_len`, in length-lexicographic
    /// order. Intended for exhaustive cross-checking in tests; cost is
    /// O(|alphabet|^max_len).
    pub fn enumerate_upto(&self, alphabet: &[u8], max_len: usize) -> BTreeSet<Vec<u8>> {
        let mut out = BTreeSet::new();
        let mut layer: Vec<(Vec<u8>, BTreeSet<StateId>)> =
            vec![(Vec::new(), self.eps_closure(&BTreeSet::from([self.start])))];
        if layer[0].1.iter().any(|q| self.finals.contains(q)) {
            out.insert(Vec::new());
        }
        for _ in 0..max_len {
            let mut next = Vec::new();
            for (word, set) in &layer {
                for &b in alphabet {
                    let stepped = self.eps_closure(&self.step(set, b));
                    if stepped.is_empty() {
                        continue;
                    }
                    let mut w = word.clone();
                    w.push(b);
                    if stepped.iter().any(|q| self.finals.contains(q)) {
                        out.insert(w.clone());
                    }
                    next.push((w, stepped));
                }
            }
            layer = next;
            if layer.is_empty() {
                break;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Structural transformations
    // ------------------------------------------------------------------

    /// Removes states that are unreachable from the start or from which no
    /// final state is reachable, renumbering the survivors.
    ///
    /// The start state is always kept (a trimmed empty language keeps its
    /// start state and nothing else). Returns the trimmed machine and, for
    /// bookkeeping by callers that track state provenance, the mapping from
    /// new state ids to old ones.
    pub fn trim(&self) -> (Nfa, Vec<StateId>) {
        let reach = self.reachable();
        let co = self.co_reachable();
        let mut new_of_old: Vec<Option<StateId>> = vec![None; self.states.len()];
        let mut old_of_new: Vec<StateId> = Vec::new();
        let keep =
            |q: StateId, old_of_new: &mut Vec<StateId>, new_of_old: &mut Vec<Option<StateId>>| {
                let id = StateId(old_of_new.len() as u32);
                new_of_old[q.index()] = Some(id);
                old_of_new.push(q);
                id
            };
        // Keep the start unconditionally so the result is a valid machine.
        keep(self.start, &mut old_of_new, &mut new_of_old);
        for q in self.state_ids() {
            if q != self.start && reach[q.index()] && co[q.index()] {
                keep(q, &mut old_of_new, &mut new_of_old);
            }
        }
        let mut out = Nfa {
            states: vec![State::default(); old_of_new.len()],
            start: StateId(0),
            finals: BTreeSet::new(),
        };
        for (new_idx, &old) in old_of_new.iter().enumerate() {
            if !(reach[old.index()] && co[old.index()]) {
                continue; // the kept-but-dead start state gets no edges
            }
            let st = &self.states[old.index()];
            for &(c, t) in &st.edges {
                if c.is_empty() {
                    continue;
                }
                if let Some(nt) = new_of_old[t.index()] {
                    out.states[new_idx].edges.push((c, nt));
                }
            }
            for &t in &st.eps {
                if let Some(nt) = new_of_old[t.index()] {
                    out.states[new_idx].eps.push(nt);
                }
            }
        }
        for &f in &self.finals {
            if let Some(nf) = new_of_old[f.index()] {
                if reach[f.index()] {
                    out.finals.insert(nf);
                }
            }
        }
        (out, old_of_new)
    }

    /// Returns a copy of the machine with `state` as the *only* final state,
    /// trimmed (paper Figure 3, `induce_from_final`).
    pub fn induce_from_final(&self, state: StateId) -> Nfa {
        let mut m = self.clone();
        m.set_single_final(state);
        m.trim().0
    }

    /// Returns a copy of the machine with `state` as the start state, trimmed
    /// (paper Figure 3, `induce_from_start`).
    pub fn induce_from_start(&self, state: StateId) -> Nfa {
        let mut m = self.clone();
        m.set_start(state);
        m.trim().0
    }

    /// Returns a copy with `start` as start state and `final_` as the only
    /// final state, trimmed. This extracts one *segment* of a concatenation
    /// machine; the generalized concat-intersect procedure uses it to slice
    /// shared solution machines.
    ///
    /// A forward search from `start`, then a backward one from `final_`
    /// over the states reached, finds exactly the states [`Nfa::trim`]
    /// would keep; they are copied under its numbering (`start` first, then
    /// the others in index order), and nothing else of `self` is.
    pub fn induce_segment(&self, start: StateId, final_: StateId) -> Nfa {
        assert!(start.index() < self.states.len(), "start out of range");
        assert!(final_.index() < self.states.len(), "final out of range");
        let n = self.states.len();
        // Forward: `reached` lists the states reachable from `start`.
        let mut forward = vec![false; n];
        let mut reached = vec![start];
        forward[start.index()] = true;
        let mut i = 0;
        while i < reached.len() {
            let q = reached[i];
            i += 1;
            for t in self.successors(q) {
                if !forward[t.index()] {
                    forward[t.index()] = true;
                    reached.push(t);
                }
            }
        }
        if !forward[final_.index()] {
            // Nothing reached can reach `final_`: the trimmed empty language.
            return Nfa::new();
        }
        // Backward over the reached part, through a reverse adjacency in
        // compressed rows: the predecessors of `t` are
        // `preds[first[t]..first[t + 1]]`.
        let mut first = vec![0u32; n + 1];
        for &p in &reached {
            for t in self.successors(p) {
                first[t.index() + 1] += 1;
            }
        }
        for k in 1..=n {
            first[k] += first[k - 1];
        }
        let mut fill = first.clone();
        let mut preds = vec![StateId(0); first[n] as usize];
        for &p in &reached {
            for t in self.successors(p) {
                preds[fill[t.index()] as usize] = p;
                fill[t.index()] += 1;
            }
        }
        let mut live = vec![false; n];
        live[final_.index()] = true;
        let mut work = vec![final_];
        while let Some(q) = work.pop() {
            for &p in &preds[first[q.index()] as usize..first[q.index() + 1] as usize] {
                if !live[p.index()] {
                    live[p.index()] = true;
                    work.push(p);
                }
            }
        }
        // `trim`'s numbering: the start, then the live states in order.
        let mut new_of_old: Vec<Option<StateId>> = vec![None; n];
        let mut old_of_new = vec![start];
        new_of_old[start.index()] = Some(StateId(0));
        for q in self.state_ids() {
            if q != start && live[q.index()] {
                new_of_old[q.index()] = Some(StateId(old_of_new.len() as u32));
                old_of_new.push(q);
            }
        }
        let mut out = Nfa {
            states: vec![State::default(); old_of_new.len()],
            start: StateId(0),
            finals: BTreeSet::from([new_of_old[final_.index()].expect("final is live")]),
        };
        for (new_idx, &old) in old_of_new.iter().enumerate() {
            let st = &self.states[old.index()];
            let out_st = &mut out.states[new_idx];
            for &(c, t) in &st.edges {
                if let (false, Some(nt)) = (c.is_empty(), new_of_old[t.index()]) {
                    out_st.edges.push((c, nt));
                }
            }
            out_st
                .eps
                .extend(st.eps.iter().filter_map(|t| new_of_old[t.index()]));
        }
        out
    }

    /// The targets of `q`'s ε-edges and of its edges with a nonempty class:
    /// the steps [`Nfa::trim`]'s reachability follows.
    fn successors(&self, q: StateId) -> impl Iterator<Item = StateId> + '_ {
        let st = &self.states[q.index()];
        let live_edges = st.edges.iter().filter(|(c, _)| !c.is_empty());
        live_edges.map(|&(_, t)| t).chain(st.eps.iter().copied())
    }

    /// Whether `to` is reachable from `from` along ε-edges and edges with a
    /// nonempty class: exactly when `induce_segment(from, to)` is a
    /// nonempty language, without building it.
    pub fn reaches(&self, from: StateId, to: StateId) -> bool {
        let mut seen = vec![false; self.states.len()];
        seen[from.index()] = true;
        let mut work = vec![from];
        while let Some(q) = work.pop() {
            if q == to {
                return true;
            }
            for t in self.successors(q) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    work.push(t);
                }
            }
        }
        false
    }

    /// Whether the machine is structurally one word: an ε-free chain of
    /// single-byte edges from the start to a final state with no way out,
    /// and no final state before it. [`Nfa::literal`] builds exactly this
    /// shape. The test is conservative: `true` means the language is that
    /// one word, but a one-word language spelled with ε-edges, a branch or
    /// a byte class answers `false`. It reads one state per byte.
    pub fn is_single_word(&self) -> bool {
        let mut q = self.start;
        // A chain visits each state once; a longer walk has met a cycle.
        for _ in 0..self.states.len() {
            let st = &self.states[q.index()];
            if !st.eps.is_empty() {
                return false;
            }
            if self.finals.contains(&q) {
                return st.edges.is_empty();
            }
            match st.edges.as_slice() {
                [(class, next)] if class.len() == 1 => q = *next,
                _ => return false,
            }
        }
        false
    }

    /// Whether the machine is in *normalized* shape: exactly one final state,
    /// no out-edges from the final state, no in-edges to the start state, and
    /// start ≠ final.
    pub fn is_normalized(&self) -> bool {
        if self.finals.len() != 1 {
            return false;
        }
        let f = *self.finals.iter().next().expect("one final");
        if f == self.start {
            return false;
        }
        let fst = &self.states[f.index()];
        if !fst.edges.is_empty() || !fst.eps.is_empty() {
            return false;
        }
        for st in &self.states {
            if st.eps.contains(&self.start) {
                return false;
            }
            if st.edges.iter().any(|&(_, t)| t == self.start) {
                return false;
            }
        }
        true
    }

    /// Produces an equivalent machine in normalized shape (single start with
    /// no in-edges, single final with no out-edges).
    ///
    /// The paper's constructions (Figure 3 onward) assume this shape "without
    /// loss of generality"; this function is the generality.
    pub fn normalize(&self) -> Nfa {
        self.clone().into_normalized()
    }

    /// [`Nfa::normalize`], consuming the machine instead of copying it.
    pub fn into_normalized(mut self) -> Nfa {
        if self.is_normalized() {
            return self;
        }
        let new_start = self.add_state();
        let new_final = self.add_state();
        let old_start = self.start;
        self.states[new_start.index()].eps.push(old_start);
        for &f in &self.finals {
            self.states[f.index()].eps.push(new_final);
        }
        self.start = new_start;
        self.finals.clear();
        self.finals.insert(new_final);
        self
    }

    /// [`Nfa::normalize`], borrowing a machine that is normalized already
    /// instead of copying it.
    pub fn normalized(&self) -> Cow<'_, Nfa> {
        if self.is_normalized() {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.normalize())
        }
    }

    /// Appends a copy of `other`'s states after this machine's, each
    /// edge's target moved by the same offset, which is returned. The
    /// start and finals stay this machine's.
    pub fn append(&mut self, other: &Nfa) -> u32 {
        let offset = self.states.len() as u32;
        let moved = |t: StateId| StateId(t.0 + offset);
        self.states.extend(other.states.iter().map(|st| State {
            edges: st.edges.iter().map(|&(c, t)| (c, moved(t))).collect(),
            eps: st.eps.iter().map(|&t| moved(t)).collect(),
        }));
        offset
    }

    /// The single final state of a normalized machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not have exactly one final state.
    pub fn single_final(&self) -> StateId {
        assert_eq!(
            self.finals.len(),
            1,
            "machine must have exactly one final state"
        );
        *self.finals.iter().next().expect("one final")
    }

    /// The machine recognizing the reversed language.
    pub fn reverse(&self) -> Nfa {
        let mut out = Nfa {
            states: vec![State::default(); self.states.len() + 1],
            start: StateId(self.states.len() as u32),
            finals: BTreeSet::from([self.start]),
        };
        for (i, st) in self.states.iter().enumerate() {
            for &(c, t) in &st.edges {
                out.states[t.index()].edges.push((c, StateId(i as u32)));
            }
            for &t in &st.eps {
                out.states[t.index()].eps.push(StateId(i as u32));
            }
        }
        let start_idx = out.start.index();
        for &f in &self.finals {
            out.states[start_idx].eps.push(f);
        }
        out
    }
}

impl Default for Nfa {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Nfa {
    /// A compact structural summary, e.g. `NFA(5 states, 6 edges, start=q0,
    /// finals={q4})`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NFA({} states, {} edges, start={}, finals={{",
            self.num_states(),
            self.num_transitions(),
            self.start
        )?;
        for (i, q) in self.finals.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{q}")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_language_machine() {
        let m = Nfa::empty_language();
        assert!(m.is_empty_language());
        assert!(!m.contains(b""));
        assert!(!m.contains(b"a"));
        assert_eq!(m.shortest_member(), None);
    }

    #[test]
    fn epsilon_machine() {
        let m = Nfa::epsilon();
        assert!(m.contains(b""));
        assert!(!m.contains(b"a"));
        assert!(m.accepts_epsilon());
        assert_eq!(m.shortest_member(), Some(Vec::new()));
    }

    #[test]
    fn literal_machine() {
        let m = Nfa::literal(b"abc");
        assert!(m.contains(b"abc"));
        assert!(!m.contains(b"ab"));
        assert!(!m.contains(b"abcd"));
        assert_eq!(m.shortest_member(), Some(b"abc".to_vec()));
        assert_eq!(m.shortest_member_len(), Some(3));
    }

    #[test]
    fn class_machine() {
        let m = Nfa::class(ByteClass::range(b'0', b'9'));
        assert!(m.contains(b"5"));
        assert!(!m.contains(b"a"));
        assert!(!m.contains(b""));
        assert!(!m.contains(b"55"));
        assert!(Nfa::class(ByteClass::EMPTY).is_empty_language());
    }

    #[test]
    fn sigma_star_machine() {
        let m = Nfa::sigma_star();
        assert!(m.contains(b""));
        assert!(m.contains(b"anything at all \x00\xff"));
        assert!(m.is_normalized());
    }

    #[test]
    fn exact_length_machine() {
        let m = Nfa::exact_length(3);
        assert!(m.contains(b"abc"));
        assert!(!m.contains(b"ab"));
        assert!(!m.contains(b"abcd"));
        assert!(Nfa::exact_length(0).contains(b""));
    }

    #[test]
    fn from_words_is_a_trie() {
        let m = Nfa::from_words([&b"cat"[..], b"car", b"cart", b"dog", b""]);
        for w in [&b"cat"[..], b"car", b"cart", b"dog", b""] {
            assert!(m.contains(w), "{w:?}");
        }
        for w in [&b"ca"[..], b"do", b"carts", b"x"] {
            assert!(!m.contains(w), "{w:?}");
        }
        // Shared prefixes share states: 8 edges for the five words.
        assert_eq!(m.num_transitions(), 8);
        assert!(Nfa::from_words(std::iter::empty()).is_empty_language());
    }

    #[test]
    fn class_repeat_machine() {
        let digits = ByteClass::range(b'0', b'9');
        let m = Nfa::class_repeat(digits, 1, 3);
        assert!(!m.contains(b""));
        assert!(m.contains(b"7"));
        assert!(m.contains(b"123"));
        assert!(!m.contains(b"1234"));
        assert!(!m.contains(b"ab"));
        assert_eq!(m.num_states(), 4);
        assert_eq!(m.num_transitions(), 3);
        // Edge cases.
        assert!(Nfa::class_repeat(digits, 0, 0).contains(b""));
        assert!(Nfa::class_repeat(ByteClass::EMPTY, 0, 5).contains(b""));
        assert!(Nfa::class_repeat(ByteClass::EMPTY, 1, 5).is_empty_language());
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn class_repeat_validates_bounds() {
        Nfa::class_repeat(ByteClass::FULL, 3, 1);
    }

    #[test]
    fn length_between_machine() {
        let m = Nfa::length_between(1, 3);
        assert!(!m.contains(b""));
        assert!(m.contains(b"a"));
        assert!(m.contains(b"abc"));
        assert!(!m.contains(b"abcd"));
        let exact = Nfa::length_between(2, 2);
        assert!(exact.contains(b"xy") && !exact.contains(b"x"));
    }

    #[test]
    fn eps_closure_transitive() {
        let mut m = Nfa::new();
        let a = m.add_state();
        let b = m.add_state();
        m.add_eps(m.start(), a);
        m.add_eps(a, b);
        let cl = m.eps_closure(&BTreeSet::from([m.start()]));
        assert_eq!(cl.len(), 3);
        assert!(cl.contains(&b));
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut m = Nfa::literal(b"ab");
        // Unreachable state and a reachable dead-end.
        let dead = m.add_state();
        m.add_edge(m.start(), ByteClass::singleton(b'z'), dead);
        let unreachable = m.add_state();
        m.add_edge(unreachable, ByteClass::FULL, unreachable);
        let (t, map) = m.trim();
        assert_eq!(t.num_states(), 3);
        assert!(t.contains(b"ab"));
        assert!(!t.contains(b"z"));
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn trim_empty_language_keeps_start() {
        let m = Nfa::empty_language();
        let (t, _) = m.trim();
        assert_eq!(t.num_states(), 1);
        assert!(t.is_empty_language());
    }

    #[test]
    fn trim_preserves_language_with_loops() {
        // (ab)* built by hand with an extra dead branch.
        let mut m = Nfa::new();
        let a = m.add_state();
        m.add_edge(m.start(), ByteClass::singleton(b'a'), a);
        m.add_edge(a, ByteClass::singleton(b'b'), m.start());
        m.add_final(m.start());
        let dead = m.add_state();
        m.add_edge(a, ByteClass::singleton(b'x'), dead);
        let (t, _) = m.trim();
        for w in [&b""[..], b"ab", b"abab"] {
            assert!(t.contains(w));
        }
        assert!(!t.contains(b"ax"));
        assert_eq!(t.num_states(), 2);
    }

    #[test]
    fn normalize_establishes_shape() {
        let mut m = Nfa::literal(b"a");
        // Loop back into the start state breaks normalized shape.
        let f = *m.finals().iter().next().expect("final");
        m.add_eps(f, m.start());
        assert!(!m.is_normalized());
        let n = m.normalize();
        assert!(n.is_normalized());
        assert!(n.contains(b"a"));
        assert!(n.contains(b"aa"));
        assert!(!n.contains(b""));
        // Normalizing a normalized machine is a no-op clone.
        assert_eq!(n.normalize().num_states(), n.num_states());
    }

    #[test]
    fn induce_from_final_and_start() {
        // Machine for "ab" — inducing at the middle state splits the word.
        let m = Nfa::literal(b"ab");
        let mid = StateId(1);
        let left = m.induce_from_final(mid);
        assert!(left.contains(b"a"));
        assert!(!left.contains(b"ab"));
        let right = m.induce_from_start(mid);
        assert!(right.contains(b"b"));
        assert!(!right.contains(b"ab"));
    }

    #[test]
    fn induce_segment_extracts_middle() {
        let m = Nfa::literal(b"abcd");
        let seg = m.induce_segment(StateId(1), StateId(3));
        assert!(seg.contains(b"bc"));
        assert!(!seg.contains(b"abc"));
        assert!(!seg.contains(b"b"));
    }

    #[test]
    fn reverse_language() {
        let m = Nfa::literal(b"abc");
        let r = m.reverse();
        assert!(r.contains(b"cba"));
        assert!(!r.contains(b"abc"));
        // Reversal is an involution on the language.
        let rr = r.reverse();
        assert!(rr.contains(b"abc"));
        assert!(!rr.contains(b"cba"));
    }

    #[test]
    fn enumerate_upto_small() {
        let m = Nfa::literal(b"ab");
        let words = m.enumerate_upto(b"ab", 3);
        assert_eq!(words, BTreeSet::from([b"ab".to_vec()]));
        let s = Nfa::sigma_star().enumerate_upto(b"a", 2);
        assert_eq!(s.len(), 3); // "", "a", "aa"
    }

    #[test]
    fn shortest_member_prefers_printable() {
        let mut m = Nfa::new();
        let f = m.add_state();
        m.add_edge(m.start(), ByteClass::from_bytes([0x00, b'q']), f);
        m.add_final(f);
        assert_eq!(m.shortest_member(), Some(vec![b'q']));
    }

    #[test]
    fn display_summary() {
        let m = Nfa::literal(b"a");
        let s = m.to_string();
        assert!(s.contains("2 states"), "got {s}");
        assert!(s.contains("start=q0"), "got {s}");
    }

    #[test]
    fn every_literal_is_a_single_word() {
        for word in [&b""[..], b"a", b"nid_", b"SELECT * FROM news WHERE nid='"] {
            assert!(Nfa::literal(word).is_single_word(), "{word:?}");
        }
        assert!(Nfa::class(ByteClass::singleton(b'x')).is_single_word());
    }

    #[test]
    fn single_word_test_rejects_every_other_shape() {
        use crate::ops;
        let (a, b) = (Nfa::literal(b"a"), Nfa::literal(b"b"));
        let mut two_byte_class = Nfa::literal(b"ab");
        two_byte_class.add_edge(StateId(0), ByteClass::singleton(b'c'), StateId(1));
        let mut class_chain = Nfa::new();
        let f = class_chain.add_state();
        class_chain.add_edge(class_chain.start(), ByteClass::from_bytes(*b"ab"), f);
        class_chain.add_final(f);
        let mut interior_final = Nfa::literal(b"ab");
        interior_final.add_final(StateId(1));
        let mut way_out = Nfa::literal(b"ab");
        way_out.add_edge(StateId(2), ByteClass::singleton(b'c'), StateId(0));
        let mut cycle = Nfa::literal(b"a");
        cycle.add_edge(StateId(1), ByteClass::singleton(b'a'), StateId(0));
        cycle.clear_finals();
        let shapes = [
            ("a|b", ops::union(&a, &b)),
            ("a*", ops::star(&a)),
            ("ε-chain a·b", ops::concat(&a, &b).nfa),
            ("two edges out of one state", two_byte_class),
            ("a two-byte class", class_chain),
            ("a final state inside the chain", interior_final),
            ("an edge out of the final state", way_out),
            ("a cycle with no final state", cycle),
            ("∅", Nfa::empty_language()),
        ];
        for (what, m) in shapes {
            assert!(!m.is_single_word(), "{what}");
        }
    }

    /// A literal over `{a, b}` with up to three random edits: an edge (of
    /// one or two bytes) or an ε-edge between random states, a new final
    /// state, or a fresh state.
    fn edited_literal(seed: u64) -> Nfa {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..5);
        let word: Vec<u8> = (0..len).map(|_| b"ab"[rng.gen_range(0..2)]).collect();
        let mut m = Nfa::literal(&word);
        for _ in 0..rng.gen_range(0..4) {
            let n = m.num_states() as u32;
            let (from, to) = (StateId(rng.gen_range(0..n)), StateId(rng.gen_range(0..n)));
            match rng.gen_range(0..5) {
                0 => m.add_edge(from, ByteClass::singleton(b"ab"[rng.gen_range(0..2)]), to),
                1 => m.add_edge(from, ByteClass::from_bytes(*b"ab"), to),
                2 => m.add_eps(from, to),
                3 => m.add_final(from),
                _ => {
                    m.add_state();
                }
            }
        }
        m
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn single_word_test_accepts_only_one_word_languages(seed in proptest::any::<u64>()) {
            use crate::analysis::{language_size, LanguageSize};
            let m = edited_literal(seed);
            if m.is_single_word() {
                proptest::prop_assert_eq!(language_size(&m), LanguageSize::Finite(1));
            }
        }
    }

    #[test]
    fn single_word_test_accepts_only_one_word_small_machines() {
        use crate::analysis::{language_size, LanguageSize};
        let machines = crate::generate::two_state_unary_machines();
        let accepted = machines.iter().filter(|m| m.is_single_word()).count();
        assert!(accepted > 0, "some two-state machine spells one word");
        for (i, m) in machines.iter().enumerate() {
            if m.is_single_word() {
                assert_eq!(language_size(m), LanguageSize::Finite(1), "machine #{i}");
            }
        }
    }
}

/// The clone-then-trim segment extraction that [`Nfa::induce_segment`]
/// replaced, kept verbatim as the reference it must match exactly.
#[cfg(test)]
pub(crate) mod reference {
    use super::{Nfa, StateId};

    pub(crate) fn induce_segment(nfa: &Nfa, start: StateId, final_: StateId) -> Nfa {
        let mut m = nfa.clone();
        m.set_start(start);
        m.set_single_final(final_);
        m.trim().0
    }
}
