//! Language-level analyses: cardinality, finiteness, enumeration, set
//! differences, and closures.
//!
//! The decision procedure's clients ask questions beyond membership: *how
//! many* exploits exist, *list me several* (the paper's test-case
//! generation use case wants indicative inputs), or *what changed* between
//! two solution languages. These run on the determinized machine so no
//! word is double-counted.

use crate::byteclass::ByteClass;
use crate::dfa::{complement, determinize, Dfa};
use crate::nfa::{Nfa, StateId};
use crate::ops;

/// The cardinality of a regular language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LanguageSize {
    /// No members.
    Empty,
    /// Exactly this many members (saturating at `u128::MAX`).
    Finite(u128),
    /// Infinitely many members.
    Infinite,
}

impl LanguageSize {
    /// Whether the language has at least one member.
    pub fn is_nonempty(&self) -> bool {
        !matches!(self, LanguageSize::Empty)
    }
}

/// Computes the cardinality of `L(nfa)`.
///
/// A trimmed DFA recognizes an infinite language iff it contains any cycle
/// (every remaining state is live); otherwise the count is a sum over DAG
/// paths weighted by transition-class widths.
pub fn language_size(nfa: &Nfa) -> LanguageSize {
    let (dfa, live) = trimmed_dfa(nfa);
    if live.is_empty() {
        return LanguageSize::Empty;
    }
    // Cycle detection on live states.
    if has_cycle(&dfa, &live) {
        return LanguageSize::Infinite;
    }
    // DAG: count paths from start to finals with multiplicities.
    // paths(q) = [q final] + Σ_edges |class| · paths(target)
    let mut memo: Vec<Option<u128>> = vec![None; dfa.num_states()];
    fn paths(dfa: &Dfa, q: StateId, live: &[bool], memo: &mut Vec<Option<u128>>) -> u128 {
        if let Some(v) = memo[q.index()] {
            return v;
        }
        let mut total: u128 = u128::from(dfa.is_final(q));
        for &(class, t) in dfa.transitions(q) {
            if !live[t.index()] {
                continue;
            }
            let sub = paths(dfa, t, live, memo);
            total = total.saturating_add(sub.saturating_mul(class.len() as u128));
        }
        memo[q.index()] = Some(total);
        total
    }
    let n = paths(&dfa, dfa.start(), &live, &mut memo);
    if n == 0 {
        LanguageSize::Empty
    } else {
        LanguageSize::Finite(n)
    }
}

/// Whether the language is finite (including empty).
pub fn is_finite(nfa: &Nfa) -> bool {
    !matches!(language_size(nfa), LanguageSize::Infinite)
}

/// The number of members of length exactly `n` (saturating).
pub fn count_words_of_length(nfa: &Nfa, n: usize) -> u128 {
    let (dfa, live) = trimmed_dfa(nfa);
    if live.is_empty() {
        return 0;
    }
    // counts[q] = number of live paths of remaining length reaching a final.
    let mut counts: Vec<u128> = (0..dfa.num_states())
        .map(|q| u128::from(dfa.is_final(StateId(q as u32)) && live[q]))
        .collect();
    for _ in 0..n {
        let mut next = vec![0u128; dfa.num_states()];
        for q in 0..dfa.num_states() {
            if !live[q] {
                continue;
            }
            for &(class, t) in dfa.transitions(StateId(q as u32)) {
                if !live[t.index()] {
                    continue;
                }
                next[q] =
                    next[q].saturating_add(counts[t.index()].saturating_mul(class.len() as u128));
            }
        }
        counts = next;
    }
    if live[dfa.start().index()] {
        counts[dfa.start().index()]
    } else {
        0
    }
}

/// Lazily enumerates members in length-lexicographic order.
///
/// The iterator is unbounded for infinite languages; take what you need:
///
/// ```
/// use dprle_automata::{analysis::members, ops, Nfa};
///
/// let m = ops::star(&Nfa::literal(b"ab"));
/// let first: Vec<Vec<u8>> = members(&m).take(3).collect();
/// assert_eq!(first, vec![b"".to_vec(), b"ab".to_vec(), b"abab".to_vec()]);
/// ```
///
/// Each length is enumerated by a depth-first walk in byte order that
/// enters only states from which a final state is reachable in exactly the
/// remaining number of steps, so every step leads to a member. Pending
/// work is one frame per letter of the current word plus one reachability
/// row per length — O(length × states) — where a breadth-first frontier
/// would hold every live word of the length below.
pub fn members(nfa: &Nfa) -> Members {
    let (dfa, live) = trimmed_dfa(nfa);
    // A finite language's live states form an acyclic graph, so each
    // member visits distinct live states and is shorter than their count.
    let max_len = (!has_cycle(&dfa, &live)).then(|| live.iter().filter(|&&l| l).count());
    let finals: Vec<bool> = (0..dfa.num_states())
        .map(|q| dfa.is_final(StateId(q as u32)))
        .collect();
    let stack = if finals[dfa.start().index()] {
        vec![(dfa.start(), 0)]
    } else {
        Vec::new()
    };
    Members {
        dfa,
        reach: vec![finals],
        max_len,
        len: 0,
        stack,
        word: Vec::new(),
    }
}

/// Iterator returned by [`members`].
#[derive(Debug)]
pub struct Members {
    dfa: Dfa,
    /// `reach[k][q]`: a final state is reachable from `q` in exactly `k`
    /// steps. Rows are computed as lengths are reached.
    reach: Vec<Vec<bool>>,
    /// For a finite language, a bound every member is shorter than;
    /// `None` for an infinite one.
    max_len: Option<usize>,
    /// The length being enumerated.
    len: usize,
    /// The walk over words of length `len`: each frame is a state and the
    /// least byte not yet tried from it. `word` spells the path to the top
    /// frame, so it is one letter shorter than the stack.
    stack: Vec<(StateId, u16)>,
    word: Vec<u8>,
}

impl Members {
    /// Computes the reachability rows up to `reach[k]`.
    fn extend_reach(&mut self, k: usize) {
        while self.reach.len() <= k {
            let prev = &self.reach[self.reach.len() - 1];
            let row = (0..self.dfa.num_states())
                .map(|q| {
                    self.dfa
                        .transitions(StateId(q as u32))
                        .iter()
                        .any(|(class, t)| !class.is_empty() && prev[t.index()])
                })
                .collect();
            self.reach.push(row);
        }
    }
}

impl Iterator for Members {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Vec<u8>> {
        loop {
            let Some(&(q, from)) = self.stack.last() else {
                // Start the next length, or end a finite language.
                self.len += 1;
                if self.max_len.is_some_and(|max| self.len >= max) {
                    return None;
                }
                self.extend_reach(self.len);
                if self.reach[self.len][self.dfa.start().index()] {
                    self.stack.push((self.dfa.start(), 0));
                }
                continue;
            };
            let remaining = self.len - self.word.len();
            if remaining == 0 {
                // Only states that can finish in the remaining steps are
                // entered, so this one is final.
                let word = self.word.clone();
                self.stack.pop();
                self.word.pop();
                return Some(word);
            }
            // The least untried byte whose target can still finish in time
            // (DFA classes are disjoint, so each byte has one target).
            let row = &self.reach[remaining - 1];
            let step = u8::try_from(from).ok().and_then(|from| {
                let untried = ByteClass::range(from, u8::MAX);
                self.dfa
                    .transitions(q)
                    .iter()
                    .filter(|(_, t)| row[t.index()])
                    .filter_map(|(class, t)| Some((class.intersect(&untried).min_byte()?, *t)))
                    .min_by_key(|&(b, _)| b)
            });
            match step {
                Some((b, t)) => {
                    self.stack.last_mut().expect("top frame").1 = u16::from(b) + 1;
                    self.word.push(b);
                    self.stack.push((t, 0));
                }
                None => {
                    self.stack.pop();
                    self.word.pop();
                }
            }
        }
    }
}

/// The machine for `L(a) \ L(b)`.
pub fn difference(a: &Nfa, b: &Nfa) -> Nfa {
    ops::intersect(a, &complement(b)).nfa.trim().0
}

/// The machine for the symmetric difference `(A \ B) ∪ (B \ A)` — empty iff
/// the languages are equal, and its members are concrete disagreement
/// witnesses.
pub fn symmetric_difference(a: &Nfa, b: &Nfa) -> Nfa {
    ops::union(&difference(a, b), &difference(b, a))
}

/// The prefix closure: every prefix of every member.
///
/// Construction: mark every co-reachable state final.
pub fn prefix_closure(nfa: &Nfa) -> Nfa {
    let (trimmed, _) = nfa.trim();
    let mut out = trimmed.clone();
    for q in trimmed.state_ids() {
        out.add_final(q);
    }
    out.trim().0
}

/// The suffix closure: every suffix of every member.
pub fn suffix_closure(nfa: &Nfa) -> Nfa {
    prefix_closure(&nfa.reverse()).reverse().trim().0
}

/// The factor (infix) closure: every contiguous substring of every member.
pub fn factor_closure(nfa: &Nfa) -> Nfa {
    suffix_closure(&prefix_closure(nfa))
}

fn trimmed_dfa(nfa: &Nfa) -> (Dfa, Vec<bool>) {
    let dfa = determinize(&nfa.trim().0);
    // Live = co-reachable in the DFA (reachability is given by subset
    // construction).
    let as_nfa = dfa.to_nfa();
    let live = as_nfa.co_reachable();
    (dfa, live)
}

fn has_cycle(dfa: &Dfa, live: &[bool]) -> bool {
    // Iterative DFS with colors over live states only.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let n = dfa.num_states();
    let mut color = vec![Color::White; n];
    for root in 0..n {
        if !live[root] || color[root] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        color[root] = Color::Grey;
        while let Some(&mut (q, ref mut edge)) = stack.last_mut() {
            let row = dfa.transitions(StateId(q as u32));
            // Advance to the next live successor.
            let mut next = None;
            while *edge < row.len() {
                let (_, t) = row[*edge];
                *edge += 1;
                if live[t.index()] {
                    next = Some(t.index());
                    break;
                }
            }
            match next {
                Some(t) => match color[t] {
                    Color::Grey => return true,
                    Color::White => {
                        color[t] = Color::Grey;
                        stack.push((t, 0));
                    }
                    Color::Black => {}
                },
                None => {
                    color[q] = Color::Black;
                    stack.pop();
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfa::equivalent;

    #[test]
    fn size_of_basic_languages() {
        assert_eq!(language_size(&Nfa::empty_language()), LanguageSize::Empty);
        assert_eq!(language_size(&Nfa::epsilon()), LanguageSize::Finite(1));
        assert_eq!(
            language_size(&Nfa::literal(b"abc")),
            LanguageSize::Finite(1)
        );
        assert_eq!(language_size(&Nfa::sigma_star()), LanguageSize::Infinite);
        let union = ops::union(&Nfa::literal(b"a"), &Nfa::literal(b"bb"));
        assert_eq!(language_size(&union), LanguageSize::Finite(2));
    }

    #[test]
    fn size_counts_class_widths() {
        // [0-9]{2} has exactly 100 members.
        let two_digits = Nfa::class_repeat(ByteClass::range(b'0', b'9'), 2, 2);
        assert_eq!(language_size(&two_digits), LanguageSize::Finite(100));
        // [0-9]{0,2}: 1 + 10 + 100.
        let upto = Nfa::class_repeat(ByteClass::range(b'0', b'9'), 0, 2);
        assert_eq!(language_size(&upto), LanguageSize::Finite(111));
    }

    #[test]
    fn finiteness_judgments() {
        assert!(is_finite(&Nfa::literal(b"x")));
        assert!(is_finite(&Nfa::empty_language()));
        assert!(!is_finite(&ops::star(&Nfa::literal(b"x"))));
        // A machine with a cycle on a dead path is still finite.
        let mut m = Nfa::literal(b"ok");
        let dead = m.add_state();
        m.add_edge(dead, ByteClass::FULL, dead);
        m.add_edge(m.start(), ByteClass::singleton(b'z'), dead);
        assert!(is_finite(&m));
    }

    #[test]
    fn count_by_length() {
        let m = ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b'])));
        assert_eq!(count_words_of_length(&m, 0), 1);
        assert_eq!(count_words_of_length(&m, 3), 8);
        assert_eq!(count_words_of_length(&Nfa::literal(b"hi"), 2), 1);
        assert_eq!(count_words_of_length(&Nfa::literal(b"hi"), 3), 0);
        assert_eq!(count_words_of_length(&Nfa::empty_language(), 0), 0);
    }

    #[test]
    fn members_in_length_lex_order() {
        let m = ops::union(
            &ops::union(&Nfa::literal(b"b"), &Nfa::literal(b"a")),
            &Nfa::literal(b"ab"),
        );
        let all: Vec<Vec<u8>> = members(&m).collect();
        assert_eq!(all, vec![b"a".to_vec(), b"b".to_vec(), b"ab".to_vec()]);
    }

    #[test]
    fn members_of_empty_language() {
        assert_eq!(members(&Nfa::empty_language()).count(), 0);
    }

    #[test]
    fn members_agree_with_enumerate_upto() {
        let m = ops::concat(&ops::star(&Nfa::literal(b"ab")), &Nfa::literal(b"a")).nfa;
        let from_iter: Vec<Vec<u8>> = members(&m).take_while(|w| w.len() <= 5).collect();
        let reference = m.enumerate_upto(b"ab", 5);
        assert_eq!(from_iter.len(), reference.len());
        for w in &from_iter {
            assert!(reference.contains(w));
        }
    }

    #[test]
    fn members_match_brute_force_shortlex_order() {
        let abc = |w: &[u8]| Nfa::literal(w);
        let ab_star = ops::star(&Nfa::class(ByteClass::from_bytes([b'a', b'b'])));
        let machines = [
            ab_star.clone(),
            ops::concat(&ab_star, &abc(b"c")).nfa,
            ops::union(&ops::star(&abc(b"aa")), &abc(b"bcb")),
            ops::concat(&ops::star(&abc(b"ba")), &ops::star(&abc(b"c"))).nfa,
            ops::union(&abc(b"cab"), &ops::union(&abc(b""), &abc(b"ca"))),
            Nfa::empty_language(),
        ];
        for (i, m) in machines.iter().enumerate() {
            // Every word over {a, b, c} up to length 5, in shortlex order.
            let mut words: Vec<Vec<u8>> = vec![Vec::new()];
            let mut frontier = vec![Vec::new()];
            for _ in 0..5 {
                frontier = frontier
                    .iter()
                    .flat_map(|w: &Vec<u8>| {
                        [b'a', b'b', b'c'].map(|b| {
                            let mut next = w.clone();
                            next.push(b);
                            next
                        })
                    })
                    .collect();
                words.extend(frontier.iter().cloned());
            }
            let expected: Vec<Vec<u8>> = words.into_iter().filter(|w| m.contains(w)).collect();
            let got: Vec<Vec<u8>> = members(m).take_while(|w| w.len() <= 5).collect();
            assert_eq!(got, expected, "machine {i}");
        }
    }

    #[test]
    fn finite_languages_end() {
        assert_eq!(members(&Nfa::literal(b"abc")).count(), 1);
        let m = Nfa::class_repeat(ByteClass::range(b'0', b'9'), 0, 2);
        assert_eq!(members(&m).count(), 111);
        assert_eq!(
            members(&Nfa::epsilon()).collect::<Vec<_>>(),
            vec![Vec::new()]
        );
    }

    #[test]
    fn members_past_a_wide_prefix_need_no_frontier() {
        // Σ^6·x: a breadth-first enumeration holds 256^6 words before it
        // reaches length 7.
        let m = ops::concat(
            &Nfa::class_repeat(ByteClass::FULL, 6, 6),
            &Nfa::literal(b"x"),
        )
        .nfa;
        let first: Vec<Vec<u8>> = members(&m).take(2).collect();
        assert_eq!(
            first,
            vec![b"\0\0\0\0\0\0x".to_vec(), b"\0\0\0\0\0\x01x".to_vec()]
        );
    }

    #[test]
    fn difference_and_symmetric_difference() {
        let astar = ops::star(&Nfa::literal(b"a"));
        let aa = Nfa::literal(b"aa");
        let diff = difference(&astar, &aa);
        assert!(diff.contains(b""));
        assert!(diff.contains(b"a"));
        assert!(!diff.contains(b"aa"));
        assert!(diff.contains(b"aaa"));
        let sym = symmetric_difference(&astar, &astar);
        assert!(sym.is_empty_language());
        let sym2 = symmetric_difference(&astar, &aa);
        assert!(equivalent(&sym2, &diff));
    }

    #[test]
    fn closures() {
        let m = Nfa::literal(b"abc");
        let pre = prefix_closure(&m);
        for w in [&b""[..], b"a", b"ab", b"abc"] {
            assert!(pre.contains(w), "prefix {w:?}");
        }
        assert!(!pre.contains(b"b"));
        let suf = suffix_closure(&m);
        for w in [&b""[..], b"c", b"bc", b"abc"] {
            assert!(suf.contains(w), "suffix {w:?}");
        }
        assert!(!suf.contains(b"ab"));
        let fac = factor_closure(&m);
        for w in [&b""[..], b"b", b"ab", b"bc", b"abc"] {
            assert!(fac.contains(w), "factor {w:?}");
        }
        assert!(!fac.contains(b"ac"));
    }

    #[test]
    fn closure_of_infinite_language() {
        let m = ops::concat(&Nfa::literal(b"x"), &ops::star(&Nfa::literal(b"y"))).nfa;
        let pre = prefix_closure(&m);
        assert!(pre.contains(b""));
        assert!(pre.contains(b"x"));
        assert!(pre.contains(b"xyy"));
        assert!(!pre.contains(b"y"));
    }
}
