//! NFA → regular expression conversion by state elimination.
//!
//! The decision procedure's answers are NFAs; presenting them to humans
//! (as the paper does — its solutions are written `L(xyy|xyyyy)`, not as
//! state tables) needs the reverse direction of Thompson's construction.
//! This module implements the classic GNFA state-elimination algorithm
//! with light algebraic simplification, plus a size cap so pathological
//! machines degrade gracefully instead of producing megabyte regexes.

use crate::ast::Ast;
use dprle_automata::{ByteClass, Lang, Nfa, StateId};
use std::collections::HashMap;

/// Converts a machine into a regular expression for the same language.
///
/// Returns `None` when the language is empty (there is no regex constant
/// for ∅ in the [`Ast`]) or when the intermediate expression exceeds
/// `max_nodes` AST nodes (state elimination can blow up exponentially; the
/// caller should fall back to a structural rendering).
///
/// # Examples
///
/// ```
/// use dprle_automata::{ops, Nfa};
/// use dprle_regex::from_nfa::nfa_to_regex;
///
/// let m = ops::union(&Nfa::literal(b"xyy"), &Nfa::literal(b"xyyyy"));
/// let ast = nfa_to_regex(&m, 1000).expect("nonempty");
/// // The exact text depends on elimination order; the language must match.
/// let back = dprle_regex::compile_exact(&ast).expect("compiles");
/// assert!(dprle_automata::equivalent(&m, &back));
/// ```
pub fn nfa_to_regex(nfa: &Nfa, max_nodes: usize) -> Option<Ast> {
    // Work on the minimal DFA: fewer states, and deterministic structure
    // tends to produce dramatically smaller expressions.
    minimal_to_regex(&dprle_automata::minimize(nfa), max_nodes)
}

/// [`nfa_to_regex`] on the canonical minimal DFA of the language, as
/// [`dprle_automata::minimize`] or a key's
/// [`CanonicalKey::to_nfa`](dprle_automata::CanonicalKey::to_nfa) builds
/// it.
fn minimal_to_regex(min: &Nfa, max_nodes: usize) -> Option<Ast> {
    if min.finals().is_empty() {
        return None;
    }
    // A minimal DFA with more states than `max_nodes` cannot print, so
    // give up before eliminating, whose every step scans all edges. This
    // changes no result: every state of `min` is reachable from its start,
    // and elimination keeps each surviving state reachable from the GNFA's
    // start through surviving states (a path through the eliminated state
    // becomes one edge). So after the first step each of the n − 1
    // surviving interior states, and the accept state (the language is
    // nonempty), has an incoming edge from another node: at least n edges,
    // each labelled with at least one node, where n = `min.num_states()`.
    // The size guard checks after every step, so it would already fail at
    // the first one.
    if min.num_states() > max_nodes {
        return None;
    }
    let mut gnfa = Gnfa::from_nfa(min);
    gnfa.eliminate(max_nodes)
}

/// Renders a machine as a regex string, falling back to a structural
/// summary when conversion is not possible or too large.
///
/// This is the presentation helper used by solution printers: small
/// languages come out as readable patterns (`xyy|xyyyy`), huge ones as
/// `NFA(… states …)` summaries of bounded length (counts, not state lists).
pub fn display_language(nfa: &Nfa, max_nodes: usize) -> String {
    render(nfa, nfa_to_regex(nfa, max_nodes))
}

/// [`display_language`] of a handle's language, printed from its
/// canonical key, which is the minimal DFA [`nfa_to_regex`] would build: a
/// keyed handle (every solution handle is one) decodes it in O(key)
/// instead of determinizing and refining its machine again, and an
/// unkeyed one canonicalizes once and keeps the key. The text is the same
/// as `display_language(lang, max_nodes)`.
pub fn display_lang(lang: &Lang, max_nodes: usize) -> String {
    render(
        lang,
        minimal_to_regex(&lang.fingerprint().to_nfa(), max_nodes),
    )
}

/// The text of a language whose regex is `regex`, or, when there is none,
/// of `nfa` itself.
fn render(nfa: &Nfa, regex: Option<Ast>) -> String {
    match regex {
        Some(ast) => {
            let s = ast.to_string();
            if s.is_empty() {
                "(empty string)".to_owned()
            } else {
                s
            }
        }
        None if nfa.is_empty_language() => "(empty language)".to_owned(),
        None => format!(
            "NFA({} states, {} edges, start={}, {} finals)",
            nfa.num_states(),
            nfa.num_transitions(),
            nfa.start(),
            nfa.finals().len()
        ),
    }
}

/// A generalized NFA: single start and accept, regex-labelled edges.
struct Gnfa {
    /// Edge labels, keyed by (from, to). Missing = no edge (∅).
    edges: HashMap<(usize, usize), Ast>,
    /// States still to eliminate (interior states).
    interior: Vec<usize>,
    start: usize,
    accept: usize,
}

impl Gnfa {
    fn from_nfa(nfa: &Nfa) -> Gnfa {
        let n = nfa.num_states();
        let start = n;
        let accept = n + 1;
        let mut gnfa = Gnfa {
            edges: HashMap::new(),
            interior: (0..n).collect(),
            start,
            accept,
        };
        gnfa.add(start, nfa.start().index(), Ast::Empty);
        for f in nfa.finals() {
            gnfa.add(f.index(), accept, Ast::Empty);
        }
        for q in nfa.state_ids() {
            for &(class, t) in &nfa.state(q).edges {
                if !class.is_empty() {
                    gnfa.add(q.index(), t.index(), Ast::Class(class));
                }
            }
            for &t in &nfa.state(q).eps {
                gnfa.add(q.index(), t.index(), Ast::Empty);
            }
        }
        let _ = StateId(0); // (explicit: indices, not StateIds, from here on)
        gnfa
    }

    /// Adds `label` as an alternative on the (from, to) edge.
    fn add(&mut self, from: usize, to: usize, label: Ast) {
        match self.edges.remove(&(from, to)) {
            None => {
                self.edges.insert((from, to), label);
            }
            Some(existing) => {
                self.edges.insert((from, to), alt2(existing, label));
            }
        }
    }

    /// Eliminates interior states one at a time (cheapest first), patching
    /// every (in, out) pair with `in · self* · out`.
    fn eliminate(&mut self, max_nodes: usize) -> Option<Ast> {
        while !self.interior.is_empty() {
            // Pick the state with the fewest in×out rewrites.
            let (pos, &state) = self
                .interior
                .iter()
                .enumerate()
                .min_by_key(|(_, &s)| {
                    let ins = self
                        .edges
                        .keys()
                        .filter(|(f, t)| *t == s && *f != s)
                        .count();
                    let outs = self
                        .edges
                        .keys()
                        .filter(|(f, t)| *f == s && *t != s)
                        .count();
                    ins * outs
                })
                .expect("interior nonempty");
            self.interior.swap_remove(pos);

            let self_loop = self.edges.remove(&(state, state));
            let ins: Vec<(usize, Ast)> = self
                .edges
                .iter()
                .filter(|((f, t), _)| *t == state && *f != state)
                .map(|((f, _), a)| (*f, a.clone()))
                .collect();
            let outs: Vec<(usize, Ast)> = self
                .edges
                .iter()
                .filter(|((f, t), _)| *f == state && *t != state)
                .map(|((_, t), a)| (*t, a.clone()))
                .collect();
            self.edges.retain(|(f, t), _| *f != state && *t != state);

            let loop_part = self_loop.map(star);
            for (src, in_label) in &ins {
                for (dst, out_label) in &outs {
                    let mut parts = vec![in_label.clone()];
                    if let Some(l) = &loop_part {
                        parts.push(l.clone());
                    }
                    parts.push(out_label.clone());
                    let label = concat_all(parts);
                    self.add(*src, *dst, label);
                }
            }
            // Size guard.
            let total: usize = self.edges.values().map(ast_size).sum();
            if total > max_nodes {
                return None;
            }
        }
        self.edges.remove(&(self.start, self.accept)).map(simplify)
    }
}

// ---------------------------------------------------------------------
// Smart constructors and simplification
// ---------------------------------------------------------------------

fn alt2(a: Ast, b: Ast) -> Ast {
    let mut parts = Vec::new();
    flatten_alt(a, &mut parts);
    flatten_alt(b, &mut parts);
    // Merge single-byte-class alternatives: a|b|[0-9] → [ab0-9].
    let mut class = ByteClass::EMPTY;
    let mut rest: Vec<Ast> = Vec::new();
    let mut saw_class = false;
    for p in parts {
        match p {
            Ast::Class(c) => {
                class = class.union(&c);
                saw_class = true;
            }
            other => {
                if !rest.contains(&other) {
                    rest.push(other);
                }
            }
        }
    }
    let mut out = rest;
    if saw_class && !class.is_empty() {
        out.insert(0, Ast::Class(class));
    }
    match out.len() {
        0 => Ast::Empty,
        1 => out.pop().expect("one part"),
        _ => {
            // ε | e → e? when e doesn't already accept ε.
            if let Some(idx) = out.iter().position(|p| *p == Ast::Empty) {
                out.remove(idx);
                let inner = if out.len() == 1 {
                    out.pop().expect("one part")
                } else {
                    Ast::Alt(out)
                };
                Ast::Optional(Box::new(inner))
            } else {
                Ast::Alt(out)
            }
        }
    }
}

fn flatten_alt(a: Ast, out: &mut Vec<Ast>) {
    match a {
        Ast::Alt(parts) => {
            for p in parts {
                flatten_alt(p, out);
            }
        }
        other => out.push(other),
    }
}

fn concat_all(parts: Vec<Ast>) -> Ast {
    let mut out: Vec<Ast> = Vec::new();
    for p in parts {
        match p {
            Ast::Empty => {}
            Ast::Concat(inner) => out.extend(inner.into_iter().filter(|p| *p != Ast::Empty)),
            other => out.push(other),
        }
    }
    match out.len() {
        0 => Ast::Empty,
        1 => out.pop().expect("one part"),
        _ => Ast::Concat(out),
    }
}

fn star(a: Ast) -> Ast {
    match a {
        Ast::Empty => Ast::Empty,
        Ast::Star(inner) => Ast::Star(inner),
        Ast::Optional(inner) => Ast::Star(inner),
        Ast::Plus(inner) => Ast::Star(inner),
        other => Ast::Star(Box::new(other)),
    }
}

fn ast_size(a: &Ast) -> usize {
    match a {
        Ast::Empty | Ast::Class(_) | Ast::Anchor(_) => 1,
        Ast::Concat(parts) | Ast::Alt(parts) => 1 + parts.iter().map(ast_size).sum::<usize>(),
        Ast::Star(inner) | Ast::Plus(inner) | Ast::Optional(inner) => 1 + ast_size(inner),
        Ast::Repeat { inner, .. } => 1 + ast_size(inner),
    }
}

/// Final cosmetic pass: `e e* → e+` and nested flattening.
fn simplify(a: Ast) -> Ast {
    match a {
        Ast::Concat(parts) => {
            let parts: Vec<Ast> = parts.into_iter().map(simplify).collect();
            let mut out: Vec<Ast> = Vec::new();
            for p in parts {
                match (&mut out.last_mut(), &p) {
                    (Some(last), Ast::Star(inner)) if **last == **inner => {
                        **last = Ast::Plus(inner.clone());
                        continue;
                    }
                    _ => {}
                }
                out.push(p);
            }
            concat_all(out)
        }
        Ast::Alt(parts) => {
            let parts: Vec<Ast> = parts.into_iter().map(simplify).collect();
            parts.into_iter().fold(
                Ast::Empty,
                |acc, p| {
                    if acc == Ast::Empty {
                        p
                    } else {
                        alt2(acc, p)
                    }
                },
            )
        }
        Ast::Star(inner) => star(simplify(*inner)),
        Ast::Plus(inner) => Ast::Plus(Box::new(simplify(*inner))),
        Ast::Optional(inner) => Ast::Optional(Box::new(simplify(*inner))),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_exact;
    use dprle_automata::{equivalent, ops};

    fn roundtrips(m: &Nfa) {
        let ast = nfa_to_regex(m, 100_000).expect("nonempty");
        let back = compile_exact(&ast).expect("compiles");
        assert!(equivalent(m, &back), "language mismatch for {ast}");
    }

    #[test]
    fn literal_roundtrip() {
        roundtrips(&Nfa::literal(b"abc"));
        let ast = nfa_to_regex(&Nfa::literal(b"abc"), 1000).expect("nonempty");
        assert_eq!(ast.to_string(), "abc");
    }

    #[test]
    fn epsilon_and_empty() {
        let eps = nfa_to_regex(&Nfa::epsilon(), 1000).expect("ε is nonempty");
        assert_eq!(eps, Ast::Empty);
        assert_eq!(nfa_to_regex(&Nfa::empty_language(), 1000), None);
    }

    #[test]
    fn union_roundtrip() {
        roundtrips(&ops::union(&Nfa::literal(b"xyy"), &Nfa::literal(b"xyyyy")));
    }

    #[test]
    fn star_roundtrip() {
        roundtrips(&ops::star(&Nfa::literal(b"ab")));
        roundtrips(&ops::plus(&Nfa::literal(b"a")));
    }

    #[test]
    fn class_edges_stay_classes() {
        let m = Nfa::class(ByteClass::range(b'0', b'9'));
        let ast = nfa_to_regex(&m, 1000).expect("nonempty");
        assert_eq!(ast.to_string(), "[0-9]");
    }

    #[test]
    fn complex_machine_roundtrip() {
        // ((a|bb)*c)|d+ exercised through concat/star/union machinery.
        let a = Nfa::literal(b"a");
        let bb = Nfa::literal(b"bb");
        let c = Nfa::literal(b"c");
        let d = Nfa::literal(b"d");
        let m = ops::union(
            &ops::concat(&ops::star(&ops::union(&a, &bb)), &c).nfa,
            &ops::plus(&d),
        );
        roundtrips(&m);
    }

    #[test]
    fn size_cap_degrades_gracefully() {
        // A machine whose regex needs more than 2 nodes.
        let m = ops::union(&Nfa::literal(b"abcdef"), &Nfa::literal(b"ghijkl"));
        assert_eq!(nfa_to_regex(&m, 2), None);
        let shown = display_language(&m, 2);
        assert!(shown.contains("NFA("), "fallback rendering: {shown}");
    }

    /// `[ab]*a[ab]{n}`: its minimal DFA has 2^(n+1) states.
    fn nth_from_last(n: usize) -> Nfa {
        let ast = crate::parse(&format!("[ab]*a[ab]{{{n}}}")).expect("parses");
        compile_exact(&ast).expect("compiles")
    }

    #[test]
    fn machines_past_the_cap_fall_back_before_eliminating() {
        for n in [12, 14] {
            let m = nth_from_last(n);
            let started = std::time::Instant::now();
            let shown = display_language(&m, 400);
            assert!(
                started.elapsed() < std::time::Duration::from_secs(10),
                "n = {n}: {:?}",
                started.elapsed()
            );
            assert!(shown.starts_with("NFA("), "{shown}");
            assert!(shown.len() < 100, "bounded summary: {shown}");
        }
    }

    #[test]
    fn the_early_fallback_changes_no_result_near_the_cap() {
        // The reference: elimination alone, guarded only by its size check.
        let eliminate = |m: &Nfa, cap: usize| {
            let min = dprle_automata::minimize(m);
            Gnfa::from_nfa(&min).eliminate(cap)
        };
        let machines = [
            Nfa::literal(b"abcdefgh"),
            nth_from_last(2),
            ops::star(&ops::union(&Nfa::literal(b"ab"), &Nfa::literal(b"ba"))),
        ];
        for m in &machines {
            let n = dprle_automata::minimize(m).num_states();
            for cap in (n.saturating_sub(2)..=n + 2).chain([400]) {
                assert_eq!(
                    nfa_to_regex(m, cap),
                    eliminate(m, cap),
                    "cap {cap}, {n} states"
                );
            }
            assert!(nfa_to_regex(m, n - 1).is_none(), "just over the cap");
            assert!(nfa_to_regex(m, 400).is_some(), "well under the cap");
        }
    }

    #[test]
    fn a_handle_prints_from_its_key_as_its_machine_prints() {
        use dprle_automata::generate::{random_nfa, RandomNfaConfig};
        let cfg = RandomNfaConfig {
            states: 6,
            alphabet: vec![b'a', b'b', b'c'],
            ..Default::default()
        };
        let mut machines: Vec<Nfa> = (0..60).map(|seed| random_nfa(seed, &cfg)).collect();
        machines.extend([
            Nfa::empty_language(),
            Nfa::epsilon(),
            Nfa::sigma_star(),
            Nfa::literal(b"hi"),
            ops::union(&Nfa::literal(b"abcdef"), &Nfa::literal(b"ghijkl")),
            nth_from_last(3),
            nth_from_last(12),
        ]);
        for m in &machines {
            let keyed = Lang::new(m.clone());
            keyed.fingerprint();
            for cap in [2, 200, 400] {
                let want = display_language(m, cap);
                assert_eq!(display_lang(&Lang::new(m.clone()), cap), want, "{m}");
                assert_eq!(display_lang(&keyed, cap), want, "{m}");
            }
        }
    }

    #[test]
    fn display_language_forms() {
        assert_eq!(
            display_language(&Nfa::empty_language(), 100),
            "(empty language)"
        );
        assert_eq!(display_language(&Nfa::epsilon(), 100), "(empty string)");
        assert_eq!(display_language(&Nfa::literal(b"hi"), 100), "hi");
    }

    #[test]
    fn sigma_star_is_compact() {
        let ast = nfa_to_regex(&Nfa::sigma_star(), 1000).expect("nonempty");
        // One star over the full class.
        assert!(matches!(ast, Ast::Star(_)), "got {ast}");
        assert_eq!(
            ast.to_string(),
            "(.)*".replace('.', &ByteClass::FULL.to_string())
        );
    }

    #[test]
    fn random_machines_roundtrip() {
        use dprle_automata::generate::{random_nonempty_nfa, RandomNfaConfig};
        let cfg = RandomNfaConfig {
            states: 5,
            alphabet: vec![b'a', b'b'],
            ..Default::default()
        };
        for seed in 0..25 {
            let m = random_nonempty_nfa(seed, &cfg);
            roundtrips(&m);
        }
    }
}
