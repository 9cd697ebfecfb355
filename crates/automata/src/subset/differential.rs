//! The kernel against the constructions it replaced, kept verbatim as
//! `#[cfg(test)]` references: `determinize_counted` must return the same
//! `Dfa` (numbering included) and cost as both earlier constructions; the
//! fused table → Hopcroft pass the same key, minimal machine and cost as
//! determinize → `minimize_dfa` → serialize, the key decode to that
//! minimal machine, and `minimize_dfa` the same machine; `try_counterexample` the same verdict, witness, cost and abort
//! as both searches it replaced, and `try_intersection_empty` as its
//! `BTreeSet` pair search; `try_intersect` and
//! `try_intersect_trimmed` the same product as the construction and trim
//! they replaced; and `induce_segment` the same machine.

use crate::byteclass::ByteClass;
use crate::dfa::{self, determinize_counted};
use crate::generate::{random_nonempty_nfa, two_state_unary_machines, RandomNfaConfig};
use crate::inclusion::{self, try_counterexample, InclusionLimits};
use crate::minimize::{self, canonical_key_counted, minimize_counted, minimize_dfa};
use crate::nfa::{self, Nfa, StateId};
use crate::ops;

/// Determinization and canonicalization, against their references; and
/// the complement and the key under a state cap, which complete at
/// exactly the determinization's size and stop one state short of it.
fn assert_determinize_matches(m: &Nfa, what: &str) {
    let determinized = determinize_counted(m);
    let size = determinized.1.dfa_states;
    assert_eq!(
        dfa::try_complement(m, size),
        Some(dfa::complement(m)),
        "{what}: complement capped at its size"
    );
    assert_eq!(dfa::try_complement(m, size - 1), None, "{what}: one short");
    assert_eq!(
        determinized,
        dfa::reference::determinize_counted(m),
        "{what}: determinize"
    );
    assert_eq!(
        determinized,
        dfa::reference::btree_determinize_counted(m),
        "{what}: determinize (BTreeSet)"
    );
    let (key, minimal, cost) = minimize::reference::canonical_minimal_counted(m);
    assert_eq!(key.to_nfa(), minimal.to_nfa(), "{what}: decoded key");
    assert_eq!(canonical_key_counted(m), (key.clone(), cost), "{what}: key");
    assert_eq!(
        minimize::try_canonical_key_counted(m, size),
        Some((key, cost)),
        "{what}: key capped at its size"
    );
    assert_eq!(
        minimize::try_canonical_key_counted(m, size - 1),
        None,
        "{what}: key one short"
    );
    assert_eq!(
        minimize_counted(m),
        (minimal.to_nfa(), cost),
        "{what}: minimize"
    );
    assert_eq!(
        minimize_dfa(&determinized.0),
        minimal,
        "{what}: minimize_dfa"
    );
    assert_eq!(
        minimize_dfa(&determinized.0),
        minimize::reference::minimize_dfa(&determinized.0),
        "{what}: minimize_dfa against its reference"
    );
}

/// The product of `a` and `b`, unlimited, under a cap that trips halfway
/// and at exactly its size, against the reference construction: the same
/// machine and the same `pairs`, in order; and trimmed, the same machine,
/// `old_of_new` and `pairs` as the reference product through
/// [`Nfa::trim`].
fn assert_product_matches(a: &Nfa, b: &Nfa, what: &str) {
    let full = ops::reference::try_intersect(a, b, usize::MAX).expect("unlimited");
    let size = full.pairs.len();
    for cap in [usize::MAX, size, size - 1, size / 2] {
        let product = ops::try_intersect(a, b, cap).map(|p| (p.nfa, p.pairs));
        let expected = ops::reference::try_intersect(a, b, cap).map(|p| (p.nfa, p.pairs));
        assert_eq!(product, expected, "{what}: product capped at {cap}");
        let parts = |p: ops::TrimmedProduct| (p.nfa, p.old_of_new, p.pairs);
        assert_eq!(
            ops::try_intersect_trimmed(a, b, cap).map(parts),
            ops::reference::try_intersect_trimmed(a, b, cap).map(parts),
            "{what}: trimmed product capped at {cap}"
        );
    }
}

/// The search against both references: unlimited, under a cap that trips
/// halfway through the search, and under an expired deadline; and the two
/// machines' product.
fn assert_inclusion_matches(a: &Nfa, b: &Nfa, what: &str) {
    assert_product_matches(a, b, what);
    let unlimited = InclusionLimits::UNLIMITED;
    let expected = inclusion::reference::subsets::try_counterexample(a, b, &unlimited);
    assert_eq!(
        inclusion::reference::btree::try_counterexample(a, b, &unlimited),
        expected,
        "{what}: the references disagree"
    );
    assert_eq!(
        try_counterexample(a, b, &unlimited),
        expected,
        "{what}: counterexample"
    );
    let explored = expected.expect("unlimited").1.macrostates;
    let capped = InclusionLimits {
        max_macrostates: Some(explored / 2),
        deadline: None,
    };
    let expired = InclusionLimits {
        max_macrostates: None,
        deadline: Some(std::time::Instant::now()),
    };
    for (limits, how) in [(capped, "capped halfway"), (expired, "past its deadline")] {
        assert_eq!(
            try_counterexample(a, b, &limits),
            inclusion::reference::subsets::try_counterexample(a, b, &limits),
            "{what}: {how}"
        );
    }
    // Intersection emptiness walks the product's pairs.
    let expected = inclusion::reference::pairs::try_intersection_empty(a, b, &unlimited);
    assert_eq!(
        inclusion::try_intersection_empty(a, b, &unlimited),
        expected,
        "{what}: intersection emptiness"
    );
    let walked = expected.expect("unlimited").1.macrostates;
    let capped = InclusionLimits {
        max_macrostates: Some(walked / 2),
        deadline: None,
    };
    for (limits, how) in [(capped, "capped halfway"), (expired, "past its deadline")] {
        assert_eq!(
            inclusion::try_intersection_empty(a, b, &limits),
            inclusion::reference::pairs::try_intersection_empty(a, b, &limits),
            "{what}: intersection emptiness {how}"
        );
    }
}

fn assert_segment_matches(m: &Nfa, s: StateId, f: StateId, what: &str) {
    let segment = m.induce_segment(s, f);
    assert_eq!(
        segment,
        nfa::reference::induce_segment(m, s, f),
        "{what}: segment {s}..{f}"
    );
    assert_eq!(
        m.reaches(s, f),
        !segment.is_empty_language(),
        "{what}: reaches {s}..{f}"
    );
}

fn assert_all_segments_match(m: &Nfa, what: &str) {
    for s in m.state_ids() {
        for f in m.state_ids() {
            assert_segment_matches(m, s, f, what);
        }
    }
}

fn random_eps_machines() -> Vec<Nfa> {
    let config = RandomNfaConfig {
        states: 7,
        edges_per_state: 1.5,
        eps_per_state: 0.8,
        alphabet: vec![b'a', b'b', b'c'],
        final_probability: 0.25,
    };
    (0..300)
        .map(|seed| random_nonempty_nfa(seed, &config))
        .collect()
}

#[test]
fn kernel_matches_references_on_random_eps_machines() {
    let machines = random_eps_machines();
    assert!(machines.iter().all(|m| m.eps_edges().next().is_some()));
    for (i, m) in machines.iter().enumerate() {
        let what = format!("random #{i}");
        assert_determinize_matches(m, &what);
        assert_all_segments_match(m, &what);
        let next = &machines[(i + 1) % machines.len()];
        assert_inclusion_matches(m, next, &what);
        assert_inclusion_matches(next, m, &what);
    }
}

/// Edges whose class is empty never fire, and `trim` ignores them; the
/// kernel and the direct segment cut must too.
#[test]
fn kernel_matches_references_with_empty_class_edges() {
    let machines: Vec<Nfa> = random_eps_machines()
        .into_iter()
        .take(60)
        .map(|mut m| {
            let n = m.num_states() as u32;
            for q in 0..n {
                m.add_edge(StateId(q), ByteClass::EMPTY, StateId((q * 3 + 1) % n));
            }
            m
        })
        .collect();
    for (i, m) in machines.iter().enumerate() {
        let what = format!("empty-class #{i}");
        assert_determinize_matches(m, &what);
        assert_all_segments_match(m, &what);
        let next = &machines[(i + 1) % machines.len()];
        assert_inclusion_matches(m, next, &what);
    }
}

#[test]
fn kernel_matches_references_on_all_two_state_machines() {
    let machines = two_state_unary_machines();
    for (i, m) in machines.iter().enumerate() {
        let what = format!("two-state #{i}");
        assert_determinize_matches(m, &what);
        assert_all_segments_match(m, &what);
        let other = &machines[(i * 37 + 1) % machines.len()];
        assert_inclusion_matches(m, other, &what);
        assert_inclusion_matches(other, m, &what);
    }
}

/// `n + 1` states joined by ε-edges, with a byte edge beside every third
/// one and, with `loop_back`, an ε-edge from the last state to the start:
/// every closure is long and most overlap.
fn eps_chain(n: usize, loop_back: bool) -> Nfa {
    let mut m = Nfa::new();
    let mut prev = m.start();
    for i in 0..n {
        let next = m.add_state();
        m.add_eps(prev, next);
        if i % 3 == 0 {
            m.add_edge(prev, ByteClass::singleton(b'a' + (i % 5) as u8), next);
        }
        prev = next;
    }
    if loop_back {
        m.add_eps(prev, m.start());
    }
    m.add_final(prev);
    m
}

#[test]
fn kernel_matches_references_on_long_eps_chains() {
    // `a*` concatenated 60 times: every star's loop state reaches the rest
    // of the chain, so the closures overlap without containing each other.
    let star = ops::star(&Nfa::literal(b"a"));
    let stars = (1..60).fold(star.clone(), |m, _| ops::concat(&m, &star).nfa);
    let chains = [
        eps_chain(30, false),
        eps_chain(30, true),
        eps_chain(300, false),
        eps_chain(300, true),
        stars.reverse(),
        stars,
    ];
    for (i, m) in chains.iter().enumerate() {
        let what = format!("chain #{i}");
        assert_determinize_matches(m, &what);
        let last = StateId(m.num_states() as u32 - 1);
        for q in m.state_ids().step_by(7) {
            assert_segment_matches(m, m.start(), q, &what);
            assert_segment_matches(m, q, last, &what);
            assert_segment_matches(m, q, m.start(), &what);
        }
    }
    // The reference's per-macrostate `BTreeSet` closures are quadratic in
    // a chain's length: long chains are paired with short ones only.
    for (i, long) in chains[2..].iter().enumerate() {
        for short in &chains[..2] {
            let what = format!("chain #{} against a short one", i + 2);
            assert_inclusion_matches(long, short, &what);
            assert_inclusion_matches(short, long, &what);
        }
    }
    assert_inclusion_matches(&chains[0], &chains[1], "short chains");
    assert_inclusion_matches(&chains[1], &chains[0], "short chains");
}

/// The verify site's judgment shape, `lit · v ⊆ Σ*'Σ*`: a literal chain
/// whose states have one edge each, then a small minimal DFA.
#[test]
fn kernel_matches_references_on_verify_shaped_queries() {
    let quote = ops::concat(
        &ops::concat(&Nfa::sigma_star(), &Nfa::literal(b"'")).nfa,
        &Nfa::sigma_star(),
    )
    .nfa;
    let config = RandomNfaConfig {
        states: 5,
        alphabet: vec![b'0', b'7', b'\'', b'n'],
        ..Default::default()
    };
    let literals: [&[u8]; 3] = [b"", b"nid_", b"SELECT * FROM news WHERE newsid='nid_"];
    for seed in 0..40u64 {
        let v = minimize_counted(&random_nonempty_nfa(seed, &config)).0;
        for literal in literals {
            let lhs = ops::concat(&Nfa::literal(literal), &v).nfa;
            let what = format!("verify #{seed} after {} bytes", literal.len());
            assert_inclusion_matches(&lhs, &quote, &what);
            assert_inclusion_matches(&quote, &lhs, &what);
        }
    }
}

/// Copies a machine of the corpus's `dprle_automata` build (a separate
/// build of this crate, so a separate type) into this one, state for state.
macro_rules! local_nfa {
    ($m:expr) => {{
        let m = $m;
        let mut out = Nfa::new();
        for _ in 1..m.num_states() {
            out.add_state();
        }
        for q in m.state_ids() {
            for (class, t) in &m.state(q).edges {
                out.add_edge(
                    StateId(q.0),
                    ByteClass::from_bytes(class.iter()),
                    StateId(t.0),
                );
            }
            for t in &m.state(q).eps {
                out.add_eps(StateId(q.0), StateId(t.0));
            }
        }
        out.set_start(StateId(m.start().0));
        for f in m.finals() {
            out.add_final(StateId(f.0));
        }
        out
    }};
}

/// Every distinct constant and every CI-group root machine of the 17
/// Figure 12 rows, `secure` included.
fn fig12_machines() -> (Vec<Nfa>, Vec<Nfa>) {
    use dprle_corpus::dprle_lang::{explore, symex::SymexOptions, to_system, Policy};
    let (mut constants, mut roots) = (Vec::new(), Vec::new());
    for (spec, program) in dprle_corpus::fig12_programs() {
        let reaches = explore(&program, &SymexOptions::default()).expect(spec.name);
        for reach in &reaches {
            let (system, _) = to_system(reach, &Policy::sql_quote());
            let system = system.normalized();
            for c in 0..system.num_consts() {
                let machine = system.const_machine(dprle_core::ConstId(c as u32));
                constants.push(local_nfa!(machine));
            }
            for root in dprle_core::gci::root_machines(&system) {
                roots.push(local_nfa!(&root));
            }
        }
    }
    let mut seen = std::collections::HashSet::new();
    constants.retain(|m| seen.insert(m.clone()));
    (constants, roots)
}

#[test]
fn kernel_matches_references_on_fig12_machines() {
    let (constants, roots) = fig12_machines();
    assert!(
        constants.len() >= 17 && roots.len() >= 17,
        "every row has a root"
    );
    for (i, m) in constants.iter().chain(&roots).enumerate() {
        assert_determinize_matches(m, &format!("fig12 machine #{i}"));
    }
    for (i, root) in roots.iter().enumerate() {
        let what = format!("fig12 root #{i}");
        // The segments enumeration cuts: from the start or a bridge's
        // target, to the final or a bridge's source.
        let final_ = *root.finals().iter().next().expect("a root has a final");
        let starts: Vec<StateId> = std::iter::once(root.start())
            .chain(root.eps_edges().map(|(_, t)| t))
            .collect();
        let finals: Vec<StateId> = std::iter::once(final_)
            .chain(root.eps_edges().map(|(s, _)| s))
            .collect();
        for &s in &starts {
            for &f in &finals {
                assert_segment_matches(root, s, f, &what);
            }
        }
        // The verify-site shape: a solution-sized machine against a
        // constant, both ways.
        for c in constants.iter().skip(i % 5).step_by(5) {
            assert_inclusion_matches(root, c, &what);
            assert_inclusion_matches(c, root, &what);
        }
    }
    for pair in constants.windows(2) {
        assert_inclusion_matches(&pair[0], &pair[1], "fig12 constants");
        assert_inclusion_matches(&pair[1], &pair[0], "fig12 constants");
    }
}
