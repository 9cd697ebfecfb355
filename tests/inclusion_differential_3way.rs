//! Three-way differential oracle: three independent inclusion deciders
//! must give the same verdict on every query the solver can issue, and
//! each must obey the algebraic laws of language inclusion.
//!
//! The deciders:
//!
//! - **antichain**: the search in `automata::inclusion`, the one the
//!   solver runs;
//! - **reference**: the determinize/complement/product construction
//!   (`common/inclusion_oracle.rs`), where `L(a) ⊆ L(b)` iff
//!   `L(a) \ L(b)` is empty;
//! - **canonical**: minimal-DFA keys, where `L(a) ⊆ L(b)` iff `a ∪ b`
//!   and `b` minimize to the same canonical machine.
//!
//! `inclusion_differential.rs` holds the search to the reference on
//! counterexamples too; this file checks verdicts along three axes:
//!
//! 1. **Agreement**: subset, equivalence and intersection-emptiness
//!    verdicts agree on random NFA pairs and every `corpus::scaling` NFA
//!    generator.
//! 2. **Budgeted aborts**: under any macrostate cap the antichain search
//!    either decides with the reference verdict or aborts with a
//!    well-formed partial-cost report (the paths the CLI surfaces as exit
//!    code 3).
//! 3. **Metamorphic laws**: transitivity, intersection lower bounds,
//!    reversal, and the complement identity hold per decider — checks
//!    that need no second decider at all.

use dprle::automata::generate::{random_nfa, RandomNfaConfig};
use dprle::automata::inclusion::{try_equivalent, try_intersection_empty, try_subset};
use dprle::automata::{canonical_key, dfa, ops, InclusionAbort, InclusionLimits, Nfa};
use dprle::corpus::scaling::{ci_instance, ci_instance_dense, ci_instance_modular};
use proptest::prelude::*;

#[path = "common/inclusion_oracle.rs"]
#[allow(dead_code)] // verdicts only: the witness check is the two-way suite's
mod oracle;

fn cfg() -> RandomNfaConfig {
    RandomNfaConfig {
        states: 6,
        edges_per_state: 2.0,
        eps_per_state: 0.4,
        alphabet: vec![b'a', b'b'],
        final_probability: 0.3,
    }
}

fn m(seed: u64) -> Nfa {
    random_nfa(seed, &cfg())
}

/// One inclusion decider: its three verdict queries.
struct Decider {
    name: &'static str,
    subset: fn(&Nfa, &Nfa) -> bool,
    equivalent: fn(&Nfa, &Nfa) -> bool,
    intersection_empty: fn(&Nfa, &Nfa) -> bool,
}

const DECIDERS: [Decider; 3] = [
    Decider {
        name: "antichain",
        subset: |a, b| {
            try_subset(a, b, &InclusionLimits::UNLIMITED)
                .expect("unlimited")
                .0
        },
        equivalent: |a, b| {
            try_equivalent(a, b, &InclusionLimits::UNLIMITED)
                .expect("unlimited")
                .0
        },
        intersection_empty: |a, b| {
            try_intersection_empty(a, b, &InclusionLimits::UNLIMITED)
                .expect("unlimited")
                .0
        },
    },
    Decider {
        name: "reference",
        subset: |a, b| oracle::difference(a, b).is_empty_language(),
        equivalent: |a, b| {
            oracle::difference(a, b).is_empty_language()
                && oracle::difference(b, a).is_empty_language()
        },
        intersection_empty: |a, b| ops::intersect(a, b).nfa.is_empty_language(),
    },
    Decider {
        name: "canonical",
        subset: |a, b| canonical_key(&ops::union(a, b)) == canonical_key(b),
        equivalent: |a, b| canonical_key(a) == canonical_key(b),
        intersection_empty: |a, b| {
            canonical_key(&ops::intersect_lang(a, b)) == canonical_key(&Nfa::empty_language())
        },
    },
];

/// Asserts every verdict query on `(a, b)` agrees across all deciders.
fn assert_queries_agree(a: &Nfa, b: &Nfa) {
    let [first, rest @ ..] = &DECIDERS;
    for d in rest {
        assert_eq!(
            (first.subset)(a, b),
            (d.subset)(a, b),
            "subset verdicts diverge ({} vs {})",
            first.name,
            d.name
        );
        assert_eq!(
            (first.equivalent)(a, b),
            (d.equivalent)(a, b),
            "equivalence verdicts diverge ({} vs {})",
            first.name,
            d.name
        );
        assert_eq!(
            (first.intersection_empty)(a, b),
            (d.intersection_empty)(a, b),
            "intersection-emptiness verdicts diverge ({} vs {})",
            first.name,
            d.name
        );
    }
}

/// Under any macrostate cap the antichain search either *decides* — in
/// which case its verdict must equal the reference verdict — or aborts
/// with a partial-cost report that respects the cap. Caps are swept from
/// 1 up through the search's own measured cost, which always suffices.
fn assert_budgeted_aborts_agree(a: &Nfa, b: &Nfa) {
    let truth = oracle::difference(a, b).is_empty_language();
    let (unbudgeted, full_cost) = try_subset(a, b, &InclusionLimits::UNLIMITED).expect("unlimited");
    assert_eq!(
        unbudgeted, truth,
        "unbudgeted verdict diverges from the reference"
    );
    let caps = [1, full_cost.macrostates / 2, full_cost.macrostates];
    for cap in caps.into_iter().filter(|c| *c > 0) {
        let limits = InclusionLimits {
            max_macrostates: Some(cap),
            deadline: None,
        };
        match try_subset(a, b, &limits) {
            Ok((verdict, cost)) => {
                assert_eq!(verdict, truth, "budget cap {cap} changed the verdict");
                assert!(
                    cost.macrostates <= full_cost.macrostates,
                    "budgeted run did more work than unbudgeted"
                );
            }
            Err(InclusionAbort::MacrostateCap { limit, cost }) => {
                assert_eq!(limit, cap, "abort reports a foreign cap");
                assert!(
                    cost.macrostates <= cap,
                    "partial work exceeds the cap it tripped"
                );
            }
            Err(InclusionAbort::Deadline { .. }) => panic!("no deadline was set"),
        }
    }
    let limits = InclusionLimits {
        max_macrostates: Some(full_cost.macrostates.max(1)),
        deadline: None,
    };
    let (verdict, _) = try_subset(a, b, &limits).expect("fits its own measured cost");
    assert_eq!(verdict, truth);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three queries agree across all three deciders on random NFA
    /// pairs, including same-seed (equal-language) pairs.
    #[test]
    fn engines_agree_on_random_nfa_pairs(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        assert_queries_agree(&a, &b);
        assert_queries_agree(&b, &a);
        assert_queries_agree(&a, &m(s)); // identical language both sides
    }

    /// All ordered pairs drawn from every NFA-triple scaling generator
    /// agree, across the q window the solver benchmarks use.
    #[test]
    fn engines_agree_on_scaling_nfa_generators(s in any::<u64>()) {
        let q = 3 + (s % 5) as usize;
        for (c1, c2, c3) in [ci_instance(q), ci_instance_dense(q), ci_instance_modular(q)] {
            let machines = [&c1, &c2, &c3];
            for a in machines {
                for b in machines {
                    assert_queries_agree(a, b);
                }
            }
        }
    }

    /// No budget trades correctness on random pairs.
    #[test]
    fn budgeted_aborts_agree_on_random_nfa_pairs(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        assert_budgeted_aborts_agree(&a, &b);
    }

    /// ... nor on the scaling generators whose blowups budgets exist for.
    #[test]
    fn budgeted_aborts_agree_on_scaling_generators(s in any::<u64>()) {
        let q = 3 + (s % 4) as usize;
        let (c1, c2, c3) = ci_instance_modular(q);
        for a in [&c1, &c2, &c3] {
            for b in [&c1, &c2, &c3] {
                assert_budgeted_aborts_agree(a, b);
            }
        }
    }

    // ---- Metamorphic inclusion algebra: laws that hold for *any*
    // correct decider, with no second decider in sight. ----

    /// Transitivity: L ⊆ M ∧ M ⊆ N ⇒ L ⊆ N. Checked both on whatever
    /// random premises happen to hold and on a constructed union chain
    /// (L ⊆ L∪M ⊆ L∪M∪N) whose premises hold by construction, so the
    /// law is never vacuously satisfied.
    #[test]
    fn inclusion_is_transitive_per_engine(s in any::<u64>()) {
        let (l, mm, n) = (m(s), m(s.wrapping_add(1)), m(s.wrapping_add(2)));
        let lm = ops::union(&l, &mm);
        let lmn = ops::union(&lm, &n);
        for d in &DECIDERS {
            if (d.subset)(&l, &mm) && (d.subset)(&mm, &n) {
                assert!((d.subset)(&l, &n), "{}: transitivity violated", d.name);
            }
            assert!((d.subset)(&l, &lm), "{}: L ⊄ L∪M", d.name);
            assert!((d.subset)(&lm, &lmn), "{}: L∪M ⊄ L∪M∪N", d.name);
            assert!((d.subset)(&l, &lmn), "{}: transitivity violated on union chain", d.name);
        }
    }

    /// Intersection is a lower bound: L∩M ⊆ L and L∩M ⊆ M; moreover the
    /// materialized product and the decider's own emptiness query must
    /// agree on whether L∩M is empty.
    #[test]
    fn intersection_is_a_lower_bound_per_engine(s in any::<u64>()) {
        let (l, mm) = (m(s), m(s.wrapping_add(1)));
        let both = ops::intersect_lang(&l, &mm);
        for d in &DECIDERS {
            assert!((d.subset)(&both, &l), "{}: L∩M ⊄ L", d.name);
            assert!((d.subset)(&both, &mm), "{}: L∩M ⊄ M", d.name);
            assert_eq!(
                (d.intersection_empty)(&l, &mm),
                (d.subset)(&both, &Nfa::empty_language()),
                "{}: joint emptiness disagrees with the materialized product",
                d.name
            );
        }
    }

    /// Reversal preserves inclusion: A ⊆ B ⇔ Aᴿ ⊆ Bᴿ.
    #[test]
    fn reversal_preserves_inclusion_per_engine(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        let (ra, rb) = (a.reverse(), b.reverse());
        for d in &DECIDERS {
            assert_eq!(
                (d.subset)(&a, &b),
                (d.subset)(&ra, &rb),
                "{}: reversal flipped a subset verdict",
                d.name
            );
        }
    }

    /// Complement turns inclusion into emptiness: A ⊆ B ⇔ A ∩ ¬B = ∅.
    #[test]
    fn complement_reduces_inclusion_to_emptiness_per_engine(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        let not_b = dfa::complement(&b);
        for d in &DECIDERS {
            assert_eq!(
                (d.subset)(&a, &b),
                (d.intersection_empty)(&a, &not_b),
                "{}: complement identity violated",
                d.name
            );
        }
    }
}
