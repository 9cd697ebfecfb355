//! Properties of the interned language layer (`Lang` / `LangStore`):
//! canonical fingerprints decide equivalence, memoized operations agree
//! with the direct constructions, and the solver actually profits from
//! the sharing (the Fig. 9/10 regression below).

use dprle::automata::generate::{random_nfa, RandomNfaConfig};
use dprle::automata::{canonical_key, equivalent, is_subset, ops, Lang, LangStore, Nfa};
use dprle::core::{solve_with_stats, Expr, SolveOptions, System};
use proptest::prelude::*;

fn cfg() -> RandomNfaConfig {
    RandomNfaConfig {
        states: 5,
        edges_per_state: 1.8,
        eps_per_state: 0.4,
        alphabet: vec![b'a', b'b'],
        final_probability: 0.3,
    }
}

fn m(seed: u64) -> Nfa {
    random_nfa(seed, &cfg())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fingerprint equality is exactly language equivalence, with mutual
    /// inclusion checks as the independent oracle.
    #[test]
    fn fingerprint_eq_iff_equivalent(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        let (la, lb) = (Lang::new(a.clone()), Lang::new(b.clone()));
        let same_key = la.fingerprint() == lb.fingerprint();
        let same_lang = is_subset(&a, &b) && is_subset(&b, &a);
        prop_assert_eq!(same_key, same_lang);
        prop_assert_eq!(la.same_language(&lb), same_lang);
        // A handle is always equivalent to itself and to a re-wrap of the
        // same machine (fingerprints are canonical, not pointer-based).
        prop_assert!(la.same_language(&Lang::new(la.nfa().clone())));
    }

    /// The store's memoized intersection accepts the same language as the
    /// direct product construction, both on the first (miss) and second
    /// (hit) computation.
    #[test]
    fn store_intersect_matches_direct(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        let direct = ops::intersect(&a, &b).nfa;
        let store = LangStore::new();
        let (la, lb) = (Lang::new(a), Lang::new(b));
        let first = store.intersect(&la, &lb);
        prop_assert!(equivalent(&first, &direct));
        let before = store.stats();
        let second = store.intersect(&la, &lb);
        prop_assert!(store.stats().op_hits > before.op_hits, "second lookup memoized");
        prop_assert!(equivalent(&second, &direct));
    }

    /// Memoized inclusion agrees with the direct check, in both orders.
    #[test]
    fn store_is_subset_matches_direct(s in any::<u64>()) {
        let (a, b) = (m(s), m(s.wrapping_add(1)));
        let store = LangStore::new();
        let (la, lb) = (Lang::new(a.clone()), Lang::new(b.clone()));
        prop_assert_eq!(store.is_subset(&la, &lb), is_subset(&a, &b));
        prop_assert_eq!(store.is_subset(&lb, &la), is_subset(&b, &a));
        // And the cached second query returns the same answer.
        prop_assert_eq!(store.is_subset(&la, &lb), is_subset(&a, &b));
    }

    /// A minimized handle is born with its input's key: it is the key of
    /// its own machine, and the first lookup on it is a hit, not a second
    /// canonicalization.
    #[test]
    fn minimized_handles_carry_their_key(s in any::<u64>()) {
        let a = m(s);
        let store = LangStore::new();
        let minimal = store.minimized(&Lang::new(a.clone()));
        prop_assert!(minimal.fingerprint_is_cached());
        let before = store.stats();
        let key = store.key_of(&minimal);
        let after = store.stats();
        prop_assert_eq!(after.fingerprint_hits, before.fingerprint_hits + 1);
        prop_assert_eq!(after.fingerprint_misses, before.fingerprint_misses);
        prop_assert_eq!(&*key, &canonical_key(&a));
        prop_assert_eq!(&*key, &canonical_key(minimal.nfa()));
    }
}

/// Regression: on the paper's Figure 9/10 shared-variable CI-group, the
/// solver hits its caches, and its construction counters stay exactly
/// where they are (a change means the solver's work changed).
#[test]
fn fig9_group_reuses_minimizations() {
    let exact = |p: &str| {
        dprle::regex::Regex::new(p)
            .expect("compiles")
            .exact_language()
            .clone()
    };
    let mut sys = System::new();
    let va = sys.var("va");
    let vb = sys.var("vb");
    let vc = sys.var("vc");
    let ca = sys.constant("ca", exact("o(pp)+"));
    let cb = sys.constant("cb", exact("p*(qq)+"));
    let cc = sys.constant("cc", exact("q*r"));
    let c1 = sys.constant("c1", exact("op{5}q*"));
    let c2 = sys.constant("c2", exact("p*q{4}r"));
    sys.require(Expr::Var(va), ca);
    sys.require(Expr::Var(vb), cb);
    sys.require(Expr::Var(vc), cc);
    sys.require(Expr::Var(va).concat(Expr::Var(vb)), c1);
    sys.require(Expr::Var(vb).concat(Expr::Var(vc)), c2);

    let (solution, stats) = solve_with_stats(&sys, &SolveOptions::default());
    assert!(
        solution.is_sat(),
        "the paper's Figure 10 system is satisfiable"
    );
    assert!(
        stats.group_disjuncts > 0,
        "the CI-group enumerates disjuncts"
    );

    assert!(
        stats.fingerprint_hits + stats.memo_op_hits > 0,
        "the shared store must register cache hits"
    );
    // Computing every operation directly, with nothing shared, made 71
    // constructions (fingerprint misses plus memo-op misses) here.
    assert_eq!(stats.minimizations(), 25, "fingerprint misses");
    assert_eq!(
        (stats.memo_op_hits, stats.memo_op_misses),
        (26, 21),
        "memo-op hits and misses"
    );
}

/// `SolveOptions::interning` is ignored: turning it off gives the same
/// answer and the same counters, memo-op hits included. Each run builds
/// its system afresh, since a solve leaves keys on the constants' handles.
#[test]
fn ablation_mode_matches_interned_result() {
    let unsat = || {
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant_regex_exact("c", "a(bb)+").expect("compiles");
        sys.require(Expr::Var(v), c);
        sys.require(Expr::Var(v).concat(Expr::Var(v)), c);
        sys
    };
    let sat = || {
        let mut sys = System::new();
        let w = sys.var("w");
        let d = sys.constant_regex_exact("d", "(ab)*").expect("compiles");
        sys.require(Expr::Var(w), d);
        sys.require(Expr::Var(w).concat(Expr::Var(w)), d);
        sys
    };
    let keys = |solution: &dprle::core::Solution| -> Vec<Vec<_>> {
        solution
            .assignments()
            .iter()
            .map(|a| {
                a.vars()
                    .map(|v| a.get(v).expect("assigned").fingerprint())
                    .collect()
            })
            .collect()
    };
    let systems: [(&dyn Fn() -> System, bool); 2] = [(&unsat, false), (&sat, true)];
    for (build, sat) in systems {
        let interned = solve_with_stats(&build(), &SolveOptions::default());
        let ablated = solve_with_stats(
            &build(),
            &SolveOptions {
                interning: false,
                ..Default::default()
            },
        );
        assert_eq!(interned.0.is_sat(), sat);
        assert_eq!(keys(&interned.0), keys(&ablated.0));
        assert_eq!(interned.1, ablated.1);
        if sat {
            assert!(ablated.1.memo_op_hits > 0, "the flag turns no memo off");
        }
    }
}
