//! Differential tests for the antichain inclusion search.
//!
//! 1. **Agreement**: on random NFA pairs and every `corpus::scaling`
//!    generator, the search agrees with the reference
//!    determinize/complement/product construction
//!    (`common/inclusion_oracle.rs`) on subset, equivalence and
//!    intersection-emptiness verdicts, counterexample presence, witness
//!    validity, and shortest witness length.
//! 2. **Golden journal**: solving Figure 9/10 emits the committed trace.
//!
//! Budgeted aborts, the metamorphic laws, and verdict agreement with a
//! third decider (canonical minimal-DFA keys) are in
//! `inclusion_differential_3way.rs`.

use dprle::automata::generate::{random_nfa, RandomNfaConfig};
use dprle::automata::inclusion::{
    try_counterexample, try_equivalent, try_intersection_empty, try_subset,
};
use dprle::automata::{ops, InclusionLimits, LangStore, Nfa};
use dprle::core::{solve_traced, CollectSink, Expr, SolveOptions, System, Tracer};
use dprle::corpus::scaling::{ci_instance, ci_instance_dense, ci_instance_modular};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "common/inclusion_oracle.rs"]
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

/// Asserts every query on `(a, b)` agrees with the reference construction.
fn assert_queries_agree(a: &Nfa, b: &Nfa) {
    let a_minus_b = oracle::difference(a, b);
    let b_minus_a = oracle::difference(b, a);
    assert_eq!(
        try_subset(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0,
        a_minus_b.is_empty_language(),
        "subset verdicts diverge"
    );
    assert_eq!(
        try_equivalent(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0,
        a_minus_b.is_empty_language() && b_minus_a.is_empty_language(),
        "equivalence verdicts diverge"
    );
    assert_eq!(
        try_intersection_empty(a, b, &InclusionLimits::UNLIMITED)
            .expect("unlimited")
            .0,
        ops::intersect(a, b).nfa.is_empty_language(),
        "intersection-emptiness verdicts diverge"
    );
    let found = try_counterexample(a, b, &InclusionLimits::UNLIMITED)
        .expect("unlimited")
        .0;
    let reference = a_minus_b.shortest_member();
    assert_eq!(
        found.is_some(),
        reference.is_some(),
        "counterexample presence diverges"
    );
    if let (Some(found), Some(reference)) = (found, reference) {
        oracle::assert_valid_witness(a, b, &found, "antichain");
        oracle::assert_valid_witness(a, b, &reference, "reference");
        assert_eq!(
            found.len(),
            reference.len(),
            "antichain missed a shorter witness"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every query agrees with the reference on random NFA pairs,
    /// including same-seed (equal-language) pairs.
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
}

/// The paper's Figure 9/10 shared-variable CI-group (the same system the
/// parallel-determinism golden run uses).
fn figure_9_10_system() -> System {
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
    sys
}

/// Golden run: solving Figure 9/10 emits a journal byte-identical —
/// modulo the zeroed `ts_us` — to the committed
/// `testdata/golden/figure_9_10.antichain.jsonl`.
///
/// Regenerate after an intentional trace change with
/// `DPRLE_BLESS=1 cargo test --test inclusion_differential`.
#[test]
fn figure_9_10_antichain_journal_matches_committed_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/testdata/golden/figure_9_10.antichain.jsonl"
    );
    let options = SolveOptions {
        ..SolveOptions::default()
    };
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::new(sink.clone());
    let store = LangStore::interning(options.interning);
    let (solution, _) = solve_traced(&figure_9_10_system(), &options, &store, &tracer);
    assert!(solution.is_sat(), "Figure 10's system is satisfiable");
    let journal: String = sink
        .take()
        .into_iter()
        .map(|mut e| {
            e.ts_us = 0;
            e.to_json() + "\n"
        })
        .collect();
    if std::env::var_os("DPRLE_BLESS").is_some() {
        std::fs::write(golden_path, &journal).expect("bless writes golden");
    }
    let committed = std::fs::read_to_string(golden_path).expect("committed golden readable");
    assert_eq!(
        committed, journal,
        "journal drifted from the committed golden \
         (DPRLE_BLESS=1 to regenerate after an intentional change)"
    );
}
