//! Completeness of the full solver (the RMA-level analogue of the paper's
//! All-Solutions theorem): every *pointwise* solution — a tuple of concrete
//! strings satisfying the system — must be covered by some returned
//! disjunctive assignment.
//!
//! These tests brute-force all short string tuples over a two-letter
//! alphabet, check them against the constraints directly, and demand that
//! each satisfying tuple appears inside some assignment. This catches
//! missing disjuncts that soundness-only tests (everything returned
//! satisfies) cannot.

use dprle::automata::generate::{random_nonempty_nfa, RandomNfaConfig};
use dprle::automata::Nfa;
use dprle::core::{solve, Expr, Solution, SolveOptions, System};
use proptest::prelude::*;

const AB: &[u8] = b"ab";
const MAX_LEN: usize = 3;

fn words() -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = vec![Vec::new()];
    let mut layer: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..MAX_LEN {
        let mut next = Vec::new();
        for w in &layer {
            for &b in AB {
                let mut v = w.clone();
                v.push(b);
                next.push(v);
            }
        }
        out.extend(next.iter().cloned());
        layer = next;
    }
    out
}

fn machine(seed: u64) -> Nfa {
    let cfg = RandomNfaConfig {
        states: 4,
        edges_per_state: 1.7,
        eps_per_state: 0.2,
        alphabet: AB.to_vec(),
        final_probability: 0.3,
    };
    random_nonempty_nfa(seed, &cfg)
}

/// Solver options with disjunct caps lifted (completeness needs every
/// combination).
fn uncapped() -> SolveOptions {
    SolveOptions {
        max_disjuncts: None,
        max_assignments: None,
        ..SolveOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CI shape: v1 ⊆ c1, v2 ⊆ c2, v1·v2 ⊆ c3.
    #[test]
    fn ci_shape_covers_every_pointwise_solution(seed in any::<u64>()) {
        let c1m = machine(seed.wrapping_mul(3));
        let c2m = machine(seed.wrapping_mul(3) + 1);
        let c3m = machine(seed.wrapping_mul(3) + 2);
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let c1 = sys.constant("c1", c1m.clone());
        let c2 = sys.constant("c2", c2m.clone());
        let c3 = sys.constant("c3", c3m.clone());
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Var(v2), c2);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), c3);

        let solution = solve(&sys, &uncapped());
        let words = words();
        for w1 in &words {
            if !c1m.contains(w1) {
                continue;
            }
            for w2 in &words {
                if !c2m.contains(w2) {
                    continue;
                }
                let mut cat = w1.clone();
                cat.extend_from_slice(w2);
                if !c3m.contains(&cat) {
                    continue;
                }
                // (w1, w2) satisfies pointwise: some assignment covers it.
                let covered = solution.assignments().iter().any(|a| {
                    a.get(v1).is_some_and(|m| m.contains(w1))
                        && a.get(v2).is_some_and(|m| m.contains(w2))
                });
                prop_assert!(
                    covered,
                    "tuple ({:?}, {:?}) satisfies but is uncovered (seed {seed})",
                    w1,
                    w2
                );
            }
        }
    }

    /// Figure 9 shape: va·vb ⊆ c1, vb·vc ⊆ c2 (shared middle variable).
    #[test]
    fn shared_variable_shape_covers_every_pointwise_solution(seed in any::<u64>()) {
        let c1m = machine(seed.wrapping_mul(5));
        let c2m = machine(seed.wrapping_mul(5) + 1);
        let mut sys = System::new();
        let va = sys.var("va");
        let vb = sys.var("vb");
        let vc = sys.var("vc");
        let c1 = sys.constant("c1", c1m.clone());
        let c2 = sys.constant("c2", c2m.clone());
        sys.require(Expr::Var(va).concat(Expr::Var(vb)), c1);
        sys.require(Expr::Var(vb).concat(Expr::Var(vc)), c2);

        let solution = solve(&sys, &uncapped());
        let words = words();
        // Keep the cube small: words up to length 2 for the triple.
        let short: Vec<&Vec<u8>> = words.iter().filter(|w| w.len() <= 2).collect();
        for wa in &short {
            for wb in &short {
                let mut ab = (*wa).clone();
                ab.extend_from_slice(wb);
                if !c1m.contains(&ab) {
                    continue;
                }
                for wc in &short {
                    let mut bc = (*wb).clone();
                    bc.extend_from_slice(wc);
                    if !c2m.contains(&bc) {
                        continue;
                    }
                    let covered = solution.assignments().iter().any(|a| {
                        a.get(va).is_some_and(|m| m.contains(wa))
                            && a.get(vb).is_some_and(|m| m.contains(wb))
                            && a.get(vc).is_some_and(|m| m.contains(wc))
                    });
                    prop_assert!(
                        covered,
                        "triple ({:?},{:?},{:?}) satisfies but is uncovered (seed {seed})",
                        wa,
                        wb,
                        wc
                    );
                }
            }
        }
    }

    /// Plain-intersection shape: the unique maximal assignment covers every
    /// satisfying word.
    #[test]
    fn intersection_shape_is_exactly_the_intersection(seed in any::<u64>()) {
        let c1m = machine(seed.wrapping_mul(7));
        let c2m = machine(seed.wrapping_mul(7) + 1);
        let mut sys = System::new();
        let v = sys.var("v");
        let c1 = sys.constant("c1", c1m.clone());
        let c2 = sys.constant("c2", c2m.clone());
        sys.require(Expr::Var(v), c1);
        sys.require(Expr::Var(v), c2);
        match solve(&sys, &uncapped()) {
            Solution::Unsat => {
                // Then no word satisfies both.
                for w in words() {
                    prop_assert!(!(c1m.contains(&w) && c2m.contains(&w)));
                }
            }
            Solution::Assignments(assignments) => {
                prop_assert_eq!(assignments.len(), 1);
                let lang = assignments[0].get(v).expect("assigned");
                for w in words() {
                    prop_assert_eq!(
                        lang.contains(&w),
                        c1m.contains(&w) && c2m.contains(&w),
                        "word {:?}",
                        &w
                    );
                }
            }
        }
    }
}
