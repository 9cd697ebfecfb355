//! Parametric workloads for the §3.5 complexity study and for fuzzing.
//!
//! The paper analyzes the concat-intersect procedure's cost in terms of an
//! upper bound `Q` on input machine size: the intersection machine has
//! O(Q²) states, enumerating all solutions visits O(Q³), and nesting
//! (a second CI call consuming the first's output) raises the bound to
//! O(Q⁵). These generators produce families of instances whose sizes scale
//! with `Q` so the benchmark harness can measure the growth curves.

use dprle_automata::generate::{random_nonempty_nfa, RandomNfaConfig};
use dprle_automata::{ops, Nfa};
use dprle_core::{Expr, System};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A CI instance `(c₁, c₂, c₃)` whose three machines each have Θ(q)
/// states, with a guaranteed-nonempty `(c₁·c₂) ∩ c₃`.
///
/// `c₁ = a{0,q}`, `c₂ = b{0,q}`, `c₃ = a{0,q}·b{0,q}` — every prefix split
/// is a potential solution, so the bridge-edge count also grows with `q`.
pub fn ci_instance(q: usize) -> (Nfa, Nfa, Nfa) {
    use dprle_automata::ByteClass;
    let a = ByteClass::singleton(b'a');
    let b = ByteClass::singleton(b'b');
    let c1 = Nfa::class_repeat(a, 0, q);
    let c2 = Nfa::class_repeat(b, 0, q);
    let c3 = ops::concat(&Nfa::class_repeat(a, 0, q), &Nfa::class_repeat(b, 0, q)).nfa;
    (c1, c2, c3)
}

/// A CI instance with dense constraint machines: `c₃` is a nontrivial
/// pattern over both letters, so the product does real filtering work.
pub fn ci_instance_dense(q: usize) -> (Nfa, Nfa, Nfa) {
    use dprle_automata::ByteClass;
    let ab = ByteClass::from_bytes([b'a', b'b']);
    let c1 = Nfa::class_repeat(ab, 0, q);
    let c2 = Nfa::class_repeat(ab, 0, q);
    // c3: strings over {a,b} whose length is between q/2 and q, followed by
    // anything ending in 'b'.
    let tail = ops::concat(
        &ops::star(&Nfa::class(ab)),
        &Nfa::class(ByteClass::singleton(b'b')),
    )
    .nfa;
    let c3 = ops::concat(&Nfa::class_repeat(ab, q / 2, q), &tail).nfa;
    (c1, c2, c3)
}

/// A CI instance that *attains* the paper's O(Q²) product bound: the
/// concatenation machine tracks string position (Θ(q) states) while `c₃`
/// tracks the count of `a`s modulo `q` (Θ(q) states, with `b` self-loops).
/// Position and count are independent, so Θ(q²) product pairs are
/// reachable — the worst case of the §3.5 analysis.
pub fn ci_instance_modular(q: usize) -> (Nfa, Nfa, Nfa) {
    use dprle_automata::ByteClass;
    let q = q.max(2);
    let ab = ByteClass::from_bytes([b'a', b'b']);
    let c1 = Nfa::class_repeat(ab, 0, q);
    let c2 = Nfa::class_repeat(ab, 0, q);
    // c3: (#a mod q) == 0 — a cycle of q states on 'a', self-loops on 'b'.
    let mut c3 = Nfa::new();
    let mut ring = vec![c3.start()];
    for _ in 1..q {
        ring.push(c3.add_state());
    }
    for i in 0..q {
        c3.add_edge(ring[i], ByteClass::singleton(b'a'), ring[(i + 1) % q]);
        c3.add_edge(ring[i], ByteClass::singleton(b'b'), ring[i]);
    }
    c3.add_final(ring[0]);
    (c1, c2, c3)
}

/// A nested-concatenation system `v₁·v₂·…·v_k ⊆ c` with per-variable
/// bounds, requiring `k − 1` inductive concat-intersect steps (the paper's
/// §3.5 example uses k = 3 to illustrate the O(Q⁵) enumeration bound).
pub fn nested_system(k: usize, q: usize) -> System {
    assert!(k >= 2, "nesting needs at least two variables");
    let mut sys = System::new();
    let a = dprle_automata::ByteClass::singleton(b'a');
    let per_var = Nfa::class_repeat(a, 1, q.max(1));
    let mut lhs: Option<Expr> = None;
    for i in 0..k {
        let v = sys.var(&format!("v{i}"));
        let c = sys.constant(&format!("c{i}"), per_var.clone());
        sys.require(Expr::Var(v), c);
        lhs = Some(match lhs {
            None => Expr::Var(v),
            Some(e) => e.concat(Expr::Var(v)),
        });
    }
    let total = sys.constant("c_total", Nfa::class_repeat(a, k, k * q.max(1)));
    sys.require(lhs.expect("k >= 2"), total);
    sys
}

/// A system of `groups` independent CI-groups, each branching into
/// `disjuncts` disjunctive solutions: the workload that makes the Figure 7
/// worklist fan out.
///
/// Group `i` constrains a disjoint variable pair:
/// `aᵢ ⊆ x(yy)+`, `bᵢ ⊆ (yy)*z`, `aᵢ·bᵢ ⊆ x(yy|yyyy|…){1}z`-style targets
/// whose alternation width fixes the disjunct count. The worklist then
/// fans out to `disjuncts^groups` complete branches, every one paying the
/// (memo-free) verification cost. All machines are built from regexes, so
/// the system is deterministic: solving it twice produces identical
/// output.
pub fn multi_group_system(groups: usize, disjuncts: usize) -> System {
    use dprle_regex::Regex;
    let d = disjuncts.max(1);
    let target: String = {
        let alts: Vec<String> = (1..=d).map(|k| "yy".repeat(k)).collect();
        format!("x({})z", alts.join("|"))
    };
    let compile = |pattern: &str| -> Nfa {
        Regex::new(pattern)
            .expect("generator patterns compile")
            .exact_language()
            .clone()
    };
    let cx = compile("x(yy)+");
    let cy = compile("(yy)*z");
    let ct = compile(&target);
    let mut sys = System::new();
    for g in 0..groups.max(1) {
        let a = sys.var(&format!("a{g}"));
        let b = sys.var(&format!("b{g}"));
        let kx = sys.constant(&format!("cx{g}"), cx.clone());
        let ky = sys.constant(&format!("cy{g}"), cy.clone());
        let kt = sys.constant(&format!("ct{g}"), ct.clone());
        sys.require(Expr::Var(a), kx);
        sys.require(Expr::Var(b), ky);
        sys.require(Expr::Var(a).concat(Expr::Var(b)), kt);
    }
    sys
}

/// Parameters for random system generation.
#[derive(Clone, Debug)]
pub struct RandomSystemConfig {
    /// Number of variables.
    pub vars: usize,
    /// Number of plain `v ⊆ c` constraints.
    pub subset_constraints: usize,
    /// Number of `v·w ⊆ c` constraints.
    pub concat_constraints: usize,
    /// State count for random constant machines.
    pub machine_states: usize,
}

impl Default for RandomSystemConfig {
    fn default() -> Self {
        RandomSystemConfig {
            vars: 3,
            subset_constraints: 3,
            concat_constraints: 1,
            machine_states: 5,
        }
    }
}

/// A random constraint system over a two-letter alphabet, deterministic
/// per seed. Used by the solver's fuzz/property tests: whatever the solver
/// returns must satisfy the system.
pub fn random_system(seed: u64, config: &RandomSystemConfig) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = System::new();
    let vars: Vec<_> = (0..config.vars.max(1))
        .map(|i| sys.var(&format!("v{i}")))
        .collect();
    let nfa_config = RandomNfaConfig {
        states: config.machine_states.max(2),
        alphabet: vec![b'a', b'b'],
        ..Default::default()
    };
    let mut const_count = 0usize;
    let mut fresh_const = |sys: &mut System, rng: &mut StdRng| {
        let machine = random_nonempty_nfa(rng.gen(), &nfa_config);
        let name = format!("c{const_count}");
        const_count += 1;
        sys.constant(&name, machine)
    };
    for _ in 0..config.subset_constraints {
        let v = vars[rng.gen_range(0..vars.len())];
        let c = fresh_const(&mut sys, &mut rng);
        sys.require(Expr::Var(v), c);
    }
    for _ in 0..config.concat_constraints {
        let v = vars[rng.gen_range(0..vars.len())];
        let w = vars[rng.gen_range(0..vars.len())];
        let c = fresh_const(&mut sys, &mut rng);
        sys.require(Expr::Var(v).concat(Expr::Var(w)), c);
    }
    sys
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_core::ci::concat_intersect;
    use dprle_core::{solve, solve_first, SolveOptions};

    #[test]
    fn ci_instance_scales_with_q() {
        let (c1a, _, _) = ci_instance(4);
        let (c1b, _, _) = ci_instance(16);
        assert!(c1b.num_states() > c1a.num_states());
    }

    #[test]
    fn ci_instance_is_satisfiable() {
        let (c1, c2, c3) = ci_instance(4);
        let solutions = concat_intersect(&c1, &c2, &c3);
        assert!(!solutions.is_empty());
        for s in &solutions {
            assert!(dprle_automata::is_subset(&s.v1, &c1));
            assert!(dprle_automata::is_subset(&s.v2, &c2));
        }
    }

    #[test]
    fn dense_instance_is_satisfiable() {
        let (c1, c2, c3) = ci_instance_dense(4);
        assert!(!concat_intersect(&c1, &c2, &c3).is_empty());
    }

    #[test]
    fn modular_instance_attains_quadratic_products() {
        let (c1, c2, c3) = ci_instance_modular(8);
        let run = dprle_core::concat_intersect_full(&c1, &c2, &c3);
        // Position × modulus pairs: well above linear in input size.
        assert!(run.m5.num_states() > 3 * c1.num_states());
        assert!(!run.solutions.is_empty());
    }

    #[test]
    fn multi_group_system_branches_as_designed() {
        let sys = multi_group_system(3, 2);
        let (solution, stats) = dprle_core::solve_with_stats(&sys, &SolveOptions::default());
        assert_eq!(stats.groups, 3);
        // 2 disjuncts per group → 2³ complete branches, all satisfying.
        assert_eq!(stats.branches_completed, 8);
        assert_eq!(solution.assignments().len(), 8);
    }

    #[test]
    fn nested_system_solves() {
        let sys = nested_system(3, 3);
        let first = solve_first(&sys, &SolveOptions::default()).expect("satisfiable");
        for v in sys.var_ids() {
            assert!(!first.get(v).expect("assigned").is_empty_language());
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn nested_system_validates_k() {
        nested_system(1, 3);
    }

    #[test]
    fn random_systems_are_deterministic() {
        let cfg = RandomSystemConfig::default();
        let a = random_system(7, &cfg);
        let b = random_system(7, &cfg);
        assert_eq!(a.to_string(), b.to_string());
    }

    #[test]
    fn random_system_solutions_satisfy() {
        let cfg = RandomSystemConfig::default();
        for seed in 0..10 {
            let sys = random_system(seed, &cfg);
            let solution = solve(&sys, &SolveOptions::default());
            for a in solution.assignments() {
                assert!(
                    dprle_core::satisfies_system(&sys, a),
                    "seed {seed}: returned assignment violates the system"
                );
            }
        }
    }
}
