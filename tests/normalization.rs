//! The solver decides a system's *distinct* constraints
//! (`System::normalized`): constants are hash-consed by machine structure
//! and repeated constraints are dropped. The paper defines an instance as a
//! set of constraints (§3.1), so repeats must change nothing. These tests
//! inject repeats into random systems and require the same solutions as the
//! repeat-free system, each satisfying every constraint of the input,
//! repeats included.

use dprle::automata::{CanonicalKey, Nfa};
use dprle::core::{satisfies_system, solve, ConstId, Expr, Solution, SolveOptions, System};
use dprle::corpus::scaling::{random_system, RandomSystemConfig};
use std::sync::Arc;

/// The three shapes the solver fuzzer draws from.
fn configs() -> [RandomSystemConfig; 3] {
    [
        RandomSystemConfig {
            vars: 2,
            subset_constraints: 2,
            concat_constraints: 1,
            machine_states: 4,
        },
        RandomSystemConfig {
            vars: 3,
            subset_constraints: 3,
            concat_constraints: 2,
            machine_states: 4,
        },
        RandomSystemConfig {
            vars: 3,
            subset_constraints: 1,
            concat_constraints: 3,
            machine_states: 3,
        },
    ]
}

fn with_consts(e: &Expr, alias: &[ConstId]) -> Expr {
    match e {
        Expr::Var(v) => Expr::Var(*v),
        Expr::Const(c) => Expr::Const(alias[c.0 as usize]),
        Expr::Concat(a, b) => with_consts(a, alias).concat(with_consts(b, alias)),
        Expr::Union(a, b) => with_consts(a, alias).union(with_consts(b, alias)),
    }
}

/// `base` plus repeats: every constant registered again under a new name
/// (a separate copy of the same machine, as a front end that names one
/// constant per path condition produces), every constraint stated again
/// through those copies, and every other constraint repeated verbatim.
fn with_repeats(base: &System, seed: u64) -> System {
    let mut out = base.clone();
    let alias: Vec<ConstId> = (0..base.num_consts() as u32)
        .map(ConstId)
        .map(|c| {
            let name = format!("{}_again", base.const_name(c));
            out.constant(&name, base.const_machine(c).clone())
        })
        .collect();
    for (i, c) in base.constraints().iter().enumerate() {
        out.require(with_consts(&c.lhs, &alias), alias[c.rhs.0 as usize]);
        if (i as u64 + seed).is_multiple_of(2) {
            out.require(c.lhs.clone(), c.rhs);
        }
    }
    out
}

/// Each assignment's languages, by canonical fingerprint, in variable
/// order.
fn fingerprints(system: &System, solution: &Solution) -> Vec<Vec<Arc<CanonicalKey>>> {
    solution
        .assignments()
        .iter()
        .map(|a| {
            system
                .var_ids()
                .map(|v| a.get(v).expect("assigned").fingerprint())
                .collect()
        })
        .collect()
}

#[test]
fn repeats_change_no_solution() {
    let mut sat = 0;
    for (k, config) in configs().iter().enumerate() {
        for seed in 0..40 {
            let base = random_system(seed, config);
            let repeated = with_repeats(&base, seed);
            assert!(repeated.num_constraints() > base.num_constraints());
            assert_eq!(
                repeated.normalized().num_constraints(),
                base.normalized().num_constraints(),
                "config {k} seed {seed}: the repeats normalize away"
            );
            let options = SolveOptions::default();
            let expected = solve(&base, &options);
            let got = solve(&repeated, &options);
            assert_eq!(
                fingerprints(&repeated, &got),
                fingerprints(&base, &expected),
                "config {k} seed {seed}: {repeated}"
            );
            let parallel = SolveOptions {
                jobs: 4,
                ..SolveOptions::default()
            };
            assert_eq!(
                fingerprints(&repeated, &solve(&repeated, &parallel)),
                fingerprints(&base, &expected),
                "config {k} seed {seed}: jobs 4"
            );
            for a in got.assignments() {
                assert!(
                    satisfies_system(&repeated, a),
                    "config {k} seed {seed}: an assignment violates an input constraint"
                );
            }
            sat += usize::from(got.is_sat());
        }
    }
    assert!(
        sat > 0,
        "some systems must be satisfiable for this to mean anything"
    );
}

#[test]
fn repeats_change_no_solution_under_quotient_stripping() {
    // Leading constant operands exercise the quotient rewrite, which runs
    // on the normalized system.
    let options = SolveOptions {
        strip_constant_operands: true,
        ..SolveOptions::default()
    };
    let config = RandomSystemConfig::default();
    for seed in 0..20 {
        let mut base = random_system(seed, &config);
        let v = base.var_ids().next().expect("a variable");
        let prefix = base.constant("prefix", Nfa::literal(b"a"));
        let bound = base.constant("bound", Nfa::sigma_star());
        base.require(Expr::Const(prefix).concat(Expr::Var(v)), bound);
        let repeated = with_repeats(&base, seed);
        let expected = solve(&base, &options);
        let got = solve(&repeated, &options);
        assert_eq!(
            fingerprints(&repeated, &got),
            fingerprints(&base, &expected),
            "seed {seed}"
        );
        for a in got.assignments() {
            assert!(satisfies_system(&repeated, a), "seed {seed}");
        }
    }
}
