//! Resource budgets degrade gracefully: on the §3.5 worst-case workload
//! (position × modulo-counter products, Θ(q²) reachable pairs) a
//! `max_product_states` budget must abort with a typed
//! [`ResourceExhausted`] — never a panic or an unbounded blowup — and the
//! identical system must solve cleanly once the budget is lifted. A
//! variable-free constraint's check stops at the deadline too.

use dprle::automata::generate::{random_nfa, RandomNfaConfig};
use dprle::automata::LangStore;
use dprle::core::{
    try_solve_traced, Budget, BudgetKind, CollectLedger, Expr, Ledger, Metrics, SolveOptions,
    System, Tracer,
};
use dprle::corpus::scaling::ci_instance_modular;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `v₁·v₂ ⊆ c₃` with `v₁ ⊆ c₁`, `v₂ ⊆ c₂` over the modular family — the
/// concat-intersect inside the solver attains the quadratic product bound.
fn blowup_system(q: usize) -> System {
    let (c1, c2, c3) = ci_instance_modular(q);
    let mut sys = System::new();
    let v1 = sys.var("v1");
    let v2 = sys.var("v2");
    let k1 = sys.constant("c1", c1);
    let k2 = sys.constant("c2", c2);
    let k3 = sys.constant("c3", c3);
    sys.require(Expr::Var(v1), k1);
    sys.require(Expr::Var(v2), k2);
    sys.require(Expr::Var(v1).concat(Expr::Var(v2)), k3);
    sys
}

fn budgeted(limit: u64) -> SolveOptions {
    SolveOptions {
        metrics: Metrics::enabled(),
        budget: Budget {
            max_product_states: Some(limit),
            ..Budget::default()
        },
        ..SolveOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn product_budget_aborts_before_blowup_and_lifts_cleanly(s in any::<u64>()) {
        // The vendored proptest stub only samples `any::<T>()`; fold the
        // seed into the q ∈ [3, 8] size window ourselves.
        let q = 3 + (s % 6) as usize;
        // Unlimited pass first: establishes the workload's true product
        // cost, which every budgeted claim below is judged against.
        let (solution, stats) = try_solve_traced(
            &blowup_system(q),
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::disabled(),
        ).expect("no budget set");
        prop_assert!(solution.is_sat(), "the modular family is satisfiable");
        let need = stats.product_states;
        prop_assert!(need >= 2, "workload must do real product work, got {need}");

        // Any binding budget must convert the blowup into a typed error.
        let limit = need - 1;
        let options = budgeted(limit);
        let err = try_solve_traced(
            &blowup_system(q),
            &options,
            &LangStore::new(),
            &Tracer::disabled(),
        ).expect_err("budget below the true cost must trip");
        prop_assert_eq!(err.kind, BudgetKind::ProductStates);
        prop_assert_eq!(err.limit, limit);
        // The per-op cap guarantees at most `limit` states materialize in
        // any single product, so the observed total never exceeds what the
        // unlimited run needed.
        prop_assert!(err.observed > 0);
        prop_assert!(
            err.observed <= need,
            "observed {} exceeds the unlimited run's {need}",
            err.observed
        );
        let snapshot = err.snapshot.as_ref().expect("metrics were enabled");
        prop_assert!(snapshot.get("core.solve.product_states").is_some());

        // The same system solves cleanly with the budget lifted.
        let (again, lifted) = try_solve_traced(
            &blowup_system(q),
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::disabled(),
        ).expect("lifted budget");
        prop_assert!(again.is_sat());
        prop_assert_eq!(lifted.product_states, need, "cost is deterministic");
    }
}

/// A dense random machine whose subset structure makes inclusion queries
/// do real frontier work inside the solver.
fn dense(seed: u64, states: usize) -> dprle::automata::Nfa {
    random_nfa(
        seed,
        &RandomNfaConfig {
            states,
            edges_per_state: 3.0,
            eps_per_state: 0.5,
            alphabet: vec![b'a', b'b'],
            final_probability: 0.4,
        },
    )
}

/// A workload whose solve does substantial *inclusion* work after
/// the product builds: the shared `v1` forces disjunct merging, the
/// constant leaf `c2` forces narrowing checks, and the dense machines
/// make both non-trivial.
fn inclusion_heavy_system() -> System {
    let (seed, states) = (7u64, 9usize);
    let mut sys = System::new();
    let v1 = sys.var("v1");
    let v2 = sys.var("v2");
    let k2 = sys.constant("c2", dense(seed + 1, states));
    let k3 = sys.constant("c3", dense(seed + 2, states));
    sys.require(Expr::Var(v1).concat(Expr::Var(v2)), k3);
    sys.require(Expr::Const(k2).concat(Expr::Var(v1)), k3);
    sys
}

/// A `ResourceExhausted` raised while the solver is doing inclusion work
/// carries the search's partial frontier cost in its metrics snapshot:
/// `automata.inclusion.macrostates` is positive even though the run never
/// completed. (An aborted search records nothing into the inclusion memo
/// — only into the metrics registry — so the exhaustion snapshot is the
/// one place the wasted work is visible.)
#[test]
fn exhaustion_snapshot_carries_partial_inclusion_work() {
    let (_, stats) = try_solve_traced(
        &inclusion_heavy_system(),
        &SolveOptions {
            metrics: Metrics::enabled(),
            ..SolveOptions::default()
        },
        &LangStore::new(),
        &Tracer::disabled(),
    )
    .expect("no budget set");
    assert!(
        stats.inclusion_macrostates > 0,
        "workload must do real inclusion work"
    );

    // Walk the cap downward until an abort lands during or after the
    // inclusion phase: its snapshot must carry positive macrostates.
    // (Higher caps may instead trip a product build that precedes any
    // inclusion query; those snapshots legitimately report zero.)
    let mut witnessed = false;
    for limit in (1..stats.product_states).rev() {
        let options = SolveOptions {
            metrics: Metrics::enabled(),
            budget: Budget {
                max_product_states: Some(limit),
                ..Budget::default()
            },
            ..SolveOptions::default()
        };
        let Err(err) = try_solve_traced(
            &inclusion_heavy_system(),
            &options,
            &LangStore::new(),
            &Tracer::disabled(),
        ) else {
            continue;
        };
        assert_eq!(err.kind, BudgetKind::ProductStates);
        let snapshot = err.snapshot.as_ref().expect("metrics were enabled");
        let entry = snapshot
            .get("automata.inclusion.macrostates")
            .expect("snapshot always registers the inclusion counter");
        if let dprle::core::MetricValue::Counter { value } = entry.value {
            if value > 0 {
                witnessed = true;
                break;
            }
        }
    }
    assert!(
        witnessed,
        "no budgeted abort carried partial inclusion work"
    );

    // And the identical system still solves once the budget is lifted.
    let (solution, _) = try_solve_traced(
        &inclusion_heavy_system(),
        &SolveOptions::default(),
        &LangStore::new(),
        &Tracer::disabled(),
    )
    .expect("lifted budget");
    assert!(solution.is_sat());
}

/// `x ⊆ c` between two constants, `x = [ab]*a[ab]{n}` and `c = x|zz`: no
/// variable, so the const-check decides it, by an antichain search whose
/// macrostates double with each step of `n`.
fn variable_free_system(n: usize) -> System {
    let mut sys = System::new();
    let x = sys
        .constant_regex_exact("x", &format!("[ab]*a[ab]{{{n}}}"))
        .expect("x");
    let c = sys
        .constant_regex_exact("c", &format!("[ab]*a[ab]{{{n}}}|zz"))
        .expect("c");
    sys.require(Expr::Const(x), c);
    sys
}

/// The const-check stops at the solve's deadline. Unbudgeted, this
/// search takes about half a second in a release build and seconds in a
/// debug build.
#[test]
fn a_variable_free_check_stops_at_the_deadline() {
    let options = SolveOptions {
        budget: Budget {
            deadline: Some(Duration::from_millis(100)),
            ..Budget::default()
        },
        ..SolveOptions::default()
    };
    let started = Instant::now();
    let err = try_solve_traced(
        &variable_free_system(18),
        &options,
        &LangStore::new(),
        &Tracer::disabled(),
    )
    .expect_err("the deadline passes during the search");
    let elapsed = started.elapsed();
    assert_eq!(err.kind, BudgetKind::Deadline);
    assert_eq!(err.limit, 100_000);
    assert!(
        (100_000..1_000_000).contains(&err.observed),
        "observed {} us",
        err.observed
    );
    assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
}

/// A variable-free constraint is decided once, by the const-check:
/// verification, whose verdict could not differ, skips it.
#[test]
fn a_variable_free_constraint_is_not_verified_again() {
    let collected = Arc::new(CollectLedger::new());
    let options = SolveOptions {
        ledger: Ledger::new(collected.clone()),
        ..SolveOptions::default()
    };
    let (solution, _) = try_solve_traced(
        &variable_free_system(8),
        &options,
        &LangStore::new(),
        &Tracer::disabled(),
    )
    .expect("no budget set");
    assert!(solution.is_sat());
    let sites: Vec<&str> = collected.take().iter().map(|r| r.site).collect();
    assert_eq!(sites, ["const-check"]);
}
