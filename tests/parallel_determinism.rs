//! `SolveOptions::jobs` is inert: every solve runs the one sequential
//! Figure 7 worklist, whatever `jobs` says, so any `jobs` value gives the
//! same solutions in the same order, the same counters, and (modulo
//! wall-clock timestamps) the same trace journal and cost ledger. The
//! field remains only because the `perfbench` benchmark still sets it;
//! these tests pin that the setting changes nothing until ROADMAP item 1
//! removes it.
//!
//! Every comparison below rebuilds its system from scratch per run:
//! `Lang` handles cache their canonical fingerprint internally, so a
//! system reused across runs would answer the second run's fingerprint
//! lookups from caches the first run warmed and skew the hit/miss
//! counters — the byte-identity contract is *per cold run*.

use dprle::automata::LangStore;
use dprle::core::{
    solve_traced, solve_with_stats, validate_jsonl, validate_ledger_jsonl, CollectLedger,
    CollectSink, Expr, Ledger, Solution, SolveOptions, System, Tracer, LEDGER_SCHEMA,
};
use dprle::corpus::scaling::{multi_group_system, random_system, RandomSystemConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Canonical fingerprints of every assignment, in solver output order.
fn solution_keys(system: &System, solution: &Solution) -> Vec<Vec<String>> {
    solution
        .assignments()
        .iter()
        .map(|a| {
            system
                .var_ids()
                .map(|v| {
                    a.get(v)
                        .map(|l| format!("{:?}", l.fingerprint()))
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect()
}

fn solve_fresh(make: impl Fn() -> System, jobs: usize) -> (Vec<Vec<String>>, bool) {
    let sys = make();
    let options = SolveOptions {
        jobs,
        ..SolveOptions::default()
    };
    let (solution, _) = solve_with_stats(&sys, &options);
    (solution_keys(&sys, &solution), solution.is_sat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random systems: the parallel solver returns the same assignments
    /// (by canonical fingerprint, in the same deterministic-merge order)
    /// as the sequential one, at every thread count.
    #[test]
    fn random_systems_solve_identically_at_any_jobs(seed in any::<u64>()) {
        let cfg = RandomSystemConfig::default();
        let make = || random_system(seed, &cfg);
        let (seq_keys, seq_sat) = solve_fresh(make, 1);
        for jobs in [2usize, 4, 8] {
            let (par_keys, par_sat) = solve_fresh(make, jobs);
            prop_assert_eq!(seq_sat, par_sat, "seed {} jobs {}", seed, jobs);
            prop_assert_eq!(&seq_keys, &par_keys, "seed {} jobs {}", seed, jobs);
        }
    }

    /// Same for the branching multi-group workload the parallel solver is
    /// built for (disjuncts^groups complete branches).
    #[test]
    fn multi_group_systems_solve_identically(raw in any::<u64>()) {
        // The vendored proptest shim has no range strategies; carve the
        // two small parameters (1..=3 each) out of one arbitrary u64.
        let groups = (raw % 3) as usize + 1;
        let disjuncts = ((raw >> 8) % 3) as usize + 1;
        let make = || multi_group_system(groups, disjuncts);
        let seq = solve_fresh(make, 1);
        for jobs in [4usize, 8] {
            prop_assert_eq!(&seq, &solve_fresh(make, jobs), "jobs {}", jobs);
        }
    }
}

/// The paper's Figure 9/10 shared-variable CI-group.
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

/// One traced run over a fresh Figure 9/10 system: raw JSONL (for schema
/// validation) plus the timestamp-zeroed lines (for byte comparison).
fn traced_journal(jobs: usize) -> (String, Vec<String>) {
    let sys = figure_9_10_system();
    let options = SolveOptions {
        jobs,
        ..SolveOptions::default()
    };
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::new(sink.clone());
    let store = LangStore::new();
    let (solution, _) = solve_traced(&sys, &options, &store, &tracer);
    assert!(solution.is_sat(), "Figure 10's system is satisfiable");
    let events = sink.take();
    let raw: String = events.iter().map(|e| e.to_json() + "\n").collect();
    let zeroed = events
        .into_iter()
        .map(|mut e| {
            e.ts_us = 0;
            e.to_json()
        })
        .collect();
    (raw, zeroed)
}

/// Golden run: solving Figure 9/10 at `--jobs 4` emits a journal that
/// (a) validates against the checked-in trace schema with its real
/// timestamps intact and (b) is byte-identical to the sequential journal
/// once `ts_us` is zeroed.
#[test]
fn figure_9_10_parallel_journal_is_schema_valid_and_sequential_identical() {
    let (raw4, zeroed4) = traced_journal(4);
    let schema = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/docs/trace.schema.json"
    ))
    .expect("checked-in schema readable");
    let validated = validate_jsonl(&schema, &raw4).expect("jobs=4 journal validates");
    assert!(validated > 0, "journal must not be empty");

    let (_, zeroed1) = traced_journal(1);
    assert_eq!(
        zeroed1.len(),
        zeroed4.len(),
        "journals must have the same event count"
    );
    for (i, (a, b)) in zeroed1.iter().zip(&zeroed4).enumerate() {
        assert_eq!(a, b, "journal line {i} differs between jobs=1 and jobs=4");
    }
}

/// One ledgered run over a fresh system: raw JSONL (for schema
/// validation) plus the timestamp-zeroed lines (for byte comparison).
/// Same per-cold-run discipline as `traced_journal` — the memo hit/miss
/// column depends on cache temperature.
fn ledger_journal(make: &dyn Fn() -> System, jobs: usize) -> (String, Vec<String>) {
    let sys = make();
    let sink = Arc::new(CollectLedger::new());
    let options = SolveOptions {
        jobs,
        ledger: Ledger::new(sink.clone()),
        ..SolveOptions::default()
    };
    let (_, _) = solve_with_stats(&sys, &options);
    let records = sink.take();
    let raw: String = records.iter().map(|r| r.to_json() + "\n").collect();
    let zeroed = records
        .into_iter()
        .map(|mut r| {
            r.ts_us = 0;
            r.to_json()
        })
        .collect();
    (raw, zeroed)
}

/// Asserts the cost ledger for `make()` is schema-valid and — once wall
/// timestamps are zeroed — byte-identical at every thread count.
fn assert_ledger_deterministic(label: &str, make: &dyn Fn() -> System) {
    let (raw1, zeroed1) = ledger_journal(make, 1);
    let validated = validate_ledger_jsonl(LEDGER_SCHEMA, &raw1).expect("ledger validates");
    assert!(validated > 0, "{label}: ledger must not be empty");
    for jobs in [4usize, 8] {
        let (_, zeroed_n) = ledger_journal(make, jobs);
        assert_eq!(
            zeroed1.len(),
            zeroed_n.len(),
            "{label}: record count differs between jobs=1 and jobs={jobs}"
        );
        for (i, (a, b)) in zeroed1.iter().zip(&zeroed_n).enumerate() {
            assert_eq!(
                a, b,
                "{label}: ledger line {i} differs between jobs=1 and jobs={jobs}"
            );
        }
    }
}

/// Golden run: the query cost ledger for Figure 9/10 validates against
/// the embedded schema and replays byte-identically at `--jobs 1/4/8`.
#[test]
fn figure_9_10_ledger_is_schema_valid_and_identical_across_jobs() {
    assert_ledger_deterministic("figure 9/10", &figure_9_10_system);
}

/// The same byte-identity contract over the synthetic scaling corpus:
/// a seeded random system and the branching multi-group workload the
/// parallel solver speculates hardest on.
#[test]
fn scaling_corpus_ledgers_are_identical_across_jobs() {
    let cfg = RandomSystemConfig::default();
    for seed in [7u64, 1009, 65537] {
        assert_ledger_deterministic(&format!("random seed {seed}"), &|| {
            random_system(seed, &cfg)
        });
    }
    assert_ledger_deterministic("multi-group 2x2", &|| multi_group_system(2, 2));
    assert_ledger_deterministic("multi-group 3x2", &|| multi_group_system(3, 2));
}
