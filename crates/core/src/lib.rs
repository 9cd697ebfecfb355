//! # dprle-core
//!
//! The DPRLE decision procedure: a solver for systems of **subset
//! constraints over regular languages**, reproducing Hooimeijer & Weimer,
//! *A Decision Procedure for Subset Constraints over Regular Languages*
//! (PLDI 2009).
//!
//! Given constraints of the form `e ⊆ c` — where `e` concatenates regular
//! language *variables* and *constants* and `c` is a constant — the solver
//! returns *maximal, possibly disjunctive* satisfying assignments of
//! regular languages to the variables (the **Regular Matching Assignments**
//! problem, §3.1 of the paper).
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 / Fig. 2 — constraint language, RMA | [`spec`], [`solution`] |
//! | §3.2 / Fig. 3 — Concatenation–Intersection | [`ci`] |
//! | §3.4.1 / Fig. 5 — dependency graphs | [`graph`] |
//! | §3.4.2 / Fig. 7 — worklist solver | [`solve()`] |
//! | §3.4.3 / Fig. 8 — generalized concat-intersect | [`gci`] |
//!
//! ## Example: the paper's SQL-injection query
//!
//! ```
//! use dprle_core::{solve, Expr, SolveOptions, System};
//! use dprle_automata::Nfa;
//!
//! let mut sys = System::new();
//! let v1 = sys.var("posted_newsid");
//! // Line 2 of the vulnerable code: the faulty filter /[\d]+$/ (missing ^).
//! let c1 = sys.constant_regex("filter", "[\\d]+$")?;
//! // Line 6: $newsid = "nid_" . $newsid.
//! let c2 = sys.constant("nid_", Nfa::literal(b"nid_"));
//! // The attack policy: the value reaching the query contains a quote.
//! let c3 = sys.constant_regex("unsafe", "'")?;
//! sys.require(Expr::Var(v1), c1);
//! sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
//!
//! let solution = solve(&sys, &SolveOptions::default());
//! let exploit = solution.first().expect("vulnerable").witness(v1).expect("nonempty");
//! assert!(exploit.contains(&b'\''));          // injects a quote…
//! assert!(exploit.last().unwrap().is_ascii_digit()); // …and passes the filter
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod ci;
pub mod gci;
pub mod graph;
pub mod ledger;
pub mod metrics;
pub mod schema;
pub mod solution;
pub mod solve;
pub mod spec;
pub mod trace;
pub mod unsat_core;

pub use bounded::{solve_bounded, BoundedOptions, BoundedSolution};
pub use ci::{
    concat_intersect, concat_intersect_full, dedup_solutions, minimal_solutions, CiRun, CiSolution,
};
pub use gci::{GroupCost, GroupOutcome, ProductCapHit};
pub use graph::{DependencyGraph, NodeId, NodeKind};
pub use ledger::{
    parse_ledger, render_diff, render_top, render_top_by_request, validate_ledger_jsonl,
    CollectLedger, DiffOptions, DiffReport, Ledger, LedgerRecord, LedgerSink, MemoStatus,
    QueryKind, QueryOutcome, LEDGER_SCHEMA,
};
pub use metrics::{
    parse_snapshot, render_report, validate_metrics_jsonl, Budget, BudgetKind, MetricEntry,
    MetricValue, Metrics, MetricsSnapshot, ResourceExhausted, METRICS_SCHEMA,
};
pub use schema::{json_string, lookup, schema_kinds, validate_jsonl, Json};
pub use solution::{Assignment, Solution};
pub use solve::{
    satisfies_system, solve, solve_first, solve_traced, solve_with_stats, solve_with_store,
    solver_graph, try_solve_traced, SolveOptions, SolveStats,
};
pub use spec::{ConstId, Constraint, Expr, System, VarId, MAX_CONCAT_OPERANDS};
pub use trace::{
    check_well_nested, parse_jsonl, provenance_dot, CollectSink, JsonlSink, NullSink, PhaseRow,
    SpanGuard, TeeSink, TraceEvent, TraceEventKind, TraceReport, TraceSink, Tracer, TRACE_SCHEMA,
};
pub use unsat_core::{unsat_core, unsat_core_of_unsat, unsat_core_traced, UnsatCore};
