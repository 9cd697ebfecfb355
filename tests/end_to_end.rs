//! End-to-end integration tests spanning every crate: regex front end →
//! automata substrate → decision procedure → program analysis → corpus.

use dprle::core::solve::extendable_vars;
use dprle::core::{solve, solve_first, Expr, SolveOptions, System};
use dprle::corpus::{vulnerable_program, FIG12_ROWS};
use dprle::lang::symex::SymexOptions;
use dprle::lang::{analyze, explore, to_system, Policy, Program};
use dprle::regex::Regex;

#[test]
fn figure1_pipeline_produces_a_working_exploit() {
    let report = analyze(
        &Program::figure1(),
        &Policy::sql_quote(),
        &SymexOptions::default(),
        &SolveOptions::default(),
    )
    .expect("analysis succeeds");
    assert_eq!(report.findings.len(), 1);
    let exploit = &report.findings[0].witnesses["posted_newsid"];

    // Simulate the program concretely on the exploit: it must pass the
    // filter and produce a query containing a quote.
    let filter = Regex::new("[\\d]+$").expect("filter compiles");
    assert!(filter.is_match(exploit), "exploit must survive line 2");
    let mut query = b"SELECT * FROM news WHERE newsid=nid_".to_vec();
    query.extend_from_slice(exploit);
    assert!(query.contains(&b'\''), "query must be subverted");
}

#[test]
fn exploits_pass_their_own_filters_for_every_fig12_row() {
    // For each (non-heavy) Figure 12 program: replay the generated exploit
    // through the *actual program* with the concrete interpreter and
    // observe the subverted query — ground-truth validation.
    for spec in FIG12_ROWS.iter().filter(|s| !s.heavy) {
        let program = vulnerable_program(spec);
        let report = analyze(
            &program,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(report.findings.len(), 1, "{} has one finding", spec.name);
        let finding = &report.findings[0];
        let main = format!("posted_{}", spec.name);
        let exploit = finding.witnesses.get(&main).expect("main input witness");
        let filter = Regex::new("[\\d]+$").expect("compiles");
        assert!(filter.is_match(exploit), "{}: filter bypass", spec.name);
        assert!(exploit.contains(&b'\''), "{}: injection byte", spec.name);
        assert_eq!(finding.num_constraints, spec.c, "{}: |C|", spec.name);

        // Concrete replay: supply every witness as a request parameter,
        // run the program, and check a quote reached the database.
        let inputs: std::collections::HashMap<String, Vec<u8>> = finding
            .witnesses
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let result = dprle::lang::run(&program, &inputs)
            .unwrap_or_else(|e| panic!("{}: interpreter: {e}", spec.name));
        assert!(
            !result.exited,
            "{}: exploit must survive all guards",
            spec.name
        );
        assert!(
            result.any_query_contains(b'\''),
            "{}: the executed query must be subverted",
            spec.name
        );
    }
}

#[test]
fn every_fig12_assignment_is_maximal() {
    // The Maximal half of the paper's RMA definition (§3.1): no variable of
    // a returned assignment can take a larger language with the others
    // fixed. `extendable_vars` checks each single-occurrence variable
    // against the intersection of its universal quotients. All 17 rows,
    // `secure` included.
    let mut assignments = 0;
    for spec in FIG12_ROWS.iter() {
        let program = vulnerable_program(spec);
        let reaches = explore(&program, &SymexOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        for reach in &reaches {
            let (system, _) = to_system(reach, &Policy::sql_quote());
            for a in solve(&system, &SolveOptions::default()).assignments() {
                let grows = extendable_vars(&system, a);
                assert!(
                    grows.is_empty(),
                    "{}: {:?} can grow",
                    spec.name,
                    grows
                        .iter()
                        .map(|&v| system.var_name(v))
                        .collect::<Vec<_>>()
                );
                assignments += 1;
            }
        }
    }
    assert!(assignments >= FIG12_ROWS.len(), "every row is satisfiable");
}

#[test]
fn regex_to_solver_roundtrip() {
    // A language built by the regex crate, constrained through the solver,
    // verified by the automata crate.
    let mut sys = System::new();
    let v = sys.var("v");
    let hex = sys
        .constant_regex_exact("hex", "0x[0-9a-f]+")
        .expect("compiles");
    let short = sys.constant("short", dprle::automata::Nfa::length_between(0, 4));
    sys.require(Expr::Var(v), hex);
    sys.require(Expr::Var(v), short);
    let solution = solve(&sys, &SolveOptions::default());
    let lang = solution
        .first()
        .expect("sat")
        .get(v)
        .expect("assigned")
        .clone();
    assert!(lang.contains(b"0x1"));
    assert!(lang.contains(b"0xab"));
    assert!(!lang.contains(b"0xabc")); // length 5
    assert!(!lang.contains(b"xx"));
}

#[test]
fn cli_format_agrees_with_programmatic_api() {
    let parsed = dprle_cli::parse_file(
        r#"
        var v1;
        c1 := match(/[\d]+$/);
        c2 := "nid_";
        c3 := match(/'/);
        v1 <= c1;
        c2 . v1 <= c3;
        "#,
    )
    .expect("parses");
    let from_file = solve(&parsed.system, &SolveOptions::default());

    let mut sys = System::new();
    let v1 = sys.var("v1");
    let c1 = sys.constant_regex("c1", "[\\d]+$").expect("compiles");
    let c2 = sys.constant("c2", dprle::automata::Nfa::literal(b"nid_"));
    let c3 = sys.constant_regex("c3", "'").expect("compiles");
    sys.require(Expr::Var(v1), c1);
    sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
    let from_api = solve(&sys, &SolveOptions::default());

    let a = from_file.first().expect("sat");
    let b = from_api.first().expect("sat");
    let va = parsed.system.var_id("v1").expect("declared");
    assert!(dprle::automata::equivalent(
        a.get(va).expect("assigned"),
        b.get(v1).expect("assigned")
    ));
}

#[test]
fn solve_first_matches_some_full_solution() {
    let mut sys = System::new();
    let v1 = sys.var("v1");
    let v2 = sys.var("v2");
    let c1 = sys.constant_regex_exact("c1", "x(yy)+").expect("compiles");
    let c2 = sys.constant_regex_exact("c2", "(yy)*z").expect("compiles");
    let c3 = sys
        .constant_regex_exact("c3", "xyyz|xyyyyz")
        .expect("compiles");
    sys.require(Expr::Var(v1), c1);
    sys.require(Expr::Var(v2), c2);
    sys.require(Expr::Var(v1).concat(Expr::Var(v2)), c3);
    let first = solve_first(&sys, &SolveOptions::default()).expect("sat");
    let all = solve(&sys, &SolveOptions::default());
    assert!(
        all.assignments().iter().any(|a| a.equivalent_to(&first)),
        "the first solution is among the full set"
    );
}

#[test]
fn policies_are_ordered_by_strictness() {
    // Every stacked-query exploit is also a quote exploit.
    assert!(dprle::automata::is_subset(
        Policy::sql_stacked_query().language(),
        Policy::sql_quote().language()
    ));
}

#[test]
fn length_extension_composes_with_analysis_constraints() {
    // Restrict the exploit to at most 6 bytes and check the witness obeys.
    let mut sys = System::new();
    let v1 = sys.var("v1");
    let c1 = sys.constant_regex("c1", "[\\d]+$").expect("compiles");
    let c3 = sys.constant_regex("c3", "'").expect("compiles");
    let c2 = sys.constant("c2", dprle::automata::Nfa::literal(b"nid_"));
    sys.require(Expr::Var(v1), c1);
    sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
    sys.require_length(v1, 0, 6);
    let solution = solve(&sys, &SolveOptions::default());
    let w = solution
        .first()
        .expect("sat")
        .witness(v1)
        .expect("nonempty");
    assert!(w.len() <= 6);
    assert!(w.contains(&b'\''));
}

/// The string constants of all three front ends (native `"…"`, SMT-LIB
/// string terms, and the PHP analysis's literals) are single words, whose
/// constant-leaf check in gci is free: a solve that builds a product over
/// them records no constant-leaf inclusion query. The same constant
/// spelled as a regex is not structurally one word and takes a query per
/// distinct segment.
#[test]
fn front_end_string_constants_take_the_single_word_fast_path() {
    use dprle::automata::LangStore;
    use dprle::core::{try_solve_traced, CollectLedger, Ledger, QueryKind, Tracer};
    use std::sync::Arc;

    /// (gci products, gci inclusion queries) recorded by `solve`.
    fn gci_records(solve: impl FnOnce(&SolveOptions)) -> (usize, usize) {
        let sink = Arc::new(CollectLedger::new());
        let options = SolveOptions {
            ledger: Ledger::new(sink.clone()),
            ..SolveOptions::default()
        };
        solve(&options);
        let records = sink.take();
        let count = |kind| {
            records
                .iter()
                .filter(|r| r.site == "gci" && r.kind == kind)
                .count()
        };
        (count(QueryKind::Product), count(QueryKind::Inclusion))
    }
    let native = |program: &str| {
        gci_records(|options| {
            let parsed = dprle_cli::parse_file(program).expect("parses");
            let (solution, _) = try_solve_traced(
                &parsed.system,
                options,
                &LangStore::new(),
                &Tracer::disabled(),
            )
            .expect("unbudgeted");
            assert!(solution.is_sat());
        })
    };
    let program = "var v1; c1 := match(/[\\d]+$/); c2 := \"nid_\"; c3 := match(/'/); v1 <= c1; c2 . v1 <= c3;";
    let (products, queries) = native(program);
    assert!(products > 0, "gci ran over the constant leaf");
    assert_eq!(queries, 0, "native literal");
    let (_, queries) = native(&program.replace("\"nid_\"", "/nid_/"));
    assert!(
        queries > 0,
        "a regex constant is queried once per distinct segment"
    );

    let script = "(declare-const v1 String)\n(assert (str.in_re v1 (re.+ (re.range \"0\" \"9\"))))\n(assert (str.in_re (str.++ \"nid_\" v1) (re.++ re.all (str.to_re \"'\") re.all)))\n(check-sat)";
    let (products, queries) = gci_records(|options| {
        let run = dprle_cli::smtlib::run_script_shared(
            script,
            options,
            &Tracer::disabled(),
            Arc::new(LangStore::new()),
        )
        .expect("runs");
        assert_eq!(run.outputs.len(), 1);
    });
    assert!(products > 0, "gci ran over the constant leaf");
    assert_eq!(queries, 0, "SMT-LIB string term");

    for spec in FIG12_ROWS.iter() {
        let program = vulnerable_program(spec);
        let (products, queries) = gci_records(|options| {
            let report = analyze(
                &program,
                &Policy::sql_quote(),
                &SymexOptions::default(),
                options,
            )
            .expect("analysis succeeds");
            assert!(!report.findings.is_empty(), "{}", spec.name);
        });
        assert!(
            products > 0,
            "{}: gci ran over the constant leaves",
            spec.name
        );
        assert_eq!(queries, 0, "{}: PHP string literals", spec.name);
    }
}
