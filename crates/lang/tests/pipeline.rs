//! Crate-level pipeline tests: PHP source → parse → CFG/symex → analysis →
//! interpreter replay, all through the public API.

use dprle_core::SolveOptions;
use dprle_lang::symex::SymexOptions;
use dprle_lang::{analyze, parse_php, print_php, run, Cfg, Policy, Program};
use std::collections::HashMap;

/// A small "application" with two inputs, a case-folded check, an equality
/// gate, and two sinks on different paths.
const APP: &str = r#"<?php
$user = $_GET['user'];
$mode = $_POST['mode'];
if (!preg_match('/^[a-zA-Z0-9_\']{1,16}$/', $user)) {
    echo 'bad user';
    exit;
}
if ($mode == "admin") {
    query("SELECT * FROM admin WHERE u='" . strtolower($_POST['target']) . "'");
} else {
    query("SELECT * FROM users WHERE name=" . $user);
}
"#;

#[test]
fn whole_application_analysis() {
    let program = parse_php("app", APP).expect("parses");
    let cfg = Cfg::build(&program);
    assert!(
        cfg.num_blocks() >= 6,
        "branchy program: {}",
        cfg.num_blocks()
    );

    let report = analyze(
        &program,
        &Policy::sql_quote(),
        &SymexOptions::default(),
        &SolveOptions::default(),
    )
    .expect("analyzes");
    // Both sinks are exploitable: the admin one through strtolower (quotes
    // survive case folding), the user one through the filter's ' allowance.
    assert_eq!(report.total_sinks, 2);
    assert_eq!(report.findings.len(), 2, "both paths exploitable");

    for finding in &report.findings {
        // Replay each finding concretely: decide the mode gate from the
        // witnesses themselves.
        let mut inputs: HashMap<String, Vec<u8>> = finding
            .witnesses
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        // The filter requires `user` even on the admin path.
        inputs
            .entry("user".to_owned())
            .or_insert_with(|| b"x".to_vec());
        let result = run(&program, &inputs).expect("runs");
        assert!(
            !result.exited,
            "sink {} exploit must reach the query",
            finding.sink_index
        );
        assert!(
            result.any_query_contains(b'\''),
            "sink {} query must carry a quote",
            finding.sink_index
        );
    }
}

#[test]
fn roundtrip_through_printer_preserves_findings() {
    let program = parse_php("app", APP).expect("parses");
    let reprinted = print_php(&program);
    let reparsed = parse_php("app", &reprinted).expect("round-trips");
    assert_eq!(program, reparsed);
    let a = analyze(
        &program,
        &Policy::sql_quote(),
        &SymexOptions::default(),
        &SolveOptions::default(),
    )
    .expect("analyzes");
    let b = analyze(
        &reparsed,
        &Policy::sql_quote(),
        &SymexOptions::default(),
        &SolveOptions::default(),
    )
    .expect("analyzes");
    assert_eq!(a.findings.len(), b.findings.len());
}

#[test]
fn hardened_application_is_safe() {
    // Harden both sinks: a strict user filter, and on the admin path a
    // quote-rejecting guard on the lowered target with no quotes of the
    // query's own (the policy flags any quote). The guard tests the value
    // the query uses: a guard on the raw input cannot be linked to its
    // lowered use, and such a sink is an error, not safe.
    let hardened = APP
        .replace("[a-zA-Z0-9_\\']{1,16}", "[a-zA-Z0-9_]{1,16}")
        .replace(
            "query(\"SELECT * FROM admin WHERE u='\" . strtolower($_POST['target']) . \"'\");",
            "if (preg_match('/\\'/', strtolower($_POST['target']))) { exit; }\n    query(\"SELECT * FROM admin WHERE u=\" . strtolower($_POST['target']));",
        );
    assert_eq!(
        hardened.matches("strtolower").count(),
        2,
        "admin sink hardened"
    );
    assert!(
        hardened.contains("[a-zA-Z0-9_]{1,16}"),
        "user filter hardened"
    );
    let program = parse_php("hardened", &hardened).expect("parses");
    let report = analyze(
        &program,
        &Policy::sql_quote(),
        &SymexOptions::default(),
        &SolveOptions::default(),
    )
    .expect("analyzes");
    assert_eq!(report.findings.len(), 0, "hardened app has no findings");
    assert_eq!(report.safe_sinks, report.total_sinks);
}

#[test]
fn figure1_matches_builtin_constructor() {
    // The checked-in testdata file parses to the same program as the
    // built-in constructor.
    let source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../testdata/figure1.php"),
    )
    .expect("testdata present");
    let parsed = parse_php("utopia_figure1", &source).expect("parses");
    assert_eq!(parsed, Program::figure1());
}
