//! End-to-end tests driving the compiled `dprle` and `dprle-analyze`
//! binaries as a user would.

use std::io::Write as _;
use std::process::{Command, Output};

fn dprle(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dprle"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn dprle_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dprle-analyze"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("dprle_cli_test_{name}"));
    let mut f = std::fs::File::create(&path).expect("temp file");
    f.write_all(contents.as_bytes()).expect("write");
    path
}

const MOTIVATING: &str = r#"
var v1;
c1 := match(/[\d]+$/);
c2 := "nid_";
c3 := match(/'/);
v1 <= c1;
c2 . v1 <= c3;
"#;

#[test]
fn solver_finds_the_exploit() {
    let file = temp_file("motivating.dprle", MOTIVATING);
    let out = dprle(&["--witness", file.to_str().expect("utf8 path")]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sat: 1 disjunctive assignment"), "{stdout}");
    assert!(stdout.contains("v1 = "), "{stdout}");
    assert!(stdout.contains('\''), "witness carries the quote: {stdout}");
}

#[test]
fn solver_reports_unsat_with_exit_code_one() {
    let file = temp_file(
        "unsat.dprle",
        "var v;\na := /a/;\nb := /b/;\nv <= a;\nv <= b;\n",
    );
    let out = dprle(&[file.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("unsat"));
}

#[test]
fn solver_rejects_bad_files_with_exit_code_two() {
    let file = temp_file("bad.dprle", "this is not a constraint file");
    let out = dprle(&[file.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
    let missing = dprle(&["/nonexistent/path.dprle"]);
    assert_eq!(missing.status.code(), Some(2));
    let no_args = dprle(&[]);
    assert_eq!(no_args.status.code(), Some(2));
    // The removed inclusion-engine flag is rejected, not ignored.
    let good = temp_file("good.dprle", MOTIVATING);
    let out = dprle(&["--inclusion", "eager", good.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option `--inclusion`"), "{stderr}");
}

#[test]
fn solver_emits_dot_graph() {
    let file = temp_file("dot.dprle", MOTIVATING);
    let out = dprle(&["--dot-graph", file.to_str().expect("utf8 path")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    assert!(stdout.contains("v1"), "{stdout}");
}

const MOTIVATING_SMT: &str = r#"
(set-logic QF_S)
(declare-const v1 String)
(assert (str.in_re v1 (re.++ re.all (re.+ (re.range "0" "9")))))
(assert (str.in_re (str.++ "nid_" v1)
                   (re.++ re.all (str.to_re "'") re.all)))
(check-sat)
(get-model)
"#;

#[test]
fn solver_accepts_smtlib_scripts() {
    let file = temp_file("motivating.smt2", MOTIVATING_SMT);
    let out = dprle(&[file.to_str().expect("utf8 path")]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("sat"), "{stdout}");
    assert!(stdout.contains("define-fun v1"), "{stdout}");
    assert!(stdout.contains('\''), "{stdout}");
}

#[test]
fn solver_rejects_bad_smtlib() {
    let file = temp_file("bad.smt2", "(assert (str.in_re undeclared re.all))");
    let out = dprle(&[file.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2));
}

const FIGURE1_PHP: &str = r#"<?php
$newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) {
    echo 'Invalid article news ID.';
    exit;
}
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
"#;

#[test]
fn analyzer_reports_vulnerability_with_slice() {
    let file = temp_file("figure1.php", FIGURE1_PHP);
    let out = dprle_analyze(&["--slice", "--show-query", file.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1), "vulnerable exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VULNERABLE"), "{stdout}");
    assert!(stdout.contains("posted_newsid"), "{stdout}");
    assert!(stdout.contains("slice:"), "{stdout}");
    assert!(stdout.contains("preg_match"), "{stdout}");
}

#[test]
fn analyzer_reports_safe_for_fixed_filter() {
    let fixed = FIGURE1_PHP.replace("/[\\d]+$/", "/^[\\d]+$/");
    let file = temp_file("figure1_fixed.php", &fixed);
    let out = dprle_analyze(&[file.to_str().expect("utf8")]);
    assert!(out.status.success(), "safe exit code");
    assert!(String::from_utf8_lossy(&out.stdout).contains("SAFE"));
}

#[test]
fn analyzer_prints_alternatives() {
    let file = temp_file("figure1_alt.php", FIGURE1_PHP);
    let out = dprle_analyze(&["--alternatives", "3", file.to_str().expect("utf8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("alternative 1:"), "{stdout}");
    assert!(stdout.contains("alternative 2:"), "{stdout}");
}

#[test]
fn analyzer_enumerates_stacked_alternatives_in_bounded_memory() {
    // Enumerating a second exploit under the stacked policy once queued
    // every live byte successor of every word breadth-first and ran out
    // of memory. The address-space cap keeps a regression from taking
    // the machine down with it.
    let file = temp_file("figure1_stacked_alt.php", FIGURE1_PHP);
    let out = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 1500000 2>/dev/null; exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_dprle-analyze"),
            "--policy",
            "stacked",
            "--alternatives",
            "2",
            file.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exit status 1 is the analyzer's verdict for a vulnerable file.
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("VULNERABLE"), "{stdout}");
    assert!(stdout.contains("posted_newsid = \"';0\""), "{stdout}");
    assert!(stdout.contains("alternative 1: \"';1\""), "{stdout}");
}

#[test]
fn a_small_left_side_verifies_quickly_against_an_exponential_constant() {
    // `c`'s minimal DFA has about 2^21 states. Verification decides
    // `v . w <= c` against `c`'s canonical key only when keying `c` stays
    // under a state cap; past it, the antichain search explores the few
    // subsets `xy` reaches. The address-space cap keeps a regression from
    // taking the machine down with it.
    let file = temp_file(
        "exponential_constant.dprle",
        "var v w; x := /x/; y := /y/; c := /xy|[ab]*a[ab]{20}/; v <= x; w <= y; v . w <= c;",
    );
    let started = std::time::Instant::now();
    let out = Command::new("sh")
        .args([
            "-c",
            "ulimit -v 1500000 2>/dev/null; exec \"$0\" \"$@\"",
            env!("CARGO_BIN_EXE_dprle"),
            file.to_str().expect("utf8"),
        ])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("v -> x") && stdout.contains("w -> y"),
        "{stdout}"
    );
    assert!(
        started.elapsed().as_secs() < 10,
        "verified without determinizing the constant"
    );
}

#[test]
fn analyzer_fails_on_a_sink_it_cannot_constrain() {
    // `x = "'"` puts a quote in the query; the raw and lowered views of
    // `x` cannot be linked, so the sink is unanalyzed, not SAFE.
    let file = temp_file(
        "mixed_use.php",
        "<?php\n$x = $_GET['x'];\nquery(\"SELECT \" . $x . strtolower($x));\n",
    );
    let out = dprle_analyze(&[file.to_str().expect("utf8")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(!stdout.contains("SAFE"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("input `x` is used both raw and case-mapped on one path; unsupported"),
        "{stderr}"
    );
}

#[test]
fn analyzer_rejects_unparseable_php() {
    let file = temp_file("bad.php", "<?php for(;;) {}");
    let out = dprle_analyze(&[file.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn analyzer_xss_policy_on_echo_sinks() {
    let file = temp_file(
        "xss.php",
        "<?php\n$msg = $_GET['msg'];\necho \"<div>\" . $msg . \"</div>\";\n",
    );
    let out = dprle_analyze(&["--policy", "xss", file.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VULNERABLE"), "{stdout}");
    assert!(stdout.contains("<script"), "{stdout}");
}

#[test]
fn solver_prints_unsat_core() {
    let file = temp_file(
        "core.dprle",
        "var v w;\na := /a/;\nb := /b/;\nok := /x*/;\nv <= a;\nw <= ok;\nv <= b;\n",
    );
    let out = dprle(&["--core", file.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unsat core (2 constraints)"), "{stdout}");
    assert!(stdout.contains("v <= a"), "{stdout}");
    assert!(!stdout.contains("w <= ok"), "{stdout}");
}

fn repo_schema_path() -> String {
    format!(
        "{}/../../docs/trace.schema.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn trace_out_journal_is_schema_valid_and_counts_disjuncts() {
    let file = temp_file("trace_out.dprle", MOTIVATING);
    let journal = std::env::temp_dir().join("dprle_cli_test_trace_out.jsonl");
    let out = dprle(&[
        "--trace-out",
        journal.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let reported: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sat: "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("sat line")
        .parse()
        .expect("assignment count");
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    let valid = dprle_core::validate_jsonl(dprle_core::TRACE_SCHEMA, &jsonl).expect("schema-valid");
    assert!(valid > 0, "journal is non-empty");
    let disjuncts = jsonl
        .lines()
        .filter(|l| l.contains("\"kind\":\"GciDisjunct\""))
        .count();
    assert_eq!(
        disjuncts, reported,
        "one GciDisjunct event per reported disjunctive assignment\n{jsonl}"
    );
}

#[test]
fn trace_report_prints_phase_table_and_checks_schema() {
    let file = temp_file("trace_report.dprle", MOTIVATING);
    let journal = std::env::temp_dir().join("dprle_cli_test_trace_report.jsonl");
    let out = dprle(&[
        "--trace-out",
        journal.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let schema = repo_schema_path();
    let out = dprle(&[
        "trace-report",
        "--check-schema",
        &schema,
        journal.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("events valid"), "{stdout}");
    assert!(stdout.contains("per-phase wall time"), "{stdout}");
    for phase in ["solve", "reduce", "gci"] {
        assert!(stdout.contains(phase), "phase {phase} missing: {stdout}");
    }
}

#[test]
fn trace_report_rejects_journals_that_violate_the_schema() {
    let bogus = temp_file(
        "bogus_trace.jsonl",
        "{\"seq\":0,\"ts_us\":1,\"kind\":\"NotARealEvent\"}\n",
    );
    let schema = repo_schema_path();
    let out = dprle(&[
        "trace-report",
        "--check-schema",
        &schema,
        bogus.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema violation"));
}

#[test]
fn trace_summary_prints_phase_table_to_stderr() {
    let file = temp_file("trace_summary.dprle", MOTIVATING);
    let out = dprle(&["--trace=summary", file.to_str().expect("utf8 path")]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trace: per-phase wall time"), "{stderr}");
    assert!(stderr.contains("memo cache:"), "{stderr}");
}

#[test]
fn trace_streams_the_journal_to_stderr() {
    let file = temp_file("trace_stderr.dprle", MOTIVATING);
    let journal = std::env::temp_dir().join("dprle_cli_test_trace_stderr.jsonl");
    let out = dprle(&[
        "--trace",
        "--stats",
        "--trace-out",
        journal.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let zeroed = |line: &str| {
        let mut event = dprle_core::TraceEvent::from_json(line).expect("trace event");
        event.ts_us = 0;
        event.to_json()
    };
    // The journal lines, then the `stats:` lines printed after the solve.
    let streamed: Vec<String> = stderr
        .lines()
        .take_while(|l| !l.starts_with("stats: "))
        .map(zeroed)
        .collect();
    let written = std::fs::read_to_string(&journal).expect("journal written");
    dprle_core::validate_jsonl(dprle_core::TRACE_SCHEMA, &written).expect("schema-valid");
    assert_eq!(streamed, written.lines().map(zeroed).collect::<Vec<_>>());
    assert!(stderr.contains("stats: groups: 1"), "{stderr}");
}

#[test]
fn trace_dot_writes_provenance_graph() {
    let file = temp_file("trace_dot.dprle", MOTIVATING);
    let dot_path = std::env::temp_dir().join("dprle_cli_test_provenance.dot");
    let out = dprle(&[
        "--trace-dot",
        dot_path.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let dot = std::fs::read_to_string(&dot_path).expect("dot written");
    assert!(dot.starts_with("digraph solver_provenance"), "{dot}");
    assert!(dot.contains("visit(s)"), "{dot}");
}

/// Per-vertex visit counts of a `--trace-dot` provenance graph, by label
/// name.
fn dot_visits(dot: &str) -> std::collections::BTreeMap<String, u64> {
    dot.lines()
        .filter_map(|line| {
            let label = line.split_once("[label=\"")?.1;
            let (name, rest) = label.split_once("\\n")?;
            let visits = rest.split_once(" visit(s)")?.0.parse().ok()?;
            Some((name.to_owned(), visits))
        })
        .collect()
}

#[test]
fn trace_dot_attributes_a_duplicated_system_like_its_distinct_constraints() {
    // Every constant of duplicates.dprle is declared twice and every
    // constraint repeated. The solver decides the distinct constraints,
    // and the provenance graph is built from the same normalized system,
    // so every event's node id lands on the vertex it names: the visits
    // match motivating.dprle's, and the second copies are never visited.
    let testdata = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata");
    let visits = |file: &str| {
        let dot_path = std::env::temp_dir().join(format!("dprle_cli_test_{file}.dot"));
        let out = dprle(&[
            "--trace-dot",
            dot_path.to_str().expect("utf8"),
            &format!("{testdata}/{file}"),
        ]);
        assert!(out.status.success(), "{file}");
        dot_visits(&std::fs::read_to_string(&dot_path).expect("dot written"))
    };
    let distinct = visits("motivating.dprle");
    let duplicated = visits("duplicates.dprle");
    assert!(distinct.values().sum::<u64>() > 0);
    for (name, count) in &duplicated {
        match name.strip_suffix("_again") {
            Some(_) => assert_eq!(*count, 0, "{name}"),
            None => assert_eq!(distinct.get(name), Some(count), "{name}"),
        }
    }
    assert_eq!(duplicated.len(), distinct.len() + 3, "{duplicated:?}");
}

#[test]
fn stats_are_printed_even_when_unsat() {
    let file = temp_file(
        "unsat_stats.dprle",
        "var v;\na := /a/;\nb := /b/;\nv <= a;\nv <= b;\n",
    );
    let out = dprle(&["--stats", file.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stats: groups: 0"), "{stderr}");
    assert!(stderr.contains("stats: branches-filtered: 1"), "{stderr}");
}

#[test]
fn stats_and_tracing_work_for_smtlib_scripts() {
    let file = temp_file("stats.smt2", MOTIVATING_SMT);
    let journal = std::env::temp_dir().join("dprle_cli_test_smt_trace.jsonl");
    let out = dprle(&[
        "--stats",
        "--trace-out",
        journal.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("stats: groups:"), "{stderr}");
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    dprle_core::validate_jsonl(dprle_core::TRACE_SCHEMA, &jsonl).expect("schema-valid");
    assert!(jsonl.contains("\"kind\":\"SolveStart\""), "{jsonl}");
}

#[test]
fn analyzer_unroll_bound_controls_loop_findings() {
    let file = temp_file(
        "loop.php",
        "<?php\n$q = \"SELECT 1\";\nwhile (unknown(\"more\")) {\n    $q = $q . $_GET['x'];\n}\nquery($q);\n",
    );
    // With zero unrolling only the constant query remains: safe.
    let out = dprle_analyze(&["--unroll", "0", file.to_str().expect("utf8")]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    // With the default bound the loop body injects.
    let out = dprle_analyze(&[file.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn trace_report_errors_on_empty_journal() {
    // An interrupted run can leave a zero-byte journal behind; a "0
    // events" report used to exit 0 and silently bless it.
    let empty = temp_file("empty_trace.jsonl", "");
    let out = dprle(&["trace-report", empty.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(stderr.contains("empty"), "{stderr}");
    // Whitespace-only is the same condition.
    let blank = temp_file("blank_trace.jsonl", "\n\n");
    let out = dprle(&["trace-report", blank.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_report_errors_on_truncated_journal_with_line_number() {
    let file = temp_file("trunc_src.dprle", MOTIVATING);
    let journal = std::env::temp_dir().join("dprle_cli_test_trunc_trace.jsonl");
    let out = dprle(&[
        "--trace-out",
        journal.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    // Chop the journal mid-record, as a crashed producer would.
    let jsonl = std::fs::read_to_string(&journal).expect("journal written");
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2, "journal has several events");
    let last = lines.len() - 1;
    let truncated = format!(
        "{}\n{}\n",
        lines[..last].join("\n"),
        &lines[last][..lines[last].len() / 2]
    );
    let trunc = temp_file("trunc_trace.jsonl", &truncated);
    let out = dprle(&["trace-report", trunc.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("line {}", last + 1)),
        "error names the broken line: {stderr}"
    );
}

#[test]
fn metrics_report_errors_on_empty_and_truncated_snapshots() {
    let empty = temp_file("empty_metrics.jsonl", "");
    let out = dprle(&["metrics-report", empty.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
    assert!(stderr.contains("empty"), "{stderr}");

    let file = temp_file("trunc_metrics_src.dprle", MOTIVATING);
    let snapshot_path = std::env::temp_dir().join("dprle_cli_test_trunc_metrics.jsonl");
    let out = dprle(&[
        "--metrics-out",
        snapshot_path.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    let jsonl = std::fs::read_to_string(&snapshot_path).expect("snapshot written");
    let trunc = temp_file("trunc_metrics.jsonl", &jsonl[..jsonl.len() / 2]);
    let out = dprle(&["metrics-report", trunc.to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line"),
        "truncated snapshot error names a line: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn repo_ledger_schema_path() -> String {
    format!(
        "{}/../../docs/ledger.schema.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn ledger_out_is_schema_valid_and_profile_views_render() {
    let file = temp_file("ledger_out.dprle", MOTIVATING);
    let ledger = std::env::temp_dir().join("dprle_cli_test_ledger_out.jsonl");
    let out = dprle(&[
        "--ledger-out",
        ledger.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let schema = repo_ledger_schema_path();
    let out = dprle(&[
        "profile",
        "check",
        "--schema",
        &schema,
        ledger.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("records valid"));

    let out = dprle(&["profile", "top", ledger.to_str().expect("utf8")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hottest queries"), "{stdout}");
    assert!(stdout.contains("Inclusion"), "{stdout}");
    assert!(stdout.contains("Product"), "{stdout}");

    // One-shot ledgers are untagged; the per-request rollup groups them
    // all under the placeholder bucket.
    let out = dprle(&[
        "profile",
        "top",
        "--by-request",
        ledger.to_str().expect("utf8"),
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hottest requests"), "{stdout}");
    assert!(stdout.contains("(untagged)"), "{stdout}");
}

#[test]
fn one_shot_journals_and_ledgers_omit_request_ids() {
    // `request_id` is a serve-plane tag joining journal and ledger rows
    // to a response. One-shot runs must omit the field entirely — not
    // emit `"request_id":null` — so the byte-compare determinism gates
    // (identical output across `--jobs` levels) never see it.
    let file = temp_file("untagged.dprle", MOTIVATING);
    let journal = std::env::temp_dir().join("dprle_cli_test_untagged_trace.jsonl");
    let ledger = std::env::temp_dir().join("dprle_cli_test_untagged_ledger.jsonl");
    let out = dprle(&[
        "--trace-out",
        journal.to_str().expect("utf8"),
        "--ledger-out",
        ledger.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for path in [&journal, &ledger] {
        let jsonl = std::fs::read_to_string(path).expect("output written");
        assert!(jsonl.lines().count() > 0, "{} is empty", path.display());
        assert!(
            !jsonl.contains("request_id"),
            "{} mentions request_id:\n{jsonl}",
            path.display()
        );
    }
}

#[test]
fn profile_diff_names_the_seeded_regression_first_and_gates() {
    let file = temp_file("ledger_diff.dprle", MOTIVATING);
    let old = std::env::temp_dir().join("dprle_cli_test_ledger_old.jsonl");
    let out = dprle(&[
        "--ledger-out",
        old.to_str().expect("utf8"),
        file.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    // Seed a large constant regression into exactly one record; the diff
    // must rank that query's fingerprint pair first and trip the gate.
    let jsonl = std::fs::read_to_string(&old).expect("ledger written");
    let victim = jsonl.lines().next().expect("nonempty ledger");
    let (prefix, rest) = victim
        .split_once("\"ts_us\":")
        .expect("record carries ts_us");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let old_us: u64 = digits.parse().expect("ts_us is numeric");
    let slowed = format!(
        "{prefix}\"ts_us\":{}{}",
        old_us + 100_000,
        &rest[digits.len()..]
    );
    let fp = victim
        .split_once("\"lhs_fp\":\"")
        .expect("record carries fingerprints")
        .1
        .split('"')
        .next()
        .expect("fp digits")
        .to_owned();
    let new_jsonl: String = jsonl
        .lines()
        .map(|l| if l == victim { slowed.as_str() } else { l })
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        });
    let new = temp_file("ledger_new.jsonl", &new_jsonl);
    let out = dprle(&[
        "profile",
        "diff",
        "--fail-above",
        "50",
        old.to_str().expect("utf8"),
        new.to_str().expect("utf8"),
    ]);
    assert_eq!(out.status.code(), Some(1), "gate breached");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first_row = stdout
        .lines()
        .find(|l| l.contains('⊆'))
        .expect("ranked rows");
    assert!(
        first_row.contains(&fp),
        "seeded query ranked first: {first_row}\nfull: {stdout}"
    );
}

#[test]
fn profile_errors_on_empty_or_missing_ledgers() {
    let empty = temp_file("empty_ledger.jsonl", "");
    for view in [vec!["profile", "top"], vec!["profile", "check"]] {
        let mut argv = view.clone();
        argv.push(empty.to_str().expect("utf8"));
        let out = dprle(&argv);
        assert_eq!(out.status.code(), Some(2), "{view:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("empty"),
            "{view:?}"
        );
    }
    let out = dprle(&[
        "profile",
        "diff",
        "/nonexistent/a.jsonl",
        "/nonexistent/b.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let out = dprle(&["profile"]);
    assert_eq!(out.status.code(), Some(2));
    let out = dprle(&["profile", "nonsense"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn budgeted_blowup_exits_3() {
    // Mirrors the CI budgeted-blowup step: a binding product budget must
    // exit 3 (graceful ResourceExhausted) — never a panic — and still
    // write a metrics snapshot that registers the inclusion work counter.
    let file = temp_file("budgeted_blowup.dprle", MOTIVATING);
    let metrics = std::env::temp_dir().join("dprle_cli_test_exhausted.jsonl");
    let out = dprle(&[
        "--max-product-states",
        "2",
        "--metrics-out",
        metrics.to_str().expect("utf8 path"),
        file.to_str().expect("utf8 path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.contains("resource budget exhausted"), "{stderr}");
    let snapshot = std::fs::read_to_string(&metrics).expect("exhaustion snapshot written");
    assert!(
        snapshot.contains("\"name\":\"automata.inclusion.macrostates\""),
        "snapshot missing the inclusion work counter"
    );
}

#[test]
fn core_search_reaches_the_ledger_metrics_and_journal() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/../../testdata/unsat.dprle");
    let dir = std::env::temp_dir();
    let run = |tag: &str, core: bool| {
        let ledger = dir.join(format!("dprle_cli_test_core_{tag}_ledger.jsonl"));
        let journal = dir.join(format!("dprle_cli_test_core_{tag}_trace.jsonl"));
        let metrics = dir.join(format!("dprle_cli_test_core_{tag}_metrics.jsonl"));
        let mut args = vec![
            "--ledger-out",
            ledger.to_str().expect("utf8"),
            "--trace-out",
            journal.to_str().expect("utf8"),
            "--metrics-out",
            metrics.to_str().expect("utf8"),
        ];
        if core {
            args.push("--core");
        }
        args.push(input);
        let out = dprle(&args);
        assert_eq!(out.status.code(), Some(1), "unsat");
        let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("written");
        (read(&ledger), read(&journal), read(&metrics))
    };
    let (plain_ledger, plain_journal, plain_metrics) = run("plain", false);
    let (core_ledger, core_journal, core_metrics) = run("core", true);
    assert_eq!(plain_ledger.lines().count(), 1, "{plain_ledger}");
    // The main solve's record, then the trials' own: the core search does
    // not solve the whole system again to confirm it is unsat.
    assert_eq!(core_ledger.lines().count(), 8, "{core_ledger}");
    let unstamped = |line: &str| -> String {
        let cut = |s: &str, field: &str| -> String {
            let start = s.find(field).expect("field present");
            let end = start + s[start..].find(',').expect("more fields follow");
            format!("{}{}", &s[..start], &s[end + 1..])
        };
        cut(&cut(line, "\"seq\":"), "\"ts_us\":")
    };
    for record in plain_ledger.lines().map(unstamped) {
        let copies = core_ledger
            .lines()
            .filter(|l| unstamped(l) == record)
            .count();
        assert_eq!(
            copies, 1,
            "the main solve's record appears once: {core_ledger}"
        );
    }
    let trials = |journal: &str| journal.matches("\"UnsatCoreTrial\"").count();
    assert_eq!(trials(&plain_journal), 0);
    // `unsat.dprle` has three distinct constraints, each tried once.
    assert_eq!(trials(&core_journal), 3, "{core_journal}");
    let product_states = |metrics: &str| -> u64 {
        let line = metrics
            .lines()
            .find(|l| l.contains("\"core.solve.product_states\""))
            .expect("counter present");
        let value = line.rsplit("\"value\":").next().expect("value");
        value.trim_end_matches('}').parse().expect("integer")
    };
    assert!(
        product_states(&core_metrics) > product_states(&plain_metrics),
        "the trials' products are counted"
    );
}

/// `dprle` rejects `program` (an SMT-LIB script when `name` ends in
/// `.smt2`) with exit 2 and `message` on stderr within ten seconds, and
/// `dprle serve` answers it with one parse-error naming `message`, then
/// answers the next request.
fn assert_rejected_by_the_cli_and_by_serve(name: &str, program: &str, message: &str) {
    let file = temp_file(name, program);
    let started = std::time::Instant::now();
    let out = dprle(&[file.to_str().expect("utf8 path")]);
    assert!(
        started.elapsed().as_secs() < 10,
        "rejected before any blowup"
    );
    assert_eq!(out.status.code(), Some(2), "a parse error, not an abort");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");

    // `dprle serve` answers the line with one parse-error, then goes on.
    let escaped = program
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    let language = if name.ends_with(".smt2") {
        ",\"language\":\"smtlib\""
    } else {
        ""
    };
    let bad = format!("{{\"id\":\"bad\"{language},\"input\":\"{escaped}\"}}\n");
    let stdout = serve_stdin(&[bad.as_bytes(), NEXT_REQUEST.as_bytes()]);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(
        response(&stdout, "bad").contains("\"kind\":\"parse-error\""),
        "{stdout}"
    );
    assert!(response(&stdout, "bad").contains(message), "{stdout}");
    assert!(
        response(&stdout, "next").contains("\"kind\":\"sat\""),
        "{stdout}"
    );
}

/// A request `dprle serve` answers `sat`, with id `next`.
const NEXT_REQUEST: &str = "{\"id\":\"next\",\"input\":\"var v; c := \\\"x\\\"; v <= c;\"}\n";

/// Runs `dprle serve` on `input` (written piece by piece) until the end of
/// its input; returns what it printed.
fn serve_stdin(input: &[&[u8]]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dprle"))
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut stdin = child.stdin.take().expect("stdin");
    for piece in input {
        stdin.write_all(piece).expect("write requests");
    }
    drop(stdin);
    let out = child
        .wait_with_output()
        .expect("serve exits at end of input");
    assert!(out.status.success(), "{:?}", out.status);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The response line carrying `"id":"{id}"`: responses are written as they
/// complete, so each is found by its id.
fn response<'a>(stdout: &'a str, id: &str) -> &'a str {
    let tag = format!("\"id\":\"{id}\"");
    stdout.lines().find(|l| l.contains(&tag)).expect("answered")
}

#[test]
fn a_deeply_nested_regex_is_rejected_by_the_cli_and_by_serve() {
    let depth = 100_000;
    let program = format!(
        "var v;\nc := match(/{}a{}/);\nv <= c;\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    assert_rejected_by_the_cli_and_by_serve("deep_regex.dprle", &program, "nested too deeply");
}

#[test]
fn a_regex_past_the_state_budget_is_rejected_by_the_cli_and_by_serve() {
    // `a{1,2}` stacked 24 times would compile to about 10 · 2^24 states;
    // the tenth `{1,2}`, at offset 46, crosses the budget.
    let program = format!("var v;\nc := /a{}/;\nv <= c;\n", "{1,2}".repeat(24));
    assert_rejected_by_the_cli_and_by_serve(
        "stacked_regex.dprle",
        &program,
        "too many states at offset 46",
    );
}

#[test]
fn nested_smtlib_loops_are_rejected_by_the_cli_and_by_serve() {
    // Sixteen nested `((_ re.loop 1 2) …)` (364 bytes) once ran for
    // longer than any timeout; the tenth from the inside crosses the
    // state budget native `{1,2}` repeats answer to.
    let script = format!(
        "(declare-const x String)\n(assert (str.in_re x {}(str.to_re \"a\"){}))\n(check-sat)\n",
        "((_ re.loop 1 2) ".repeat(16),
        ")".repeat(16)
    );
    assert_eq!(script.len(), 364);
    assert_rejected_by_the_cli_and_by_serve("loop16.smt2", &script, "too many states");
}

#[test]
fn deeply_nested_smtlib_is_rejected_by_the_cli_and_by_serve() {
    // 5 000 levels (35 KB) once overflowed a serve session's stack and
    // aborted the whole process; 100 000 levels (700 KB) aborted `dprle`.
    for depth in [5_000, 100_000] {
        let script = format!(
            "(declare-const x String)\n(assert (str.in_re x {}(str.to_re \"a\"){}))\n(check-sat)\n",
            "(re.* ".repeat(depth),
            ")".repeat(depth)
        );
        assert_rejected_by_the_cli_and_by_serve(
            "deep.smt2",
            &script,
            "lists nest deeper than 200 levels",
        );
    }
}

#[test]
fn long_concatenations_are_rejected_by_the_cli_and_by_serve() {
    // 5 000 native operands and 100 000 SMT-LIB ones once overflowed the
    // stack of `dprle`; 2 000 native ones aborted `dprle serve`.
    for operands in [2_000, 5_000] {
        let program = format!(
            "var x; c := /.*/; a := \"a\";\n{}x <= c;\n",
            "a . ".repeat(operands - 1)
        );
        assert_rejected_by_the_cli_and_by_serve(
            "long.dprle",
            &program,
            "more than 256 operands in one concatenation",
        );
    }
    for operands in [257, 100_000] {
        let script = format!(
            "(declare-const x String)\n(assert (str.in_re (str.++ {}x) re.all))\n(check-sat)\n",
            "\"a\" ".repeat(operands - 1)
        );
        assert_rejected_by_the_cli_and_by_serve(
            "long.smt2",
            &script,
            "str.++ has more than 256 operands",
        );
    }
    let program = format!(
        "var x; c := /.*/;\n{}x{} <= c;\n",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    assert_rejected_by_the_cli_and_by_serve(
        "parens.dprle",
        &program,
        "parentheses nest deeper than 256 levels",
    );
    // At the limit, `dprle` answers.
    let program = format!(
        "var x; c := /.*/; a := \"a\";\n{}x <= c;\n",
        "a . ".repeat(255)
    );
    let out = dprle(&[temp_file("long256.dprle", &program).to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn a_complement_past_the_state_budget_is_rejected_by_the_cli_and_by_serve() {
    // This took 4.15 s of wall time under `--deadline-ms 100` and exited 3,
    // determinizing while the script was read.
    let script = "(declare-const x String)\n(assert (str.in_re x (re.comp (re.++ re.all (str.to_re \"a\") ((_ re.loop 19 19) re.allchar)))))\n(check-sat)\n";
    assert_rejected_by_the_cli_and_by_serve(
        "comp19.smt2",
        script,
        "too many states: `re.comp` determinizes past the budget of 8192",
    );
    let small = script.replace("19 19", "3 3");
    let out = dprle(&[temp_file("comp3.smt2", &small).to_str().expect("utf8")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "sat");
}

#[test]
fn analyzer_rejects_deep_nesting_and_long_concatenations() {
    let deep = format!(
        "<?php\n$x = $_GET['x'];\n{}query(\"SELECT \" . $x);\n{}",
        "if (!preg_match(\"/[0-9]+/\", $x)) {\n".repeat(20_000),
        "}\n".repeat(20_000)
    );
    let long = format!(
        "<?php\n$x = $_GET['x'];\nquery(\"SELECT \"{});\n",
        " . $x".repeat(100_000)
    );
    for (name, source, message) in [
        (
            "deep.php",
            deep,
            "line 203: blocks and calls nest deeper than 200 levels",
        ),
        (
            "long.php",
            long,
            "more than the 256 one constraint may have",
        ),
    ] {
        let file = temp_file(name, &source);
        let out = dprle_analyze(&[file.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(2), "a typed error, not an abort");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    }
}

#[test]
fn serve_answers_an_over_cap_stdin_line_once_and_then_the_next() {
    // 1 MiB of one request line, written in pieces, with no newline
    // until the end: one parse-error naming the cap, then the next line.
    let cap = 1 << 20;
    let head = b"{\"id\":\"big\",\"input\":\"".as_slice();
    let filler = vec![b'x'; 64 * 1024];
    let mut input: Vec<&[u8]> = vec![head];
    input.extend(std::iter::repeat_n(
        filler.as_slice(),
        cap / filler.len() + 1,
    ));
    input.push(b"\"}\n");
    input.push(NEXT_REQUEST.as_bytes());
    let stdout = serve_stdin(&input);
    assert_eq!(
        stdout.lines().count(),
        2,
        "{}",
        &stdout[..stdout.len().min(400)]
    );
    // The line is not parsed, so its id is not echoed.
    assert!(!stdout.contains("\"id\":\"big\""), "{stdout}");
    let big = stdout
        .lines()
        .find(|l| l.contains("\"id\":null"))
        .expect("answered");
    assert!(big.contains("\"kind\":\"parse-error\""), "{big}");
    assert!(big.contains(&format!("{cap}-byte cap")), "{big}");
    assert!(
        response(&stdout, "next").contains("\"kind\":\"sat\""),
        "{stdout}"
    );
}
