//! Determinism harness: proves the branch-parallel worklist solver is
//! byte-identical to the sequential one across the whole corpus.
//!
//! Every corpus entry — the `testdata/` constraint files, the PHP audit
//! sources behind the examples, and generated multi-group / random
//! systems — is solved once per `--jobs` value, and each run must agree
//! with the first on four facets:
//!
//! 1. **Solutions**: per-variable canonical fingerprints of every
//!    assignment, in order (the deterministic-merge ordering).
//! 2. **Stats**: every [`SolveStats`] counter and human-readable event
//!    string (the struct has no timing fields, so full equality is the
//!    "counters excluding timings" check).
//! 3. **Trace journal**: the JSONL event stream with `ts_us` zeroed —
//!    wall-clock time is the only permitted difference; span ids and
//!    sequence numbers are replayed in sequential order by design.
//! 4. **Metrics snapshot**: every run installs a fresh metrics registry,
//!    and its final snapshot — serialized with a zeroed timestamp — must
//!    be byte-identical: counters, gauge peaks, and histogram buckets all
//!    reflect work recorded only at thread-count-invariant sites.
//!
//! Each run rebuilds its system from scratch (re-parse, re-explore,
//! re-generate). This is load-bearing, not paranoia: `Lang` handles carry
//! interior once-cached fingerprints, so a system reused across runs
//! would answer later runs' lookups from caches the first run warmed,
//! skewing the hit/miss counters.
//!
//! Zeroed-timestamp journals are written to `target/determinism/` so CI
//! can upload them as artifacts and a human can diff them directly.
//!
//! Usage: `cargo run -p dprle-bench --bin determinism --release [--jobs 1,4,8]`
//!
//! Exits 1 if any entry diverges at any jobs value.

use dprle_automata::LangStore;
use dprle_cli::parse_file;
use dprle_cli::smtlib::run_script_with_stats;
use dprle_core::{
    solve_traced, CollectSink, Metrics, Solution, SolveOptions, SolveStats, System, Tracer,
};
use dprle_corpus::scaling::{multi_group_system, random_system, RandomSystemConfig};
use dprle_lang::symex::{SinkKind, SymexOptions};
use dprle_lang::{build_system, explore, parse_php, Policy};
use std::sync::Arc;

/// Everything one solve run produces that must match across jobs values.
struct RunResult {
    /// One line per assignment: `var=<canonical key>` pairs in `var_ids`
    /// order, or the single line `UNSAT`.
    solutions: Vec<String>,
    stats: SolveStats,
    /// JSONL journal lines with `ts_us` zeroed.
    journal: Vec<String>,
    /// Metrics-snapshot JSONL lines with the `Meta` timestamp zeroed.
    metrics: Vec<String>,
}

fn traced_options(jobs: usize) -> SolveOptions {
    SolveOptions {
        jobs,
        metrics: Metrics::enabled(),
        ..SolveOptions::default()
    }
}

fn zeroed_metrics(metrics: &Metrics) -> Vec<String> {
    metrics
        .snapshot()
        .expect("registry installed by traced_options")
        .to_jsonl(0)
        .lines()
        .map(str::to_owned)
        .collect()
}

fn solution_lines(system: &System, solution: &Solution) -> Vec<String> {
    match solution {
        Solution::Unsat => vec!["UNSAT".to_owned()],
        Solution::Assignments(list) => list
            .iter()
            .map(|a| {
                system
                    .var_ids()
                    .map(|v| {
                        let key = a
                            .get(v)
                            .map(|l| format!("{:?}", l.fingerprint()))
                            .unwrap_or_else(|| "<unassigned>".to_owned());
                        format!("{}={key}", system.var_name(v))
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect(),
    }
}

fn zeroed_journal(sink: &CollectSink) -> Vec<String> {
    sink.take()
        .into_iter()
        .map(|mut e| {
            e.ts_us = 0;
            e.to_json()
        })
        .collect()
}

/// Solves one freshly built system with a fresh store and tracer.
fn run_system(system: &System, jobs: usize) -> RunResult {
    let options = traced_options(jobs);
    let sink = Arc::new(CollectSink::new());
    let tracer = Tracer::new(sink.clone());
    let store = LangStore::interning(options.interning);
    let (solution, stats) = solve_traced(system, &options, &store, &tracer);
    RunResult {
        solutions: solution_lines(system, &solution),
        stats,
        journal: zeroed_journal(&sink),
        metrics: zeroed_metrics(&options.metrics),
    }
}

/// One named corpus entry: `build(jobs)` must rebuild everything from
/// scratch and return the run's comparable facets.
struct Entry {
    name: String,
    build: Box<dyn Fn(usize) -> RunResult>,
}

fn testdata(file: &str) -> String {
    let path = format!("{}/../../testdata/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn dprle_entry(file: &'static str) -> Entry {
    Entry {
        name: format!("testdata/{file}"),
        build: Box::new(move |jobs| {
            let parsed = parse_file(&testdata(file)).expect("testdata parses");
            run_system(&parsed.system, jobs)
        }),
    }
}

fn smt2_entry(file: &'static str) -> Entry {
    Entry {
        name: format!("testdata/{file}"),
        build: Box::new(move |jobs| {
            let options = traced_options(jobs);
            let sink = Arc::new(CollectSink::new());
            let tracer = Tracer::new(sink.clone());
            let run = run_script_with_stats(&testdata(file), &options, &tracer)
                .expect("testdata script runs");
            RunResult {
                // The script's own outputs (sat/unsat verdicts and model
                // lines) are the solution-level facet here.
                solutions: run.outputs.iter().map(|o| o.to_string()).collect(),
                stats: run.stats,
                journal: zeroed_journal(&sink),
                metrics: zeroed_metrics(&options.metrics),
            }
        }),
    }
}

/// One entry per security-sensitive sink of a PHP source: the same
/// systems the `xss_audit`/`audit_corpus` examples solve.
fn php_entries(file: &'static str, policy: fn() -> Policy, kind: Option<SinkKind>) -> Vec<Entry> {
    let symex = SymexOptions {
        track_echo: kind == Some(SinkKind::Echo),
        ..SymexOptions::default()
    };
    let source = testdata(file);
    let program = parse_php(file, &source).expect("testdata PHP parses");
    let reaches = explore(&program, &symex).expect("explores");
    let sinks = reaches
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .count();
    (0..sinks)
        .map(|i| Entry {
            name: format!("testdata/{file}#sink{i}"),
            build: Box::new(move |jobs| {
                // Re-parse and re-explore: fresh machines, cold caches.
                let symex = SymexOptions {
                    track_echo: kind == Some(SinkKind::Echo),
                    ..SymexOptions::default()
                };
                let program = parse_php(file, &testdata(file)).expect("testdata PHP parses");
                let reaches = explore(&program, &symex).expect("explores");
                let reach = reaches
                    .iter()
                    .filter(|r| kind.is_none_or(|k| r.kind == k))
                    .nth(i)
                    .expect("sink index stable across re-exploration");
                let generated = build_system(reach, &policy()).expect("builds");
                run_system(&generated.system, jobs)
            }),
        })
        .collect()
}

fn generated_entry(name: &str, make: impl Fn() -> System + 'static) -> Entry {
    Entry {
        name: name.to_owned(),
        build: Box::new(move |jobs| run_system(&make(), jobs)),
    }
}

fn corpus() -> Vec<Entry> {
    let mut entries = vec![
        dprle_entry("motivating.dprle"),
        dprle_entry("unsat.dprle"),
        dprle_entry("duplicates.dprle"),
        smt2_entry("motivating.smt2"),
    ];
    entries.extend(php_entries("figure1.php", Policy::sql_quote, None));
    entries.extend(php_entries(
        "xss.php",
        Policy::xss_script_tag,
        Some(SinkKind::Echo),
    ));
    entries.push(generated_entry("corpus/multi_group_3x2", || {
        multi_group_system(3, 2)
    }));
    entries.push(generated_entry("corpus/multi_group_2x3", || {
        multi_group_system(2, 3)
    }));
    for seed in 0..5u64 {
        entries.push(generated_entry(&format!("corpus/random_seed{seed}"), {
            move || random_system(seed, &RandomSystemConfig::default())
        }));
    }
    entries
}

fn write_lines(dir: &str, entry: &str, suffix: &str, lines: &[String]) {
    let safe: String = entry
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = format!("{dir}/{safe}.{suffix}.jsonl");
    let mut body = lines.join("\n");
    if !body.is_empty() {
        body.push('\n');
    }
    if let Err(e) = std::fs::write(&path, body) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn write_run(dir: &str, entry: &str, jobs: usize, run: &RunResult) {
    write_lines(dir, entry, &format!("jobs{jobs}"), &run.journal);
    write_lines(dir, entry, &format!("metrics.jobs{jobs}"), &run.metrics);
}

/// Reports the first differing line between two journals.
fn first_journal_diff(a: &[String], b: &[String]) -> Option<(usize, String, String)> {
    for i in 0..a.len().max(b.len()) {
        let (la, lb) = (a.get(i), b.get(i));
        if la != lb {
            return Some((
                i,
                la.cloned().unwrap_or_else(|| "<missing>".to_owned()),
                lb.cloned().unwrap_or_else(|| "<missing>".to_owned()),
            ));
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let jobs_list: Vec<usize> = match args.iter().position(|a| a == "--jobs") {
        Some(i) => args
            .get(i + 1)
            .map(|s| {
                s.split(',')
                    .map(|n| {
                        n.parse::<usize>()
                            .ok()
                            .filter(|n| *n >= 1)
                            .unwrap_or_else(|| {
                                eprintln!("--jobs needs positive integers, got `{n}`");
                                std::process::exit(2);
                            })
                    })
                    .collect()
            })
            .unwrap_or_else(|| {
                eprintln!("--jobs needs a comma-separated list");
                std::process::exit(2);
            }),
        None => vec![1, 4, 8],
    };

    let dir = "target/determinism";
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {dir}: {e}");
    }

    let mut failures = 0usize;
    let entries = corpus();
    println!(
        "determinism: {} corpus entries x jobs {:?}",
        entries.len(),
        jobs_list
    );
    for entry in &entries {
        let baseline_jobs = jobs_list[0];
        let baseline = (entry.build)(baseline_jobs);
        write_run(dir, &entry.name, baseline_jobs, &baseline);
        let mut verdict = "identical";
        for &jobs in &jobs_list[1..] {
            let run = (entry.build)(jobs);
            write_run(dir, &entry.name, jobs, &run);
            let mut entry_diverged = false;
            if run.solutions != baseline.solutions {
                eprintln!(
                    "DIVERGENCE {}: solutions differ at jobs={jobs} vs jobs={baseline_jobs}\n  jobs={baseline_jobs}: {:?}\n  jobs={jobs}: {:?}",
                    entry.name, baseline.solutions, run.solutions
                );
                entry_diverged = true;
            }
            if run.stats != baseline.stats {
                eprintln!(
                    "DIVERGENCE {}: stats differ at jobs={jobs} vs jobs={baseline_jobs}\n  jobs={baseline_jobs}: {:?}\n  jobs={jobs}: {:?}",
                    entry.name, baseline.stats, run.stats
                );
                entry_diverged = true;
            }
            if let Some((line, a, b)) = first_journal_diff(&baseline.journal, &run.journal) {
                eprintln!(
                    "DIVERGENCE {}: journal differs at jobs={jobs} vs jobs={baseline_jobs}, line {line}\n  jobs={baseline_jobs}: {a}\n  jobs={jobs}: {b}",
                    entry.name
                );
                entry_diverged = true;
            }
            if let Some((line, a, b)) = first_journal_diff(&baseline.metrics, &run.metrics) {
                eprintln!(
                    "DIVERGENCE {}: metrics snapshot differs at jobs={jobs} vs jobs={baseline_jobs}, line {line}\n  jobs={baseline_jobs}: {a}\n  jobs={jobs}: {b}",
                    entry.name
                );
                entry_diverged = true;
            }
            if entry_diverged {
                failures += 1;
                verdict = "DIVERGED";
            }
        }
        println!(
            "  {:<36} {:>4} journal events, {:>3} solution line(s): {verdict}",
            entry.name,
            baseline.journal.len(),
            baseline.solutions.len()
        );
    }

    if failures > 0 {
        eprintln!(
            "\n{failures} corpus entr{} diverged",
            if failures == 1 { "y" } else { "ies" }
        );
        std::process::exit(1);
    }
    println!("\nall entries byte-identical across jobs {jobs_list:?} (journals in {dir}/)");
}
