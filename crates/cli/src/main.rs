//! The stand-alone `dprle` constraint solver.
//!
//! ```text
//! dprle [OPTIONS] FILE
//! dprle serve [SERVE-OPTIONS]
//! dprle watch [--interval-ms N] [--count N] HOST:PORT
//! dprle trace-report [--check-schema SCHEMA] TRACE.jsonl
//! dprle metrics-report [--check-schema] [--top K] METRICS.jsonl
//! dprle profile top|diff|check ...
//!
//! `FILE` may be in the native constraint format (see `dprle_cli` docs) or
//! an SMT-LIB 2.6 strings script (`.smt2` extension — see
//! `dprle_cli::smtlib` for the supported fragment).
//!
//! Options:
//!   --first            stop at the first satisfying assignment
//!   --all              print every disjunctive assignment (default)
//!   --witness          print one shortest witness string per variable
//!   --dot-graph        print the dependency graph in DOT and exit
//!   --dot-var NAME     print the solved machine for NAME in DOT
//!   --no-verify        skip re-verification of produced assignments
//!   --core             on unsat, print a minimal unsatisfiable core
//!   --trace            write the structured event journal to stderr
//!                      as JSONL (the `--trace-out` lines)
//!   --trace=summary    print a per-phase time table after solving
//!   --trace-out FILE   write the structured event journal as JSONL
//!   --trace-dot FILE   write the provenance-annotated dependency graph
//!   --stats            print solver counters (cache hits, worklist depth)
//!   --metrics-out FILE write a metrics snapshot after solving
//!   --metrics-format F snapshot format: `json` (default) or `prom`
//!   --ledger-out FILE  write one JSONL record per inclusion/product
//!                      query (the cost ledger; see `dprle profile`)
//!   --max-product-states N  abort once N product states were explored
//!   --max-live-states N     abort once N solution-machine states are live
//!   --deadline-ms N    abort the solve after N milliseconds
//!   --store-max-bytes N  LRU byte cap on the language store's memo
//!                      tables (default unbounded); eviction changes hit
//!                      rates, never answers
//!   -h, --help         this message
//!
//! Serve options (`dprle serve` — JSONL request/response service, see
//! `dprle_cli::serve` for the wire schema):
//!   --sessions N       concurrent worker sessions (default 4)
//!   --listen ADDR      serve over TCP at ADDR instead of stdin/stdout
//!                      (prints `listening HOST:PORT` on stdout; use
//!                      `--listen 127.0.0.1:0` for an ephemeral port)
//!   --store-max-bytes N  shared-store LRU byte cap
//!   --max-product-states/--max-live-states/--deadline-ms
//!                      per-request defaults (requests may override each)
//!   --jobs N           ignored (N must be a positive integer); kept only
//!                      because perfbench still passes it, which ROADMAP
//!                      item 1 removes
//!   --metrics-out/--metrics-format/--ledger-out  flushed at shutdown
//!   --admin ADDR       HTTP/1.1 admin plane at ADDR: GET /metrics
//!                      (Prometheus), /healthz, /readyz (503 while
//!                      draining), /slow (slowest requests as JSON);
//!                      implies an enabled metrics registry
//!   --trace-out FILE   shared trace journal, every event stamped with
//!                      its request_id
//!   --slow-log FILE    JSONL log of slow requests (docs/slowlog.schema.json)
//!   --slow-ms N        slow-log threshold in milliseconds (default 0:
//!                      log every request)
//!
//! Watch (`dprle watch HOST:PORT`) polls a serve admin plane's /metrics
//! and renders live solves/sec, queue-wait and solve p50/p99, store
//! hit-rate, and eviction deltas:
//!   --interval-ms N    poll interval (default 1000)
//!   --count N          stop after N samples (default: until ^C)
//! ```
//!
//! The `trace-report` subcommand re-reads a `--trace-out` journal offline
//! and prints the same per-phase summary (optionally validating every line
//! against a JSON schema first). The `metrics-report` subcommand re-reads
//! a `--metrics-out` JSON snapshot and prints the top-K most expensive
//! operations (optionally validating it against the bundled
//! `docs/metrics.schema.json` first). The `profile` subcommand inspects
//! `--ledger-out` cost ledgers: `top` ranks the hottest queries, `diff`
//! compares two ledgers per-query (with an optional `--fail-above PCT` CI
//! gate), and `check` validates a ledger against
//! `docs/ledger.schema.json`.
//!
//! Exit codes: 0 = sat (or report success), 1 = unsat (or schema
//! violation), 2 = usage/input error, 3 = resource budget exhausted.

mod profile;
mod watch;

use dprle_cli::parse_file;
use dprle_core::{
    parse_snapshot, provenance_dot, render_report, solver_graph, try_solve_traced, validate_jsonl,
    validate_metrics_jsonl, Budget, CollectLedger, CollectSink, JsonlSink, Ledger, Metrics,
    Solution, SolveOptions, SolveStats, System, TeeSink, TraceReport, TraceSink, Tracer,
};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: dprle [--first] [--witness] [--dot-graph] [--dot-var NAME] [--no-verify] [--trace[=summary]] [--trace-out FILE] [--trace-dot FILE] [--stats] [--metrics-out FILE] [--metrics-format json|prom] [--ledger-out FILE] [--max-product-states N] [--max-live-states N] [--deadline-ms N] [--store-max-bytes N] FILE
       dprle serve [--sessions N] [--listen ADDR] [--store-max-bytes N] [--jobs N] [--max-product-states N] [--max-live-states N] [--deadline-ms N] [--metrics-out FILE] [--metrics-format json|prom] [--ledger-out FILE] [--admin ADDR] [--trace-out FILE] [--slow-log FILE] [--slow-ms N]
       dprle watch [--interval-ms N] [--count N] HOST:PORT
       dprle trace-report [--check-schema SCHEMA] TRACE.jsonl
       dprle metrics-report [--check-schema] [--top K] METRICS.jsonl
       dprle profile top|diff|check ... (see `dprle profile --help`)
  solves a system of subset constraints over regular languages
  (see the dprle-cli crate docs for the input format)
  `dprle serve --jobs N` is ignored: it stays only while perfbench passes
  it, and ROADMAP item 1 removes that";

/// Exit status for a solve aborted by `--max-product-states`,
/// `--max-live-states`, or `--deadline-ms`.
const EXIT_EXHAUSTED: u8 = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Prom,
}

struct Args {
    file: String,
    first: bool,
    witness: bool,
    dot_graph: bool,
    dot_var: Option<String>,
    verify: bool,
    trace: bool,
    trace_summary: bool,
    trace_out: Option<String>,
    trace_dot: Option<String>,
    core: bool,
    stats: bool,
    metrics_out: Option<String>,
    metrics_format: MetricsFormat,
    ledger_out: Option<String>,
    max_product_states: Option<u64>,
    max_live_states: Option<u64>,
    deadline_ms: Option<u64>,
    store_max_bytes: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        first: false,
        witness: false,
        dot_graph: false,
        dot_var: None,
        verify: true,
        trace: false,
        trace_summary: false,
        trace_out: None,
        trace_dot: None,
        core: false,
        stats: false,
        metrics_out: None,
        metrics_format: MetricsFormat::Json,
        ledger_out: None,
        max_product_states: None,
        max_live_states: None,
        deadline_ms: None,
        store_max_bytes: None,
    };
    fn budget_arg(argv: &[String], i: usize, flag: &str) -> Result<u64, String> {
        let n = argv.get(i).ok_or_else(|| format!("{flag} needs a count"))?;
        n.parse::<u64>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} needs a positive integer, got `{n}`"))
    }
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--first" => args.first = true,
            "--all" => args.first = false,
            "--witness" => args.witness = true,
            "--dot-graph" => args.dot_graph = true,
            "--no-verify" => args.verify = false,
            "--trace" => args.trace = true,
            "--trace=summary" => args.trace_summary = true,
            "--trace-out" => {
                i += 1;
                let path = argv.get(i).ok_or("--trace-out needs a file")?;
                args.trace_out = Some(path.clone());
            }
            "--trace-dot" => {
                i += 1;
                let path = argv.get(i).ok_or("--trace-dot needs a file")?;
                args.trace_dot = Some(path.clone());
            }
            "--core" => args.core = true,
            "--stats" => args.stats = true,
            "--metrics-out" => {
                i += 1;
                let path = argv.get(i).ok_or("--metrics-out needs a file")?;
                args.metrics_out = Some(path.clone());
            }
            "--metrics-format" => {
                i += 1;
                let format = argv.get(i).ok_or("--metrics-format needs json or prom")?;
                args.metrics_format = match format.as_str() {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prom,
                    other => {
                        return Err(format!(
                            "--metrics-format must be json or prom, got `{other}`"
                        ))
                    }
                };
            }
            "--ledger-out" => {
                i += 1;
                let path = argv.get(i).ok_or("--ledger-out needs a file")?;
                args.ledger_out = Some(path.clone());
            }
            "--max-product-states" => {
                i += 1;
                args.max_product_states = Some(budget_arg(argv, i, "--max-product-states")?);
            }
            "--max-live-states" => {
                i += 1;
                args.max_live_states = Some(budget_arg(argv, i, "--max-live-states")?);
            }
            "--deadline-ms" => {
                i += 1;
                args.deadline_ms = Some(budget_arg(argv, i, "--deadline-ms")?);
            }
            "--store-max-bytes" => {
                i += 1;
                // Unlike the budget flags a cap of 0 is meaningful (evict
                // everything immediately — the harshest ablation).
                let n = argv.get(i).ok_or("--store-max-bytes needs a byte count")?;
                args.store_max_bytes = Some(n.parse::<u64>().map_err(|_| {
                    format!("--store-max-bytes needs a nonnegative integer, got `{n}`")
                })?);
            }
            "--dot-var" => {
                i += 1;
                let name = argv.get(i).ok_or("--dot-var needs a name")?;
                args.dot_var = Some(name.clone());
            }
            "-h" | "--help" => return Err(USAGE.to_owned()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{USAGE}"))
            }
            other => {
                if !args.file.is_empty() {
                    return Err(format!("multiple input files\n{USAGE}"));
                }
                args.file = other.to_owned();
            }
        }
        i += 1;
    }
    if args.file.is_empty() {
        return Err(USAGE.to_owned());
    }
    Ok(args)
}

/// The tracer plus handles to its sinks: the collector backs `--trace=summary`
/// and `--trace-dot` (both need the events after the solve), the JSONL sink
/// backs `--trace-out` and is kept typed so deferred write errors surface at
/// the final flush. `--trace` streams the same JSONL lines to stderr.
struct TraceSetup {
    tracer: Tracer,
    collect: Option<Arc<CollectSink>>,
    jsonl: Option<Arc<JsonlSink<BufWriter<File>>>>,
}

impl TraceSetup {
    fn from_args(args: &Args) -> Result<TraceSetup, String> {
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        let collect = if args.trace_summary || args.trace_dot.is_some() {
            let sink = Arc::new(CollectSink::new());
            sinks.push(sink.clone());
            Some(sink)
        } else {
            None
        };
        let jsonl = match &args.trace_out {
            Some(path) => {
                let file =
                    File::create(path).map_err(|e| format!("dprle: cannot write {path}: {e}"))?;
                let sink = Arc::new(JsonlSink::new(BufWriter::new(file)));
                sinks.push(sink.clone());
                Some(sink)
            }
            None => None,
        };
        if args.trace {
            sinks.push(Arc::new(JsonlSink::new(std::io::stderr())));
        }
        let tracer = match sinks.len() {
            0 => Tracer::disabled(),
            1 => Tracer::new(sinks.pop().expect("one sink")),
            _ => Tracer::new(Arc::new(TeeSink(sinks))),
        };
        Ok(TraceSetup {
            tracer,
            collect,
            jsonl,
        })
    }

    /// Flushes the journal and renders the summary / provenance outputs.
    /// Returns an error message if any file write failed.
    fn finish(&self, args: &Args, system: &System) -> Result<(), String> {
        if let Some(jsonl) = &self.jsonl {
            jsonl
                .flush()
                .map_err(|e| format!("dprle: writing trace journal: {e}"))?;
        }
        let Some(collect) = &self.collect else {
            return Ok(());
        };
        let events = collect.snapshot();
        if args.trace_summary {
            match TraceReport::from_events(&events) {
                Ok(report) => eprint!("{}", report.render()),
                Err(e) => return Err(format!("dprle: trace summary: {e}")),
            }
        }
        if let Some(path) = &args.trace_dot {
            let dot = provenance_dot(&solver_graph(system), system, &events);
            std::fs::write(path, dot).map_err(|e| format!("dprle: cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}

fn print_stats(stats: &SolveStats) {
    for line in stats.to_string().lines() {
        eprintln!("stats: {line}");
    }
}

/// Writes the registry snapshot to `--metrics-out` in the selected
/// format. A no-op when the flag is absent (the registry is then the
/// disabled handle and has no snapshot to give).
fn write_metrics(args: &Args, metrics: &Metrics) -> Result<(), String> {
    let Some(path) = &args.metrics_out else {
        return Ok(());
    };
    let Some(snapshot) = metrics.snapshot() else {
        return Ok(());
    };
    let text = match args.metrics_format {
        MetricsFormat::Json => {
            let ts_us = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
                .unwrap_or(0);
            snapshot.to_jsonl(ts_us)
        }
        MetricsFormat::Prom => snapshot.to_prometheus(),
    };
    std::fs::write(path, text).map_err(|e| format!("dprle: cannot write {path}: {e}"))
}

/// Writes the collected cost ledger to `--ledger-out` as JSONL. A no-op
/// when the flag is absent (no sink was installed, so the ledger handle in
/// `SolveOptions` was the disabled one and no records exist).
fn write_ledger(args: &Args, sink: &Option<Arc<CollectLedger>>) -> Result<(), String> {
    let (Some(path), Some(sink)) = (&args.ledger_out, sink) else {
        return Ok(());
    };
    std::fs::write(path, sink.to_jsonl()).map_err(|e| format!("dprle: cannot write {path}: {e}"))
}

fn trace_report_main(argv: &[String]) -> ExitCode {
    let mut schema_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check-schema" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => schema_path = Some(p.clone()),
                    None => {
                        eprintln!("--check-schema needs a file\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => {
                if trace_path.is_some() {
                    eprintln!("multiple trace files\n{USAGE}");
                    return ExitCode::from(2);
                }
                trace_path = Some(other.to_owned());
            }
        }
        i += 1;
    }
    let Some(trace_path) = trace_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let jsonl = match std::fs::read_to_string(&trace_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dprle: cannot read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    // An empty journal means the producing run was interrupted before its
    // first event (or the wrong file was passed); a "0 events" report would
    // silently bless that, so it is an input error instead.
    if jsonl.trim().is_empty() {
        eprintln!("dprle: {trace_path}: line 1: trace journal is empty (no events)");
        return ExitCode::from(2);
    }
    if let Some(schema_path) = schema_path {
        let schema = match std::fs::read_to_string(&schema_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dprle: cannot read {schema_path}: {e}");
                return ExitCode::from(2);
            }
        };
        match validate_jsonl(&schema, &jsonl) {
            Ok(n) => println!("schema: {n} events valid"),
            Err(e) => {
                eprintln!("dprle: schema violation: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let events = match dprle_core::parse_jsonl(&jsonl) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("dprle: {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    match TraceReport::from_events(&events) {
        Ok(report) => {
            print!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dprle: {trace_path}: {e}");
            ExitCode::from(2)
        }
    }
}

fn metrics_report_main(argv: &[String]) -> ExitCode {
    let mut check_schema = false;
    let mut top = 10usize;
    let mut metrics_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check-schema" => check_schema = true,
            "--top" => {
                i += 1;
                let Some(k) = argv.get(i).and_then(|k| k.parse::<usize>().ok()) else {
                    eprintln!("--top needs a count\n{USAGE}");
                    return ExitCode::from(2);
                };
                top = k;
            }
            "-h" | "--help" => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => {
                if metrics_path.is_some() {
                    eprintln!("multiple metrics files\n{USAGE}");
                    return ExitCode::from(2);
                }
                metrics_path = Some(other.to_owned());
            }
        }
        i += 1;
    }
    let Some(metrics_path) = metrics_path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let jsonl = match std::fs::read_to_string(&metrics_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dprle: cannot read {metrics_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if jsonl.trim().is_empty() {
        eprintln!("dprle: {metrics_path}: line 1: metrics snapshot is empty (no entries)");
        return ExitCode::from(2);
    }
    if check_schema {
        match validate_metrics_jsonl(&jsonl) {
            Ok(n) => println!("schema: {n} lines valid"),
            Err(e) => {
                eprintln!("dprle: schema violation: {e}");
                return ExitCode::from(1);
            }
        }
    }
    match parse_snapshot(&jsonl) {
        Ok(snapshot) => {
            print!("{}", render_report(&snapshot, top));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dprle: {metrics_path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// `dprle serve`: boots the multi-session solver service over
/// stdin/stdout (default) or a TCP socket (`--listen`), then flushes the
/// metrics snapshot and cost ledger after a graceful shutdown
/// (stdin EOF or SIGTERM/SIGINT).
fn serve_main(argv: &[String]) -> ExitCode {
    use dprle_cli::serve::{
        install_sigterm_flag, serve_admin, serve_stdio, serve_tcp, ServeConfig, SolverService,
    };

    let mut config = ServeConfig::default();
    let mut listen: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_format = MetricsFormat::Json;
    let mut ledger_out: Option<String> = None;
    let mut admin: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut slow_log: Option<String> = None;
    let mut slow_ms: u64 = 0;
    fn count_arg(argv: &[String], i: usize, flag: &str) -> Result<u64, String> {
        let n = argv.get(i).ok_or_else(|| format!("{flag} needs a count"))?;
        n.parse::<u64>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} needs a positive integer, got `{n}`"))
    }
    let mut i = 0;
    let parsed: Result<(), String> = loop {
        if i >= argv.len() {
            break Ok(());
        }
        match argv[i].as_str() {
            "--sessions" => match count_arg(argv, i + 1, "--sessions") {
                Ok(n) => {
                    config.sessions = n as usize;
                    i += 1;
                }
                Err(e) => break Err(e),
            },
            "--listen" => {
                i += 1;
                match argv.get(i) {
                    Some(addr) => listen = Some(addr.clone()),
                    None => break Err("--listen needs an address".to_owned()),
                }
            }
            "--store-max-bytes" => {
                i += 1;
                let Some(n) = argv.get(i) else {
                    break Err("--store-max-bytes needs a byte count".to_owned());
                };
                match n.parse::<u64>() {
                    Ok(n) => config.store_max_bytes = Some(n),
                    Err(_) => {
                        break Err(format!(
                            "--store-max-bytes needs a nonnegative integer, got `{n}`"
                        ))
                    }
                }
            }
            "--jobs" => match count_arg(argv, i + 1, "--jobs") {
                Ok(n) => {
                    config.jobs = n as usize;
                    i += 1;
                }
                Err(e) => break Err(e),
            },
            "--max-product-states" => match count_arg(argv, i + 1, "--max-product-states") {
                Ok(n) => {
                    config.max_product_states = Some(n);
                    i += 1;
                }
                Err(e) => break Err(e),
            },
            "--max-live-states" => match count_arg(argv, i + 1, "--max-live-states") {
                Ok(n) => {
                    config.max_live_states = Some(n);
                    i += 1;
                }
                Err(e) => break Err(e),
            },
            "--deadline-ms" => match count_arg(argv, i + 1, "--deadline-ms") {
                Ok(n) => {
                    config.deadline_ms = Some(n);
                    i += 1;
                }
                Err(e) => break Err(e),
            },
            "--metrics-out" => {
                i += 1;
                match argv.get(i) {
                    Some(path) => metrics_out = Some(path.clone()),
                    None => break Err("--metrics-out needs a file".to_owned()),
                }
            }
            "--metrics-format" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("json") => metrics_format = MetricsFormat::Json,
                    Some("prom") => metrics_format = MetricsFormat::Prom,
                    _ => break Err("--metrics-format must be json or prom".to_owned()),
                }
            }
            "--ledger-out" => {
                i += 1;
                match argv.get(i) {
                    Some(path) => ledger_out = Some(path.clone()),
                    None => break Err("--ledger-out needs a file".to_owned()),
                }
            }
            "--admin" => {
                i += 1;
                match argv.get(i) {
                    Some(addr) => admin = Some(addr.clone()),
                    None => break Err("--admin needs an address".to_owned()),
                }
            }
            "--trace-out" => {
                i += 1;
                match argv.get(i) {
                    Some(path) => trace_out = Some(path.clone()),
                    None => break Err("--trace-out needs a file".to_owned()),
                }
            }
            "--slow-log" => {
                i += 1;
                match argv.get(i) {
                    Some(path) => slow_log = Some(path.clone()),
                    None => break Err("--slow-log needs a file".to_owned()),
                }
            }
            "--slow-ms" => {
                i += 1;
                // Unlike the budget flags a threshold of 0 is meaningful
                // (log every request).
                let Some(n) = argv.get(i) else {
                    break Err("--slow-ms needs a millisecond count".to_owned());
                };
                match n.parse::<u64>() {
                    Ok(n) => slow_ms = n,
                    Err(_) => {
                        break Err(format!("--slow-ms needs a nonnegative integer, got `{n}`"))
                    }
                }
            }
            "-h" | "--help" => break Err(USAGE.to_owned()),
            other => break Err(format!("unknown serve option `{other}`\n{USAGE}")),
        }
        i += 1;
    };
    if let Err(msg) = parsed {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    config.collect_ledger = ledger_out.is_some();
    // The admin plane's /metrics is useless against a disabled registry,
    // so --admin implies an enabled one even without --metrics-out.
    let metrics = if metrics_out.is_some() || admin.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let service = Arc::new(SolverService::new(config, metrics.clone()));
    if let Some(path) = &slow_log {
        match File::create(path) {
            Ok(file) => service.set_slow_log(Box::new(BufWriter::new(file)), slow_ms),
            Err(e) => {
                eprintln!("dprle: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // The shared journal; every request's events are stamped with its
    // request_id, so the interleaved file stays joinable.
    let trace_sink = match &trace_out {
        Some(path) => match File::create(path) {
            Ok(file) => {
                let sink = Arc::new(JsonlSink::new(BufWriter::new(file)));
                service.set_trace_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("dprle: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let shutdown = install_sigterm_flag();
    // The admin plane outlives the serve loop (so /readyz can report the
    // drain) and is stopped explicitly once the loop returns.
    let admin_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let admin_thread = match &admin {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("dprle: cannot bind admin listener on {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            // Stderr, not stdout: in stdio mode stdout is the response
            // channel.
            match listener.local_addr() {
                Ok(bound) => eprintln!("dprle: serve: admin listening {bound}"),
                Err(_) => eprintln!("dprle: serve: admin listening {addr}"),
            }
            let service = Arc::clone(&service);
            let stop = Arc::clone(&admin_stop);
            Some(std::thread::spawn(move || {
                serve_admin(&service, listener, shutdown, &stop)
            }))
        }
        None => None,
    };
    match &listen {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("dprle: cannot listen on {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            // The bound address goes to stdout (the response channel is
            // the socket, so stdout is free) — callers binding port 0
            // read the real port from here.
            match listener.local_addr() {
                Ok(bound) => println!("listening {bound}"),
                Err(_) => println!("listening {addr}"),
            }
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            if let Err(e) = serve_tcp(&service, listener, shutdown) {
                eprintln!("dprle: serve: {e}");
                return ExitCode::from(2);
            }
        }
        None => serve_stdio(&service, shutdown),
    }
    // Drain complete: stop the admin plane, then flush the artifacts.
    admin_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(thread) = admin_thread {
        if let Err(e) = thread.join().unwrap_or(Ok(())) {
            eprintln!("dprle: serve: admin: {e}");
        }
    }
    if let Some(sink) = &trace_sink {
        if let Err(e) = sink.flush() {
            eprintln!("dprle: writing trace journal: {e}");
            return ExitCode::from(2);
        }
    }
    // Flush the shutdown artifacts. Reuse the one-shot writers via a
    // minimal Args so the formats stay identical.
    if let Some(path) = &metrics_out {
        let flush = Args {
            metrics_out: Some(path.clone()),
            metrics_format,
            ..empty_args()
        };
        if let Err(msg) = write_metrics(&flush, &metrics) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &ledger_out {
        if let Err(e) = std::fs::write(path, service.ledger_jsonl()) {
            eprintln!("dprle: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!(
        "dprle: serve: handled {} request(s), shutting down",
        service.requests_handled()
    );
    ExitCode::SUCCESS
}

/// A default `Args` for code paths (serve shutdown flush) that reuse the
/// one-shot helpers without a real command line.
fn empty_args() -> Args {
    Args {
        file: String::new(),
        first: false,
        witness: false,
        dot_graph: false,
        dot_var: None,
        verify: true,
        trace: false,
        trace_summary: false,
        trace_out: None,
        trace_dot: None,
        core: false,
        stats: false,
        metrics_out: None,
        metrics_format: MetricsFormat::Json,
        ledger_out: None,
        max_product_states: None,
        max_live_states: None,
        deadline_ms: None,
        store_max_bytes: None,
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("trace-report") {
        return trace_report_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("metrics-report") {
        return metrics_report_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("profile") {
        return profile::profile_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("serve") {
        return serve_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("watch") {
        return watch::watch_main(&argv[1..], USAGE);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let input = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dprle: cannot read {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let setup = match TraceSetup::from_args(&args) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let metrics = if args.metrics_out.is_some() {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    // The ledger collects in memory and is written once at exit so the
    // file is complete JSONL even on the exhausted paths.
    let ledger_sink = args
        .ledger_out
        .as_ref()
        .map(|_| Arc::new(CollectLedger::new()));
    let ledger = ledger_sink
        .as_ref()
        .map_or_else(Ledger::disabled, |sink| Ledger::new(sink.clone()));
    let options = SolveOptions {
        max_assignments: if args.first { Some(1) } else { None },
        verify: args.verify,
        metrics: metrics.clone(),
        budget: Budget {
            max_product_states: args.max_product_states,
            max_live_states: args.max_live_states,
            deadline: args.deadline_ms.map(Duration::from_millis),
        },
        ledger,
        ..Default::default()
    };
    // Both input formats solve against this store; the optional LRU byte
    // cap applies to either.
    let store = dprle_automata::LangStore::new();
    store.set_max_bytes(args.store_max_bytes);
    if args.file.ends_with(".smt2") {
        let store = Arc::new(store);
        let run = match dprle_cli::smtlib::run_script_shared(&input, &options, &setup.tracer, store)
        {
            Ok(run) => run,
            Err(e) => {
                eprintln!("dprle: {}: {e}", args.file);
                // A budget breach is a solver outcome, not a script error:
                // the partial metrics still get written, and the exit code
                // tells the two apart.
                if e.exhausted.is_some() {
                    if let Err(msg) = write_metrics(&args, &metrics) {
                        eprintln!("{msg}");
                    }
                    if let Err(msg) = write_ledger(&args, &ledger_sink) {
                        eprintln!("{msg}");
                    }
                    return ExitCode::from(EXIT_EXHAUSTED);
                }
                return ExitCode::from(2);
            }
        };
        if args.stats {
            print_stats(&run.stats);
        }
        if let Err(msg) = write_metrics(&args, &metrics) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
        if let Err(msg) = write_ledger(&args, &ledger_sink) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
        if let Err(msg) = setup.finish(&args, &run.system) {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
        for o in run.outputs {
            println!("{o}");
        }
        return ExitCode::SUCCESS;
    }
    let parsed = match parse_file(&input) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dprle: {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let system = parsed.system;

    if args.dot_graph {
        let graph = dprle_core::DependencyGraph::from_system(&system);
        print!("{}", graph.to_dot(&system));
        return ExitCode::SUCCESS;
    }

    let (solution, stats) = match try_solve_traced(&system, &options, &store, &setup.tracer) {
        Ok(run) => run,
        Err(exhausted) => {
            if args.stats {
                print_stats(&exhausted.stats);
            }
            if let Err(msg) = write_metrics(&args, &metrics) {
                eprintln!("{msg}");
            }
            if let Err(msg) = write_ledger(&args, &ledger_sink) {
                eprintln!("{msg}");
            }
            if let Err(msg) = setup.finish(&args, &system) {
                eprintln!("{msg}");
            }
            eprintln!("dprle: {exhausted}");
            return ExitCode::from(EXIT_EXHAUSTED);
        }
    };
    // Stats are printed on every exit path — sat, unsat, and early-unsat —
    // before the solution is inspected, so `--stats` never goes silent.
    if args.stats {
        print_stats(&stats);
    }
    // The core search re-solves constraint subsets with the run's store,
    // metrics, ledger and tracer, so it runs before their files are
    // written; the solve above has already found the system unsat. A
    // budget tuned for the full system would spuriously abort those
    // probes, so it runs unlimited.
    let core = match solution {
        Solution::Unsat if args.core => {
            let mut core_options = options.clone();
            core_options.budget = Budget::default();
            Some(dprle_core::unsat_core_of_unsat(
                &system,
                &core_options,
                &store,
                &setup.tracer,
            ))
        }
        _ => None,
    };
    if let Err(msg) = write_metrics(&args, &metrics) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    if let Err(msg) = write_ledger(&args, &ledger_sink) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    if let Err(msg) = setup.finish(&args, &system) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    match solution {
        Solution::Unsat => {
            println!("unsat: no satisfying assignments");
            if let Some(core) = core {
                println!("unsat core ({} constraints):", core.indices.len());
                for line in core.display(&system).lines() {
                    println!("  {line}");
                }
            }
            ExitCode::from(1)
        }
        Solution::Assignments(assignments) => {
            println!(
                "sat: {} disjunctive assignment{}",
                assignments.len(),
                if assignments.len() == 1 { "" } else { "s" }
            );
            for (i, a) in assignments.iter().enumerate() {
                println!("--- assignment {}", i + 1);
                for v in system.var_ids() {
                    let Some(machine) = a.get(v) else { continue };
                    if let Some(name) = &args.dot_var {
                        if system.var_name(v) == name {
                            print!("{}", dprle_automata::dot::nfa_to_dot(machine, name));
                            continue;
                        }
                    }
                    if args.witness {
                        match a.witness(v) {
                            Some(w) => println!(
                                "{} = {:?}",
                                system.var_name(v),
                                String::from_utf8_lossy(&w)
                            ),
                            None => println!("{} = (empty language)", system.var_name(v)),
                        }
                    } else {
                        println!(
                            "{} -> {}",
                            system.var_name(v),
                            dprle_regex::display_lang(machine, 400)
                        );
                    }
                }
            }
            ExitCode::SUCCESS
        }
    }
}
