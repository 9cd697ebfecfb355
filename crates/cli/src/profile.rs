//! The `dprle profile` subcommand: offline views over query cost ledgers
//! written by `--ledger-out`.
//!
//! * `top` — the hottest queries by total wall time, with an optional
//!   flame-style per-span rollup from a `--trace-out` journal.
//! * `diff` — per-query cost deltas between two ledgers, matched by
//!   fingerprint pair and ranked by regression, with an optional
//!   `--fail-above PCT` gate (exit 1 on breach) for CI.
//! * `check` — validate a ledger against `docs/ledger.schema.json`
//!   (embedded by default, or `--schema FILE`).
//!
//! Exit codes follow the main binary: 0 = success, 1 = gate breached or
//! schema violation, 2 = usage/input error.

use dprle_core::{
    parse_ledger, render_diff, render_top, render_top_by_request, validate_ledger_jsonl,
    DiffOptions, LedgerRecord, LEDGER_SCHEMA,
};
use std::process::ExitCode;

const PROFILE_USAGE: &str =
    "usage: dprle profile top [--trace TRACE.jsonl] [--limit N] [--by-request] LEDGER.jsonl
       dprle profile diff [--limit N] [--fail-above PCT] OLD.jsonl NEW.jsonl
       dprle profile check [--schema FILE] LEDGER.jsonl
  inspects query cost ledgers written by `dprle --ledger-out`";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{PROFILE_USAGE}");
    ExitCode::from(2)
}

/// Reads and parses one ledger file. An empty file is an error — a ledger
/// with zero queries means the producing run recorded nothing, which is
/// never what a profiling session wants to silently succeed on.
fn read_ledger(path: &str) -> Result<Vec<LedgerRecord>, String> {
    let jsonl = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if jsonl.trim().is_empty() {
        return Err(format!("{path}: line 1: ledger is empty (no records)"));
    }
    parse_ledger(&jsonl).map_err(|e| format!("{path}: {e}"))
}

/// Entry point for `dprle profile ...` (argv excludes the subcommand
/// word itself).
pub fn profile_main(argv: &[String]) -> ExitCode {
    match argv.first().map(String::as_str) {
        Some("top") => top_main(&argv[1..]),
        Some("diff") => diff_main(&argv[1..]),
        Some("check") => check_main(&argv[1..]),
        Some("-h" | "--help") | None => usage_error("profile needs a view"),
        Some(other) => usage_error(&format!("unknown profile view `{other}`")),
    }
}

fn top_main(argv: &[String]) -> ExitCode {
    let mut trace_path: Option<String> = None;
    let mut limit = 20usize;
    let mut by_request = false;
    let mut ledger_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--by-request" => by_request = true,
            "--trace" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => return usage_error("--trace needs a file"),
                }
            }
            "--limit" => {
                i += 1;
                let Some(n) = argv.get(i).and_then(|n| n.parse::<usize>().ok()) else {
                    return usage_error("--limit needs a count");
                };
                limit = n;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"))
            }
            other => {
                if ledger_path.is_some() {
                    return usage_error("multiple ledger files");
                }
                ledger_path = Some(other.to_owned());
            }
        }
        i += 1;
    }
    let Some(ledger_path) = ledger_path else {
        return usage_error("top needs a ledger file");
    };
    let records = match read_ledger(&ledger_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dprle: {e}");
            return ExitCode::from(2);
        }
    };
    if by_request {
        // The rollup answers "which request cost what" — the span rollup
        // is a per-phase view and does not compose with it.
        if trace_path.is_some() {
            return usage_error("--by-request does not take --trace");
        }
        print!("{}", render_top_by_request(&records, limit));
        return ExitCode::SUCCESS;
    }
    let trace_jsonl = match &trace_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("dprle: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    match render_top(&records, trace_jsonl.as_deref(), limit) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dprle: {e}");
            ExitCode::from(2)
        }
    }
}

fn diff_main(argv: &[String]) -> ExitCode {
    let mut options = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--limit" => {
                i += 1;
                let Some(n) = argv.get(i).and_then(|n| n.parse::<usize>().ok()) else {
                    return usage_error("--limit needs a count");
                };
                options.limit = n;
            }
            "--fail-above" => {
                i += 1;
                let Some(pct) = argv.get(i).and_then(|p| p.parse::<f64>().ok()) else {
                    return usage_error("--fail-above needs a percentage");
                };
                options.fail_above_pct = Some(pct);
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"))
            }
            other => paths.push(other.to_owned()),
        }
        i += 1;
    }
    let [old_path, new_path] = paths.as_slice() else {
        return usage_error("diff needs OLD.jsonl and NEW.jsonl");
    };
    let (old, new) = match (read_ledger(old_path), read_ledger(new_path)) {
        (Ok(old), Ok(new)) => (old, new),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dprle: {e}");
            return ExitCode::from(2);
        }
    };
    let report = render_diff(&old, &new, &options);
    print!("{}", report.text);
    if report.gate_breached {
        eprintln!("dprle: profile diff gate breached");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn check_main(argv: &[String]) -> ExitCode {
    let mut schema_path: Option<String> = None;
    let mut ledger_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--schema" => {
                i += 1;
                match argv.get(i) {
                    Some(p) => schema_path = Some(p.clone()),
                    None => return usage_error("--schema needs a file"),
                }
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"))
            }
            other => {
                if ledger_path.is_some() {
                    return usage_error("multiple ledger files");
                }
                ledger_path = Some(other.to_owned());
            }
        }
        i += 1;
    }
    let Some(ledger_path) = ledger_path else {
        return usage_error("check needs a ledger file");
    };
    let jsonl = match std::fs::read_to_string(&ledger_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dprle: cannot read {ledger_path}: {e}");
            return ExitCode::from(2);
        }
    };
    if jsonl.trim().is_empty() {
        eprintln!("dprle: {ledger_path}: line 1: ledger is empty (no records)");
        return ExitCode::from(2);
    }
    let schema = match &schema_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("dprle: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => LEDGER_SCHEMA.to_owned(),
    };
    match validate_ledger_jsonl(&schema, &jsonl) {
        Ok(n) => match parse_ledger(&jsonl) {
            Ok(_) => {
                println!("schema: {n} records valid");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("dprle: schema violation: {ledger_path}: {e}");
                ExitCode::from(1)
            }
        },
        Err(e) => {
            eprintln!("dprle: schema violation: {e}");
            ExitCode::from(1)
        }
    }
}
