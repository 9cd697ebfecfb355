//! CI performance smoke test over all 17 Figure 12 rows, `secure` included.
//!
//! Re-measures every row and judges it against the checked-in
//! `BENCH_fig12.json` baseline with three gates:
//!
//! * **Exact work counters.** Each row's `states-materialized`,
//!   `product-states` and `fingerprint-misses` must equal the baseline's.
//!   They are deterministic and machine-independent, so any difference is a
//!   change in the work the solver does, never noise.
//! * **`secure` wall time.** The heavy row's untraced solve time may not
//!   exceed 1 s, over ten times the 0.05–0.09 s it takes on a 2-vCPU
//!   x86-64 VM.
//! * **Median solve time.** The median untraced solve time may not regress
//!   by more than the tolerance (default 25%). It is measured in units of
//!   a host-speed reference, as each row's `reference_ratio`: the median,
//!   over `TS_ROUNDS` passes spread over the run, of the pass's time over
//!   a fixed piece of work that calls nothing in dprle, run just before
//!   it. A host that runs slower, for a moment or a whole run, slows both
//!   sides of the ratio; a slower solver moves only one. The gate takes
//!   the median over rows — not the mean or any single row — so one noisy
//!   row on a shared CI runner cannot flag a phantom regression; a real
//!   slowdown moves every row.
//!
//! The fresh measurement is written to `target/bench-smoke/` so CI can
//! upload it as an artifact next to the baseline it was judged against.
//!
//! Usage:
//!   cargo run -p dprle-bench --bin bench_smoke --release \
//!     [--tolerance PCT] [--baseline PATH]
//!
//! Exit codes: 0 ok, 1 a gate failed, 2 unusable baseline.

use dprle_bench::{fig12_ledger_jsonl, fig12_rows_json, median, parse_fig12_baseline, run_fig12};
use dprle_core::SolveOptions;

/// Upper bound on `secure`'s untraced solve time, in seconds.
const SECURE_LIMIT_S: f64 = 1.0;

/// The `stats` counters that must match the baseline exactly.
const EXACT_COUNTERS: [&str; 3] = [
    "states-materialized",
    "product-states",
    "fingerprint-misses",
];

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tolerance_pct: f64 = flag_value(&args, "--tolerance")
        .map(|s| {
            s.parse().ok().filter(|p| *p >= 0.0).unwrap_or_else(|| {
                eprintln!("--tolerance needs a non-negative percentage, got `{s}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(25.0);
    let baseline_path = flag_value(&args, "--baseline")
        .unwrap_or_else(|| format!("{}/../../BENCH_fig12.json", env!("CARGO_MANIFEST_DIR")));

    let baseline_json = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("bench_smoke: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline = parse_fig12_baseline(&baseline_json);
    if baseline.is_empty() {
        eprintln!("bench_smoke: baseline {baseline_path} has no rows");
        std::process::exit(2);
    }

    let rows = run_fig12(&SolveOptions::default());

    let out_dir = "target/bench-smoke";
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: could not create {out_dir}: {e}");
    }
    let out_path = format!("{out_dir}/BENCH_fig12.json");
    match std::fs::write(&out_path, fig12_rows_json(&rows)) {
        Ok(()) => eprintln!("wrote {out_path} ({} rows)", rows.len()),
        Err(e) => eprintln!("warning: could not write {out_path}: {e}"),
    }
    // The per-query cost ledger rides along as a second artifact; CI diffs
    // it against the checked-in BENCH_fig12_ledger.jsonl with
    // `dprle profile diff` (report-only — per-query wall time is too
    // machine-dependent to gate on here).
    let ledger_path = format!("{out_dir}/BENCH_fig12_ledger.jsonl");
    match std::fs::write(&ledger_path, fig12_ledger_jsonl(&rows)) {
        Ok(()) => eprintln!(
            "wrote {ledger_path} ({} queries)",
            rows.iter().map(|r| r.queries).sum::<u64>()
        ),
        Err(e) => eprintln!("warning: could not write {ledger_path}: {e}"),
    }

    let mut failures: Vec<String> = Vec::new();
    let mut fresh = Vec::new();
    let mut base = Vec::new();
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>10} {:>7}  exact counters",
        "row", "baseline (s)", "fresh (s)", "base ref", "fresh ref", "change"
    );
    for r in &rows {
        let Some(b) = baseline.iter().find(|b| b.name == r.name) else {
            eprintln!(
                "bench_smoke: baseline {baseline_path} has no `{}` row",
                r.name
            );
            std::process::exit(2);
        };
        if b.reference_ratio.is_nan() || b.reference_ratio <= 0.0 {
            eprintln!(
                "bench_smoke: baseline {baseline_path} has no reference_ratio for `{}`; \
                 regenerate it with the fig12 binary",
                r.name
            );
            std::process::exit(2);
        }
        let counters = r.stats.counter_fields();
        let mut verdict = "same";
        for name in EXACT_COUNTERS {
            let value = counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
            let expected = b.counter(name);
            if value != expected {
                verdict = "DIFFER";
                failures.push(format!(
                    "{}: {name} {} (baseline {})",
                    r.name,
                    value.map_or("-".to_owned(), |v| v.to_string()),
                    expected.map_or("-".to_owned(), |v| v.to_string()),
                ));
            }
        }
        println!(
            "{:<12} {:>12.6} {:>12.6} {:>10.3} {:>10.3} {:>6.2}x  {verdict}",
            r.name,
            b.seconds,
            r.seconds,
            b.reference_ratio,
            r.reference_ratio,
            r.reference_ratio / b.reference_ratio
        );
        fresh.push(r.reference_ratio);
        base.push(b.reference_ratio);
    }

    match rows.iter().find(|r| r.name == "secure") {
        Some(secure) if secure.seconds > SECURE_LIMIT_S => failures.push(format!(
            "secure: {:.6}s exceeds the {SECURE_LIMIT_S}s limit",
            secure.seconds
        )),
        Some(secure) => println!(
            "\nsecure solve time: {:.6}s, limit {SECURE_LIMIT_S}s",
            secure.seconds
        ),
        None => failures.push("secure: row missing from the fresh run".to_owned()),
    }

    let fresh_median = median(fresh);
    let base_median = median(base);
    let limit = base_median * (1.0 + tolerance_pct / 100.0);
    println!(
        "median solve time in reference units: baseline {base_median:.3}, \
         fresh {fresh_median:.3}, limit {limit:.3} (+{tolerance_pct}%)"
    );
    if fresh_median > limit {
        failures.push(format!(
            "median regressed {:.1}% (> {tolerance_pct}% tolerance)",
            (fresh_median / base_median - 1.0) * 100.0
        ));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("bench_smoke: {f}");
        }
        std::process::exit(1);
    }
    println!("all gates pass");
}
