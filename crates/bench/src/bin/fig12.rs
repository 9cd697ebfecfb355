//! Regenerates the paper's Figure 12: per-vulnerability solving results.
//!
//! Prints, for each of the 17 vulnerabilities: measured `|FG|`, measured
//! `|C|`, and measured constraint-solving time `T_S`, next to the published
//! values, plus the distinct constraints the solver decides once repeats
//! are dropped. Then it verifies the published *shape*: every row yields
//! an exploit and measures the published `|C|`. It also reports whether
//! the `secure` row is the paper's outlier, at least ten times the slowest
//! other row (577 s vs sub-second), without failing on it: the verdict
//! rests on wall times of a few milliseconds.
//!
//! Usage: `cargo run -p dprle-bench --bin fig12 --release
//! [--json] [--ledger-out FILE]`
//!
//! `--ledger-out` writes the ledgered pass's per-query cost records as
//! JSONL — feed two of those to `dprle profile diff` for a per-query
//! comparison.
//!
//! Always writes the machine-readable results (per-row `|FG|`, `|C|`,
//! distinct `|C|`, solve time, and store cache counters) to `BENCH_fig12.json` in the current directory; `--json`
//! additionally prints that JSON to stdout instead of the human-readable
//! table.

use dprle_bench::{
    fig12_ledger_jsonl, fig12_rows_json, fig12_shape_violations, run_fig12,
    secure_outlier_shortfall,
};
use dprle_core::SolveOptions;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let as_json = args.iter().any(|a| a == "--json");
    let ledger_out = args.iter().position(|a| a == "--ledger-out").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--ledger-out needs a file");
            std::process::exit(2);
        })
    });

    let rows = run_fig12(&SolveOptions::default());

    if let Some(path) = &ledger_out {
        match std::fs::write(path, fig12_ledger_jsonl(&rows)) {
            Ok(()) => eprintln!(
                "wrote {path} ({} queries)",
                rows.iter().map(|r| r.queries).sum::<u64>()
            ),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }

    let json = fig12_rows_json(&rows);
    match std::fs::write("BENCH_fig12.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_fig12.json ({} rows)", rows.len()),
        Err(e) => eprintln!("warning: could not write BENCH_fig12.json: {e}"),
    }

    if as_json {
        println!("{json}");
        return;
    }

    println!("Figure 12: experimental results (measured vs published)");
    println!(
        "{:<8} {:<10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "App",
        "Vuln",
        "|FG|",
        "(pub)",
        "|C|",
        "(pub)",
        "distinct",
        "T_S (s)",
        "(pub s)",
        "products",
        "peak KiB"
    );
    for r in &rows {
        println!(
            "{:<8} {:<10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>10.3} {:>10.3} {:>9} {:>9}",
            r.app,
            r.name,
            r.fg,
            r.fg_paper,
            r.c,
            r.c_paper,
            r.c_distinct,
            r.seconds,
            r.paper_seconds,
            r.product_states,
            r.peak_bytes / 1024
        );
    }

    // Per-phase wall time aggregated over all rows' traced passes
    // (cumulative: nested spans count toward their ancestors).
    let mut phase_totals: std::collections::BTreeMap<String, u64> = Default::default();
    for r in &rows {
        for p in &r.phases {
            *phase_totals.entry(p.phase.clone()).or_default() += p.total_us;
        }
    }
    let mut phase_rows: Vec<(String, u64)> = phase_totals.into_iter().collect();
    phase_rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    println!("\nPer-phase wall time across all rows (traced pass, cumulative):");
    for (phase, us) in &phase_rows {
        println!("  {:<12} {:>10.3} s", phase, *us as f64 / 1e6);
    }

    match secure_outlier_shortfall(&rows) {
        None => println!("\n`secure` is the paper's order-of-magnitude outlier"),
        Some(why) => println!("\nPaper's outlier not reproduced: {why}"),
    }
    let violations = fig12_shape_violations(&rows);
    if violations.is_empty() {
        let fast = rows.iter().filter(|r| r.seconds < 1.0).count();
        println!(
            "Shape reproduced: {}/{} rows exploitable, {} under one second",
            rows.iter().filter(|r| r.exploitable).count(),
            rows.len(),
            fast,
        );
    } else {
        println!("\nSHAPE VIOLATIONS:");
        for v in &violations {
            println!("  {v}");
        }
        std::process::exit(1);
    }
}
