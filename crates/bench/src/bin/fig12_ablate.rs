//! Figure 12 under ablated solver configurations: quantifies, per
//! evaluation row, what each design choice buys.
//!
//! ```text
//! fig12_ablate
//! ```
//!
//! Columns: default options; quotient constant-stripping (the extension
//! mode).

use dprle_bench::run_fig12_row;
use dprle_core::SolveOptions;
use dprle_corpus::FIG12_ROWS;

fn main() {
    println!("Figure 12 rows under ablated solver configurations (seconds)");
    println!(
        "{:<10} {:>6} {:>12} {:>12}",
        "Vuln", "|C|", "default", "quotient"
    );
    for spec in FIG12_ROWS.iter() {
        let default = run_fig12_row(spec, &SolveOptions::default());
        let quotient = run_fig12_row(
            spec,
            &SolveOptions {
                strip_constant_operands: true,
                ..Default::default()
            },
        );
        assert!(default.exploitable && quotient.exploitable);
        println!(
            "{:<10} {:>6} {:>12.3} {:>12.3}",
            spec.name, spec.c, default.seconds, quotient.seconds
        );
    }
    println!("\nAll configurations found every exploit.");
}
