//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * lazy first-solution vs eager all-solutions (§3.5: "we can generate
//!   the first solution without having to enumerate the others");
//! * `strip_constant_operands` — quotient rewriting of constant
//!   concatenation operands (an extension beyond the paper).

use criterion::{criterion_group, criterion_main, Criterion};
use dprle_core::{solve, solve_first, SolveOptions};
use dprle_corpus::scaling::nested_system;
use dprle_corpus::{vulnerable_program, FIG12_ROWS};
use dprle_lang::symex::SymexOptions;
use dprle_lang::{explore, to_system, Policy};

fn bench_lazy_vs_eager(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_lazy");
    group.sample_size(10);
    let sys = nested_system(3, 4);
    group.bench_function("first_solution", |b| {
        b.iter(|| std::hint::black_box(solve_first(&sys, &SolveOptions::default())))
    });
    group.bench_function("all_solutions", |b| {
        b.iter(|| std::hint::black_box(solve(&sys, &SolveOptions::default())))
    });
    group.finish();
}

fn bench_constant_stripping(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_strip_constants");
    group.sample_size(10);
    // The motivating shape: literal-prefixed tainted value against a
    // policy language (constant operands on the CI group's left edge).
    let spec = FIG12_ROWS
        .iter()
        .find(|s| s.name == "cart_shop")
        .expect("row");
    let program = vulnerable_program(spec);
    let reaches = explore(&program, &SymexOptions::default()).expect("explores");
    let sys = to_system(&reaches[0], &Policy::sql_quote()).0;
    group.bench_function("enumerate_mode", |b| {
        b.iter(|| std::hint::black_box(solve(&sys, &SolveOptions::default())))
    });
    group.bench_function("quotient_mode", |b| {
        let options = SolveOptions {
            strip_constant_operands: true,
            ..Default::default()
        };
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.finish();
}

criterion_group!(benches, bench_lazy_vs_eager, bench_constant_stripping);
criterion_main!(benches);
