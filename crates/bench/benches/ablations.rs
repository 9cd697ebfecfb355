//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `minimize_intermediate` — the paper's suggested NFA-minimization
//!   optimization for long constraint chains (its absence is the published
//!   explanation for the `secure` outlier);
//! * `minimize_solutions` in gci — minimizing induced segment machines;
//! * `dedup` — canonical-key deduplication of disjunctive solutions;
//! * lazy first-solution vs eager all-solutions (§3.5: "we can generate
//!   the first solution without having to enumerate the others");
//! * `strip_constant_operands` — quotient rewriting of constant
//!   concatenation operands (an extension beyond the paper).

use criterion::{criterion_group, criterion_main, Criterion};
use dprle_core::{solve, solve_first, GciOptions, SolveOptions};
use dprle_corpus::scaling::nested_system;
use dprle_corpus::{vulnerable_program, FIG12_ROWS};
use dprle_lang::symex::SymexOptions;
use dprle_lang::{explore, to_system, Policy};

/// The mid-weight `usr_prf` row (|C| = 66): long constraint chains where
/// intermediate minimization matters.
fn medium_system() -> dprle_core::System {
    let spec = FIG12_ROWS
        .iter()
        .find(|s| s.name == "usr_prf")
        .expect("row");
    let program = vulnerable_program(spec);
    let reaches = explore(&program, &SymexOptions::default()).expect("explores");
    to_system(&reaches[0], &Policy::sql_quote()).0
}

fn bench_minimize_intermediate(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_minimize_intermediate");
    group.sample_size(10);
    let sys = medium_system();
    group.bench_function("on", |b| {
        let options = SolveOptions::default();
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.bench_function("off_prototype_mode", |b| {
        // The paper's prototype behavior: no intermediate minimization.
        let options = SolveOptions {
            minimize_intermediate: false,
            ..Default::default()
        };
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.finish();
}

fn bench_gci_minimize_solutions(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_gci_minimize");
    group.sample_size(10);
    let sys = nested_system(3, 4);
    group.bench_function("on", |b| {
        let options = SolveOptions::default();
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.bench_function("off", |b| {
        let options = SolveOptions {
            gci: GciOptions {
                minimize_solutions: false,
                ..Default::default()
            },
            ..Default::default()
        };
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.finish();
}

fn bench_dedup(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_dedup");
    group.sample_size(10);
    let sys = nested_system(2, 6);
    group.bench_function("on", |b| {
        let options = SolveOptions::default();
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.bench_function("off", |b| {
        let options = SolveOptions {
            gci: GciOptions {
                dedup: false,
                ..Default::default()
            },
            ..Default::default()
        };
        b.iter(|| std::hint::black_box(solve(&sys, &options)))
    });
    group.finish();
}

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

criterion_group!(
    benches,
    bench_minimize_intermediate,
    bench_gci_minimize_solutions,
    bench_dedup,
    bench_lazy_vs_eager,
    bench_constant_stripping
);
criterion_main!(benches);
