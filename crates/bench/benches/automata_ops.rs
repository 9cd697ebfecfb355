//! Micro-benchmarks for the automata substrate: the primitive operations
//! whose costs the §3.5 analysis is expressed in (product construction,
//! determinization, minimization, complement, inclusion), plus the
//! byte-class ablation (class-labelled edges vs byte-expanded edges).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dprle_automata::generate::{random_literal_chain, random_nonempty_nfa, RandomNfaConfig};
use dprle_automata::{
    complement, determinize, is_subset, minimize, minimize_dfa, ops, ByteClass, Nfa,
};

fn machines(states: usize) -> (Nfa, Nfa) {
    let cfg = RandomNfaConfig {
        states,
        edges_per_state: 2.0,
        eps_per_state: 0.2,
        alphabet: vec![b'a', b'b', b'c'],
        final_probability: 0.2,
    };
    (random_nonempty_nfa(11, &cfg), random_nonempty_nfa(23, &cfg))
}

fn bench_product(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("product");
    for states in [16usize, 64, 256] {
        let (a, b) = machines(states);
        group.bench_with_input(BenchmarkId::from_parameter(states), &states, |bch, _| {
            bch.iter(|| std::hint::black_box(ops::intersect(&a, &b)))
        });
    }
    group.finish();
}

fn bench_determinize_minimize(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("det_min");
    group.sample_size(20);
    for states in [8usize, 16, 32] {
        let (a, _) = machines(states);
        group.bench_with_input(BenchmarkId::new("determinize", states), &states, |b, _| {
            b.iter(|| std::hint::black_box(determinize(&a)))
        });
        group.bench_with_input(BenchmarkId::new("minimize", states), &states, |b, _| {
            b.iter(|| std::hint::black_box(minimize(&a)))
        });
        let dfa = determinize(&a);
        group.bench_with_input(BenchmarkId::new("minimize_dfa", states), &states, |b, _| {
            b.iter(|| std::hint::black_box(minimize_dfa(&dfa)))
        });
        group.bench_with_input(BenchmarkId::new("complement", states), &states, |b, _| {
            b.iter(|| std::hint::black_box(complement(&a)))
        });
    }
    // The chain shape of a long SQL-template constant: one state per byte
    // over ~40 distinct bytes, the input on which round-based refinement
    // goes quadratic.
    let alphabet: Vec<u8> = (b'0'..=b'9').chain(b'a'..=b'z').chain(*b" '=_").collect();
    let literal = random_literal_chain(7, 2000, &alphabet);
    // The subset construction on the same constant: 2 000 edges over ~40
    // distinct classes, so the minterm refinement dedups each class once.
    group.bench_function("determinize/literal_2000", |b| {
        b.iter(|| std::hint::black_box(determinize(&literal)))
    });
    let chain = determinize(&literal);
    group.bench_function("minimize_dfa/literal_2000", |b| {
        b.iter(|| std::hint::black_box(minimize_dfa(&chain)))
    });
    group.finish();
}

fn bench_inclusion(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("inclusion");
    group.sample_size(20);
    let (a, b) = machines(24);
    let astar = ops::star(&a);
    group.bench_function("is_subset", |bch| {
        bch.iter(|| std::hint::black_box(is_subset(&a, &astar) & !is_subset(&astar, &b)))
    });
    group.finish();
}

/// Byte-class ablation: one class-labelled edge vs 256 byte-singleton
/// edges for Σ transitions, measured on the product construction the CI
/// algorithm is built from.
fn bench_byteclass_ablation(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("ablation_byteclass");
    group.sample_size(20);
    // Σ* . 'x' . Σ* with class-labelled edges.
    let compact = {
        let m = ops::concat(&Nfa::sigma_star(), &Nfa::literal(b"x")).nfa;
        ops::concat(&m, &Nfa::sigma_star()).nfa
    };
    // The same language with Σ expanded into individual byte edges.
    let expanded = {
        let mut m = Nfa::new();
        let mid = m.add_state();
        let f = m.add_state();
        for byte in 0..=255u8 {
            m.add_edge(m.start(), ByteClass::singleton(byte), m.start());
            m.add_edge(f, ByteClass::singleton(byte), f);
        }
        m.add_edge(m.start(), ByteClass::singleton(b'x'), mid);
        m.add_eps(mid, f);
        m.add_final(f);
        m
    };
    let probe = Nfa::literal(b"aaaxbbb");
    group.bench_function("class_edges", |b| {
        b.iter(|| std::hint::black_box(ops::intersect(&compact, &probe)))
    });
    group.bench_function("byte_edges", |b| {
        b.iter(|| std::hint::black_box(ops::intersect(&expanded, &probe)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_product,
    bench_determinize_minimize,
    bench_inclusion,
    bench_byteclass_ablation
);
criterion_main!(benches);
