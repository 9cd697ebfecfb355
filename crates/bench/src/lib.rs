//! # dprle-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation, plus the §3.5 complexity study and ablations of this
//! implementation's design choices.
//!
//! Table binaries (run with `--release`):
//!
//! * `cargo run -p dprle-bench --bin fig11 --release` — the data-set table
//!   (Figure 11): per application, files / LOC analog / vulnerable files,
//!   measured on the synthesized corpus next to the published numbers.
//! * `cargo run -p dprle-bench --bin fig12 --release` — the results table
//!   (Figure 12): per vulnerability, `|FG|`, `|C|`, and constraint-solving
//!   time, measured next to the published numbers, with the shape checks
//!   the paper highlights (every row exploitable, the published `|C|`),
//!   and whether `secure` is still the paper's order-of-magnitude outlier.
//! * `cargo run -p dprle-bench --bin complexity_table --release` — machine
//!   sizes and solution counts for the CI sweep validating the §3.5
//!   bounds.
//!
//! Criterion benches: `cargo bench -p dprle-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dprle_automata::LangStore;
use dprle_core::{
    solve_traced, CollectLedger, CollectSink, Ledger, PhaseRow, Solution, SolveOptions, SolveStats,
    System, TraceReport, Tracer,
};
use dprle_corpus::{vulnerable_program, VulnSpec, FIG12_ROWS};
use dprle_lang::symex::SymexOptions;
use dprle_lang::{explore, to_system, Cfg, Policy, Program};
use std::sync::Arc;
use std::time::Instant;

/// One measured Figure 12 row.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Application name.
    pub app: String,
    /// Vulnerability name.
    pub name: String,
    /// Measured basic-block count.
    pub fg: usize,
    /// Published basic-block count.
    pub fg_paper: usize,
    /// Measured constraint count.
    pub c: usize,
    /// Published constraint count.
    pub c_paper: usize,
    /// Measured count of *distinct* constraints: repeats dropped once
    /// constants are compared by machine structure
    /// (`System::distinct_constraints`). The solver decides this many; `c`
    /// is what the front end emits.
    pub c_distinct: usize,
    /// Measured constraint-solving time in seconds (`T_S`), tracer
    /// disabled: the fastest of [`TS_ROUNDS`] passes.
    pub seconds: f64,
    /// `T_S` in units of a host-speed reference: the median, over the
    /// [`TS_ROUNDS`] passes, of each pass's time over the time of a fixed
    /// piece of work that calls nothing in dprle, run just before it. A
    /// host that runs slower slows both, so the ratio moves with the
    /// solver alone; `bench_smoke` gates on it.
    pub reference_ratio: f64,
    /// The same workload with a live tracer draining into a null sink —
    /// recorded next to `seconds` so the disabled-tracer path's zero-cost
    /// claim is checked on every regeneration of the table.
    pub traced_seconds: f64,
    /// Published solving time in seconds (2009 hardware).
    pub paper_seconds: f64,
    /// Worker threads of the parallel pass (`1` = the pass was skipped and
    /// the sequential measurement is reused).
    pub jobs: usize,
    /// Measured constraint-solving time with `jobs` worklist workers,
    /// tracer disabled. Byte-identical output to the sequential pass is
    /// guaranteed by the deterministic merge; the delta is pure scheduling.
    pub par_seconds: f64,
    /// `seconds / par_seconds` — the parallel pass's speedup. Hardware
    /// dependent: meaningful only on multi-core runners.
    pub speedup: f64,
    /// Whether an exploit was found (every row should be `true`).
    pub exploitable: bool,
    /// Product states explored across the row's solves (the §3.5 cost
    /// driver) — promoted out of `stats` as a first-class column.
    pub product_states: u64,
    /// Peak interning-memo bytes of any single solve in the row.
    pub peak_bytes: u64,
    /// Solver counters aggregated over the row's runs (see
    /// `SolveStats::absorb`).
    pub stats: SolveStats,
    /// Per-phase wall time from the traced pass, hottest first (cumulative:
    /// nested spans count toward their ancestors).
    pub phases: Vec<PhaseRow>,
    /// Inclusion/product queries recorded by the ledgered pass.
    pub queries: u64,
    /// How many of those queries were answered from the interning memo.
    pub query_memo_hits: u64,
    /// The ledgered pass's raw cost ledger (JSONL, one record per query)
    /// — concatenated across rows by [`fig12_ledger_jsonl`] into the
    /// `BENCH_fig12_ledger.jsonl` artifact `dprle profile diff` consumes.
    pub ledger: String,
}

/// Rounds of untraced solving that measure `T_S`. Each round solves every
/// row once, and a row's `T_S` is its fastest round: spreading a row's
/// passes over the whole run and keeping the fastest removes the
/// pass-to-pass noise of ~2 ms solves. A host that is slower for the whole
/// run still moves every pass; [`Fig12Row::reference_ratio`] does not.
pub const TS_ROUNDS: usize = 10;

/// Subset-construction states one run of [`HostReference`] builds.
const REFERENCE_STATES: usize = 8000;

/// A host-speed reference run before every `T_S` pass: the first
/// [`REFERENCE_STATES`] states of the subset construction over a fixed
/// pseudo-random 60-state NFA, state sets interned in a `HashSet`. It calls
/// nothing in dprle, so a change to dprle cannot move it, while it
/// allocates and hashes as the solver does, so a host that runs slower
/// slows it much as it slows the solver.
struct HostReference {
    /// Successor set per state and letter.
    delta: [[u64; 4]; 60],
}

impl HostReference {
    fn new() -> Self {
        // xorshift64 from a fixed seed.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut delta = [[0u64; 4]; 60];
        for targets in delta.iter_mut().flatten() {
            for _ in 0..2 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *targets |= 1 << (x % 60);
            }
        }
        HostReference { delta }
    }

    /// Times one run, in seconds.
    fn time(&self) -> f64 {
        let start = Instant::now();
        let mut seen = std::collections::HashSet::from([1u64]);
        let mut queue = vec![1u64];
        let mut head = 0;
        while head < queue.len() && queue.len() < REFERENCE_STATES {
            let set = queue[head];
            head += 1;
            for letter in 0..4 {
                let mut succ = 0;
                let mut states = set;
                while states != 0 {
                    succ |= self.delta[states.trailing_zeros() as usize][letter];
                    states &= states - 1;
                }
                if seen.insert(succ) {
                    queue.push(succ);
                }
            }
        }
        std::hint::black_box(queue.len());
        start.elapsed().as_secs_f64()
    }
}

/// What a row's `T_S` rounds measured.
struct TsRounds {
    /// Fastest pass, in seconds.
    seconds: f64,
    /// Each pass's time over the [`HostReference`] run just before it.
    reference_ratios: Vec<f64>,
    /// Whether the first pass found an exploit.
    exploitable: bool,
    /// The first pass's counters (every pass does the same work).
    stats: SolveStats,
}

/// The median of `values` (the upper of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs one Figure 12 row: generates the program, runs symbolic execution,
/// and times *constraint solving only* (the paper's `T_S` column measures
/// "the total time spent solving constraints"). The solving passes run
/// tracer disabled ([`TS_ROUNDS`] of them, the `T_S` measurement) and once
/// with the tracer enabled into a null sink, so the table carries the
/// tracing overhead alongside.
pub fn run_fig12_row(spec: &VulnSpec, options: &SolveOptions) -> Fig12Row {
    run_fig12_row_jobs(spec, options, 1)
}

/// Like [`run_fig12_row`], additionally timing a third, untraced pass with
/// `jobs` worklist workers (skipped when `jobs <= 1`). The parallel pass
/// produces byte-identical solutions and statistics — only wall time may
/// differ — so the row's `speedup` isolates the scheduling win.
pub fn run_fig12_row_jobs(spec: &VulnSpec, options: &SolveOptions, jobs: usize) -> Fig12Row {
    run_fig12_rows(std::slice::from_ref(spec), options, jobs).remove(0)
}

/// Runs `specs`: the [`TS_ROUNDS`] `T_S` rounds over all of them first,
/// then each row's traced, parallel and ledgered passes.
fn run_fig12_rows(specs: &[VulnSpec], options: &SolveOptions, jobs: usize) -> Vec<Fig12Row> {
    let inputs: Vec<RowInput> = specs.iter().map(RowInput::new).collect();
    let reference = HostReference::new();
    let mut rounds: Vec<TsRounds> = Vec::with_capacity(inputs.len());
    for round in 0..TS_ROUNDS {
        for (i, input) in inputs.iter().enumerate() {
            let reference_seconds = reference.time();
            let (seconds, exploitable, stats) = input.solve(options);
            if round == 0 {
                rounds.push(TsRounds {
                    seconds,
                    reference_ratios: vec![seconds / reference_seconds],
                    exploitable,
                    stats,
                });
            } else {
                let row = &mut rounds[i];
                row.seconds = row.seconds.min(seconds);
                row.reference_ratios.push(seconds / reference_seconds);
            }
        }
    }
    inputs
        .iter()
        .zip(rounds)
        .map(|(input, ts)| measure_row(input, options, jobs, ts))
        .collect()
}

/// One Figure 12 row's program.
struct RowInput<'a> {
    spec: &'a VulnSpec,
    fg: usize,
    program: Program,
}

impl<'a> RowInput<'a> {
    fn new(spec: &'a VulnSpec) -> Self {
        let program = vulnerable_program(spec);
        let fg = Cfg::build(&program).num_blocks();
        RowInput { spec, fg, program }
    }

    /// Freshly built systems, one per sink reach, from a fresh exploration.
    /// Every pass solves its own: `Lang` handles cache their canonical
    /// fingerprint, and the systems built from one exploration share its
    /// path-condition handles, so a pass reusing the systems or the
    /// exploration an earlier pass solved would be credited with that
    /// pass's cache warmth.
    fn systems(&self) -> Vec<System> {
        let reaches = explore(&self.program, &SymexOptions::default())
            .unwrap_or_else(|e| panic!("{}: symbolic execution failed: {e}", self.spec.name));
        let policy = Policy::sql_quote();
        reaches
            .iter()
            .map(|reach| to_system(reach, &policy).0)
            .collect()
    }

    /// One untraced pass: its wall time, whether it found an exploit (the
    /// vulnerable path is the one that reaches the final sink), and its
    /// counters.
    fn solve(&self, options: &SolveOptions) -> (f64, bool, SolveStats) {
        let systems = self.systems();
        let mut exploitable = false;
        let mut stats = SolveStats::default();
        let start = Instant::now();
        for sys in &systems {
            let store = LangStore::interning(options.interning);
            let (solution, run_stats) = solve_traced(sys, options, &store, &Tracer::disabled());
            exploitable |= matches!(solution, Solution::Assignments(_));
            stats.absorb(&run_stats);
        }
        (start.elapsed().as_secs_f64(), exploitable, stats)
    }
}

/// Runs a row's passes after `T_S` and assembles the row.
fn measure_row(input: &RowInput, options: &SolveOptions, jobs: usize, ts: TsRounds) -> Fig12Row {
    let spec = input.spec;
    let TsRounds {
        seconds,
        reference_ratios,
        exploitable,
        stats,
    } = ts;
    let systems = input.systems();
    let c = systems
        .iter()
        .map(System::num_constraints)
        .max()
        .unwrap_or(0);
    let c_distinct = systems
        .iter()
        .map(|s| s.distinct_constraints().len())
        .max()
        .unwrap_or(0);
    // Same workload, tracer live: events are collected in memory (the
    // realistic enabled-tracer cost) and aggregated into per-phase time.
    let traced_systems = input.systems();
    let sink = Arc::new(CollectSink::new());
    let live_tracer = Tracer::new(sink.clone());
    let start = Instant::now();
    for sys in &traced_systems {
        let store = LangStore::interning(options.interning);
        let _ = solve_traced(sys, options, &store, &live_tracer);
    }
    let traced_seconds = start.elapsed().as_secs_f64();
    let phases = TraceReport::from_events(&sink.take())
        .map(|r| r.phases)
        .unwrap_or_default();
    // Third pass: the same untraced workload on the parallel worklist.
    let (jobs, par_seconds) = if jobs > 1 {
        let par_systems = input.systems();
        let par_options = SolveOptions {
            jobs,
            ..options.clone()
        };
        let start = Instant::now();
        for sys in &par_systems {
            let store = LangStore::interning(par_options.interning);
            let _ = solve_traced(sys, &par_options, &store, &Tracer::disabled());
        }
        (jobs, start.elapsed().as_secs_f64())
    } else {
        (1, seconds)
    };
    // Ledgered pass: the same workload once more with the query cost
    // ledger live, kept separate from the `T_S` passes so the timing
    // columns stay ledger-free.
    let ledger_systems = input.systems();
    let ledger_sink = Arc::new(CollectLedger::new());
    let ledger_options = SolveOptions {
        ledger: Ledger::new(ledger_sink.clone()),
        ..options.clone()
    };
    for sys in &ledger_systems {
        let store = LangStore::interning(ledger_options.interning);
        let _ = solve_traced(sys, &ledger_options, &store, &Tracer::disabled());
    }
    let ledger_records = ledger_sink.take();
    let queries = ledger_records.len() as u64;
    let query_memo_hits = ledger_records
        .iter()
        .filter(|r| r.memo == Some(dprle_core::MemoStatus::Hit))
        .count() as u64;
    let ledger: String = ledger_records.iter().map(|r| r.to_json() + "\n").collect();
    Fig12Row {
        app: spec.app.to_owned(),
        name: spec.name.to_owned(),
        fg: input.fg,
        fg_paper: spec.fg,
        c,
        c_paper: spec.c,
        c_distinct,
        seconds,
        reference_ratio: median(reference_ratios),
        traced_seconds,
        paper_seconds: spec.paper_seconds,
        jobs,
        par_seconds,
        speedup: if par_seconds > 0.0 {
            seconds / par_seconds
        } else {
            1.0
        },
        exploitable,
        product_states: stats.product_states,
        peak_bytes: stats.peak_bytes,
        stats,
        phases,
        queries,
        query_memo_hits,
        ledger,
    }
}

/// Concatenates the per-row cost ledgers of `rows` into one JSONL
/// document — the `BENCH_fig12_ledger.jsonl` baseline that
/// `dprle profile diff` compares fresh runs against. Sequence numbers
/// restart per row; the profile views key on fingerprints, not `seq`.
pub fn fig12_ledger_jsonl(rows: &[Fig12Row]) -> String {
    rows.iter().map(|r| r.ledger.as_str()).collect()
}

/// Runs all 17 rows.
pub fn run_fig12(options: &SolveOptions) -> Vec<Fig12Row> {
    run_fig12_jobs(options, 1)
}

/// Like [`run_fig12`] with a parallel pass at `jobs` workers per row.
pub fn run_fig12_jobs(options: &SolveOptions, jobs: usize) -> Vec<Fig12Row> {
    run_fig12_rows(&FIG12_ROWS, options, jobs)
}

/// Escapes `s` as a JSON string literal (including the quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders Figure 12 rows as a pretty-printed JSON array. Hand-rolled
/// because the offline build carries no serde; the schema is the
/// `BENCH_fig12.json` contract tracked across PRs.
pub fn fig12_rows_json(rows: &[Fig12Row]) -> String {
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let fields = [
            ("app", json_string(&r.app)),
            ("name", json_string(&r.name)),
            ("fg", r.fg.to_string()),
            ("fg_paper", r.fg_paper.to_string()),
            ("c", r.c.to_string()),
            ("c_paper", r.c_paper.to_string()),
            ("c_distinct", r.c_distinct.to_string()),
            ("seconds", format!("{:.6}", r.seconds)),
            ("reference_ratio", format!("{:.4}", r.reference_ratio)),
            ("traced_seconds", format!("{:.6}", r.traced_seconds)),
            ("paper_seconds", format!("{:.3}", r.paper_seconds)),
            ("jobs", r.jobs.to_string()),
            ("par_seconds", format!("{:.6}", r.par_seconds)),
            ("speedup", format!("{:.3}", r.speedup)),
            ("exploitable", r.exploitable.to_string()),
            ("product_states", r.product_states.to_string()),
            ("peak_bytes", r.peak_bytes.to_string()),
            ("queries", r.queries.to_string()),
            ("query_memo_hits", r.query_memo_hits.to_string()),
        ];
        for (j, (k, v)) in fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_string(k), v));
        }
        // The solver counters come straight from `SolveStats::counter_fields`
        // so the benchmark contract and the CLI's `--stats` output can never
        // drift apart.
        out.push_str(",\n    \"stats\": {");
        let counters = r.stats.counter_fields();
        for (j, (k, v)) in counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n      {}: {}", json_string(k), v));
        }
        out.push_str("\n    }");
        // Per-phase wall time (µs) of the traced pass, hottest first.
        out.push_str(",\n    \"phases\": {");
        for (j, p) in r.phases.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {}: {}",
                json_string(&p.phase),
                p.total_us
            ));
        }
        out.push_str("\n    }");
        out.push_str("\n  }");
    }
    out.push_str("\n]\n");
    out
}

/// One row read back from a checked-in `BENCH_fig12.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineRow {
    /// Vulnerability name.
    pub name: String,
    /// Untraced sequential solve time in seconds (`NaN` when absent).
    pub seconds: f64,
    /// `T_S` in host-speed reference units (`NaN` when absent).
    pub reference_ratio: f64,
    /// The row's `stats` counters, in file order.
    pub stats: Vec<(String, u64)>,
}

impl BaselineRow {
    /// The value of the `stats` counter `name`, if the row carries it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.stats.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// Parses the rows of a checked-in `BENCH_fig12.json`: each row's name,
/// untraced `seconds`, `reference_ratio` and `stats` counters.
///
/// Line-oriented on purpose: the file is always produced by
/// [`fig12_rows_json`], whose one-field-per-line layout this relies on —
/// it is not a general JSON parser. Field names are matched exactly, so
/// `traced_seconds`/`par_seconds`/`paper_seconds` never collide.
pub fn parse_fig12_baseline(json: &str) -> Vec<BaselineRow> {
    let unquote = |s: &str| {
        s.trim()
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .map(str::to_owned)
    };
    let mut out: Vec<BaselineRow> = Vec::new();
    let mut in_stats = false;
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        if in_stats {
            if line == "}" {
                in_stats = false;
            } else if let (Some(row), Some((k, v))) = (out.last_mut(), line.split_once(": ")) {
                if let (Some(k), Ok(v)) = (unquote(k), v.trim().parse::<u64>()) {
                    row.stats.push((k, v));
                }
            }
        } else if let Some(name) = line.strip_prefix("\"name\": ").and_then(unquote) {
            out.push(BaselineRow {
                name,
                seconds: f64::NAN,
                reference_ratio: f64::NAN,
                stats: Vec::new(),
            });
        } else if let Some(rest) = line.strip_prefix("\"seconds\": ") {
            if let (Some(row), Ok(v)) = (out.last_mut(), rest.trim().parse::<f64>()) {
                row.seconds = v;
            }
        } else if let Some(rest) = line.strip_prefix("\"reference_ratio\": ") {
            if let (Some(row), Ok(v)) = (out.last_mut(), rest.trim().parse::<f64>()) {
                row.reference_ratio = v;
            }
        } else if line == "\"stats\": {" {
            in_stats = true;
        }
    }
    out
}

/// Shape checks the paper's prose highlights for Figure 12: every row
/// yields an exploit and measures the published `|C|` and at least the
/// published `|FG|`. Returns a list of violations (empty = the
/// reproduction has the published shape). The timing outlier is judged
/// separately, by [`secure_outlier_shortfall`].
pub fn fig12_shape_violations(rows: &[Fig12Row]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        if !r.exploitable {
            out.push(format!("{}: no exploit found", r.name));
        }
        if r.c != r.c_paper {
            out.push(format!(
                "{}: |C| {} != published {}",
                r.name, r.c, r.c_paper
            ));
        }
        if r.fg < r.fg_paper {
            out.push(format!(
                "{}: |FG| {} < published {}",
                r.name, r.fg, r.fg_paper
            ));
        }
    }
    out
}

/// The paper's timing outlier: `secure` (577 s) takes at least ten times
/// as long as the slowest other row (0.65 s). Returns why `rows` fall
/// short of it, or `None` when it holds or there is no `secure` row.
///
/// Kept apart from [`fig12_shape_violations`] because it rests on wall
/// times of a few milliseconds, which a loaded host can skew. With
/// Hopcroft minimization and repeated constraints dropped, `secure` is
/// about 27× the slowest other row (see EXPERIMENTS.md, Figure 12).
pub fn secure_outlier_shortfall(rows: &[Fig12Row]) -> Option<String> {
    let heavy = rows.iter().find(|r| r.name == "secure")?;
    let max_fast = rows
        .iter()
        .filter(|r| r.name != "secure")
        .map(|r| r.seconds)
        .fold(0.0f64, f64::max);
    (heavy.seconds < 10.0 * max_fast).then(|| {
        format!(
            "secure ({:.3}s) is not an order-of-magnitude outlier over the others (max {:.3}s)",
            heavy.seconds, max_fast
        )
    })
}

/// One measured point of the §3.5 complexity sweep.
#[derive(Clone, Debug)]
pub struct ComplexityPoint {
    /// The machine-size parameter `Q`.
    pub q: usize,
    /// States of `M₁` (≈ `M₂`).
    pub input_states: usize,
    /// States of the intersection machine `M₅` (paper bound: O(Q²)).
    pub m5_states: usize,
    /// Number of raw disjunctive solutions (paper bound: O(|M₃|)).
    pub solutions: usize,
    /// NFA states visited — the paper's cost metric (construction plus
    /// eager enumeration; O(Q³) for a single CI call).
    pub states_visited: usize,
    /// Wall-clock seconds for the full CI run.
    pub seconds: f64,
}

/// Which CI workload family to sweep (see `dprle_corpus::scaling`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CiFamily {
    /// Disjoint-alphabet operands: heavy product pruning (sub-quadratic).
    Sparse,
    /// Shared alphabet with a length window: moderate filtering.
    Dense,
    /// Position × modulo-counter product: attains the O(Q²) bound.
    Modular,
}

impl CiFamily {
    /// Instantiates the family at size `q`.
    pub fn instance(
        self,
        q: usize,
    ) -> (
        dprle_automata::Nfa,
        dprle_automata::Nfa,
        dprle_automata::Nfa,
    ) {
        match self {
            CiFamily::Sparse => dprle_corpus::scaling::ci_instance(q),
            CiFamily::Dense => dprle_corpus::scaling::ci_instance_dense(q),
            CiFamily::Modular => dprle_corpus::scaling::ci_instance_modular(q),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CiFamily::Sparse => "sparse",
            CiFamily::Dense => "dense",
            CiFamily::Modular => "modular",
        }
    }
}

/// Sweeps the CI procedure over machine sizes, recording the measured
/// state-space growth against the paper's O(Q²)/O(Q³) analysis.
pub fn run_ci_sweep(qs: &[usize]) -> Vec<ComplexityPoint> {
    run_ci_sweep_family(CiFamily::Sparse, qs)
}

/// Like [`run_ci_sweep`] for a chosen workload family.
pub fn run_ci_sweep_family(family: CiFamily, qs: &[usize]) -> Vec<ComplexityPoint> {
    qs.iter()
        .map(|&q| {
            let (c1, c2, c3) = family.instance(q);
            let input_states = c1.num_states();
            let start = Instant::now();
            let run = dprle_core::concat_intersect_full(&c1, &c2, &c3);
            let seconds = start.elapsed().as_secs_f64();
            ComplexityPoint {
                q,
                input_states,
                m5_states: run.m5.num_states(),
                solutions: run.solutions.len(),
                states_visited: run.states_visited,
                seconds,
            }
        })
        .collect()
}

/// Fits the exponent `k` in `y ≈ a·xᵏ` by least squares on log-log points;
/// the harness prints it next to the paper's asymptotic claim.
pub fn fit_exponent(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_fast_rows_have_published_shape() {
        // Two representative fast rows (full table is exercised by the
        // fig12 binary; keep unit tests quick).
        let options = SolveOptions::default();
        for spec in [&FIG12_ROWS[1], &FIG12_ROWS[6]] {
            let row = run_fig12_row(spec, &options);
            assert!(row.exploitable, "{}", row.name);
            assert_eq!(row.c, row.c_paper, "{}", row.name);
            assert!(row.fg >= row.fg_paper, "{}", row.name);
            assert!(row.seconds < 5.0, "{} took {}s", row.name, row.seconds);
            assert!(row.product_states > 0, "{} explored no products", row.name);
            assert!(row.peak_bytes > 0, "{} charged no memo bytes", row.name);
        }
    }

    #[test]
    fn shape_checker_catches_violations() {
        let good = Fig12Row {
            app: "x".into(),
            name: "row".into(),
            fg: 100,
            fg_paper: 100,
            c: 5,
            c_paper: 5,
            c_distinct: 3,
            seconds: 0.01,
            reference_ratio: 20.0,
            traced_seconds: 0.012,
            paper_seconds: 0.01,
            jobs: 1,
            par_seconds: 0.01,
            speedup: 1.0,
            exploitable: true,
            product_states: 0,
            peak_bytes: 0,
            stats: SolveStats::default(),
            phases: Vec::new(),
            queries: 0,
            query_memo_hits: 0,
            ledger: String::new(),
        };
        assert!(fig12_shape_violations(std::slice::from_ref(&good)).is_empty());
        // The outlier is judged against the slowest other row, not a
        // typical one: 0.07 s beside a 0.009 s row is not an outlier.
        let timed = |name: &str, seconds: f64| Fig12Row {
            name: name.into(),
            seconds,
            ..good.clone()
        };
        let fast = [timed("a", 0.002), timed("b", 0.002), timed("c", 0.009)];
        let with_secure = |seconds: f64| {
            let mut rows = fast.to_vec();
            rows.push(timed("secure", seconds));
            rows
        };
        assert!(secure_outlier_shortfall(&with_secure(0.07)).is_some());
        assert!(secure_outlier_shortfall(&with_secure(0.09)).is_none());
        assert!(secure_outlier_shortfall(&fast).is_none());
        assert!(fig12_shape_violations(&with_secure(0.07)).is_empty());
        let mut bad = good;
        bad.exploitable = false;
        bad.c = 4;
        let violations = fig12_shape_violations(&[bad]);
        assert_eq!(violations.len(), 2);
    }

    #[test]
    fn rows_json_carries_timings_and_the_shared_counter_schema() {
        let row = Fig12Row {
            app: "x".into(),
            name: "row".into(),
            fg: 100,
            fg_paper: 100,
            c: 5,
            c_paper: 5,
            c_distinct: 3,
            seconds: 0.01,
            reference_ratio: 20.0,
            traced_seconds: 0.012,
            paper_seconds: 0.01,
            jobs: 1,
            par_seconds: 0.01,
            speedup: 1.0,
            exploitable: true,
            product_states: 42,
            peak_bytes: 4096,
            stats: SolveStats {
                groups: 2,
                fingerprint_hits: 7,
                ..SolveStats::default()
            },
            phases: vec![PhaseRow {
                phase: "gci".into(),
                count: 3,
                total_us: 1234,
            }],
            queries: 19,
            query_memo_hits: 6,
            ledger: String::new(),
        };
        let json = fig12_rows_json(std::slice::from_ref(&row));
        assert!(json.contains("\"seconds\": 0.010000"), "{json}");
        assert!(json.contains("\"traced_seconds\": 0.012000"), "{json}");
        assert!(json.contains("\"c_distinct\": 3"), "{json}");
        assert!(json.contains("\"product_states\": 42"), "{json}");
        assert!(json.contains("\"peak_bytes\": 4096"), "{json}");
        assert!(json.contains("\"queries\": 19"), "{json}");
        assert!(json.contains("\"query_memo_hits\": 6"), "{json}");
        // Every counter SolveStats exposes appears under "stats".
        for (name, _) in row.stats.counter_fields() {
            assert!(json.contains(&format!("\"{name}\":")), "{name}: {json}");
        }
        assert!(json.contains("\"fingerprint-hits\": 7"), "{json}");
        assert!(json.contains("\"phases\": {"), "{json}");
        assert!(json.contains("\"gci\": 1234"), "{json}");
    }

    #[test]
    fn baseline_parser_roundtrips_rows_json() {
        let mk = |name: &str, seconds: f64| Fig12Row {
            app: "x".into(),
            name: name.into(),
            fg: 1,
            fg_paper: 1,
            c: 1,
            c_paper: 1,
            c_distinct: 1,
            seconds,
            reference_ratio: seconds * 8.0,
            traced_seconds: seconds * 2.0,
            paper_seconds: 9.0,
            jobs: 4,
            par_seconds: seconds / 2.0,
            speedup: 2.0,
            exploitable: true,
            product_states: 0,
            peak_bytes: 0,
            stats: SolveStats::default(),
            phases: Vec::new(),
            queries: 0,
            query_memo_hits: 0,
            ledger: String::new(),
        };
        let mut rows = [mk("edit", 0.125), mk("secure", 3.5)];
        rows[1].stats.product_states = 10914;
        let parsed = parse_fig12_baseline(&fig12_rows_json(&rows));
        // Only the untraced sequential `seconds` and `reference_ratio`
        // fields are extracted — the traced/par/paper variants must not
        // collide with them.
        let seconds: Vec<(&str, f64, f64)> = parsed
            .iter()
            .map(|r| (r.name.as_str(), r.seconds, r.reference_ratio))
            .collect();
        assert_eq!(seconds, vec![("edit", 0.125, 1.0), ("secure", 3.5, 28.0)]);
        // Every counter comes back, in `counter_fields` order.
        for (parsed, row) in parsed.iter().zip(&rows) {
            let expected: Vec<(String, u64)> = row
                .stats
                .counter_fields()
                .iter()
                .map(|&(k, v)| (k.to_owned(), v))
                .collect();
            assert_eq!(parsed.stats, expected);
        }
        assert_eq!(parsed[1].counter("product-states"), Some(10914));
        assert_eq!(parsed[0].counter("no-such-counter"), None);
    }

    #[test]
    fn disabled_tracer_overhead_is_within_noise() {
        // The tracer is threaded through every solver phase; when disabled
        // it must cost nothing but a branch. Compare min-of-3 timings of the
        // same fast row with the tracer off vs on (null sink): the disabled
        // path may not be meaningfully slower than the enabled one.
        let options = SolveOptions::default();
        let spec = &FIG12_ROWS[1];
        let (mut min_off, mut min_on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            let row = run_fig12_row(spec, &options);
            min_off = min_off.min(row.seconds);
            min_on = min_on.min(row.traced_seconds);
        }
        assert!(
            min_off <= min_on * 1.5 + 0.05,
            "disabled tracer slower than enabled: {min_off}s off vs {min_on}s on"
        );
    }

    #[test]
    fn disabled_metrics_overhead_is_within_noise() {
        // The metrics handle rides through every hot path; when disabled it
        // must cost nothing but a branch (same contract as the tracer).
        // Min-of-3 timings of a fast row, registry absent vs installed: the
        // disabled path may not be meaningfully slower than the enabled one.
        let spec = &FIG12_ROWS[1];
        let disabled = SolveOptions::default();
        let enabled = SolveOptions {
            metrics: dprle_core::Metrics::enabled(),
            ..SolveOptions::default()
        };
        let (mut min_off, mut min_on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            min_off = min_off.min(run_fig12_row(spec, &disabled).seconds);
            min_on = min_on.min(run_fig12_row(spec, &enabled).seconds);
        }
        assert!(
            min_off <= min_on * 1.5 + 0.05,
            "disabled metrics slower than enabled: {min_off}s off vs {min_on}s on"
        );
    }

    #[test]
    fn disabled_ledger_overhead_is_within_noise() {
        // The ledger handle rides through the store observer, the gci
        // product builder, and the verify loop; when disabled it must cost
        // nothing but a branch (same contract as the tracer and metrics).
        let spec = &FIG12_ROWS[1];
        let disabled = SolveOptions::default();
        let enabled = SolveOptions {
            ledger: Ledger::new(Arc::new(CollectLedger::new())),
            ..SolveOptions::default()
        };
        let (mut min_off, mut min_on) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            min_off = min_off.min(run_fig12_row(spec, &disabled).seconds);
            min_on = min_on.min(run_fig12_row(spec, &enabled).seconds);
        }
        assert!(
            min_off <= min_on * 1.5 + 0.05,
            "disabled ledger slower than enabled: {min_off}s off vs {min_on}s on"
        );
    }

    #[test]
    fn fig12_ledger_diff_names_the_seeded_regression_first() {
        // The ISSUE's acceptance check: take a real Figure 12 ledger,
        // artificially slow exactly one query by a large constant, and the
        // profile diff must rank that query's fingerprint pair first and
        // trip the --fail-above gate.
        let row = run_fig12_row(&FIG12_ROWS[1], &SolveOptions::default());
        assert!(row.queries > 1, "row records several queries");
        let old = dprle_core::parse_ledger(&row.ledger).expect("row ledger parses");
        let mut new = old.clone();
        let victim = &mut new[0];
        victim.ts_us += 100_000;
        let victim_fp = format!("{:016x}", victim.lhs_fp);
        let report = dprle_core::render_diff(
            &old,
            &new,
            &dprle_core::DiffOptions {
                fail_above_pct: Some(50.0),
                ..dprle_core::DiffOptions::default()
            },
        );
        assert!(report.gate_breached, "{}", report.text);
        let first_row = report
            .text
            .lines()
            .find(|l| l.contains('⊆'))
            .expect("ranked rows");
        assert!(
            first_row.contains(&victim_fp),
            "seeded query first: {first_row}\n{}",
            report.text
        );
    }

    #[test]
    fn fig12_ledger_concat_is_valid_jsonl() {
        let row = run_fig12_row(&FIG12_ROWS[1], &SolveOptions::default());
        let doc = fig12_ledger_jsonl(std::slice::from_ref(&row));
        let n = dprle_core::validate_ledger_jsonl(dprle_core::LEDGER_SCHEMA, &doc)
            .expect("concatenated ledger is schema-valid");
        assert_eq!(n as u64, row.queries);
        assert!(
            row.query_memo_hits <= row.queries,
            "memo hits are a subset of all queries"
        );
    }

    #[test]
    fn ci_sweep_grows_quadratically_at_most() {
        let points = run_ci_sweep(&[4, 8, 16]);
        for w in points.windows(2) {
            assert!(w[1].m5_states > w[0].m5_states);
        }
        let fit: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.input_states as f64, p.m5_states as f64))
            .collect();
        let k = fit_exponent(&fit);
        assert!(k > 0.5 && k < 2.5, "M5 growth exponent {k} out of range");
    }

    #[test]
    fn exponent_fit_recovers_known_powers() {
        let square: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        let k = fit_exponent(&square);
        assert!((k - 2.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((fit_exponent(&linear) - 1.0).abs() < 1e-9);
        assert!(fit_exponent(&[(1.0, 1.0)]).is_nan());
    }
}
