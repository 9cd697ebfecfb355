//! The Figure 12 workloads: `fig12-secure` (the heavy row, solved
//! repeatedly) and `fig12-fast` (the other 16 rows, cycled in a seeded
//! order).
//!
//! Input synthesis generates each row's program with the corpus generator
//! and prints it as PHP source. Set-up is the `lang` front end over those
//! sources: `parse_php`, `explore`, then `build_system`. An op builds a
//! row's constraint systems from the front-end output, solves each on a
//! fresh `LangStore` at jobs 1 with default options, and extracts the
//! exploit witnesses. Its check replays the witnesses through the
//! concrete interpreter on the generated program: the program must not
//! exit, and an executed query must contain a quote.

use crate::layers::{Counters, LayerTime};
use crate::{stats, Args, Run};
use dprle_automata::LangStore;
use dprle_core::{
    solve_traced, CollectLedger, CollectSink, Ledger, Metrics, Solution, SolveOptions, SolveStats,
    Tracer,
};
use dprle_corpus::{vulnerable_program, FIG12_ROWS};
use dprle_lang::symex::SymexOptions;
use dprle_lang::{
    build_system, explore, parse_php, print_php, InputBinding, Policy, Program, SinkReach, Stmt,
    StringExpr,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which rows a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rows {
    /// The heavy `secure` row alone.
    Secure,
    /// The 16 other rows.
    Fast,
}

/// One row's synthesized input.
pub struct RowInput {
    /// Row name.
    pub name: String,
    /// The generated program: the ground truth the check replays on.
    pub program: Program,
    /// Its printed PHP source: what the front end reads.
    pub source: String,
}

/// The front end's output for one row.
pub struct FrontEnd {
    /// Sink reaches found by symbolic execution.
    pub reaches: Vec<SinkReach>,
}

/// Wall time of one set-up pass, split by front-end stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTime {
    /// `parse_php` of every source.
    pub parse: Duration,
    /// `explore` of every parsed program.
    pub explore: Duration,
    /// `build_system` of every reach.
    pub build: Duration,
    /// Constraints across every built system.
    pub constraints: usize,
}

/// Synthesizes the rows' inputs. Seed 0 reproduces the corpus exactly.
/// Other seeds re-draw the text of each query template — the table name
/// and the words after `WHERE` — at the same length, so
/// `|FG|`, `|C|`, the heavy flag and every machine size stay those of the
/// corpus row while the bytes are unseen. (Salting the row name instead
/// also changes each fast row's template length, which moved single rows'
/// solve times up to threefold between seeds.)
pub fn synthesize(rows: Rows, seed: u64) -> Vec<RowInput> {
    FIG12_ROWS
        .iter()
        .filter(|spec| spec.heavy == (rows == Rows::Secure))
        .enumerate()
        .map(|(i, spec)| {
            let mut program = vulnerable_program(spec);
            if seed != 0 {
                let mut rng = SplitMix64(seed.wrapping_mul(0x100).wrapping_add(i as u64));
                redraw_templates(&mut program.stmts, &mut rng);
            }
            let source = print_php(&program);
            RowInput {
                name: spec.name.to_owned(),
                program,
                source,
            }
        })
        .collect()
}

/// The generator's template vocabulary (quote-free: the exploit must be
/// the only quote source).
const TEMPLATE_WORDS: [&[u8]; 6] = [b"col", b"val", b"AND ", b"x=", b"1 ", b"key_"];

/// Re-draws every `SELECT … WHERE …=` literal in the statements' queries.
fn redraw_templates(stmts: &mut [Stmt], rng: &mut SplitMix64) {
    for stmt in stmts {
        match stmt {
            Stmt::Query {
                expr: StringExpr::Concat(parts),
            } => {
                for part in parts {
                    if let StringExpr::Literal(bytes) = part {
                        redraw(bytes, rng);
                    }
                }
            }
            Stmt::If { then, els, .. } => {
                redraw_templates(then, rng);
                redraw_templates(els, rng);
            }
            Stmt::While { body, .. } => redraw_templates(body, rng),
            _ => {}
        }
    }
}

/// Replaces the table name with random letters and the words after
/// `WHERE ` with fresh vocabulary, keeping every length and the closing
/// `=`.
fn redraw(template: &mut Vec<u8>, rng: &mut SplitMix64) {
    const FROM: &[u8] = b"SELECT * FROM ";
    const WHERE: &[u8] = b" WHERE ";
    let Some(at) = template.windows(WHERE.len()).position(|w| w == WHERE) else {
        return;
    };
    let len = template.len();
    if at < FROM.len() || !template.starts_with(FROM) || template.last() != Some(&b'=') {
        return;
    }
    for byte in &mut template[FROM.len()..at] {
        *byte = b'a' + rng.below(26) as u8;
    }
    template.truncate(at + WHERE.len());
    while template.len() < len - 1 {
        template.extend_from_slice(TEMPLATE_WORDS[rng.below(TEMPLATE_WORDS.len())]);
    }
    template.truncate(len - 1);
    template.push(b'=');
}

/// The `lang` front end over every row: the set-up the workload times.
pub fn front_end(inputs: &[RowInput], policy: &Policy) -> (Vec<FrontEnd>, SetupTime) {
    let mut time = SetupTime::default();
    let mut out = Vec::with_capacity(inputs.len());
    for input in inputs {
        let started = Instant::now();
        let program = parse_php(&input.name, &input.source)
            .unwrap_or_else(|e| panic!("{}: printed source must parse: {e}", input.name));
        time.parse += started.elapsed();
        let started = Instant::now();
        let reaches = explore(&program, &SymexOptions::default())
            .unwrap_or_else(|e| panic!("{}: symbolic execution failed: {e}", input.name));
        time.explore += started.elapsed();
        let started = Instant::now();
        for reach in &reaches {
            let generated = build_system(reach, policy)
                .unwrap_or_else(|e| panic!("{}: constraint generation failed: {e}", input.name));
            time.constraints += generated.system.num_constraints();
        }
        time.build += started.elapsed();
        out.push(FrontEnd { reaches });
    }
    (out, time)
}

/// One op's outcome.
pub struct Op {
    /// Wall time of the whole op.
    pub wall: Duration,
    /// Witnesses of each satisfiable reach, by input name.
    pub findings: Vec<HashMap<String, Vec<u8>>>,
    /// Solver counters summed over the row's systems.
    pub stats: SolveStats,
    /// Time inside `solve_traced`.
    pub solve: Duration,
    /// Time extracting witnesses.
    pub witness: Duration,
}

/// Builds, solves and extracts witnesses for one row.
pub fn op(front: &FrontEnd, policy: &Policy, options: &SolveOptions, tracer: &Tracer) -> Op {
    let started = Instant::now();
    let mut findings = Vec::new();
    let mut stats = SolveStats::default();
    let mut solve = Duration::ZERO;
    let mut witness = Duration::ZERO;
    for reach in &front.reaches {
        let generated = build_system(reach, policy).expect("the front end built this reach");
        let store = LangStore::interning(options.interning);
        let solve_started = Instant::now();
        let (solution, run_stats) = solve_traced(&generated.system, options, &store, tracer);
        solve += solve_started.elapsed();
        stats.absorb(&run_stats);
        if let Solution::Assignments(list) = &solution {
            if let Some(assignment) = list.first() {
                let witness_started = Instant::now();
                let found = generated
                    .inputs
                    .iter()
                    .filter_map(|(name, binding)| match binding {
                        InputBinding::Direct(v) => Some((name.clone(), assignment.witness(*v)?)),
                        // The corpus never case-maps an input.
                        InputBinding::Mapped { .. } => None,
                    })
                    .collect();
                witness += witness_started.elapsed();
                findings.push(found);
            }
        }
    }
    Op {
        wall: started.elapsed(),
        findings,
        stats,
        solve,
        witness,
    }
}

/// The answer check: at least one exploit, and every exploit, replayed on
/// the generated program, survives all guards and puts a quote into an
/// executed query.
pub fn check(program: &Program, op: &Op) -> bool {
    !op.findings.is_empty()
        && op.findings.iter().all(|inputs| {
            dprle_lang::run(program, inputs).is_ok_and(|r| !r.exited && r.any_query_contains(b'\''))
        })
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// SplitMix64: a small, well-mixed, fully specified PRNG, so a seed gives
/// the same inputs on every platform and toolchain.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Traced-leg accumulation over whole cycles.
#[derive(Default)]
struct Traced {
    time: LayerTime,
    cycle: Counters,
    first_cycle: Option<Counters>,
    cycles: u64,
    mismatch: Option<String>,
}

impl Traced {
    /// Runs one traced op with a tracer, an enabled registry and a ledger
    /// of its own.
    fn op(&mut self, front: &FrontEnd, policy: &Policy) -> Op {
        let sink = Arc::new(CollectSink::new());
        let ledger = Arc::new(CollectLedger::new());
        let options = SolveOptions {
            metrics: Metrics::enabled(),
            ledger: Ledger::new(ledger.clone()),
            ..SolveOptions::default()
        };
        let op = op(front, policy, &options, &Tracer::new(sink.clone()));
        let records = ledger.take();
        self.time.ops += 1;
        self.time.phases.add(&sink.take());
        self.time.solve_us += op.solve.as_micros() as u64;
        self.time.witness_us += op.witness.as_micros() as u64;
        self.time.add_ledger(&records);
        self.cycle.add_stats(&op.stats);
        self.cycle.add_ledger(&records);
        if let Some(snapshot) = options.metrics.snapshot() {
            self.cycle.add_metrics(&snapshot, None);
        }
        op
    }

    /// Closes a cycle: every cycle runs the same ops on fresh state, so its
    /// counters must equal the first cycle's.
    fn end_cycle(&mut self) {
        let cycle = std::mem::take(&mut self.cycle);
        match &self.first_cycle {
            None => self.first_cycle = Some(cycle),
            Some(first) if *first != cycle && self.mismatch.is_none() => {
                self.mismatch = Some(format!(
                    "cycle {} counters {:?} differ from cycle 1 {:?}",
                    self.cycles + 1,
                    cycle.0,
                    first.0
                ));
            }
            Some(_) => {}
        }
        self.cycles += 1;
    }
}

/// Runs a Figure 12 workload.
pub fn run(rows: Rows, args: &Args) -> Run {
    let policy = Policy::sql_quote();
    let inputs = synthesize(rows, args.seed);
    let mut run = Run::default();
    let mut setups = Vec::new();
    let fronts = run.set_up(|| {
        let (front, time) = front_end(&inputs, &policy);
        setups.push(time);
        front
    });
    let order = seeded_order(inputs.len(), args.seed);
    let cycle_len = order.len();
    let options = SolveOptions::default();
    // The untraced leg: the end-to-end measurement, or the baseline of
    // `telemetry.traced_slowdown` in the traced run.
    let mut first_cycle = SolveStats::default();
    let mut per_row: Vec<Vec<f64>> = vec![Vec::new(); cycle_len];
    let started = Instant::now();
    let mut i = 0;
    while i < cycle_len || started.elapsed() < args.leg() {
        let row = order[i % cycle_len];
        let op_started = Instant::now();
        let op = op(&fronts[row], &policy, &options, &Tracer::disabled());
        per_row[row].push(run.record_op(op_started, op.wall));
        run.attempted += 1;
        run.failed += u64::from(!check(&inputs[row].program, &op));
        if i < cycle_len {
            first_cycle.absorb(&op.stats);
        }
        i += 1;
    }
    run.peak_rss_mb = crate::host::peak_rss_mb();
    let first: Vec<String> = first_cycle
        .counter_fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    run.notes.push(format!(
        "rows {} ({}), first-cycle counters: {}",
        cycle_len,
        order
            .iter()
            .map(|&r| inputs[r].name.as_str())
            .collect::<Vec<_>>()
            .join(","),
        first.join(" ")
    ));
    let row_p50: Vec<String> = inputs
        .iter()
        .zip(&per_row)
        .map(|(input, ms)| {
            format!(
                "{}={:.2}/{:.2}",
                input.name,
                stats::median(ms).unwrap_or(0.0),
                stats::max(ms).unwrap_or(0.0)
            )
        })
        .collect();
    run.notes
        .push(format!("per-row p50/max ms: {}", row_p50.join(" ")));
    if !args.trace {
        return run;
    }

    // The traced leg: the same ops, whole cycles only.
    let mut traced = Traced::default();
    let mut traced_ms = Vec::new();
    let started = Instant::now();
    while traced.cycles == 0 || started.elapsed() < args.leg() {
        for &row in &order {
            let op = traced.op(&fronts[row], &policy);
            traced_ms.push(op.wall.as_secs_f64() * 1000.0);
            run.attempted += 1;
            run.failed += u64::from(!check(&inputs[row].program, &op));
        }
        traced.end_cycle();
    }
    run.inconsistency = traced.mismatch.take();
    let counters = traced.first_cycle.take().unwrap_or_default();
    let setup_ms = |f: fn(&SetupTime) -> Duration| {
        let v: Vec<f64> = setups.iter().map(|s| f(s).as_secs_f64() * 1000.0).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    let layers = &mut run.layers;
    layers.insert("lang.parse_php.ms", setup_ms(|s| s.parse));
    layers.insert("lang.explore.ms", setup_ms(|s| s.explore));
    layers.insert("lang.build_system.ms", setup_ms(|s| s.build));
    layers.insert(
        "lang.constraints",
        setups.first().map_or(0, |s| s.constraints) as f64,
    );
    run.record_traced(&traced.time, &counters, &traced_ms, args.seed);
    run.notes.push(format!(
        "traced: {} cycles of {} ops; exact counters are per cycle; span overruns {}",
        traced.cycles, cycle_len, traced.time.phases.overruns
    ));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_order_is_a_permutation_fixed_by_its_seed() {
        let a = seeded_order(16, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        assert_eq!(a, seeded_order(16, 3));
        assert_ne!(a, seeded_order(16, 4));
    }

    #[test]
    fn seeded_rows_keep_their_published_shape_and_sizes() {
        let policy = Policy::sql_quote();
        let default = synthesize(Rows::Fast, 0);
        let reseeded = synthesize(Rows::Fast, 9);
        assert_eq!(default.len(), 16);
        let (fronts, _) = front_end(&reseeded, &policy);
        let specs = FIG12_ROWS.iter().filter(|s| !s.heavy);
        for (((row, base), front), spec) in reseeded.iter().zip(&default).zip(&fronts).zip(specs) {
            assert_eq!(row.name, spec.name);
            assert_ne!(row.source, base.source, "{}", row.name);
            assert_eq!(row.source.len(), base.source.len(), "{}", row.name);
            let c: usize = front
                .reaches
                .iter()
                .map(|r| {
                    build_system(r, &policy)
                        .expect("builds")
                        .system
                        .num_constraints()
                })
                .max()
                .unwrap_or(0);
            assert_eq!(c, spec.c, "{}", row.name);
            let fg = dprle_lang::Cfg::build(&row.program).num_blocks();
            assert!(fg >= spec.fg, "{}", row.name);
        }
        let spec = FIG12_ROWS.iter().find(|s| s.heavy).expect("a heavy row");
        let secure = synthesize(Rows::Secure, 0);
        assert_eq!(secure.len(), 1);
        assert_eq!(secure[0].source, print_php(&vulnerable_program(spec)));
        let secure_7 = synthesize(Rows::Secure, 7);
        assert_ne!(secure_7[0].source, secure[0].source);
        assert_eq!(secure_7[0].source.len(), secure[0].source.len());
    }

    #[test]
    fn smoke_every_fast_row_passes_its_answer_check() {
        let policy = Policy::sql_quote();
        let inputs = synthesize(Rows::Fast, 5);
        let (fronts, _) = front_end(&inputs, &policy);
        let mut traced = Traced::default();
        for (input, front) in inputs.iter().zip(&fronts) {
            let op = traced.op(front, &policy);
            assert!(check(&input.program, &op), "{}", input.name);
        }
        traced.end_cycle();
        // A second cycle on fresh state repeats every counter exactly.
        for front in &fronts {
            let _ = traced.op(front, &policy);
        }
        traced.end_cycle();
        assert_eq!(traced.mismatch, None);
        let counters = traced.first_cycle.expect("one cycle");
        assert!(counters.get("automata.inclusion.queries") > 0);
        assert!(counters.get("core.states_materialized") > 0);
    }

    #[test]
    fn smoke_the_secure_row_passes_its_answer_check() {
        let policy = Policy::sql_quote();
        let inputs = synthesize(Rows::Secure, 0);
        let (fronts, setup) = front_end(&inputs, &policy);
        let spec = FIG12_ROWS.iter().find(|s| s.heavy).expect("a heavy row");
        assert_eq!(setup.constraints, spec.c);
        let op = op(
            &fronts[0],
            &policy,
            &SolveOptions::default(),
            &Tracer::disabled(),
        );
        assert!(check(&inputs[0].program, &op));
        assert!(op.stats.product_states > 1000, "{:?}", op.stats);
    }

    #[test]
    fn a_wrong_witness_fails_the_check() {
        let policy = Policy::sql_quote();
        let inputs = synthesize(Rows::Fast, 0);
        let (fronts, _) = front_end(&inputs[..1], &policy);
        let mut op = op(
            &fronts[0],
            &policy,
            &SolveOptions::default(),
            &Tracer::disabled(),
        );
        assert!(check(&inputs[0].program, &op));
        for inputs in &mut op.findings {
            for value in inputs.values_mut() {
                value.retain(|&b| b != b'\'');
            }
        }
        assert!(!check(&inputs[0].program, &op));
        op.findings.clear();
        assert!(!check(&inputs[0].program, &op));
    }
}
