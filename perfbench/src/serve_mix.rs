//! The `serve-mix` workload: a seeded stream of request lines sent one at
//! a time to an in-process `SolverService` with jobs 1 and a byte-capped
//! store — the caller the paper has in mind is a symbolic executor that
//! waits for each answer, so the loop is closed with one outstanding
//! request.
//!
//! Request classes, each with the outcome its generator records:
//!
//! | class | program | outcome |
//! |---|---|---|
//! | `fig1` | Fig. 1 query with a per-request literal, `witness` | sat |
//! | `unsat` | a variable under two disjoint literals | unsat |
//! | `concat` | `pre . v . w <= /[a-d]*q/` with a per-request `pre`, `witness` | sat |
//! | `smtlib` | `str.in_re` script with `check-sat`/`get-model` | sat |
//! | `budget` | the `fig1` query with `max_product_states: 1` | resource-exhausted |
//! | `malformed` | truncated, unknown-field or mistyped lines | parse-error |
//!
//! Constants come from a per-class pool: with probability
//! [`REPEAT_SHARE`] a request reuses one of its class's last
//! [`REUSE_WINDOW`] constants (repeating earlier work), otherwise it takes
//! a fresh one, so the working set keeps growing past [`STORE_CAP_BYTES`]
//! and eviction runs in steady state. Witnesses in sat responses are
//! checked against the request's own patterns with the regex crate's
//! AST-interpreting oracle, never with the solver's automata.

use crate::fig12::SplitMix64;
use crate::layers::{Counters, LayerTime};
use crate::{stats, Args, Run};
use dprle_cli::serve::{ServeConfig, SolverService};
use dprle_core::{json_string, lookup, CollectSink, Json, Metrics, SolveStats};
use dprle_regex::{oracle_is_full_match, parse as parse_regex, Ast};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The shared store's LRU byte cap: a constant of the workload, below the
/// stream's working set.
pub const STORE_CAP_BYTES: u64 = 96 * 1024;

/// Requests each set-up sends after constructing the service, enough for
/// the store to reach its cap.
pub const WARMUP_REQUESTS: usize = 500;

/// Probability that a request reuses a recent constant of its class.
pub const REPEAT_SHARE: f64 = 0.5;

/// How many of a class's most recent constants a repeat draws from.
pub const REUSE_WINDOW: usize = 32;

/// Requests whose work counters the traced run reports exactly.
pub const COUNTED_REQUESTS: usize = 1000;

/// Mixed into the seed so the stream's draws differ from the fig12
/// workloads' row order for the same seed.
const STREAM_SALT: u64 = 0x7365_7276_652d_6d78;

/// The request classes and their weights (per mille). Latencies fall in
/// three clusters: `malformed`, `budget`, `unsat` and `smtlib` answer in
/// ~0.1 ms, `fig1` in ~0.9 ms and `concat` in ~1.9 ms. The fast cluster
/// holds 35% of requests and `fig1` the next 45%, so the median falls
/// inside `fig1`'s cluster, a third of the way in; `concat`'s 20% puts the
/// 99th percentile near its own 95th, clear of the other classes' tails.
const CLASSES: [(Class, u64); 6] = [
    (Class::Malformed, 50),
    (Class::Budget, 50),
    (Class::Unsat, 125),
    (Class::Smtlib, 125),
    (Class::Fig1, 450),
    (Class::Concat, 200),
];

/// A request class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// Fig. 1-style native query (sat).
    Fig1,
    /// Disjoint-literal pair (unsat).
    Unsat,
    /// Multi-variable concatenation with witnesses (sat).
    Concat,
    /// SMT-LIB script with `check-sat`/`get-model` (sat).
    Smtlib,
    /// Budget-capped query (resource-exhausted).
    Budget,
    /// Malformed or unknown-field line (parse-error).
    Malformed,
}

impl Class {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Fig1 => "fig1",
            Class::Unsat => "unsat",
            Class::Concat => "concat",
            Class::Smtlib => "smtlib",
            Class::Budget => "budget",
            Class::Malformed => "malformed",
        }
    }

    /// The response kind a request of this class must produce.
    pub fn expected_kind(self) -> &'static str {
        match self {
            Class::Fig1 | Class::Concat | Class::Smtlib => "sat",
            Class::Unsat => "unsat",
            Class::Budget => "resource-exhausted",
            Class::Malformed => "parse-error",
        }
    }
}

/// One generated request line with what its answer must be.
#[derive(Clone, Debug)]
pub struct Request {
    /// The JSONL request line.
    pub line: String,
    /// Its class.
    pub class: Class,
    /// The request's `id`.
    pub id: String,
    /// The class constant drawn from the pool.
    pub constant: u64,
    /// Whether an earlier request of the stream used the same constant.
    pub repeat: bool,
}

/// The seeded request stream.
pub struct Stream {
    rng: SplitMix64,
    next_index: u64,
    fresh: HashMap<Class, u64>,
    recent: HashMap<Class, Vec<u64>>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: SplitMix64(seed ^ STREAM_SALT),
            next_index: 0,
            fresh: HashMap::new(),
            recent: HashMap::new(),
        }
    }

    fn draw_class(&mut self) -> Class {
        let total: u64 = CLASSES.iter().map(|(_, w)| w).sum();
        let mut pick = self.rng.next() % total;
        for (class, weight) in CLASSES {
            if pick < weight {
                return class;
            }
            pick -= weight;
        }
        unreachable!("weights cover the draw")
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        let class = self.draw_class();
        let index = self.next_index;
        self.next_index += 1;
        let id = format!("q{index}");
        let recent = self.recent.entry(class).or_default();
        let reuse = !recent.is_empty()
            && (self.rng.next() as f64 / u64::MAX as f64) < REPEAT_SHARE
            && class != Class::Malformed;
        let constant = if reuse {
            recent[self.rng.below(recent.len())]
        } else {
            let fresh = self.fresh.entry(class).or_default();
            *fresh += 1;
            recent.push(*fresh);
            if recent.len() > REUSE_WINDOW {
                recent.remove(0);
            }
            *fresh
        };
        Request {
            line: request_line(class, &id, constant),
            class,
            id,
            constant,
            repeat: reuse,
        }
    }
}

// Constants are zero-padded to a fixed width, so a fresh constant costs
// the same work whatever its value.

fn fig1_program(constant: u64) -> String {
    format!(
        "var v1; c1 := match(/[\\d]+$/); c2 := \"nid{constant:05}_\"; c3 := match(/'/); \
         v1 <= c1; c2 . v1 <= c3;"
    )
}

/// The `concat` class's literal prefix: the constant in base 4 over
/// `a`–`d`, eight letters wide.
fn concat_prefix(constant: u64) -> String {
    (0..8)
        .rev()
        .map(|i| char::from(b'a' + ((constant >> (2 * i)) & 3) as u8))
        .collect()
}

fn request_line(class: Class, id: &str, constant: u64) -> String {
    let id = json_string(id);
    match class {
        Class::Fig1 => format!(
            "{{\"id\":{id},\"input\":{},\"witness\":true}}",
            json_string(&fig1_program(constant))
        ),
        Class::Unsat => format!(
            "{{\"id\":{id},\"input\":{}}}",
            json_string(&format!(
                "var v; a := \"x{constant:05}\"; b := \"y{constant:05}\"; v <= a; v <= b;"
            ))
        ),
        Class::Concat => format!(
            "{{\"id\":{id},\"input\":{},\"witness\":true}}",
            json_string(&format!(
                "var v w; c := /[a-d]*q/; pre := \"{}\"; pre . v . w <= c;",
                concat_prefix(constant)
            ))
        ),
        Class::Smtlib => format!(
            "{{\"id\":{id},\"language\":\"smtlib\",\"input\":{}}}",
            json_string(&format!(
                "(declare-fun x () String)\n\
                 (assert (str.in_re x (re.++ (str.to_re \"k{constant:05}\") (re.* (re.range \"a\" \"f\")))))\n\
                 (check-sat)\n(get-model)"
            ))
        ),
        Class::Budget => format!(
            "{{\"id\":{id},\"input\":{},\"max_product_states\":1}}",
            json_string(&fig1_program(constant))
        ),
        Class::Malformed => match constant % 4 {
            0 => format!("{{\"id\":{id},\"input\":"),
            1 => format!("{{\"id\":{id},\"input\":\"var v;\",\"bogus\":true}}"),
            2 => format!("{{\"id\":{id},\"input\":7}}"),
            _ => format!("[{id}]"),
        },
    }
}

/// Patterns the witness checks interpret, parsed once.
pub struct Oracle {
    digits: Ast,
    quote: Ast,
    concat: Ast,
}

impl Oracle {
    /// Parses the fixed patterns.
    pub fn new() -> Oracle {
        Oracle {
            digits: parse_regex("[\\d]+").expect("pattern parses"),
            quote: parse_regex("'").expect("pattern parses"),
            concat: parse_regex("[a-d]*q").expect("pattern parses"),
        }
    }

    /// `preg_match` semantics of an end-anchored pattern: some suffix
    /// matches in full.
    fn ends_with_match(ast: &Ast, s: &[u8]) -> bool {
        (0..s.len()).any(|i| oracle_is_full_match(ast, &s[i..]))
    }

    /// Unanchored `preg_match` semantics: some substring matches in full.
    fn contains_match(ast: &Ast, s: &[u8]) -> bool {
        (0..=s.len()).any(|i| (i..=s.len()).any(|j| oracle_is_full_match(ast, &s[i..j])))
    }

    /// Checks one response against its request.
    pub fn check(&self, request: &Request, response: &str) -> bool {
        let Ok(json) = Json::parse(response) else {
            return false;
        };
        let Some(obj) = json.as_object() else {
            return false;
        };
        if lookup(obj, "kind").and_then(Json::as_str) != Some(request.class.expected_kind()) {
            return false;
        }
        let id = lookup(obj, "id").and_then(Json::as_str);
        if request.class != Class::Malformed && id != Some(request.id.as_str()) {
            return false;
        }
        match request.class {
            Class::Fig1 => self.witness_sets(obj).is_some_and(|sets| {
                sets.iter().all(|w| {
                    w.get("v1").is_some_and(|v| {
                        let query = [format!("nid{:05}_", request.constant).as_bytes(), v].concat();
                        Oracle::ends_with_match(&self.digits, v)
                            && Oracle::contains_match(&self.quote, &query)
                    })
                })
            }),
            Class::Concat => {
                let pre = concat_prefix(request.constant);
                self.witness_sets(obj).is_some_and(|sets| {
                    sets.iter().all(|w| match (w.get("v"), w.get("w")) {
                        (Some(v), Some(x)) => {
                            oracle_is_full_match(&self.concat, &[pre.as_bytes(), v, x].concat())
                        }
                        _ => false,
                    })
                })
            }
            Class::Smtlib => {
                let Ok(target) = parse_regex(&format!("k{:05}[a-f]*", request.constant)) else {
                    return false;
                };
                let outputs: Vec<&str> = lookup(obj, "outputs")
                    .and_then(Json::as_array)
                    .map(|a| a.iter().filter_map(Json::as_str).collect())
                    .unwrap_or_default();
                outputs.first() == Some(&"sat")
                    && outputs
                        .get(1)
                        .and_then(|model| model_value(model, "x"))
                        .is_some_and(|x| oracle_is_full_match(&target, &x))
            }
            Class::Unsat | Class::Budget | Class::Malformed => true,
        }
    }

    /// The response's `witnesses`: one `var → bytes` map per assignment.
    fn witness_sets(&self, obj: &[(String, Json)]) -> Option<Vec<HashMap<String, Vec<u8>>>> {
        let sets = lookup(obj, "witnesses")?.as_array()?;
        if sets.is_empty() {
            return None;
        }
        sets.iter()
            .map(|set| {
                set.as_array()?
                    .iter()
                    .map(|entry| {
                        let e = entry.as_object()?;
                        let var = lookup(e, "var")?.as_str()?.to_owned();
                        let witness = lookup(e, "witness")?.as_str()?.as_bytes().to_vec();
                        Some((var, witness))
                    })
                    .collect()
            })
            .collect()
    }
}

/// The value of `var` in a `get-model` output: `(define-fun x () String
/// "…")`, with SMT-LIB's `""` and `\u{hh}` escapes undone.
fn model_value(model: &str, var: &str) -> Option<Vec<u8>> {
    let prefix = format!("(define-fun {var} () String \"");
    let start = model.find(&prefix)? + prefix.len();
    let body = &model.as_bytes()[start..];
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        match body.get(i)? {
            b'"' if body.get(i + 1) == Some(&b'"') => {
                out.push(b'"');
                i += 2;
            }
            b'"' => return Some(out),
            b'\\' if body.get(i + 1) == Some(&b'u') && body.get(i + 2) == Some(&b'{') => {
                let close = i + 3 + body[i + 3..].iter().position(|&b| b == b'}')?;
                let hex = std::str::from_utf8(&body[i + 3..close]).ok()?;
                out.push(u8::from_str_radix(hex, 16).ok()?);
                i = close + 1;
            }
            &b => {
                out.push(b);
                i += 1;
            }
        }
    }
}

/// The numbers a response's lifecycle `breakdown` carries, µs.
#[derive(Clone, Copy, Debug, Default)]
struct Breakdown {
    parse: u64,
    solve: u64,
    serialize: u64,
    wall: u64,
}

fn breakdown(response: &str) -> Option<Breakdown> {
    let json = Json::parse(response).ok()?;
    let b = lookup(json.as_object()?, "breakdown")?.as_object()?;
    let field = |k| lookup(b, k).and_then(Json::as_u64);
    Some(Breakdown {
        parse: field("parse-us")?,
        solve: field("solve-us")?,
        serialize: field("serialize-us")?,
        wall: field("wall-us")?,
    })
}

/// The response's request-scoped `stats` as `SolveStats` (zero for
/// responses without one, such as parse errors).
fn response_stats(response: &str) -> SolveStats {
    let Some(stats) = Json::parse(response).ok().and_then(|json| {
        let obj = json.as_object()?;
        lookup(obj, "stats")?.as_object().map(<[_]>::to_vec)
    }) else {
        return SolveStats::default();
    };
    let get = |k| lookup(&stats, k).and_then(Json::as_u64).unwrap_or(0);
    SolveStats {
        group_disjuncts: get("group-disjuncts") as usize,
        branches_completed: get("branches-completed") as usize,
        fingerprint_misses: get("fingerprint-misses") as usize,
        memo_op_hits: get("memo-op-hits") as usize,
        memo_op_misses: get("memo-op-misses") as usize,
        states_materialized: get("states-materialized") as usize,
        product_states: get("product-states"),
        store_evictions: get("store-evictions"),
        ..SolveStats::default()
    }
}

/// A class's percentile for the notes, or `-` when too few samples.
fn tail(ms: &[f64], pct: usize) -> String {
    stats::tail_percentile(ms, pct).map_or("-".to_owned(), |v| format!("{v:.4}"))
}

/// Builds the service and sends it the warm-up prefix of the stream;
/// returns the service, the stream positioned after the warm-up, and
/// whether every warm-up answer checked out.
fn set_up(seed: u64, metrics: Metrics, collect_ledger: bool) -> (SolverService, Stream, bool) {
    let service = SolverService::new(
        ServeConfig {
            sessions: 1,
            store_max_bytes: Some(STORE_CAP_BYTES),
            jobs: 1,
            collect_ledger,
            ..ServeConfig::default()
        },
        metrics,
    );
    let oracle = Oracle::new();
    let mut stream = Stream::new(seed);
    let mut ok = true;
    for _ in 0..WARMUP_REQUESTS {
        let request = stream.next_request();
        let response = service.handle_request(&request.line, Instant::now());
        ok &= oracle.check(&request, &response);
    }
    (service, stream, ok)
}

/// Runs the `serve-mix` workload.
pub fn run(args: &Args) -> Run {
    let mut run = Run::default();
    let mut warmups_ok = true;
    let (service, mut stream) = run.set_up(|| {
        let (service, stream, ok) = set_up(args.seed, Metrics::disabled(), false);
        warmups_ok &= ok;
        (service, stream)
    });
    let warm_bytes = service.store().stats().memo_bytes;
    let oracle = Oracle::new();
    let mut op_classes = Vec::new();
    let mut breakdowns = Vec::new();
    let mut repeats = 0u64;
    let started = Instant::now();
    while run.attempted < COUNTED_REQUESTS as u64 || started.elapsed() < args.leg() {
        let request = stream.next_request();
        let op_started = Instant::now();
        let response = service.handle_request(&request.line, Instant::now());
        run.record_op(op_started, op_started.elapsed());
        op_classes.push(request.class);
        run.attempted += 1;
        run.failed += u64::from(!oracle.check(&request, &response));
        repeats += u64::from(request.repeat);
        if args.trace {
            breakdowns.extend(breakdown(&response));
        }
    }
    run.peak_rss_mb = crate::host::peak_rss_mb();
    if !warmups_ok {
        run.inconsistency = Some("a warm-up response failed its check".to_owned());
    }
    let store = service.store().stats();
    let repeat_share = repeats as f64 / run.attempted as f64;
    run.notes.push(format!(
        "store cap {STORE_CAP_BYTES} B; memo bytes {warm_bytes} after the {WARMUP_REQUESTS}-request warm-up, {} at the end; evictions {}; repeat share {repeat_share:.4}",
        store.memo_bytes, store.evictions
    ));
    let mut per_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    for (class, ms) in op_classes.iter().zip(&run.latencies_ms) {
        per_class.entry(*class).or_default().push(*ms);
    }
    for (class, ms) in &per_class {
        run.notes.push(format!(
            "class {:<9} n {:>6} share {:.3} p50 {:.4} ms p90 {} p99 {}",
            class.name(),
            ms.len(),
            ms.len() as f64 / run.attempted as f64,
            stats::median(ms).unwrap_or(0.0),
            tail(ms, 90),
            tail(ms, 99),
        ));
    }
    if !args.trace {
        return run;
    }

    let layers = &mut run.layers;
    let median_of = |f: fn(&Breakdown) -> u64| {
        let v: Vec<f64> = breakdowns.iter().map(|b| f(b) as f64).collect();
        stats::median(&v).unwrap_or(0.0)
    };
    layers.insert("serve.parse.p50_us", median_of(|b| b.parse));
    layers.insert("serve.solve.p50_us", median_of(|b| b.solve));
    layers.insert("serve.serialize.p50_us", median_of(|b| b.serialize));
    let wall: u64 = breakdowns.iter().map(|b| b.wall).sum();
    let solve: u64 = breakdowns.iter().map(|b| b.solve).sum();
    layers.insert(
        "serve.overhead_frac",
        wall.saturating_sub(solve) as f64 / wall.max(1) as f64,
    );
    layers.insert("serve.repeat_share", repeat_share);
    drop(service);

    // The traced leg: a fresh service with every telemetry handle on,
    // warmed up like the measured one, then the same stream.
    let (service, mut stream, ok) = set_up(args.seed, Metrics::enabled(), true);
    if !ok {
        run.inconsistency = Some("a warm-up response failed its check".to_owned());
    }
    let sink = Arc::new(CollectSink::new());
    service.set_trace_sink(sink.clone());
    let ledger_start = service.ledger_jsonl().len();
    let metrics_start = service.metrics().snapshot();
    let mut time = LayerTime::default();
    let mut counters = Counters::default();
    let mut traced_ms = Vec::new();
    let started = Instant::now();
    while traced_ms.len() < COUNTED_REQUESTS || started.elapsed() < args.leg() {
        let request = stream.next_request();
        let op_started = Instant::now();
        let response = service.handle_request(&request.line, Instant::now());
        traced_ms.push(op_started.elapsed().as_secs_f64() * 1000.0);
        run.attempted += 1;
        run.failed += u64::from(!oracle.check(&request, &response));
        time.ops += 1;
        time.phases.add(&sink.take());
        if traced_ms.len() <= COUNTED_REQUESTS {
            counters.add_stats(&response_stats(&response));
        }
        if traced_ms.len() == COUNTED_REQUESTS {
            let records = dprle_core::parse_ledger(&service.ledger_jsonl()[ledger_start..])
                .expect("the service's own ledger parses");
            counters.add_ledger(&records);
            if let Some(after) = service.metrics().snapshot() {
                counters.add_metrics(&after, metrics_start.as_ref());
            }
        }
    }
    let records = dprle_core::parse_ledger(&service.ledger_jsonl()[ledger_start..])
        .expect("the service's own ledger parses");
    time.add_ledger(&records);
    time.solve_us = time.phases.root_us;
    run.record_traced(&time, &counters, &traced_ms, args.seed);
    run.notes.push(format!(
        "traced: {} requests; exact counters cover the first {COUNTED_REQUESTS}; span overruns {}",
        traced_ms.len(),
        time.phases.overruns
    ));
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_fixed_by_its_seed_and_repeats_its_stated_share() {
        let lines = |seed| {
            let mut s = Stream::new(seed);
            (0..2000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        let a = lines(4);
        let b = lines(4);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        assert!(a.iter().zip(lines(5)).any(|(x, y)| x.line != y.line));
        let share = a.iter().filter(|r| r.repeat).count() as f64 / a.len() as f64;
        assert!((0.35..0.5).contains(&share), "repeat share {share}");
        for (class, _) in CLASSES {
            assert!(a.iter().any(|r| r.class == class), "{class:?} drawn");
        }
    }

    #[test]
    fn model_values_undo_smtlib_escapes() {
        let model = "(\n  (define-fun x () String \"a\"\"b\\u{27}c\")\n)";
        assert_eq!(model_value(model, "x"), Some(b"a\"b'c".to_vec()));
        assert_eq!(model_value(model, "y"), None);
    }

    #[test]
    fn smoke_every_answer_checks_out_and_counters_repeat_exactly() {
        let traced_prefix = |seed| {
            let (service, mut stream, ok) = set_up(seed, Metrics::enabled(), true);
            assert!(ok, "warm-up answers check out");
            let oracle = Oracle::new();
            let mut counters = Counters::default();
            let mut kinds = HashMap::new();
            for _ in 0..300 {
                let request = stream.next_request();
                let response = service.handle_request(&request.line, Instant::now());
                assert!(
                    oracle.check(&request, &response),
                    "{request:?} → {response}"
                );
                *kinds.entry(request.class).or_insert(0) += 1;
                counters.add_stats(&response_stats(&response));
            }
            assert_eq!(kinds.len(), CLASSES.len(), "{kinds:?}");
            assert!(service.store().stats().evictions > 0, "the cap evicts");
            counters
        };
        let first = traced_prefix(11);
        assert!(first.get("store.memo_op_hits") > 0);
        assert_eq!(first, traced_prefix(11));
    }

    #[test]
    fn a_wrong_answer_fails_the_check() {
        let oracle = Oracle::new();
        let service = SolverService::new(ServeConfig::default(), Metrics::disabled());
        let mut stream = Stream::new(1);
        let request = loop {
            let r = stream.next_request();
            if r.class == Class::Concat {
                break r;
            }
        };
        let response = service.handle_request(&request.line, Instant::now());
        assert!(oracle.check(&request, &response));
        let wrong = response.replacen("\"witness\":\"", "\"witness\":\"z", 1);
        assert!(!oracle.check(&request, &wrong));
        let relabeled = Request {
            class: Class::Unsat,
            ..request
        };
        assert!(!oracle.check(&relabeled, &response));
    }
}
