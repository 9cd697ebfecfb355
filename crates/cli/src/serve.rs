//! The `dprle serve` front end: many concurrent solver sessions in one
//! process, sharing a single (optionally byte-capped) [`LangStore`].
//!
//! Requests and responses are JSONL — one JSON object per line — carried
//! either over stdin/stdout (the default) or over a TCP socket
//! (`--listen ADDR`). Each request names a program in the native
//! constraint format or an SMT-LIB strings script, plus optional
//! per-request overrides for `jobs` and the resource budget. Every
//! request produces exactly one typed response (`sat` / `unsat` /
//! `resource-exhausted` / `parse-error`) — malformed input, budget
//! breaches, and even solver panics are mapped to schema-compliant JSON
//! rather than crashing the process. The wire schema is
//! pinned in `docs/serve.schema.json` and documented in DESIGN.md §10.
//!
//! ## Request fields
//!
//! | field | type | meaning |
//! |---|---|---|
//! | `id` | string, required | echoed verbatim in the response |
//! | `input` | string, required | the program text |
//! | `language` | `"dprle"` \| `"smtlib"` | input syntax (default `dprle`) |
//! | `jobs` | integer ≥ 1 | worklist worker threads for this request |
//! | `max_product_states` | integer ≥ 1 | budget override |
//! | `max_live_states` | integer ≥ 1 | budget override |
//! | `deadline_ms` | integer ≥ 1 | budget override |
//! | `witness` | bool | include one shortest witness per variable |
//! | `trace` | bool | embed this request's trace-journal events |
//! | `ledger` | bool | embed this request's cost-ledger records |
//!
//! Unknown fields are rejected (fail-closed), mirroring the repo's other
//! schemas.
//!
//! A request line may hold at most [`MAX_REQUEST_LINE_BYTES`] bytes before
//! its newline. A longer one gets one `parse-error` naming the cap as soon
//! as it crosses it; the rest of the line is read and dropped without
//! being buffered, and the next line is answered as usual.
//!
//! ## Sharing and determinism
//!
//! All sessions solve against one shared store, so concurrent requests
//! reuse each other's fingerprints and memoized operations. Solutions are
//! store-sharing-invariant (PR 1's contract: memoization changes costs,
//! never answers), so a request's `solutions`/`witnesses`/`outputs` are
//! byte-identical whether it runs alone or next to neighbors. Per-request
//! telemetry is request-scoped: each solve installs a thread-local
//! [`StoreScope`](dprle_automata::StoreScope) that counts exactly this
//! request's store work and reports it to this request's tracer and
//! ledger, so neither the `stats`, nor the journal's memo events, nor the
//! ledger's store-site records ever include a concurrent neighbor's work.
//! Hit rates still depend on arrival order (that is the point of
//! sharing); the counted events are the request's own.
//!
//! ## Observability
//!
//! Every request is assigned a service-unique `request_id` (`r0`, `r1`,
//! …) echoed in the response together with a `breakdown` object timing
//! the request lifecycle: `queue-wait-us` (arrival to worker pickup),
//! `parse-us` (the JSON envelope and, for a native program, the program
//! text), `solve-us` (the solver call; an SMT-LIB script's parsing
//! interleaves with its `check-sat`s and counts here), `serialize-us`
//! (the rest: building and rendering the response), and `wall-us`
//! (arrival to rendered response; always ≥ the sum of the other four). The same
//! request id is stamped on the request's trace-journal events
//! (`--trace-out`, and the events a `trace` request embeds) and
//! cost-ledger records, so a shared journal or multi-tenant ledger joins
//! back against responses. Lifecycle phases
//! feed the `serve.request.*` histograms and `serve.requests.*`
//! per-outcome counters in the metrics registry, and the N slowest
//! requests are kept in a ring served by the admin plane's `/slow`
//! endpoint (mirrored to `--slow-log FILE --slow-ms N` as schema-pinned
//! JSONL, `docs/slowlog.schema.json`). The admin plane (`--admin
//! HOST:PORT`) is a minimal HTTP/1.1 listener exposing `GET /metrics`
//! (Prometheus exposition), `/healthz`, `/readyz` (503 while draining),
//! and `/slow`.
//!
//! ## Shutdown
//!
//! Stdio mode drains on stdin EOF; both modes drain on SIGTERM/SIGINT
//! (requests already read are answered, then the process exits so the
//! caller can flush metrics and ledger files). The admin listener stays
//! up through the drain — `/readyz` reports `draining` — and stops after
//! the main loop returns.

use crate::parse_file;
use crate::smtlib;
use dprle_automata::LangStore;
use dprle_core::metrics::id;
use dprle_core::{
    json_string, lookup, try_solve_traced, Budget, CollectLedger, CollectSink, Json, Ledger,
    Metrics, ResourceExhausted, Solution, SolveOptions, SolveStats, System, TeeSink, TraceEvent,
    TraceSink, Tracer,
};
use std::cell::Cell;
use std::io::{BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How often blocked workers and connection readers wake to poll the
/// shutdown flag. Bounds shutdown latency, not throughput (a queued
/// request is picked up immediately).
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The most bytes a request line may hold before its newline, on stdin
/// and over TCP alike. It is 1 MiB: CI's hostile 300 000-deep JSON
/// request (≈600 KB) must still reach the JSON depth limit, and the
/// largest request of the benchmarks is a few KiB.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// How many of the slowest requests the service retains for the admin
/// plane's `/slow` endpoint. Small and fixed: the ring is a triage tool,
/// the full population lives in `--slow-log`.
pub const SLOW_RING_CAPACITY: usize = 32;

/// The JSON Schema (draft-07 subset) pinning the `--slow-log` JSONL
/// format; also the shape of each element of the admin `/slow` array.
pub const SLOWLOG_SCHEMA: &str = include_str!("../../../docs/slowlog.schema.json");

/// Saturating whole-microsecond wall time since `start`.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The phases a request's handler times inside its post-envelope
/// interval: a native program's parse (`parse-us`, beside the envelope's)
/// and the solver call proper (`solve-us`).
#[derive(Default)]
struct Timed {
    parse_us: Cell<u64>,
    solve_us: Cell<u64>,
}

impl Timed {
    /// Adds the microseconds since `started` to `phase`.
    fn add(phase: &Cell<u64>, started: Instant) {
        phase.set(phase.get().saturating_add(elapsed_us(started)));
    }
}

/// Server-level configuration: session count plus the *default* solve
/// options a request inherits when it does not override them.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Concurrent worker sessions draining the request queue (stdio
    /// mode); TCP mode instead runs one session per connection.
    pub sessions: usize,
    /// LRU byte cap installed on the shared store (`--store-max-bytes`).
    /// `None` means unbounded — the seed behavior.
    pub store_max_bytes: Option<u64>,
    /// Whether the shared store interns/memoizes at all
    /// (`--no-interning` ablation when false).
    pub interning: bool,
    /// Default worklist worker threads per request.
    pub jobs: usize,
    /// Default `Budget::max_product_states`.
    pub max_product_states: Option<u64>,
    /// Default `Budget::max_live_states`.
    pub max_live_states: Option<u64>,
    /// Default wall-clock budget per request, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Collect a server-wide cost ledger across all requests (backs
    /// `--ledger-out`; per-request embedding is the `ledger` request
    /// field and works either way).
    pub collect_ledger: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            sessions: 4,
            store_max_bytes: None,
            interning: true,
            jobs: 1,
            max_product_states: None,
            max_live_states: None,
            deadline_ms: None,
            collect_ledger: false,
        }
    }
}

/// The multi-session solver service: one shared [`LangStore`], one shared
/// metrics registry, and a stateless-per-request `handle_line` that any
/// number of threads may call concurrently.
pub struct SolverService {
    config: ServeConfig,
    store: Arc<LangStore>,
    metrics: Metrics,
    /// Accumulated cost-ledger JSONL across every request (only when
    /// `config.collect_ledger`); flushed by the caller at shutdown.
    ledger_jsonl: Mutex<String>,
    requests: AtomicU64,
    /// The [`SLOW_RING_CAPACITY`] slowest completed requests by wall
    /// time, sorted slowest-first. Always maintained (it is cheap);
    /// served by the admin plane's `/slow` endpoint.
    slow_ring: Mutex<Vec<SlowRecord>>,
    /// JSONL sink for requests at least `slow_threshold_us` slow
    /// (`--slow-log FILE --slow-ms N`); `None` when not configured.
    slow_log: Mutex<Option<Box<dyn Write + Send>>>,
    /// Threshold for `slow_log`, in microseconds. `u64::MAX` disables.
    slow_threshold_us: AtomicU64,
    /// Shared trace-journal sink (serve `--trace-out`); each request
    /// records into it through its own tagged tracer.
    trace_sink: Mutex<Option<Arc<dyn TraceSink>>>,
}

impl SolverService {
    /// Builds the service: constructs the shared store, installs the
    /// byte cap and the metrics registry on it.
    pub fn new(config: ServeConfig, metrics: Metrics) -> SolverService {
        let store = LangStore::interning(config.interning);
        store.set_max_bytes(config.store_max_bytes);
        store.set_metrics(metrics.clone());
        SolverService {
            config,
            store: Arc::new(store),
            metrics,
            ledger_jsonl: Mutex::new(String::new()),
            requests: AtomicU64::new(0),
            slow_ring: Mutex::new(Vec::new()),
            slow_log: Mutex::new(None),
            slow_threshold_us: AtomicU64::new(u64::MAX),
            trace_sink: Mutex::new(None),
        }
    }

    /// Installs the slow-request JSONL sink: requests whose wall time is
    /// at least `threshold_ms` milliseconds are appended as one
    /// `docs/slowlog.schema.json` record per line.
    pub fn set_slow_log(&self, sink: Box<dyn Write + Send>, threshold_ms: u64) {
        *self.slow_log.lock().expect("slow-log lock") = Some(sink);
        self.slow_threshold_us
            .store(threshold_ms.saturating_mul(1000), Ordering::Relaxed);
    }

    /// Installs the shared trace-journal sink (serve `--trace-out`).
    /// Every subsequent request solves under a tracer tagged with its
    /// request id, so the interleaved journal stays joinable.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.trace_sink.lock().expect("trace-sink lock") = Some(sink);
    }

    /// A snapshot of the slow-request ring, slowest first.
    pub fn slow_snapshot(&self) -> Vec<SlowRecord> {
        self.slow_ring.lock().expect("slow ring lock").clone()
    }

    /// The `/slow` payload: a JSON array of slow-request records,
    /// slowest first (each record is also one `--slow-log` line).
    pub fn slow_json(&self) -> String {
        let records: Vec<String> = self
            .slow_snapshot()
            .iter()
            .map(SlowRecord::to_json)
            .collect();
        format!("[{}]", records.join(","))
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The shared store (for tests and shutdown-time reporting).
    pub fn store(&self) -> &Arc<LangStore> {
        &self.store
    }

    /// The shared metrics registry handle.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Requests handled so far (including malformed ones).
    pub fn requests_handled(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// The accumulated server-wide cost ledger as JSONL (empty unless
    /// [`ServeConfig::collect_ledger`] is set).
    pub fn ledger_jsonl(&self) -> String {
        self.ledger_jsonl.lock().expect("ledger lock").clone()
    }

    /// Handles one JSONL request line, returning exactly one JSONL
    /// response line. Never panics: malformed input becomes a
    /// `parse-error` response, budget breaches a `resource-exhausted`
    /// one, and a solver panic is caught and reported as a typed error.
    /// Safe to call from any number of threads concurrently.
    ///
    /// Shorthand for [`SolverService::handle_request`] with an arrival
    /// time of "now" (zero queue wait) — the transports that queue
    /// requests call `handle_request` with the real enqueue instant.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_request(line, Instant::now())
    }

    /// Handles one request that arrived at `enqueued`, timing the four
    /// lifecycle phases (queue wait, parse, solve, serialize), stamping
    /// the response with this request's `request_id` and `breakdown`,
    /// recording the `serve.request.*` histograms and per-outcome
    /// `serve.requests.*` counters, and feeding the slow-request ring
    /// and slow log. The phase invariant `queue-wait + parse + solve +
    /// serialize <= wall` holds by construction: the phases are disjoint
    /// sub-intervals of the request's wall interval.
    pub fn handle_request(&self, line: &str, enqueued: Instant) -> String {
        self.respond(enqueued, || parse_request(line))
    }

    /// Answers a request line that exceeded [`MAX_REQUEST_LINE_BYTES`]: a
    /// `parse-error` naming the cap, counted and logged like any other
    /// response.
    pub fn handle_overlong(&self, enqueued: Instant) -> String {
        self.respond(enqueued, || {
            Err((
                None,
                format!("request line exceeds the {MAX_REQUEST_LINE_BYTES}-byte cap"),
            ))
        })
    }

    /// [`SolverService::handle_request`] for a request that `parse`
    /// reads.
    fn respond(
        &self,
        enqueued: Instant,
        parse: impl FnOnce() -> Result<Request, (Option<String>, String)>,
    ) -> String {
        let queue_wait_us = elapsed_us(enqueued);
        let request_id = format!("r{}", self.requests.fetch_add(1, Ordering::Relaxed));
        let parse_started = Instant::now();
        let parsed = parse();
        let envelope_us = elapsed_us(parse_started);
        let after_parse = Instant::now();
        // Written by solve_request around a native program's parse and
        // the solver call proper; what remains of the post-parse interval
        // is serialization.
        let timed = Timed::default();
        let (echo_id, body) = match parsed {
            Ok(request) => {
                let id = request.id.clone();
                let body = catch_unwind(AssertUnwindSafe(|| {
                    self.solve_request(&request, &request_id, &timed)
                }))
                .unwrap_or_else(|_| {
                    parse_error_response(
                        Some(&id),
                        "internal error: the solver panicked on this request",
                    )
                });
                (Some(id), body)
            }
            Err((id, message)) => {
                let body = parse_error_response(id.as_deref(), &message);
                (id, body)
            }
        };
        let (program_us, solve_us) = (timed.parse_us.get(), timed.solve_us.get());
        let serialize_us =
            elapsed_us(after_parse).saturating_sub(program_us.saturating_add(solve_us));
        let wall_us = elapsed_us(enqueued);
        let breakdown = Breakdown {
            queue_wait_us,
            parse_us: envelope_us.saturating_add(program_us),
            solve_us,
            serialize_us,
            wall_us,
        };
        let response = splice_observability(&body, &request_id, &breakdown);
        let outcome = response_kind(&body);
        self.record_request(&request_id, echo_id.as_deref(), outcome, &breakdown);
        response
    }

    /// Post-request bookkeeping: metrics, the slow ring, the slow log.
    fn record_request(
        &self,
        request_id: &str,
        echo_id: Option<&str>,
        outcome: &'static str,
        breakdown: &Breakdown,
    ) {
        if self.metrics.is_enabled() {
            self.metrics
                .observe(id::SERVE_QUEUE_WAIT_US, breakdown.queue_wait_us);
            self.metrics.observe(id::SERVE_PARSE_US, breakdown.parse_us);
            self.metrics.observe(id::SERVE_SOLVE_US, breakdown.solve_us);
            self.metrics
                .observe(id::SERVE_SERIALIZE_US, breakdown.serialize_us);
            self.metrics.observe(id::SERVE_WALL_US, breakdown.wall_us);
            let counter = match outcome {
                "sat" => id::SERVE_SAT,
                "unsat" => id::SERVE_UNSAT,
                "resource-exhausted" => id::SERVE_RESOURCE_EXHAUSTED,
                _ => id::SERVE_PARSE_ERROR,
            };
            self.metrics.add(counter, 1);
        }
        let record = SlowRecord {
            request_id: request_id.to_owned(),
            id: echo_id.map(str::to_owned),
            outcome,
            queue_wait_us: breakdown.queue_wait_us,
            parse_us: breakdown.parse_us,
            solve_us: breakdown.solve_us,
            serialize_us: breakdown.serialize_us,
            wall_us: breakdown.wall_us,
        };
        {
            let mut ring = self.slow_ring.lock().expect("slow ring lock");
            ring.push(record.clone());
            ring.sort_by(|a, b| {
                b.wall_us
                    .cmp(&a.wall_us)
                    .then(a.request_id.cmp(&b.request_id))
            });
            ring.truncate(SLOW_RING_CAPACITY);
        }
        if breakdown.wall_us >= self.slow_threshold_us.load(Ordering::Relaxed) {
            let mut log = self.slow_log.lock().expect("slow-log lock");
            if let Some(sink) = log.as_mut() {
                let _ = writeln!(sink, "{}", record.to_json());
                let _ = sink.flush();
            }
        }
    }

    fn solve_request(&self, request: &Request, request_id: &str, timed: &Timed) -> String {
        let started = Instant::now();
        // The per-request sink exists when either the response embeds
        // the ledger or the server accumulates one; records flow to both.
        let ledger_sink =
            (request.ledger || self.config.collect_ledger).then(|| Arc::new(CollectLedger::new()));
        let options = SolveOptions {
            interning: self.config.interning,
            jobs: request.jobs.unwrap_or(self.config.jobs),
            metrics: self.metrics.clone(),
            budget: Budget {
                max_product_states: request
                    .max_product_states
                    .or(self.config.max_product_states),
                max_live_states: request.max_live_states.or(self.config.max_live_states),
                deadline: request
                    .deadline_ms
                    .or(self.config.deadline_ms)
                    .map(Duration::from_millis),
            },
            // Tagged with the request id so multi-tenant ledgers (the
            // server-wide `--ledger-out` accumulation) stay joinable.
            ledger: ledger_sink.as_ref().map_or_else(Ledger::disabled, |sink| {
                Ledger::new_tagged(sink.clone(), request_id)
            }),
            ..SolveOptions::default()
        };
        // One tracer per request, tagged with its id, recording into the
        // shared journal (`--trace-out`) and, for a `trace` request, into
        // the collector its response embeds. With neither it is disabled
        // and records nothing.
        let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
        sinks.extend(self.trace_sink.lock().expect("trace-sink lock").clone());
        let trace_sink = request.trace.then(|| Arc::new(CollectSink::new()));
        if let Some(sink) = &trace_sink {
            sinks.push(sink.clone());
        }
        let tracer = match sinks.len() {
            0 => Tracer::disabled(),
            1 => Tracer::new_tagged(sinks.pop().expect("one sink"), request_id),
            _ => Tracer::new_tagged(Arc::new(TeeSink(sinks)), request_id),
        };
        let mut response = if request.smtlib {
            self.solve_smtlib(request, &options, started, &tracer, timed)
        } else {
            self.solve_dprle(request, &options, started, &tracer, timed)
        };
        if let Some(sink) = &ledger_sink {
            if self.config.collect_ledger {
                self.ledger_jsonl
                    .lock()
                    .expect("ledger lock")
                    .push_str(&sink.to_jsonl());
            }
        }
        if let Some(sink) = &trace_sink {
            let events: Vec<String> = sink.take().iter().map(TraceEvent::to_json).collect();
            response = embed_array(&response, "trace", &events);
        }
        match (&ledger_sink, request.ledger) {
            (Some(sink), true) => {
                let records: Vec<String> = sink.take().iter().map(|r| r.to_json()).collect();
                embed_array(&response, "ledger", &records)
            }
            _ => response,
        }
    }

    fn solve_dprle(
        &self,
        request: &Request,
        options: &SolveOptions,
        started: Instant,
        tracer: &Tracer,
        timed: &Timed,
    ) -> String {
        let parse_started = Instant::now();
        let parsed = parse_file(&request.input);
        Timed::add(&timed.parse_us, parse_started);
        let system = match parsed {
            Ok(parsed) => parsed.system,
            Err(e) => return parse_error_response(Some(&request.id), &e.to_string()),
        };
        let solve_started = Instant::now();
        let solved = try_solve_traced(&system, options, &self.store, tracer);
        Timed::add(&timed.solve_us, solve_started);
        match solved {
            Ok((Solution::Assignments(assignments), stats)) => {
                let mut out = ResponseBuilder::new("sat", &request.id);
                out.num("assignments", assignments.len() as u64);
                out.raw(
                    "solutions",
                    &solutions_json(&system, &assignments, Rendering::Language),
                );
                if request.witness {
                    out.raw(
                        "witnesses",
                        &solutions_json(&system, &assignments, Rendering::Witness),
                    );
                }
                out.finish(&stats, started)
            }
            Ok((Solution::Unsat, stats)) => {
                ResponseBuilder::new("unsat", &request.id).finish(&stats, started)
            }
            Err(exhausted) => exhausted_response(&request.id, &exhausted, started),
        }
    }

    fn solve_smtlib(
        &self,
        request: &Request,
        options: &SolveOptions,
        started: Instant,
        tracer: &Tracer,
        timed: &Timed,
    ) -> String {
        // The whole script run counts as "solve": script parsing and
        // check-sat execution interleave, so they are not split further.
        let solve_started = Instant::now();
        let run = smtlib::run_script_shared(&request.input, options, tracer, self.store.clone());
        Timed::add(&timed.solve_us, solve_started);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                if let Some(exhausted) = e.exhausted {
                    return exhausted_response(&request.id, &exhausted, started);
                }
                return parse_error_response(Some(&request.id), &e.to_string());
            }
        };
        // The script's verdict is its last (check-sat); a script with no
        // check-sat trivially holds (it constrained nothing), so it
        // reports sat with zero outputs.
        let sat = run
            .outputs
            .iter()
            .rev()
            .find_map(|o| match o {
                smtlib::SmtOutput::CheckSat(sat) => Some(*sat),
                smtlib::SmtOutput::Model(_) => None,
            })
            .unwrap_or(true);
        let mut out = ResponseBuilder::new(if sat { "sat" } else { "unsat" }, &request.id);
        let outputs: Vec<String> = run
            .outputs
            .iter()
            .map(|o| json_string(&o.to_string()))
            .collect();
        out.raw("outputs", &format!("[{}]", outputs.join(",")));
        out.finish(&run.stats, started)
    }
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

struct Request {
    id: String,
    input: String,
    smtlib: bool,
    jobs: Option<usize>,
    max_product_states: Option<u64>,
    max_live_states: Option<u64>,
    deadline_ms: Option<u64>,
    witness: bool,
    trace: bool,
    ledger: bool,
}

/// Parses and validates one request line, fail-closed: unknown fields and
/// type mismatches are errors. The error carries the request id when one
/// was recoverable, so even rejections stay correlated.
fn parse_request(line: &str) -> Result<Request, (Option<String>, String)> {
    let json = Json::parse(line).map_err(|e| (None, format!("request is not valid JSON: {e}")))?;
    let obj = json
        .as_object()
        .ok_or_else(|| (None, "request must be a JSON object".to_owned()))?;
    // Recovered first so every later rejection can echo it.
    let id = lookup(obj, "id").and_then(Json::as_str).map(str::to_owned);
    let fail = |message: String| (id.clone(), message);
    let mut input = None;
    let mut smtlib = false;
    let mut jobs = None;
    let mut max_product_states = None;
    let mut max_live_states = None;
    let mut deadline_ms = None;
    let mut witness = false;
    let mut trace = false;
    let mut ledger = false;
    let positive = |value: &Json, key: &str| {
        value
            .as_u64()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("field `{key}` must be an integer >= 1"))
    };
    let boolean = |value: &Json, key: &str| {
        value
            .as_bool()
            .ok_or_else(|| format!("field `{key}` must be a boolean"))
    };
    for (key, value) in obj {
        match key.as_str() {
            "id" => {
                if value.as_str().is_none() {
                    return Err(fail("field `id` must be a string".to_owned()));
                }
            }
            "input" => match value.as_str() {
                Some(s) => input = Some(s.to_owned()),
                None => return Err(fail("field `input` must be a string".to_owned())),
            },
            "language" => match value.as_str() {
                Some("dprle") => smtlib = false,
                Some("smtlib") => smtlib = true,
                _ => {
                    return Err(fail(
                        "field `language` must be \"dprle\" or \"smtlib\"".to_owned(),
                    ))
                }
            },
            "jobs" => jobs = Some(positive(value, key).map_err(&fail)? as usize),
            "max_product_states" => max_product_states = Some(positive(value, key).map_err(&fail)?),
            "max_live_states" => max_live_states = Some(positive(value, key).map_err(&fail)?),
            "deadline_ms" => deadline_ms = Some(positive(value, key).map_err(&fail)?),
            "witness" => witness = boolean(value, key).map_err(&fail)?,
            "trace" => trace = boolean(value, key).map_err(&fail)?,
            "ledger" => ledger = boolean(value, key).map_err(&fail)?,
            other => return Err(fail(format!("unknown field `{other}`"))),
        }
    }
    let Some(id) = id else {
        return Err((None, "field `id` (string) is required".to_owned()));
    };
    let Some(input) = input else {
        return Err((Some(id), "field `input` (string) is required".to_owned()));
    };
    Ok(Request {
        id,
        input,
        smtlib,
        jobs,
        max_product_states,
        max_live_states,
        deadline_ms,
        witness,
        trace,
        ledger,
    })
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// Incremental JSON-object writer for responses. Field order is pinned
/// (kind, id, payload…, stats) so responses are byte-stable for a given
/// outcome — the concurrency tests compare them directly.
struct ResponseBuilder {
    out: String,
}

impl ResponseBuilder {
    fn new(kind: &str, id: &str) -> ResponseBuilder {
        let mut out = String::from("{\"kind\":");
        out.push_str(&json_string(kind));
        out.push_str(",\"id\":");
        out.push_str(&json_string(id));
        ResponseBuilder { out }
    }

    fn num(&mut self, key: &str, value: u64) {
        self.raw(key, &value.to_string());
    }

    fn str(&mut self, key: &str, value: &str) {
        let quoted = json_string(value);
        self.raw(key, &quoted);
    }

    fn raw(&mut self, key: &str, rendered: &str) {
        self.out.push(',');
        self.out.push_str(&json_string(key));
        self.out.push(':');
        self.out.push_str(rendered);
    }

    fn finish(mut self, stats: &SolveStats, started: Instant) -> String {
        self.raw("stats", &stats_json(stats, started));
        self.out.push('}');
        self.out
    }
}

/// Renders the per-request stats object: every [`SolveStats`] counter in
/// `counter_fields` order plus the request's wall time.
fn stats_json(stats: &SolveStats, started: Instant) -> String {
    let mut out = String::from("{");
    for (name, value) in stats.counter_fields() {
        out.push_str(&json_string(name));
        out.push(':');
        out.push_str(&value.to_string());
        out.push(',');
    }
    let wall_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    out.push_str(&format!("\"wall-us\":{wall_us}}}"));
    out
}

/// How [`solutions_json`] renders each variable's solved machine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rendering {
    /// The deterministic language description (`display_lang`).
    Language,
    /// One shortest witness string (lossy UTF-8), or `null` for the
    /// empty language.
    Witness,
}

/// Renders the assignments as a JSON array of arrays of
/// `{"var": name, "language"|"witness": …}` objects, in variable order —
/// deterministic, so solo and concurrent runs compare byte-for-byte.
fn solutions_json(
    system: &System,
    assignments: &[dprle_core::Assignment],
    rendering: Rendering,
) -> String {
    let mut out = String::from("[");
    for (i, assignment) in assignments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        let mut first = true;
        for v in system.var_ids() {
            let Some(machine) = assignment.get(v) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"var\":");
            out.push_str(&json_string(system.var_name(v)));
            match rendering {
                Rendering::Language => {
                    out.push_str(",\"language\":");
                    out.push_str(&json_string(&dprle_regex::display_lang(machine, 400)));
                }
                Rendering::Witness => {
                    out.push_str(",\"witness\":");
                    match assignment.witness(v) {
                        Some(w) => {
                            out.push_str(&json_string(&String::from_utf8_lossy(&w)));
                        }
                        None => out.push_str("null"),
                    }
                }
            }
            out.push('}');
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn exhausted_response(id: &str, exhausted: &ResourceExhausted, started: Instant) -> String {
    let mut out = ResponseBuilder::new("resource-exhausted", id);
    out.str("budget", exhausted.kind.name());
    out.num("limit", exhausted.limit);
    out.num("observed", exhausted.observed);
    out.finish(&exhausted.stats, started)
}

fn parse_error_response(id: Option<&str>, message: &str) -> String {
    let mut out = String::from("{\"kind\":\"parse-error\",\"id\":");
    match id {
        Some(id) => out.push_str(&json_string(id)),
        None => out.push_str("null"),
    }
    out.push_str(",\"error\":");
    out.push_str(&json_string(message));
    out.push('}');
    out
}

/// Splices rendered JSON objects — this request's journal events or
/// cost-ledger records — into an already-rendered response as a
/// `"key": [...]` field. Appending to the rendered object keeps the happy
/// path allocation-free when no embed was asked. A `parse-error` response
/// solved nothing, so its schema has no such field and it is returned
/// unchanged.
fn embed_array(response: &str, key: &str, items: &[String]) -> String {
    if response_kind(response) == "parse-error" {
        return response.to_owned();
    }
    let mut out = response
        .strip_suffix('}')
        .expect("responses are JSON objects")
        .to_owned();
    out.push(',');
    out.push_str(&json_string(key));
    out.push_str(":[");
    out.push_str(&items.join(","));
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------------
// Request lifecycle observability
// ---------------------------------------------------------------------

/// Wall time of the four request lifecycle phases plus the total, all in
/// microseconds. The phases are disjoint sub-intervals of the wall
/// interval, so their sum never exceeds `wall_us`.
struct Breakdown {
    queue_wait_us: u64,
    parse_us: u64,
    solve_us: u64,
    serialize_us: u64,
    wall_us: u64,
}

/// Classifies an already-rendered response by its `kind`. Responses are
/// rendered by this module with `kind` pinned as the first field, so a
/// prefix match is exact.
fn response_kind(response: &str) -> &'static str {
    for kind in ["sat", "unsat", "resource-exhausted", "parse-error"] {
        if response
            .strip_prefix("{\"kind\":\"")
            .and_then(|rest| rest.strip_prefix(kind))
            .is_some_and(|rest| rest.starts_with('"'))
        {
            return kind;
        }
    }
    debug_assert!(false, "unrecognized response kind: {response}");
    "parse-error"
}

/// Splices the request id and lifecycle breakdown onto an
/// already-rendered response, after every other field (same pattern as
/// [`embed_array`], so existing consumers that cut at `,\"stats\":`
/// keep working).
fn splice_observability(response: &str, request_id: &str, breakdown: &Breakdown) -> String {
    let mut out = response
        .strip_suffix('}')
        .expect("responses are JSON objects")
        .to_owned();
    out.push_str(",\"request_id\":");
    out.push_str(&json_string(request_id));
    out.push_str(&format!(
        ",\"breakdown\":{{\"queue-wait-us\":{},\"parse-us\":{},\"solve-us\":{},\"serialize-us\":{},\"wall-us\":{}}}}}",
        breakdown.queue_wait_us,
        breakdown.parse_us,
        breakdown.solve_us,
        breakdown.serialize_us,
        breakdown.wall_us,
    ));
    out
}

/// One completed request as retained by the slow-request ring and
/// written to `--slow-log`: identity, outcome, and the full lifecycle
/// breakdown. Pinned by `docs/slowlog.schema.json`.
#[derive(Clone, Debug)]
pub struct SlowRecord {
    /// The service-unique request id (`rN`).
    pub request_id: String,
    /// The client-supplied `id`, when one was recoverable.
    pub id: Option<String>,
    /// The response kind: `sat`, `unsat`, `resource-exhausted`, or
    /// `parse-error`.
    pub outcome: &'static str,
    /// Microseconds between arrival and worker pickup.
    pub queue_wait_us: u64,
    /// Microseconds spent parsing and validating the request line.
    pub parse_us: u64,
    /// Microseconds inside the solver (or SMT-LIB script run).
    pub solve_us: u64,
    /// Microseconds rendering the response.
    pub serialize_us: u64,
    /// Microseconds from arrival to the rendered response.
    pub wall_us: u64,
}

impl SlowRecord {
    /// Renders the record as one `docs/slowlog.schema.json` JSONL line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"kind\":\"SlowRequest\",\"request_id\":");
        out.push_str(&json_string(&self.request_id));
        out.push_str(",\"id\":");
        match &self.id {
            Some(id) => out.push_str(&json_string(id)),
            None => out.push_str("null"),
        }
        out.push_str(",\"outcome\":");
        out.push_str(&json_string(self.outcome));
        out.push_str(&format!(
            ",\"queue_wait_us\":{},\"parse_us\":{},\"solve_us\":{},\"serialize_us\":{},\"wall_us\":{}}}",
            self.queue_wait_us, self.parse_us, self.solve_us, self.serialize_us, self.wall_us,
        ));
        out
    }
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

/// One request line framed from a byte stream by [`LineFramer`].
enum Frame {
    /// A complete line, without its newline.
    Line(Vec<u8>),
    /// A line that crossed [`MAX_REQUEST_LINE_BYTES`].
    Overlong,
}

/// Splits a byte stream into request lines of at most
/// [`MAX_REQUEST_LINE_BYTES`]. Each byte read is scanned once, and a line
/// that crosses the cap is reported once, then dropped up to its newline
/// instead of buffered.
#[derive(Default)]
struct LineFramer {
    pending: Vec<u8>,
    /// The current line crossed the cap.
    skipping: bool,
}

impl LineFramer {
    /// The frames that newly read `bytes` complete.
    fn feed(&mut self, mut bytes: &[u8]) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            let newline = bytes.iter().position(|&b| b == b'\n');
            let chunk = &bytes[..newline.unwrap_or(bytes.len())];
            if !self.skipping {
                if self.pending.len() + chunk.len() > MAX_REQUEST_LINE_BYTES {
                    self.pending = Vec::new();
                    self.skipping = true;
                    frames.push(Frame::Overlong);
                } else {
                    self.pending.extend_from_slice(chunk);
                }
            }
            let Some(newline) = newline else {
                return frames;
            };
            if !std::mem::take(&mut self.skipping) {
                frames.push(Frame::Line(std::mem::take(&mut self.pending)));
            }
            bytes = &bytes[newline + 1..];
        }
    }

    /// Whether no part of a request is buffered.
    fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// The unterminated line left at the end of the stream, if any.
    fn finish(self) -> Option<Vec<u8>> {
        (!self.pending.is_empty()).then_some(self.pending)
    }
}

/// Serves JSONL over stdin/stdout with [`ServeConfig::sessions`] worker
/// threads draining one shared queue. Returns after stdin EOF (all read
/// requests answered) or after `shutdown` was raised and the queue
/// drained; either way every response was flushed before returning.
pub fn serve_stdio(service: &Arc<SolverService>, shutdown: &'static AtomicBool) {
    // Each queued line carries its arrival instant so the worker that
    // picks it up can report the queue wait in the response breakdown.
    let (tx, rx) = mpsc::channel::<(Frame, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    // The reader owns `tx`: dropping it on EOF is the drain signal the
    // workers see as `Disconnected` once the queue empties.
    let reader = std::thread::spawn(move || {
        let send = |frame: Frame| {
            if let Frame::Line(line) = &frame {
                if line.trim_ascii().is_empty() {
                    return true;
                }
            }
            tx.send((frame, Instant::now())).is_ok()
        };
        let mut stdin = std::io::stdin().lock();
        let mut framer = LineFramer::default();
        loop {
            let frames = match stdin.fill_buf() {
                Ok([]) => break,
                Ok(bytes) => {
                    let (frames, read) = (framer.feed(bytes), bytes.len());
                    stdin.consume(read);
                    frames
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if !frames.into_iter().all(send) {
                return;
            }
        }
        if let Some(last) = framer.finish() {
            send(Frame::Line(last));
        }
    });
    let workers: Vec<_> = (0..service.config().sessions.max(1))
        .map(|_| {
            let service = Arc::clone(service);
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || loop {
                let job = rx.lock().expect("queue lock").recv_timeout(POLL_INTERVAL);
                match job {
                    Ok((frame, enqueued)) => {
                        let response = match frame {
                            Frame::Line(line) => {
                                // A `\r\n` line ending is one newline, as
                                // for `BufRead::lines`.
                                let line = line.strip_suffix(b"\r").unwrap_or(&line);
                                service.handle_request(&String::from_utf8_lossy(line), enqueued)
                            }
                            Frame::Overlong => service.handle_overlong(enqueued),
                        };
                        let stdout = std::io::stdout();
                        let mut out = stdout.lock();
                        let _ = writeln!(out, "{response}");
                        let _ = out.flush();
                    }
                    // recv_timeout prefers queued jobs over the timeout,
                    // so a raised flag still drains everything already
                    // read before the worker exits.
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            })
        })
        .collect();
    for worker in workers {
        let _ = worker.join();
    }
    // After SIGTERM the reader may still be parked in a blocked stdin
    // read that no flag can interrupt; it dies with the process, so it is
    // only joined on the EOF path where it is known to have finished.
    if !shutdown.load(Ordering::SeqCst) {
        let _ = reader.join();
    }
}

/// Serves JSONL over a TCP socket: one session thread per connection,
/// each answering its own requests in order on its own stream. Accepts
/// until `shutdown` is raised, then waits for live connections to finish
/// their in-flight requests and close.
///
/// # Errors
///
/// Returns the underlying I/O error if the listener cannot be switched
/// to non-blocking mode (required to poll the shutdown flag).
pub fn serve_tcp(
    service: &Arc<SolverService>,
    listener: TcpListener,
    shutdown: &'static AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let live = Arc::new(AtomicUsize::new(0));
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let service = Arc::clone(service);
                let live = Arc::clone(&live);
                live.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let _ = serve_connection(&service, stream, shutdown);
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL / 2);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    while live.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// One TCP session: reads newline-delimited requests, writes one
/// response line per request on the same stream. Uses a short read
/// timeout so a raised shutdown flag closes idle connections promptly;
/// a connection mid-request finishes it first (drain semantics).
fn serve_connection(
    service: &SolverService,
    mut stream: TcpStream,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut framer = LineFramer::default();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                for frame in framer.feed(&buf[..n]) {
                    // TCP sessions handle requests inline (no queue), so
                    // arrival is the moment the full line was framed and
                    // queue-wait is effectively zero.
                    let response = match frame {
                        Frame::Line(raw) => {
                            let line = String::from_utf8_lossy(&raw);
                            let line = line.trim();
                            if line.is_empty() {
                                continue;
                            }
                            service.handle_request(line, Instant::now())
                        }
                        Frame::Overlong => service.handle_overlong(Instant::now()),
                    };
                    stream.write_all(response.as_bytes())?;
                    stream.write_all(b"\n")?;
                    stream.flush()?;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle (no partial request buffered) + shutdown = close.
                if shutdown.load(Ordering::SeqCst) && framer.is_idle() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Admin plane
// ---------------------------------------------------------------------

/// Serves the admin plane (`--admin HOST:PORT`): a minimal HTTP/1.1
/// listener answering `GET` requests with `Connection: close`
/// semantics. Routes:
///
/// * `/metrics` — the shared registry as Prometheus exposition text
///   (identical renderer to `--metrics-out` `.prom` snapshots, so a
///   quiesced scrape byte-compares with the shutdown snapshot).
/// * `/healthz` — liveness: `200 ok` while the process runs.
/// * `/readyz` — readiness: `200 ready`, or `503 draining` once the
///   shutdown flag is raised (load balancers stop routing during the
///   SIGTERM drain while in-flight requests finish).
/// * `/slow` — the slow-request ring as a JSON array, slowest first.
///
/// Handles each connection synchronously on the accept thread —
/// admin requests are tiny and rare, and serializing them keeps the
/// plane from ever amplifying load on a busy solver. Returns once
/// `stop` is raised (after the main serve loop drains). The handler
/// itself records no metrics, so scraping does not perturb what it
/// measures.
pub fn serve_admin(
    service: &Arc<SolverService>,
    listener: TcpListener,
    draining: &AtomicBool,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = answer_admin_connection(service, stream, draining);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL / 2);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one HTTP request head, writes one response, closes. Only the
/// request line is interpreted; headers are read to the blank line and
/// ignored (admin clients are curl and `dprle watch`).
fn answer_admin_connection(
    service: &SolverService,
    mut stream: TcpStream,
    draining: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && !head.windows(2).any(|w| w == b"\n\n") {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.len() > 8192 {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&head);
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else {
        match path {
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
            "/readyz" => {
                if draining.load(Ordering::SeqCst) {
                    (
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "draining\n".to_owned(),
                    )
                } else {
                    ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned())
                }
            }
            "/metrics" => match service.metrics().snapshot() {
                Some(snapshot) => (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    snapshot.to_prometheus(),
                ),
                None => (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    "metrics registry disabled\n".to_owned(),
                ),
            },
            "/slow" => ("200 OK", "application/json", service.slow_json()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

/// The process-wide graceful-shutdown flag, raised by SIGTERM/SIGINT.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that raise a process-wide shutdown
/// flag, and returns the flag for the serve loops to poll. Idempotent.
/// Storing to an atomic is async-signal-safe; everything else (draining,
/// flushing) happens on the normal threads that observe the flag.
#[cfg(unix)]
pub fn install_sigterm_flag() -> &'static AtomicBool {
    extern "C" fn raise_shutdown(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` with a handler that only stores to a static
    // atomic; both arguments are valid for the platform's prototype.
    unsafe {
        signal(SIGTERM, raise_shutdown);
        signal(SIGINT, raise_shutdown);
    }
    &SHUTDOWN
}

/// Non-Unix fallback: no handlers to install; the flag only ever rises
/// if some other in-process caller sets it.
#[cfg(not(unix))]
pub fn install_sigterm_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAT_PROGRAM: &str =
        "var v1; c1 := match(/[\\d]+$/); c2 := \"nid_\"; c3 := match(/'/); v1 <= c1; c2 . v1 <= c3;";
    const UNSAT_PROGRAM: &str = "var v; a := \"x\"; b := \"y\"; v <= a; v <= b;";
    const SERVE_SCHEMA: &str = include_str!("../../../docs/serve.schema.json");

    fn service() -> Arc<SolverService> {
        Arc::new(SolverService::new(
            ServeConfig::default(),
            Metrics::disabled(),
        ))
    }

    fn request(fields: &str) -> String {
        format!("{{{fields}}}")
    }

    fn field<'a>(response: &'a Json, key: &str) -> &'a Json {
        lookup(response.as_object().expect("object"), key).expect(key)
    }

    #[test]
    fn sat_request_produces_a_typed_sat_response() {
        let line = request(&format!(
            "\"id\":\"q1\",\"input\":{},\"witness\":true",
            json_string(SAT_PROGRAM)
        ));
        let response = service().handle_line(&line);
        let json = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
        assert_eq!(field(&json, "id").as_str(), Some("q1"));
        assert!(field(&json, "assignments").as_u64().unwrap() >= 1);
        let witnesses = field(&json, "witnesses").as_array().expect("witnesses");
        let first = witnesses[0].as_array().expect("assignment")[0]
            .as_object()
            .expect("binding");
        let witness = lookup(first, "witness")
            .and_then(Json::as_str)
            .expect("witness");
        assert!(
            witness.contains('\''),
            "exploit contains a quote: {witness}"
        );
        // Stats are present with the pinned wall-time field.
        let stats = field(&json, "stats").as_object().expect("stats");
        assert!(lookup(stats, "wall-us").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn unsat_request_produces_a_typed_unsat_response() {
        let line = request(&format!(
            "\"id\":\"q2\",\"input\":{}",
            json_string(UNSAT_PROGRAM)
        ));
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("unsat"));
    }

    #[test]
    fn smtlib_requests_run_scripts_and_report_outputs() {
        let script = r#"
            (declare-fun x () String)
            (assert (str.in_re x (re.+ (str.to_re "ab"))))
            (check-sat)
        "#;
        let line = request(&format!(
            "\"id\":\"s1\",\"language\":\"smtlib\",\"input\":{}",
            json_string(script)
        ));
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
        let outputs = field(&json, "outputs").as_array().expect("outputs");
        assert_eq!(outputs[0].as_str(), Some("sat"));
    }

    #[test]
    fn malformed_json_is_a_parse_error_with_null_id() {
        let json = Json::parse(&service().handle_line("{nope")).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        assert!(matches!(field(&json, "id"), Json::Null));
    }

    #[test]
    fn escaped_surrogate_pairs_are_one_character() {
        // What Python's `json.dumps` sends for a constant "x😀".
        let line = r#"{"id":"u1","input":"var v; c := \"x\ud83d\ude00\"; v <= c;"}"#;
        let service = service();
        let json = Json::parse(&service.handle_line(line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"), "{json:?}");
        // A lone half is a parse error, and the service goes on.
        let lone = r#"{"id":"u2","input":"var v; c := \"x\ud83d\"; v <= c;"}"#;
        let json = Json::parse(&service.handle_line(lone)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        let error = field(&json, "error").as_str().expect("error");
        assert!(error.contains("lone surrogate \\ud83d at byte"), "{error}");
        let json = Json::parse(&service.handle_line(line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
    }

    #[test]
    fn unknown_fields_are_rejected_but_keep_the_id() {
        // `inclusion` once selected an inclusion engine; it must not be
        // silently ignored now that there is only one.
        for (extra, name) in [
            ("\"bogus\":1", "bogus"),
            ("\"inclusion\":\"eager\"", "inclusion"),
        ] {
            let line = request(&format!("\"id\":\"q3\",\"input\":\"var v;\",{extra}"));
            let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
            assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
            assert_eq!(field(&json, "id").as_str(), Some("q3"));
            let error = field(&json, "error").as_str().unwrap();
            assert!(
                error.contains(&format!("unknown field `{name}`")),
                "{error}"
            );
        }
    }

    #[test]
    fn bad_programs_are_parse_errors_not_crashes() {
        let line = request("\"id\":\"q4\",\"input\":\"nope nope;\"");
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        assert!(field(&json, "error").as_str().unwrap().contains("line 1"));
    }

    #[test]
    fn blown_budgets_are_resource_exhausted_responses() {
        let line = request(&format!(
            "\"id\":\"q5\",\"input\":{},\"max_product_states\":1",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("resource-exhausted"));
        assert_eq!(field(&json, "budget").as_str(), Some("product-states"));
        assert_eq!(field(&json, "limit").as_u64(), Some(1));
    }

    #[test]
    fn ledger_embedding_returns_valid_json_records() {
        let line = request(&format!(
            "\"id\":\"q6\",\"input\":{},\"ledger\":true",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        let records = field(&json, "ledger").as_array().expect("ledger array");
        assert!(!records.is_empty(), "solve emits ledger records");
        assert!(records.iter().all(|r| r.as_object().is_some()));
    }

    #[test]
    fn server_wide_ledger_accumulates_across_requests() {
        let service = Arc::new(SolverService::new(
            ServeConfig {
                collect_ledger: true,
                ..ServeConfig::default()
            },
            Metrics::disabled(),
        ));
        for i in 0..2 {
            let line = request(&format!(
                "\"id\":\"q{i}\",\"input\":{}",
                json_string(SAT_PROGRAM)
            ));
            service.handle_line(&line);
        }
        let jsonl = service.ledger_jsonl();
        assert!(
            dprle_core::validate_ledger_jsonl(dprle_core::LEDGER_SCHEMA, &jsonl)
                .expect("ledger validates")
                > 0,
            "accumulated ledger has records"
        );
    }

    #[test]
    fn per_request_overrides_change_outcomes_not_the_service() {
        let service = service();
        let capped = request(&format!(
            "\"id\":\"a\",\"input\":{},\"max_product_states\":1",
            json_string(SAT_PROGRAM)
        ));
        let free = request(&format!(
            "\"id\":\"b\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        let capped_json = Json::parse(&service.handle_line(&capped)).expect("valid");
        let free_json = Json::parse(&service.handle_line(&free)).expect("valid");
        assert_eq!(
            field(&capped_json, "kind").as_str(),
            Some("resource-exhausted")
        );
        assert_eq!(field(&free_json, "kind").as_str(), Some("sat"));
    }

    #[test]
    fn trace_requests_embed_their_journal_events() {
        let service = service();
        let journal = Arc::new(dprle_core::CollectSink::new());
        service.set_trace_sink(journal.clone());
        let line = request(&format!(
            "\"id\":\"t\",\"input\":{},\"trace\":true",
            json_string(SAT_PROGRAM)
        ));
        let response = service.handle_line(&line);
        let json = Json::parse(&response).expect("valid JSON");
        let events = field(&json, "trace").as_array().expect("trace array");
        assert!(!events.is_empty(), "tracing produces events");
        // The embedded events are the very events the shared journal
        // received: schema-valid trace objects, stamped with the request.
        let journaled = journal.take();
        let jsonl: String = journaled.iter().map(|e| e.to_json() + "\n").collect();
        dprle_core::validate_jsonl(dprle_core::TRACE_SCHEMA, &jsonl).expect("schema-valid");
        let expected: Vec<Json> = journaled
            .iter()
            .map(|e| Json::parse(&e.to_json()).expect("event JSON"))
            .collect();
        assert_eq!(events, expected.as_slice());
        assert!(jsonl.contains("\"kind\":\"MemoMiss\""), "{jsonl}");
        assert!(
            journaled
                .iter()
                .all(|e| e.request_id.as_deref() == Some("r0")),
            "{jsonl}"
        );
    }

    #[test]
    fn parse_errors_embed_no_trace_or_ledger() {
        let line = request("\"id\":\"q\",\"input\":\"nope nope;\",\"trace\":true,\"ledger\":true");
        let response = service().handle_line(&line);
        dprle_core::validate_jsonl(SERVE_SCHEMA, &response).expect("schema-valid parse error");
        let json = Json::parse(&response).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
    }

    #[test]
    fn a_deeply_nested_line_is_a_parse_error_and_the_next_is_answered() {
        let service = service();
        let depth = 300_000;
        let deep = format!(
            "{{\"id\":\"b\",\"input\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let json = Json::parse(&service.handle_line(&deep)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        let error = field(&json, "error").as_str().expect("error message");
        assert!(error.contains("nesting deeper than"), "{error}");
        let line = request(&format!(
            "\"id\":\"c\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service.handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
        assert_eq!(field(&json, "id").as_str(), Some("c"));
    }

    #[test]
    fn a_deeply_nested_regex_is_a_parse_error_and_the_next_is_answered() {
        let service = service();
        let depth = 100_000;
        let program = format!(
            "var v; c := match(/{}a{}/); v <= c;",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let line = request(&format!("\"id\":\"r\",\"input\":{}", json_string(&program)));
        let json = Json::parse(&service.handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        let error = field(&json, "error").as_str().expect("error message");
        assert!(error.contains("nested too deeply"), "{error}");
        // Reading the 200 000-byte program is the request's work, and it
        // is parsing, not serialization.
        let (_, parse, _, serialize, _) = breakdown_fields(&json);
        assert!(
            parse > serialize,
            "parse-us {parse} <= serialize-us {serialize}"
        );
        let line = request(&format!(
            "\"id\":\"c\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service.handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
    }

    #[test]
    fn tcp_round_trip_with_graceful_shutdown() {
        let service = service();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // A test-local flag standing in for the process-wide one.
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(&service, listener, flag))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        let line = request(&format!(
            "\"id\":\"net\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("response line");
        let json = Json::parse(&response).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
        assert_eq!(field(&json, "id").as_str(), Some("net"));
        flag.store(true, Ordering::SeqCst);
        drop(reader);
        drop(stream);
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    #[test]
    fn line_framer_scans_each_byte_once_and_skips_over_cap_lines() {
        let frames = |framer: &mut LineFramer, bytes: &[u8]| -> Vec<Option<Vec<u8>>> {
            framer
                .feed(bytes)
                .into_iter()
                .map(|frame| match frame {
                    Frame::Line(line) => Some(line),
                    Frame::Overlong => None,
                })
                .collect()
        };
        let mut framer = LineFramer::default();
        assert_eq!(frames(&mut framer, b"ab"), vec![]);
        assert_eq!(
            frames(&mut framer, b"c\nd\n\ne"),
            vec![Some(b"abc".to_vec()), Some(b"d".to_vec()), Some(Vec::new())]
        );
        // A line that reaches the cap exactly is a line; one byte more is
        // reported once, however it arrives, and never buffered.
        let full = vec![b'x'; MAX_REQUEST_LINE_BYTES - 1];
        assert_eq!(frames(&mut framer, &full), vec![]);
        assert_eq!(
            frames(&mut framer, b"\n"),
            vec![Some([b"e".as_slice(), &full].concat())]
        );
        let half = vec![b'y'; MAX_REQUEST_LINE_BYTES / 2];
        assert_eq!(frames(&mut framer, &half), vec![]);
        assert_eq!(frames(&mut framer, &half), vec![]);
        assert_eq!(frames(&mut framer, b"y"), vec![None]);
        assert!(framer.is_idle(), "nothing of it is kept");
        assert_eq!(frames(&mut framer, &half), vec![]);
        assert_eq!(frames(&mut framer, b"y\nnext"), vec![]);
        assert_eq!(framer.finish(), Some(b"next".to_vec()));
    }

    #[test]
    fn tcp_answers_an_over_cap_line_once_and_then_the_next() {
        let service = service();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_tcp(&service, listener, flag))
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        stream
            .write_all(b"{\"id\":\"big\",\"input\":\"")
            .expect("send");
        let filler = vec![b'x'; 64 * 1024];
        for _ in 0..=MAX_REQUEST_LINE_BYTES / filler.len() {
            stream.write_all(&filler).expect("send");
        }
        // Answered as soon as the line crosses the cap.
        let mut response = String::new();
        reader.read_line(&mut response).expect("response line");
        let json = Json::parse(&response).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        assert_eq!(field(&json, "id"), &Json::Null);
        let error = field(&json, "error").as_str().expect("error message");
        assert!(
            error.contains(&format!("{MAX_REQUEST_LINE_BYTES}-byte cap")),
            "{error}"
        );
        stream.write_all(&filler).expect("send");
        let line = request(&format!(
            "\"id\":\"next\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        stream.write_all(b"\"}\n").expect("send");
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        response.clear();
        reader.read_line(&mut response).expect("response line");
        let json = Json::parse(&response).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("sat"));
        assert_eq!(field(&json, "id").as_str(), Some("next"));
        flag.store(true, Ordering::SeqCst);
        drop(reader);
        drop(stream);
        server
            .join()
            .expect("server thread")
            .expect("clean shutdown");
    }

    fn breakdown_fields(json: &Json) -> (u64, u64, u64, u64, u64) {
        let breakdown = field(json, "breakdown").as_object().expect("breakdown");
        let get = |key: &str| {
            lookup(breakdown, key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("breakdown field {key}"))
        };
        (
            get("queue-wait-us"),
            get("parse-us"),
            get("solve-us"),
            get("serialize-us"),
            get("wall-us"),
        )
    }

    #[test]
    fn responses_carry_request_id_and_breakdown() {
        let service = service();
        let line = request(&format!(
            "\"id\":\"q\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service.handle_line(&line)).expect("valid JSON");
        assert_eq!(field(&json, "request_id").as_str(), Some("r0"));
        let (queue_wait, parse, solve, serialize, wall) = breakdown_fields(&json);
        assert!(solve > 0, "the solver ran");
        assert!(
            queue_wait + parse + solve + serialize <= wall,
            "phases are disjoint sub-intervals of the wall interval: \
             {queue_wait} + {parse} + {solve} + {serialize} > {wall}"
        );
    }

    #[test]
    fn request_ids_are_unique_and_sequential() {
        let service = service();
        for expected in ["r0", "r1", "r2"] {
            let line = request(&format!(
                "\"id\":\"q\",\"input\":{}",
                json_string(UNSAT_PROGRAM)
            ));
            let json = Json::parse(&service.handle_line(&line)).expect("valid JSON");
            assert_eq!(field(&json, "request_id").as_str(), Some(expected));
        }
    }

    #[test]
    fn parse_errors_also_carry_request_id_and_breakdown() {
        let json = Json::parse(&service().handle_line("{nope")).expect("valid JSON");
        assert_eq!(field(&json, "kind").as_str(), Some("parse-error"));
        assert_eq!(field(&json, "request_id").as_str(), Some("r0"));
        let (_, _, solve, _, _) = breakdown_fields(&json);
        assert_eq!(solve, 0, "nothing was solved");
    }

    #[test]
    fn lifecycle_metrics_record_histograms_and_outcome_counters() {
        let service = Arc::new(SolverService::new(
            ServeConfig::default(),
            Metrics::enabled(),
        ));
        for (id_field, input) in [("a", SAT_PROGRAM), ("b", UNSAT_PROGRAM)] {
            let line = request(&format!(
                "\"id\":\"{id_field}\",\"input\":{}",
                json_string(input)
            ));
            service.handle_line(&line);
        }
        service.handle_line("{nope");
        let snapshot = service.metrics().snapshot().expect("metrics enabled");
        let entry = |name: &str| {
            snapshot
                .entries
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("metric {name}"))
        };
        for name in [
            "serve.requests.sat",
            "serve.requests.unsat",
            "serve.requests.parse_error",
        ] {
            assert_eq!(
                entry(name).value,
                dprle_core::MetricValue::Counter { value: 1 },
                "{name}"
            );
        }
        match &entry("serve.request.wall_us").value {
            dprle_core::MetricValue::Histogram { count, .. } => assert_eq!(*count, 3),
            other => panic!("wall_us is a histogram, got {other:?}"),
        }
    }

    #[test]
    fn slow_ring_keeps_records_sorted_by_wall_time() {
        let service = service();
        for i in 0..3 {
            let line = request(&format!(
                "\"id\":\"q{i}\",\"input\":{}",
                json_string(SAT_PROGRAM)
            ));
            service.handle_line(&line);
        }
        let ring = service.slow_snapshot();
        assert_eq!(ring.len(), 3);
        assert!(
            ring.windows(2).all(|w| w[0].wall_us >= w[1].wall_us),
            "slowest first"
        );
        let slow = Json::parse(&service.slow_json()).expect("valid JSON");
        let records = slow.as_array().expect("array");
        assert_eq!(records.len(), 3);
        for record in records {
            let obj = record.as_object().expect("record object");
            assert_eq!(
                lookup(obj, "kind").and_then(Json::as_str),
                Some("SlowRequest")
            );
        }
    }

    /// A `Write` handing everything to a shared buffer, so the test can
    /// observe what the service wrote to its slow log.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buf lock").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn slow_log_captures_requests_over_the_threshold() {
        let service = service();
        let buf = Arc::new(Mutex::new(Vec::new()));
        // Threshold zero: every request qualifies.
        service.set_slow_log(Box::new(SharedBuf(Arc::clone(&buf))), 0);
        let line = request(&format!(
            "\"id\":\"slow\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        service.handle_line(&line);
        let logged = String::from_utf8(buf.lock().expect("buf lock").clone()).expect("utf8");
        let record = Json::parse(logged.trim()).expect("valid JSON");
        let obj = record.as_object().expect("object");
        assert_eq!(lookup(obj, "request_id").and_then(Json::as_str), Some("r0"));
        assert_eq!(lookup(obj, "outcome").and_then(Json::as_str), Some("sat"));
        assert!(lookup(obj, "wall_us").and_then(Json::as_u64).is_some());
        assert_eq!(
            dprle_core::validate_jsonl(SLOWLOG_SCHEMA, &logged).expect("slow log validates"),
            1,
            "one slow-log record, pinned by docs/slowlog.schema.json"
        );
    }

    #[test]
    fn slow_log_records_validate_even_without_a_client_id() {
        let service = service();
        let buf = Arc::new(Mutex::new(Vec::new()));
        service.set_slow_log(Box::new(SharedBuf(Arc::clone(&buf))), 0);
        // Malformed request: no recoverable id, so the record's `id` is
        // null — the schema's ["string","null"] union covers it.
        service.handle_line("{nope");
        let logged = String::from_utf8(buf.lock().expect("buf lock").clone()).expect("utf8");
        assert_eq!(
            dprle_core::validate_jsonl(SLOWLOG_SCHEMA, &logged).expect("slow log validates"),
            1
        );
    }

    #[test]
    fn tagged_trace_journal_stamps_request_ids() {
        let service = service();
        let sink = Arc::new(dprle_core::CollectSink::new());
        service.set_trace_sink(sink.clone());
        let line = request(&format!(
            "\"id\":\"t\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        service.handle_line(&line);
        let events = sink.take();
        assert!(!events.is_empty(), "journal captured events");
        assert!(
            events.iter().all(|e| e.request_id.as_deref() == Some("r0")),
            "every event is stamped with the owning request id"
        );
    }

    #[test]
    fn embedded_ledger_records_carry_the_request_id() {
        let line = request(&format!(
            "\"id\":\"q\",\"input\":{},\"ledger\":true",
            json_string(SAT_PROGRAM)
        ));
        let json = Json::parse(&service().handle_line(&line)).expect("valid JSON");
        let records = field(&json, "ledger").as_array().expect("ledger array");
        assert!(!records.is_empty());
        for record in records {
            let obj = record.as_object().expect("record");
            assert_eq!(
                lookup(obj, "request_id").and_then(Json::as_str),
                Some("r0"),
                "ledger records join back to their request"
            );
        }
    }

    fn admin_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect admin");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
        stream.flush().expect("flush");
        let mut response = String::new();
        std::io::BufReader::new(stream)
            .read_to_string(&mut response)
            .expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn admin_plane_serves_health_metrics_and_slow() {
        let service = Arc::new(SolverService::new(
            ServeConfig::default(),
            Metrics::enabled(),
        ));
        let line = request(&format!(
            "\"id\":\"q\",\"input\":{}",
            json_string(SAT_PROGRAM)
        ));
        service.handle_line(&line);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind admin");
        let addr = listener.local_addr().expect("addr");
        let draining: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let admin = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || serve_admin(&service, listener, draining, stop))
        };
        let (head, body) = admin_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "healthz: {head}");
        assert_eq!(body, "ok\n");
        let (head, body) = admin_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "readyz: {head}");
        assert_eq!(body, "ready\n");
        draining.store(true, Ordering::SeqCst);
        let (head, body) = admin_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "draining readyz: {head}");
        assert_eq!(body, "draining\n");
        let (head, body) = admin_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "metrics: {head}");
        assert!(
            body.contains("# TYPE dprle_serve_requests_sat_total counter")
                || body.contains("dprle_serve_requests_sat"),
            "metrics exposition mentions the serve counters: {body}"
        );
        let (head, body) = admin_get(addr, "/slow");
        assert!(head.starts_with("HTTP/1.1 200"), "slow: {head}");
        let slow = Json::parse(&body).expect("slow is valid JSON");
        assert_eq!(slow.as_array().expect("array").len(), 1);
        let (head, _) = admin_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "unknown route: {head}");
        stop.store(true, Ordering::SeqCst);
        admin.join().expect("admin thread").expect("clean exit");
    }
}
