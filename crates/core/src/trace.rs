//! Structured solver tracing: typed events, hierarchical spans, and sinks.
//!
//! The aggregate [`SolveStats`](crate::SolveStats) counters say *how much*
//! a run cost; this module says *where*. The solver (and the gci and
//! unsat-core layers) is threaded with a [`Tracer`] handle
//! that, when enabled, emits a stream of typed [`TraceEvent`]s — reduce
//! steps, CI-group discovery, per-disjunct `gci` branching (the paper's
//! Figure 8 `all_combinations`), worklist branch/prune decisions, and
//! memo-cache hits from the [`LangStore`](dprle_automata::LangStore) — each
//! stamped with a monotonic timestamp and, where meaningful, the
//! dependency-graph vertex it concerns (Figure 5 node ids).
//!
//! **Zero cost when disabled.** [`Tracer::disabled`] carries no state; every
//! emission site goes through [`Tracer::emit`], which takes a closure and
//! never runs it (never allocates, never reads the clock) unless a sink is
//! attached. The bench suite guards this with a disabled-vs-enabled timing
//! comparison.
//!
//! **Spans.** Phases are delimited by `SpanStart`/`SpanEnd` event pairs
//! managed by RAII guards ([`Tracer::span`]), forming a properly nested
//! hierarchy (checked by [`check_well_nested`] and a property test). Span
//! durations are *cumulative*: a `minimize` span inside a `reduce` span
//! counts toward both phases.
//!
//! **Sinks.** Three consumers ship with the CLI:
//!
//! * [`JsonlSink`] — one JSON object per line (`--trace-out trace.jsonl`,
//!   or stderr with `--trace`), schema-checked against
//!   `docs/trace.schema.json` ([`validate_jsonl`]);
//! * [`TraceReport`] — in-memory aggregation behind `--trace=summary` and
//!   the `dprle trace-report` subcommand (per-phase wall-time table, top-5
//!   hottest CI-groups);
//! * [`provenance_dot`] — the Figure 5 dependency graph annotated with
//!   per-vertex visit counts and cumulative time (`--trace-dot`).
//!
//! Event ↔ pseudocode mapping (see DESIGN.md §5 "Observability"):
//!
//! | Event | Paper location |
//! |---|---|
//! | `ReduceStep` | Fig. 7 lines 3–8 (`reduce`) |
//! | `CiGroupStart`/`End` | Fig. 7 line 10 (group selection) |
//! | `GciDisjunct` | Fig. 8 `all_combinations` output |
//! | `WorklistBranch`/`Prune` | Fig. 7 lines 13–14 / 16–23 |
//! | `MemoHit`/`MemoMiss` | implementation cache (PR 1) |

use crate::graph::{DependencyGraph, NodeKind};
use crate::spec::System;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// A typed trace event payload. Every variant maps to a step of the
/// paper's Figure 7/8 pseudocode or to an implementation-layer cache (see
/// the module docs for the table).
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// A solver run began (`solve`, Fig. 7 line 1).
    SolveStart {
        /// Union-free constraints the run decides: the distinct ones of
        /// [`System::normalized`](crate::System::normalized), after the
        /// quotient rewrite when that is on. Repeated input constraints
        /// count once.
        constraints: usize,
        /// Declared variables.
        vars: usize,
    },
    /// The run finished.
    SolveEnd {
        /// Whether any assignment survived.
        sat: bool,
        /// Number of disjunctive assignments returned.
        assignments: usize,
    },
    /// A phase span opened (closed by the matching [`SpanEnd`] with the
    /// same `span` id).
    ///
    /// [`SpanEnd`]: TraceEventKind::SpanEnd
    SpanStart {
        /// Unique span id (per tracer session).
        span: u64,
        /// Enclosing span id (`0` = top level).
        parent: u64,
        /// Phase name (`solve`, `reduce`, `gci`, `minimize`, `verify`, …).
        phase: String,
        /// Dependency-graph vertex this span is attributable to, if any.
        node: Option<u32>,
        /// CI-group index this span is attributable to, if any.
        group: Option<usize>,
    },
    /// A phase span closed.
    SpanEnd {
        /// Id of the span being closed.
        span: u64,
        /// Phase name (repeated for self-describing JSONL lines).
        phase: String,
    },
    /// One variable's reduce step completed (Fig. 7 lines 3–8): its leaf
    /// machine is the intersection of its inbound subset constants.
    ReduceStep {
        /// Dependency-graph vertex of the variable.
        node: u32,
        /// Variable name.
        var: String,
        /// States of the reduced leaf machine.
        states: usize,
    },
    /// The generalized concat-intersect procedure started on a CI-group
    /// (Fig. 7 line 10 / Fig. 8).
    CiGroupStart {
        /// Group index (order of discovery in the dependency graph).
        group: usize,
        /// Dependency-graph vertices belonging to the group.
        nodes: Vec<u32>,
        /// Number of ε-bridges in the group (one per ∘-edge pair).
        bridges: usize,
    },
    /// The group finished, producing `disjuncts` disjunctive solutions.
    CiGroupEnd {
        /// Group index.
        group: usize,
        /// Number of disjunctive group solutions.
        disjuncts: usize,
    },
    /// One disjunctive group solution (Fig. 8 `all_combinations` member)
    /// that survived constant filtering and dedup.
    GciDisjunct {
        /// Group index.
        group: usize,
        /// The group's bridge count (every disjunct fixes one ε-instance
        /// per bridge).
        bridge_eps: usize,
        /// Total NFA states across the solution's leaf machines.
        states: usize,
        /// Hash of the solution's canonical language fingerprints
        /// (identifies language-identical disjuncts across runs).
        fingerprint: u64,
    },
    /// A worklist entry was enqueued for the next group (Fig. 7 lines
    /// 13–14: branching on a disjunctive group solution).
    WorklistBranch {
        /// Index of the group whose disjunct caused the branch.
        group: usize,
        /// Worklist depth after the push.
        depth: usize,
    },
    /// A branch died (Fig. 7 lines 16–23, or an unsatisfiable group).
    WorklistPrune {
        /// Group index (the group count itself for completed branches
        /// pruned by the final filters).
        group: usize,
        /// Why: `empty-language`, `verify-failed`, or `group-unsat`.
        reason: String,
    },
    /// A memoized [`LangStore`](dprle_automata::LangStore) operation was
    /// answered from cache.
    MemoHit {
        /// Operation: `fingerprint`, `intersect`, `inclusion`, `minimize`.
        op: String,
    },
    /// A memoized operation was computed fresh.
    MemoMiss {
        /// Operation: `fingerprint`, `intersect`, `inclusion`, `minimize`.
        op: String,
    },
    /// One deletion trial of the unsat-core minimizer.
    UnsatCoreTrial {
        /// Constraint index the trial dropped.
        dropped: usize,
        /// Whether the system stayed unsat without it (if so, the
        /// constraint is redundant and leaves the core).
        still_unsat: bool,
    },
    /// Headline totals of the solve's metrics registry, emitted just
    /// before [`SolveEnd`] when metrics are enabled, so journals correlate
    /// phase spans with operation costs. The full per-metric breakdown
    /// lives in the JSON/Prometheus snapshot (`--metrics-out`); this event
    /// carries the budget-relevant aggregates.
    ///
    /// [`SolveEnd`]: TraceEventKind::SolveEnd
    MetricsSnapshot {
        /// Cumulative product states charged by group solving.
        product_states: u64,
        /// Cumulative states built into group solutions.
        states_built: u64,
        /// Peak memo-table byte estimate over the run.
        peak_bytes: u64,
        /// Number of metric entries in the full registry snapshot.
        entries: u64,
    },
}

impl TraceEventKind {
    /// Every kind name, in a stable order (the JSON `kind` discriminators;
    /// `docs/trace.schema.json` must cover exactly this set — a drift test
    /// enforces it).
    pub const ALL_KINDS: &'static [&'static str] = &[
        "SolveStart",
        "SolveEnd",
        "SpanStart",
        "SpanEnd",
        "ReduceStep",
        "CiGroupStart",
        "CiGroupEnd",
        "GciDisjunct",
        "WorklistBranch",
        "WorklistPrune",
        "MemoHit",
        "MemoMiss",
        "UnsatCoreTrial",
        "MetricsSnapshot",
    ];

    /// The JSON `kind` discriminator for this event.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEventKind::SolveStart { .. } => "SolveStart",
            TraceEventKind::SolveEnd { .. } => "SolveEnd",
            TraceEventKind::SpanStart { .. } => "SpanStart",
            TraceEventKind::SpanEnd { .. } => "SpanEnd",
            TraceEventKind::ReduceStep { .. } => "ReduceStep",
            TraceEventKind::CiGroupStart { .. } => "CiGroupStart",
            TraceEventKind::CiGroupEnd { .. } => "CiGroupEnd",
            TraceEventKind::GciDisjunct { .. } => "GciDisjunct",
            TraceEventKind::WorklistBranch { .. } => "WorklistBranch",
            TraceEventKind::WorklistPrune { .. } => "WorklistPrune",
            TraceEventKind::MemoHit { .. } => "MemoHit",
            TraceEventKind::MemoMiss { .. } => "MemoMiss",
            TraceEventKind::UnsatCoreTrial { .. } => "UnsatCoreTrial",
            TraceEventKind::MetricsSnapshot { .. } => "MetricsSnapshot",
        }
    }
}

/// One recorded trace event: a sequence number, a monotonic timestamp in
/// microseconds since the tracer session began, and the typed payload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Session-monotonic sequence number (0-based).
    pub seq: u64,
    /// Microseconds since the tracer was created (monotonic clock).
    pub ts_us: u64,
    /// Serving request this event belongs to, stamped by a tagged tracer
    /// ([`Tracer::new_tagged`]) so a shared `dprle serve` journal joins
    /// against responses and ledger records. `None` — and *absent* from the
    /// JSONL line, keeping one-shot runs byte-identical — outside serve.
    pub request_id: Option<Arc<str>>,
    /// The event payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Serializes the event as one flat JSON object (a JSONL line, without
    /// the trailing newline). `fingerprint` is encoded as a 16-digit hex
    /// string so 64-bit values survive f64-based JSON consumers.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"ts_us\":{},\"kind\":\"{}\"",
            self.seq,
            self.ts_us,
            self.kind.kind_name()
        );
        match &self.kind {
            TraceEventKind::SolveStart { constraints, vars } => {
                let _ = write!(out, ",\"constraints\":{constraints},\"vars\":{vars}");
            }
            TraceEventKind::SolveEnd { sat, assignments } => {
                let _ = write!(out, ",\"sat\":{sat},\"assignments\":{assignments}");
            }
            TraceEventKind::SpanStart {
                span,
                parent,
                phase,
                node,
                group,
            } => {
                let _ = write!(
                    out,
                    ",\"span\":{span},\"parent\":{parent},\"phase\":{}",
                    json_string(phase)
                );
                match node {
                    Some(n) => {
                        let _ = write!(out, ",\"node\":{n}");
                    }
                    None => out.push_str(",\"node\":null"),
                }
                match group {
                    Some(g) => {
                        let _ = write!(out, ",\"group\":{g}");
                    }
                    None => out.push_str(",\"group\":null"),
                }
            }
            TraceEventKind::SpanEnd { span, phase } => {
                let _ = write!(out, ",\"span\":{span},\"phase\":{}", json_string(phase));
            }
            TraceEventKind::ReduceStep { node, var, states } => {
                let _ = write!(
                    out,
                    ",\"node\":{node},\"var\":{},\"states\":{states}",
                    json_string(var)
                );
            }
            TraceEventKind::CiGroupStart {
                group,
                nodes,
                bridges,
            } => {
                let _ = write!(out, ",\"group\":{group},\"nodes\":[");
                for (i, n) in nodes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{n}");
                }
                let _ = write!(out, "],\"bridges\":{bridges}");
            }
            TraceEventKind::CiGroupEnd { group, disjuncts } => {
                let _ = write!(out, ",\"group\":{group},\"disjuncts\":{disjuncts}");
            }
            TraceEventKind::GciDisjunct {
                group,
                bridge_eps,
                states,
                fingerprint,
            } => {
                let _ = write!(
                    out,
                    ",\"group\":{group},\"bridge_eps\":{bridge_eps},\"states\":{states},\"fingerprint\":\"{fingerprint:016x}\""
                );
            }
            TraceEventKind::WorklistBranch { group, depth } => {
                let _ = write!(out, ",\"group\":{group},\"depth\":{depth}");
            }
            TraceEventKind::WorklistPrune { group, reason } => {
                let _ = write!(out, ",\"group\":{group},\"reason\":{}", json_string(reason));
            }
            TraceEventKind::MemoHit { op } | TraceEventKind::MemoMiss { op } => {
                let _ = write!(out, ",\"op\":{}", json_string(op));
            }
            TraceEventKind::UnsatCoreTrial {
                dropped,
                still_unsat,
            } => {
                let _ = write!(out, ",\"dropped\":{dropped},\"still_unsat\":{still_unsat}");
            }
            TraceEventKind::MetricsSnapshot {
                product_states,
                states_built,
                peak_bytes,
                entries,
            } => {
                let _ = write!(
                    out,
                    ",\"product_states\":{product_states},\"states_built\":{states_built},\"peak_bytes\":{peak_bytes},\"entries\":{entries}"
                );
            }
        }
        if let Some(request_id) = &self.request_id {
            let _ = write!(out, ",\"request_id\":{}", json_string(request_id));
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line back into an event (inverse of
    /// [`TraceEvent::to_json`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (bad JSON,
    /// unknown kind, missing or mistyped field).
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let value = Json::parse(line)?;
        let obj = value.as_object().ok_or("event line is not a JSON object")?;
        let seq = get_u64(obj, "seq")?;
        let ts_us = get_u64(obj, "ts_us")?;
        let kind_name = get_str(obj, "kind")?;
        let kind = match kind_name {
            "SolveStart" => TraceEventKind::SolveStart {
                constraints: get_usize(obj, "constraints")?,
                vars: get_usize(obj, "vars")?,
            },
            "SolveEnd" => TraceEventKind::SolveEnd {
                sat: get_bool(obj, "sat")?,
                assignments: get_usize(obj, "assignments")?,
            },
            "SpanStart" => TraceEventKind::SpanStart {
                span: get_u64(obj, "span")?,
                parent: get_u64(obj, "parent")?,
                phase: get_str(obj, "phase")?.to_owned(),
                node: get_opt_u32(obj, "node")?,
                group: get_opt_u32(obj, "group")?.map(|g| g as usize),
            },
            "SpanEnd" => TraceEventKind::SpanEnd {
                span: get_u64(obj, "span")?,
                phase: get_str(obj, "phase")?.to_owned(),
            },
            "ReduceStep" => TraceEventKind::ReduceStep {
                node: get_u64(obj, "node")? as u32,
                var: get_str(obj, "var")?.to_owned(),
                states: get_usize(obj, "states")?,
            },
            "CiGroupStart" => TraceEventKind::CiGroupStart {
                group: get_usize(obj, "group")?,
                nodes: get_u32_array(obj, "nodes")?,
                bridges: get_usize(obj, "bridges")?,
            },
            "CiGroupEnd" => TraceEventKind::CiGroupEnd {
                group: get_usize(obj, "group")?,
                disjuncts: get_usize(obj, "disjuncts")?,
            },
            "GciDisjunct" => TraceEventKind::GciDisjunct {
                group: get_usize(obj, "group")?,
                bridge_eps: get_usize(obj, "bridge_eps")?,
                states: get_usize(obj, "states")?,
                fingerprint: {
                    let hex = get_str(obj, "fingerprint")?;
                    u64::from_str_radix(hex, 16)
                        .map_err(|e| format!("bad fingerprint {hex:?}: {e}"))?
                },
            },
            "WorklistBranch" => TraceEventKind::WorklistBranch {
                group: get_usize(obj, "group")?,
                depth: get_usize(obj, "depth")?,
            },
            "WorklistPrune" => TraceEventKind::WorklistPrune {
                group: get_usize(obj, "group")?,
                reason: get_str(obj, "reason")?.to_owned(),
            },
            "MemoHit" => TraceEventKind::MemoHit {
                op: get_str(obj, "op")?.to_owned(),
            },
            "MemoMiss" => TraceEventKind::MemoMiss {
                op: get_str(obj, "op")?.to_owned(),
            },
            "UnsatCoreTrial" => TraceEventKind::UnsatCoreTrial {
                dropped: get_usize(obj, "dropped")?,
                still_unsat: get_bool(obj, "still_unsat")?,
            },
            "MetricsSnapshot" => TraceEventKind::MetricsSnapshot {
                product_states: get_u64(obj, "product_states")?,
                states_built: get_u64(obj, "states_built")?,
                peak_bytes: get_u64(obj, "peak_bytes")?,
                entries: get_u64(obj, "entries")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        };
        let request_id = get_opt_str(obj, "request_id")?.map(Arc::from);
        Ok(TraceEvent {
            seq,
            ts_us,
            request_id,
            kind,
        })
    }
}

/// Parses a whole JSONL document (blank lines skipped) into events.
///
/// # Errors
///
/// Returns `line N: <problem>` for the first offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(TraceEvent::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Tracer + sinks
// ---------------------------------------------------------------------

/// Consumes trace events as they are produced. Implementations must be
/// cheap and non-blocking — they run inline on the solver's thread.
pub trait TraceSink: Send + Sync {
    /// Called once per event, in emission order.
    fn record(&self, event: &TraceEvent);
}

/// The handle threaded through the solver. Cloning shares the session
/// (sequence numbers, clock, and span stack). [`Tracer::disabled`] (also
/// the `Default`) carries nothing: every emission site short-circuits on a
/// null check and never constructs the event.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
    seq: AtomicU64,
    next_span: AtomicU64,
    /// Stack of open span ids, for parent attribution. The solver is
    /// single-threaded per run; the mutex is uncontended.
    stack: Mutex<Vec<u64>>,
    /// Request id stamped on every event ([`Tracer::new_tagged`]); `None`
    /// for one-shot tracers, whose events omit the field entirely.
    tag: Option<Arc<str>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default for every untraced
    /// solver entry point).
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer recording to `sink`, with timestamps measured from now.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        Tracer::build(sink, None)
    }

    /// A tracer recording to `sink` that stamps `request_id` on every
    /// event. `dprle serve` gives each request its own tagged tracer over
    /// one shared journal sink, so concurrently interleaved events join
    /// against their response and ledger records.
    pub fn new_tagged(sink: Arc<dyn TraceSink>, request_id: &str) -> Tracer {
        Tracer::build(sink, Some(Arc::from(request_id)))
    }

    fn build(sink: Arc<dyn TraceSink>, tag: Option<Arc<str>>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
                tag,
            })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `build`. When the tracer is disabled
    /// the closure never runs — emission sites pay one branch.
    pub fn emit(&self, build: impl FnOnce() -> TraceEventKind) {
        if let Some(inner) = &self.inner {
            inner.record(build());
        }
    }

    /// Opens a phase span; the returned guard closes it on drop. `node`
    /// and `group` attribute the span's wall time to a dependency-graph
    /// vertex / CI-group in reports and the DOT provenance export.
    pub fn span(&self, phase: &'static str, node: Option<u32>, group: Option<usize>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { open: None };
        };
        let span = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = {
            let mut stack = inner.stack.lock().expect("span stack");
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(span);
            parent
        };
        inner.record(TraceEventKind::SpanStart {
            span,
            parent,
            phase: phase.to_owned(),
            node,
            group,
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self.clone(),
                span,
                phase,
            }),
        }
    }

    /// Forks a tracer that records into a private in-memory buffer while
    /// sharing this tracer's clock. Worker threads trace into their own
    /// fork and the coordinator replays the buffers in a deterministic
    /// order via [`Tracer::absorb_events`], so the merged journal is
    /// independent of thread scheduling. The fork starts with a fresh
    /// sequence/span-id space and an empty span stack; both are remapped
    /// on absorption. A disabled tracer forks another disabled tracer
    /// (and no buffer), keeping the zero-cost property.
    pub fn fork_buffered(&self) -> (Tracer, Option<Arc<CollectSink>>) {
        let Some(inner) = &self.inner else {
            return (Tracer::disabled(), None);
        };
        let sink = Arc::new(CollectSink::new());
        let child = Tracer {
            inner: Some(Arc::new(TracerInner {
                sink: sink.clone() as Arc<dyn TraceSink>,
                epoch: inner.epoch,
                seq: AtomicU64::new(0),
                next_span: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
                tag: inner.tag.clone(),
            })),
        };
        (child, Some(sink))
    }

    /// Replays events captured by a [`Tracer::fork_buffered`] fork into
    /// this tracer, in order: sequence numbers are re-assigned from this
    /// tracer's counter, span ids are remapped to fresh ids here (the
    /// parent of a fork-top-level span becomes this tracer's innermost
    /// open span), and the recorded timestamps — measured against the
    /// shared epoch — are preserved. Replayed spans were already closed
    /// inside the fork, so this tracer's span stack is untouched.
    pub fn absorb_events(&self, events: Vec<TraceEvent>) {
        let Some(inner) = &self.inner else { return };
        let outer_parent = inner
            .stack
            .lock()
            .expect("span stack")
            .last()
            .copied()
            .unwrap_or(0);
        let mut remap: BTreeMap<u64, u64> = BTreeMap::new();
        for mut event in events {
            match &mut event.kind {
                TraceEventKind::SpanStart { span, parent, .. } => {
                    let fresh = inner.next_span.fetch_add(1, Ordering::Relaxed);
                    remap.insert(*span, fresh);
                    *parent = remap.get(parent).copied().unwrap_or(outer_parent);
                    *span = fresh;
                }
                TraceEventKind::SpanEnd { span, .. } => {
                    if let Some(fresh) = remap.get(span) {
                        *span = *fresh;
                    }
                }
                _ => {}
            }
            event.seq = inner.seq.fetch_add(1, Ordering::Relaxed);
            inner.sink.record(&event);
        }
    }
}

impl TracerInner {
    fn record(&self, kind: TraceEventKind) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.epoch.elapsed().as_micros() as u64;
        self.sink.record(&TraceEvent {
            seq,
            ts_us,
            request_id: self.tag.clone(),
            kind,
        });
    }
}

/// RAII guard for an open span (see [`Tracer::span`]).
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    tracer: Tracer,
    span: u64,
    phase: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let Some(inner) = &open.tracer.inner else {
            return;
        };
        {
            let mut stack = inner.stack.lock().expect("span stack");
            // Guards drop LIFO within the solver, so the top is ours;
            // tolerate (and repair) a stray entry rather than panicking in
            // a tracing layer.
            if let Some(pos) = stack.iter().rposition(|&s| s == open.span) {
                stack.truncate(pos);
            }
        }
        inner.record(TraceEventKind::SpanEnd {
            span: open.span,
            phase: open.phase.to_owned(),
        });
    }
}

/// Collects events in memory (summary mode, tests, report generation).
#[derive(Default)]
pub struct CollectSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().expect("collect sink"))
    }

    /// Clones the events recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("collect sink").clone()
    }
}

impl TraceSink for CollectSink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("collect sink")
            .push(event.clone());
    }
}

/// Discards every event. An *enabled* tracer over a `NullSink` still pays
/// event construction; the bench overhead guard compares it against the
/// disabled tracer to bound the cost of the instrumentation itself.
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: &TraceEvent) {}
}

/// Fans every event out to several sinks in order (e.g. a JSONL journal
/// and an in-memory collector for the post-run summary).
pub struct TeeSink(pub Vec<Arc<dyn TraceSink>>);

impl TraceSink for TeeSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.0 {
            sink.record(event);
        }
    }
}

/// Streams events as JSON Lines to a writer (`--trace-out`).
pub struct JsonlSink<W: std::io::Write + Send> {
    out: Mutex<W>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wraps `out`; each event becomes one line.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out: Mutex::new(out),
        }
    }

    /// Flushes and returns the writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("jsonl sink");
        let _ = w.flush();
        w
    }

    /// Flushes buffered output, surfacing any deferred write error (the
    /// per-event writes swallow errors to keep the solver running).
    ///
    /// # Errors
    ///
    /// Propagates the underlying writer's flush error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.out.lock().expect("jsonl sink").flush()
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, event: &TraceEvent) {
        let mut out = self.out.lock().expect("jsonl sink");
        // I/O errors are not allowed to abort a solve; the CLI flushes and
        // surfaces failures when closing the sink.
        let _ = writeln!(out, "{}", event.to_json());
    }
}

// ---------------------------------------------------------------------
// Aggregation: TraceReport
// ---------------------------------------------------------------------

/// Aggregated per-phase wall time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseRow {
    /// Phase name.
    pub phase: String,
    /// Number of spans.
    pub count: u64,
    /// Cumulative wall time (child spans count toward their ancestors).
    pub total_us: u64,
}

/// Aggregation of one trace: per-phase timings, per-group and per-vertex
/// attributions, and memo-cache totals. Built either from in-memory events
/// (`--trace=summary`) or from a parsed JSONL file (`dprle trace-report`).
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Total events aggregated.
    pub events: usize,
    /// Wall-clock span of the trace (first to last timestamp).
    pub total_us: u64,
    /// Per-phase rows, hottest first.
    pub phases: Vec<PhaseRow>,
    /// Cumulative `gci` span time per CI-group.
    pub group_us: BTreeMap<usize, u64>,
    /// Disjunctive solutions recorded per CI-group.
    pub group_disjuncts: BTreeMap<usize, usize>,
    /// Event count per kind name.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Memo-cache hits (all operations).
    pub memo_hits: u64,
    /// Memo-cache misses.
    pub memo_misses: u64,
    /// Per-vertex visit counts (reduce steps + group membership).
    pub node_visits: BTreeMap<u32, u64>,
    /// Per-vertex cumulative span time.
    pub node_us: BTreeMap<u32, u64>,
}

impl TraceReport {
    /// Aggregates `events`, validating span nesting on the way.
    ///
    /// # Errors
    ///
    /// Returns a description of the first nesting violation (a `SpanEnd`
    /// that does not close the innermost open span, or a span left open at
    /// the end of the trace).
    pub fn from_events(events: &[TraceEvent]) -> Result<TraceReport, String> {
        let mut report = TraceReport {
            events: events.len(),
            ..TraceReport::default()
        };
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            report.total_us = last.ts_us.saturating_sub(first.ts_us);
        }
        // Open spans: (id, phase, start ts, node, group).
        type OpenSpan = (u64, String, u64, Option<u32>, Option<usize>);
        let mut open: Vec<OpenSpan> = Vec::new();
        let mut phase_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for event in events {
            *report
                .kind_counts
                .entry(event.kind.kind_name())
                .or_insert(0) += 1;
            match &event.kind {
                TraceEventKind::SpanStart {
                    span,
                    phase,
                    node,
                    group,
                    ..
                } => {
                    open.push((*span, phase.clone(), event.ts_us, *node, *group));
                }
                TraceEventKind::SpanEnd { span, phase } => {
                    let Some((id, open_phase, start, node, group)) = open.pop() else {
                        return Err(format!(
                            "seq {}: SpanEnd {span} ({phase}) with no open span",
                            event.seq
                        ));
                    };
                    if id != *span {
                        return Err(format!(
                            "seq {}: SpanEnd {span} ({phase}) but innermost open span is {id} ({open_phase})",
                            event.seq
                        ));
                    }
                    let us = event.ts_us.saturating_sub(start);
                    let slot = phase_totals.entry(open_phase).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += us;
                    if let Some(node) = node {
                        *report.node_us.entry(node).or_insert(0) += us;
                        *report.node_visits.entry(node).or_insert(0) += 1;
                    }
                    if let Some(group) = group {
                        *report.group_us.entry(group).or_insert(0) += us;
                    }
                }
                TraceEventKind::ReduceStep { node, .. } => {
                    *report.node_visits.entry(*node).or_insert(0) += 1;
                }
                TraceEventKind::CiGroupStart { nodes, .. } => {
                    for n in nodes {
                        *report.node_visits.entry(*n).or_insert(0) += 1;
                    }
                }
                TraceEventKind::GciDisjunct { group, .. } => {
                    *report.group_disjuncts.entry(*group).or_insert(0) += 1;
                }
                TraceEventKind::MemoHit { .. } => report.memo_hits += 1,
                TraceEventKind::MemoMiss { .. } => report.memo_misses += 1,
                _ => {}
            }
        }
        if let Some((id, phase, ..)) = open.last() {
            return Err(format!("span {id} ({phase}) never closed"));
        }
        report.phases = phase_totals
            .into_iter()
            .map(|(phase, (count, total_us))| PhaseRow {
                phase,
                count,
                total_us,
            })
            .collect();
        report.phases.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.phase.cmp(&b.phase))
        });
        Ok(report)
    }

    /// Cumulative wall time of one phase, if it occurred.
    pub fn phase_us(&self, phase: &str) -> Option<u64> {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| p.total_us)
    }

    /// The `n` hottest CI-groups as `(group, cumulative µs, disjuncts)`,
    /// hottest first.
    pub fn top_groups(&self, n: usize) -> Vec<(usize, u64, usize)> {
        let mut rows: Vec<(usize, u64, usize)> = self
            .group_us
            .iter()
            .map(|(&g, &us)| (g, us, self.group_disjuncts.get(&g).copied().unwrap_or(0)))
            .collect();
        // Groups that produced disjuncts but never got a timed span still
        // deserve a row.
        for (&g, &d) in &self.group_disjuncts {
            if !self.group_us.contains_key(&g) {
                rows.push((g, 0, d));
            }
        }
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Renders the human-readable summary: the per-phase time table, the
    /// top-5 hottest CI-groups, and memo-cache totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events over {:.3} ms",
            self.events,
            self.total_us as f64 / 1000.0
        );
        if !self.phases.is_empty() {
            let _ = writeln!(out, "trace: per-phase wall time (cumulative):");
            let _ = writeln!(out, "trace:   {:<16} {:>8} {:>12}", "phase", "spans", "ms");
            for row in &self.phases {
                let _ = writeln!(
                    out,
                    "trace:   {:<16} {:>8} {:>12.3}",
                    row.phase,
                    row.count,
                    row.total_us as f64 / 1000.0
                );
            }
        }
        let top = self.top_groups(5);
        if !top.is_empty() {
            let _ = writeln!(out, "trace: hottest CI-groups (top {}):", top.len());
            let _ = writeln!(
                out,
                "trace:   {:<8} {:>12} {:>10}",
                "group", "ms", "disjuncts"
            );
            for (group, us, disjuncts) in top {
                let _ = writeln!(
                    out,
                    "trace:   {:<8} {:>12.3} {:>10}",
                    group,
                    us as f64 / 1000.0,
                    disjuncts
                );
            }
        }
        if self.memo_hits + self.memo_misses > 0 {
            let _ = writeln!(
                out,
                "trace: memo cache: {} hits / {} misses ({:.1}% hit rate)",
                self.memo_hits,
                self.memo_misses,
                100.0 * self.memo_hits as f64 / (self.memo_hits + self.memo_misses) as f64
            );
        }
        let disjuncts: usize = self.group_disjuncts.values().sum();
        let _ = writeln!(
            out,
            "trace: {} CI-group(s) traced, {} disjunct(s) recorded",
            self.group_disjuncts.len().max(self.group_us.len()),
            disjuncts
        );
        out
    }
}

/// Checks that every `SpanEnd` closes the innermost open span and no span
/// stays open — the well-nestedness invariant the RAII guards maintain.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn check_well_nested(events: &[TraceEvent]) -> Result<(), String> {
    TraceReport::from_events(events).map(|_| ())
}

// ---------------------------------------------------------------------
// Provenance DOT export
// ---------------------------------------------------------------------

/// Renders the dependency graph (paper Fig. 5) annotated with per-vertex
/// visit counts and cumulative attributable time from a trace — the
/// "where did the run go" picture. Vertices never visited are drawn
/// dashed.
pub fn provenance_dot(graph: &DependencyGraph, system: &System, events: &[TraceEvent]) -> String {
    let report = TraceReport::from_events(events).unwrap_or_default();
    let mut out = String::new();
    let _ = writeln!(out, "digraph solver_provenance {{");
    let _ = writeln!(
        out,
        "  label=\"solver provenance (visits, cumulative time)\";"
    );
    for i in 0..graph.num_nodes() {
        let node = crate::graph::NodeId(i as u32);
        let (name, shape) = match graph.kind(node) {
            NodeKind::Var(v) => (system.var_name(v).to_owned(), "circle"),
            NodeKind::Const(c) => (system.const_name(c).to_owned(), "box"),
            NodeKind::Temp(t) => (format!("t{t}"), "diamond"),
        };
        let visits = report.node_visits.get(&(i as u32)).copied().unwrap_or(0);
        let us = report.node_us.get(&(i as u32)).copied().unwrap_or(0);
        let label = if us > 0 {
            format!("{name}\\n{visits} visit(s), {:.3} ms", us as f64 / 1000.0)
        } else {
            format!("{name}\\n{visits} visit(s)")
        };
        let style = if visits == 0 { ", style=dashed" } else { "" };
        let _ = writeln!(
            out,
            "  n{i} [label=\"{}\", shape={shape}{style}];",
            label.replace('"', "\\\"")
        );
    }
    for e in graph.subset_edges() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"⊆\"];",
            e.source.index(),
            e.target.index()
        );
    }
    for e in graph.concat_edges() {
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"∘l\", style=dashed];",
            e.left.index(),
            e.target.index()
        );
        let _ = writeln!(
            out,
            "  n{} -> n{} [label=\"∘r\", style=dashed];",
            e.right.index(),
            e.target.index()
        );
    }
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------
// Schema validation (shared serde-free machinery in `crate::schema`)
// ---------------------------------------------------------------------

/// The JSON Schema for trace events, embedded from
/// `docs/trace.schema.json` so the binary validates against exactly the
/// checked-in contract.
pub const TRACE_SCHEMA: &str = include_str!("../../../docs/trace.schema.json");

pub use crate::schema::{schema_kinds, validate_jsonl};

pub(crate) use crate::schema::Json;
use crate::schema::{
    get_bool, get_opt_str, get_opt_u32, get_str, get_u32_array, get_u64, get_usize, json_string,
};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        tracer.emit(|| TraceEventKind::SolveStart {
            constraints: 3,
            vars: 2,
        });
        {
            let _solve = tracer.span("solve", None, None);
            {
                let _reduce = tracer.span("reduce", Some(0), None);
                tracer.emit(|| TraceEventKind::ReduceStep {
                    node: 0,
                    var: "v1".to_owned(),
                    states: 4,
                });
            }
            {
                let _gci = tracer.span("gci", None, Some(0));
                tracer.emit(|| TraceEventKind::CiGroupStart {
                    group: 0,
                    nodes: vec![0, 1, 5],
                    bridges: 1,
                });
                tracer.emit(|| TraceEventKind::GciDisjunct {
                    group: 0,
                    bridge_eps: 1,
                    states: 7,
                    fingerprint: 0xdead_beef_0102_0304,
                });
                tracer.emit(|| TraceEventKind::CiGroupEnd {
                    group: 0,
                    disjuncts: 1,
                });
            }
            tracer.emit(|| TraceEventKind::MemoHit {
                op: "intersect".to_owned(),
            });
            tracer.emit(|| TraceEventKind::WorklistPrune {
                group: 1,
                reason: "empty-language".to_owned(),
            });
        }
        tracer.emit(|| TraceEventKind::SolveEnd {
            sat: true,
            assignments: 1,
        });
        sink.take()
    }

    #[test]
    fn disabled_tracer_never_runs_the_closure() {
        let tracer = Tracer::disabled();
        tracer.emit(|| unreachable!("closure must not run when disabled"));
        let _span = tracer.span("solve", None, None);
        assert!(!tracer.is_enabled());
    }

    #[test]
    fn events_are_sequenced_and_monotone() {
        let events = sample_events();
        assert!(!events.is_empty());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        for pair in events.windows(2) {
            assert!(pair[1].ts_us >= pair[0].ts_us);
        }
    }

    #[test]
    fn spans_are_well_nested_with_parents() {
        let events = sample_events();
        check_well_nested(&events).expect("RAII guards nest");
        // The reduce span's parent is the solve span.
        let solve_id = events
            .iter()
            .find_map(|e| match &e.kind {
                TraceEventKind::SpanStart { span, phase, .. } if phase == "solve" => Some(*span),
                _ => None,
            })
            .expect("solve span");
        let reduce_parent = events
            .iter()
            .find_map(|e| match &e.kind {
                TraceEventKind::SpanStart { parent, phase, .. } if phase == "reduce" => {
                    Some(*parent)
                }
                _ => None,
            })
            .expect("reduce span");
        assert_eq!(reduce_parent, solve_id);
    }

    #[test]
    fn json_roundtrip_preserves_every_event() {
        let events = sample_events();
        for event in &events {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line).expect("parses");
            assert_eq!(&back, event, "{line}");
        }
    }

    #[test]
    fn jsonl_sink_round_trips_through_parse_jsonl() {
        let events = sample_events();
        let sink = JsonlSink::new(Vec::<u8>::new());
        for e in &events {
            sink.record(e);
        }
        let text = String::from_utf8(sink.into_inner()).expect("utf8");
        let parsed = parse_jsonl(&text).expect("parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn report_aggregates_phases_groups_and_memo() {
        let events = sample_events();
        let report = TraceReport::from_events(&events).expect("well nested");
        assert_eq!(report.events, events.len());
        let phases: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert!(phases.contains(&"solve"));
        assert!(phases.contains(&"reduce"));
        assert!(phases.contains(&"gci"));
        assert_eq!(report.group_disjuncts.get(&0), Some(&1));
        assert_eq!(report.memo_hits, 1);
        assert_eq!(report.memo_misses, 0);
        // Node 0 was visited by the reduce span, the reduce step, and group
        // membership.
        assert_eq!(report.node_visits.get(&0), Some(&3));
        let rendered = report.render();
        assert!(rendered.contains("per-phase wall time"), "{rendered}");
        assert!(rendered.contains("hottest CI-groups"), "{rendered}");
        assert!(rendered.contains("memo cache"), "{rendered}");
    }

    #[test]
    fn ill_nested_traces_are_rejected() {
        let mut events = sample_events();
        // Drop a SpanEnd: the trace now has an unclosed span.
        let pos = events
            .iter()
            .position(|e| matches!(e.kind, TraceEventKind::SpanEnd { .. }))
            .expect("has span ends");
        events.remove(pos);
        assert!(check_well_nested(&events).is_err());
    }

    #[test]
    fn schema_validates_generated_events() {
        let events = sample_events();
        let jsonl: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let n = validate_jsonl(TRACE_SCHEMA, &jsonl).expect("schema-valid");
        assert_eq!(n, events.len());
    }

    #[test]
    fn tagged_events_validate_roundtrip_and_untagged_events_omit_the_field() {
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new_tagged(sink.clone(), "r42");
        tracer.emit(|| TraceEventKind::SolveStart {
            constraints: 1,
            vars: 1,
        });
        {
            let _solve = tracer.span("solve", None, None);
        }
        let jsonl: String = sink.take().iter().map(|e| e.to_json() + "\n").collect();
        let n = validate_jsonl(TRACE_SCHEMA, &jsonl).expect("tagged events are schema-valid");
        assert_eq!(n, 3);
        for event in parse_jsonl(&jsonl).expect("tagged events parse back") {
            assert_eq!(event.request_id.as_deref(), Some("r42"));
        }

        // Untagged tracers must omit the field entirely — not serialize
        // `"request_id":null` — so one-shot journals stay byte-identical
        // to pre-tagging output.
        let untagged: String = sample_events().iter().map(|e| e.to_json() + "\n").collect();
        assert!(!untagged.contains("request_id"), "{untagged}");
    }

    #[test]
    fn schema_rejects_unknown_kinds_and_missing_fields() {
        let bogus = "{\"seq\":0,\"ts_us\":0,\"kind\":\"NotAnEvent\"}";
        assert!(validate_jsonl(TRACE_SCHEMA, bogus).is_err());
        let missing = "{\"seq\":0,\"ts_us\":0,\"kind\":\"GciDisjunct\",\"group\":0}";
        assert!(validate_jsonl(TRACE_SCHEMA, missing).is_err());
        let extra =
            "{\"seq\":0,\"ts_us\":0,\"kind\":\"MemoHit\",\"op\":\"intersect\",\"smuggled\":1}";
        assert!(validate_jsonl(TRACE_SCHEMA, extra).is_err());
    }

    #[test]
    fn schema_covers_exactly_the_event_taxonomy() {
        let mut covered = schema_kinds(TRACE_SCHEMA).expect("schema parses");
        covered.sort();
        let mut expected: Vec<String> = TraceEventKind::ALL_KINDS
            .iter()
            .map(|s| s.to_string())
            .collect();
        expected.sort();
        assert_eq!(covered, expected, "docs/trace.schema.json drifted");
    }

    #[test]
    fn fork_buffered_of_disabled_tracer_is_disabled() {
        let (fork, sink) = Tracer::disabled().fork_buffered();
        assert!(!fork.is_enabled());
        assert!(sink.is_none());
    }

    #[test]
    fn absorbed_fork_events_match_direct_emission() {
        // The same span/event structure once emitted directly and once
        // through a fork + absorb must serialize identically (timestamps
        // aside): same seq numbering, same span ids, same parents.
        let emit_body = |tracer: &Tracer| {
            let _outer = tracer.span("gci", None, Some(0));
            tracer.emit(|| TraceEventKind::MemoHit {
                op: "intersect".to_owned(),
            });
            let _inner = tracer.span("verify", Some(3), None);
            tracer.emit(|| TraceEventKind::MemoMiss {
                op: "minimize".to_owned(),
            });
        };

        let direct_sink = Arc::new(CollectSink::new());
        let direct = Tracer::new(direct_sink.clone());
        {
            let _solve = direct.span("solve", None, None);
            emit_body(&direct);
            emit_body(&direct);
        }

        let merged_sink = Arc::new(CollectSink::new());
        let merged = Tracer::new(merged_sink.clone());
        {
            let _solve = merged.span("solve", None, None);
            // Two forks recorded "concurrently", absorbed in order.
            let (fork_a, buf_a) = merged.fork_buffered();
            let (fork_b, buf_b) = merged.fork_buffered();
            emit_body(&fork_b);
            emit_body(&fork_a);
            merged.absorb_events(buf_a.expect("enabled").take());
            merged.absorb_events(buf_b.expect("enabled").take());
        }

        let strip_ts = |events: Vec<TraceEvent>| -> Vec<String> {
            events
                .into_iter()
                .map(|mut e| {
                    e.ts_us = 0;
                    e.to_json()
                })
                .collect()
        };
        assert_eq!(strip_ts(direct_sink.take()), strip_ts(merged_sink.take()));
    }

    #[test]
    fn absorbed_span_parents_rebind_to_the_open_span() {
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        let outer = tracer.span("solve", None, None);
        let (fork, buf) = tracer.fork_buffered();
        {
            let _s = fork.span("gci", None, Some(1));
        }
        tracer.absorb_events(buf.expect("enabled").take());
        drop(outer);
        let events = sink.take();
        let outer_id = match &events[0].kind {
            TraceEventKind::SpanStart { span, .. } => *span,
            other => panic!("expected outer SpanStart, got {other:?}"),
        };
        match &events[1].kind {
            TraceEventKind::SpanStart { span, parent, .. } => {
                assert_eq!(*parent, outer_id, "fork root rebinds to open span");
                assert_ne!(*span, outer_id, "fresh id, no collision");
            }
            other => panic!("expected absorbed SpanStart, got {other:?}"),
        }
        // Seqs are contiguous across direct and absorbed events.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
    }
}
