//! Sharded, lock-cheap metrics registry for automata operations.
//!
//! Mirrors the tracer's zero-cost-when-disabled design: a [`Metrics`]
//! handle is either disabled (`inner == None`, every recording method is
//! an inlined no-op) or holds an `Arc` to a fixed-shape `Registry` of
//! named counters, gauges, and log2-bucketed histograms. The metric set
//! is a closed table ([`METRIC_DEFS`], indexed by the constants in
//! [`id`]) so snapshots always have the same shape and ordering.
//!
//! Recording discipline: ops stay pure and *return* their costs;
//! recording happens only at sites that run once per computed result —
//! the `LangStore`'s first-writer-wins insert commit, the once-per-handle
//! fingerprint compute, per-entry `gci` calls, and the worklist loop — so
//! sessions racing on one shared store record each result once. Counter
//! adds and histogram observations commute, so totals do not depend on
//! the interleaving.
//!
//! Layering note: this module lives in `dprle-automata` (the lowest
//! layer) so automata call sites can record into it; `dprle-core`
//! re-exports it as `core::metrics` alongside the resource budgets built
//! on top.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of buckets in every histogram: bucket `i` counts values whose
/// bit length is `i` (`0` for the value zero), so bucket boundaries are
/// powers of two and the last bucket absorbs everything ≥ 2⁶².
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Counter shards: concurrent `add`s from different threads land on
/// different cache lines; a snapshot sums the shards.
const COUNTER_SHARDS: usize = 8;

/// The three metric shapes the registry supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// Last-set value with a tracked peak.
    Gauge,
    /// Log2-bucketed distribution with sum and count.
    Histogram,
}

/// One entry of the fixed metric table.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Dotted metric name (`automata.intersect.products`).
    pub name: &'static str,
    /// Human-readable description (Prometheus `# HELP`).
    pub help: &'static str,
    /// Shape of the metric.
    pub kind: MetricKind,
}

/// Metric ids: indices into [`METRIC_DEFS`] and the registry.
pub mod id {
    /// Product constructions performed (`ops::intersect` calls).
    pub const INTERSECT_PRODUCTS: usize = 0;
    /// Histogram of product states explored per intersection.
    pub const INTERSECT_EXPLORED: usize = 1;
    /// Histogram of product states surviving trim per intersection.
    pub const INTERSECT_REACHABLE: usize = 2;
    /// States allocated by `ops::concat`.
    pub const CONCAT_STATES: usize = 3;
    /// States allocated by `ops::union` / `ops::union_all`.
    pub const UNION_STATES: usize = 4;
    /// Histogram of NFA states entering determinization.
    pub const DETERMINIZE_IN: usize = 5;
    /// Histogram of DFA states produced by determinization.
    pub const DETERMINIZE_OUT: usize = 6;
    /// States visited by ε-closure during determinization.
    pub const EPS_CLOSURE_VISITED: usize = 7;
    /// Bytes of cached canonical fingerprints.
    pub const FINGERPRINT_BYTES: usize = 8;
    /// Approximate bytes held by `LangStore` memo tables.
    pub const STORE_MEMO_BYTES: usize = 9;
    /// NFA states materialized through the store.
    pub const STORE_MATERIALIZED: usize = 10;
    /// Histogram of total states per disjunctive group solution.
    pub const GCI_DISJUNCT_STATES: usize = 11;
    /// Worklist queue depth gauge.
    pub const WORKLIST_DEPTH: usize = 12;
    /// Cumulative product states charged against the solve budget.
    pub const SOLVE_PRODUCT_STATES: usize = 13;
    /// Cumulative states built by group solving.
    pub const SOLVE_STATES_BUILT: usize = 14;
    /// Macrostates explored by inclusion queries.
    pub const INCLUSION_MACROSTATES: usize = 15;
    /// Histogram of final antichain size per lazy inclusion query.
    pub const INCLUSION_ANTICHAIN_SIZE: usize = 16;
    /// Macrostates dropped by antichain subsumption.
    pub const INCLUSION_PRUNES: usize = 17;
    /// Memoized store operations answered from a cache.
    pub const STORE_MEMO_HITS: usize = 18;
    /// Memoized store operations computed fresh.
    pub const STORE_MEMO_MISSES: usize = 19;
    /// Memo entries dropped by size-bounded LRU eviction.
    pub const STORE_EVICTIONS: usize = 20;
    /// Bytes reclaimed by size-bounded LRU eviction.
    pub const STORE_EVICTED_BYTES: usize = 21;
    /// Histogram of per-request queue wait in `dprle serve` (µs).
    pub const SERVE_QUEUE_WAIT_US: usize = 22;
    /// Histogram of per-request parse time in `dprle serve` (µs).
    pub const SERVE_PARSE_US: usize = 23;
    /// Histogram of per-request solve time in `dprle serve` (µs).
    pub const SERVE_SOLVE_US: usize = 24;
    /// Histogram of per-request serialization time in `dprle serve` (µs).
    pub const SERVE_SERIALIZE_US: usize = 25;
    /// Histogram of per-request wall time in `dprle serve` (µs).
    pub const SERVE_WALL_US: usize = 26;
    /// Requests answered `sat` by `dprle serve`.
    pub const SERVE_SAT: usize = 27;
    /// Requests answered `unsat` by `dprle serve`.
    pub const SERVE_UNSAT: usize = 28;
    /// Requests answered `resource-exhausted` by `dprle serve`.
    pub const SERVE_RESOURCE_EXHAUSTED: usize = 29;
    /// Requests answered `parse-error` by `dprle serve`.
    pub const SERVE_PARSE_ERROR: usize = 30;
}

/// The closed metric table. Index = metric id; snapshot order = table
/// order, so every snapshot has the same shape.
pub const METRIC_DEFS: &[MetricDef] = &[
    MetricDef {
        name: "automata.intersect.products",
        help: "Product constructions performed by ops::intersect",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.intersect.explored_states",
        help: "Product states explored per intersection (reachable pair expansion)",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "automata.intersect.reachable_states",
        help: "Product states surviving trim per intersection",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "automata.concat.states",
        help: "States allocated by ops::concat",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.union.states",
        help: "States allocated by ops::union and ops::union_all",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.determinize.states_in",
        help: "NFA states entering determinization (minimize and fingerprint paths)",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "automata.determinize.states_out",
        help: "DFA states produced by determinization",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "automata.eps_closure.visited_states",
        help: "States visited by epsilon-closure during determinization",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.fingerprint.bytes",
        help: "Bytes of cached canonical fingerprints (cache footprint)",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.store.memo_bytes",
        help: "Approximate bytes held by LangStore memo tables (peak tracked; falls on eviction)",
        kind: MetricKind::Gauge,
    },
    MetricDef {
        name: "core.store.states_materialized",
        help: "NFA states materialized through the store",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.gci.disjunct_states",
        help: "Total states per disjunctive group solution",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "core.worklist.depth",
        help: "Worklist queue depth (peak tracked)",
        kind: MetricKind::Gauge,
    },
    MetricDef {
        name: "core.solve.product_states",
        help: "Cumulative product states charged against the solve budget",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.solve.states_built",
        help: "Cumulative states built by group solving",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.inclusion.macrostates",
        help: "Frontier macrostates explored by inclusion queries",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "automata.inclusion.antichain_size",
        help: "Final antichain size per inclusion query",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "automata.inclusion.subsumption_prunes",
        help: "Macrostates dropped by antichain subsumption",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.store.memo_hits",
        help: "Memoized store operations (fingerprint, intersect, inclusion, minimize) answered from a cache",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.store.memo_misses",
        help: "Memoized store operations computed fresh",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.store.evictions",
        help: "Memo entries dropped by size-bounded LRU eviction",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "core.store.evicted_bytes",
        help: "Approximate bytes reclaimed by size-bounded LRU eviction",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "serve.request.queue_wait_us",
        help: "Microseconds a serve request waited between arrival and worker pickup",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "serve.request.parse_us",
        help: "Microseconds spent parsing and validating a serve request line",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "serve.request.solve_us",
        help: "Microseconds spent inside the solver per serve request",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "serve.request.serialize_us",
        help: "Microseconds spent rendering a serve response line",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "serve.request.wall_us",
        help: "Microseconds from serve request arrival to rendered response",
        kind: MetricKind::Histogram,
    },
    MetricDef {
        name: "serve.requests.sat",
        help: "Serve requests answered sat",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "serve.requests.unsat",
        help: "Serve requests answered unsat",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "serve.requests.resource_exhausted",
        help: "Serve requests answered resource-exhausted (a budget breached)",
        kind: MetricKind::Counter,
    },
    MetricDef {
        name: "serve.requests.parse_error",
        help: "Serve requests rejected as parse errors (malformed JSON, schema violation, or solver error)",
        kind: MetricKind::Counter,
    },
];

/// Cache-line padded atomic, so counter shards don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Storage for one metric. Every slot carries all three shapes' fields —
/// a few hundred bytes of waste per metric keeps the indexing branch-free
/// and the table is small and fixed.
struct Slot {
    /// Counter shards; gauges use shard 0 as the current value.
    shards: [PaddedU64; COUNTER_SHARDS],
    /// Gauge peak (`fetch_max` on every set).
    peak: AtomicU64,
    /// Histogram bucket counts (`HISTOGRAM_BUCKETS` entries).
    buckets: Vec<AtomicU64>,
    /// Histogram sum of observed values.
    sum: AtomicU64,
    /// Histogram observation count.
    count: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            shards: Default::default(),
            peak: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn counter_total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// The backing store of an enabled [`Metrics`] handle: one [`Slot`] per
/// [`METRIC_DEFS`] entry.
struct Registry {
    slots: Vec<Slot>,
}

static SHARD_SEQ: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// Each thread is assigned a fixed counter shard round-robin on first
    /// use; `add` then touches only that shard's cache line.
    static SHARD: usize = SHARD_SEQ.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// Bucket index for a histogram observation: the value's bit length
/// (0 for 0), clamped to the last bucket.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of cumulative bucket `i` (`2^i - 1`), rendered
/// for the Prometheus `le` label. The last bucket is `+Inf`.
fn bucket_le(i: usize) -> String {
    if i + 1 == HISTOGRAM_BUCKETS {
        "+Inf".to_owned()
    } else {
        ((1u64 << i) - 1).to_string()
    }
}

/// Handle to the metrics registry; cheap to clone and thread everywhere.
///
/// Disabled handles (the default) record nothing: every method is an
/// inlined `None` check, mirroring the disabled tracer's cost profile.
#[derive(Clone, Default)]
pub struct Metrics {
    inner: Option<Arc<Registry>>,
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Metrics {
    /// A no-op handle: all recording methods return immediately.
    pub fn disabled() -> Metrics {
        Metrics { inner: None }
    }

    /// A live handle backed by a fresh registry.
    pub fn enabled() -> Metrics {
        Metrics {
            inner: Some(Arc::new(Registry {
                slots: METRIC_DEFS.iter().map(|_| Slot::new()).collect(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to the counter `id` (see [`id`]).
    #[inline]
    pub fn add(&self, id: usize, delta: u64) {
        let Some(reg) = &self.inner else { return };
        debug_assert_eq!(METRIC_DEFS[id].kind, MetricKind::Counter);
        let shard = SHARD.with(|s| *s);
        reg.slots[id].shards[shard]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge `id` to `value`, tracking the peak.
    #[inline]
    pub fn gauge_set(&self, id: usize, value: u64) {
        let Some(reg) = &self.inner else { return };
        debug_assert_eq!(METRIC_DEFS[id].kind, MetricKind::Gauge);
        let slot = &reg.slots[id];
        slot.shards[0].0.store(value, Ordering::Relaxed);
        slot.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation of `value` into histogram `id`.
    #[inline]
    pub fn observe(&self, id: usize, value: u64) {
        let Some(reg) = &self.inner else { return };
        debug_assert_eq!(METRIC_DEFS[id].kind, MetricKind::Histogram);
        let slot = &reg.slots[id];
        slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every metric, in [`METRIC_DEFS`] order.
    /// `None` when disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        let reg = self.inner.as_ref()?;
        let entries = METRIC_DEFS
            .iter()
            .zip(&reg.slots)
            .map(|(def, slot)| MetricEntry {
                name: def.name.to_owned(),
                help: def.help.to_owned(),
                value: match def.kind {
                    MetricKind::Counter => MetricValue::Counter {
                        value: slot.counter_total(),
                    },
                    MetricKind::Gauge => MetricValue::Gauge {
                        value: slot.shards[0].0.load(Ordering::Relaxed),
                        peak: slot.peak.load(Ordering::Relaxed),
                    },
                    MetricKind::Histogram => MetricValue::Histogram {
                        count: slot.count.load(Ordering::Relaxed),
                        sum: slot.sum.load(Ordering::Relaxed),
                        buckets: slot
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    },
                },
            })
            .collect();
        Some(MetricsSnapshot { entries })
    }
}

/// The recorded shape and values of one metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter {
        /// Summed shard values.
        value: u64,
    },
    /// Gauge value and peak.
    Gauge {
        /// Last set value.
        value: u64,
        /// Highest value ever set.
        peak: u64,
    },
    /// Histogram counts.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
        buckets: Vec<u64>,
    },
}

/// One named metric in a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricEntry {
    /// Dotted metric name.
    pub name: String,
    /// Description (Prometheus `# HELP`).
    pub help: String,
    /// Recorded values.
    pub value: MetricValue,
}

impl MetricEntry {
    /// The entry's headline cost number used for ranking: counter value,
    /// gauge peak, or histogram sum.
    pub fn headline(&self) -> u64 {
        match &self.value {
            MetricValue::Counter { value } => *value,
            MetricValue::Gauge { peak, .. } => *peak,
            MetricValue::Histogram { sum, .. } => *sum,
        }
    }
}

/// A point-in-time copy of the whole registry, renderable as a JSONL
/// snapshot (pinned by `docs/metrics.schema.json`) or Prometheus text
/// exposition.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Metrics in [`METRIC_DEFS`] order (or file order when parsed back).
    pub entries: Vec<MetricEntry>,
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

impl MetricsSnapshot {
    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the snapshot as JSONL: one `Meta` line (schema tag and the
    /// caller-supplied timestamp — pass 0 for byte-stable output) followed
    /// by one kind-discriminated line per metric. The format is pinned by
    /// `docs/metrics.schema.json`.
    pub fn to_jsonl(&self, ts_us: u64) -> String {
        let mut out = format!(
            "{{\"kind\":\"Meta\",\"schema\":\"dprle-metrics-v1\",\"ts_us\":{ts_us},\"entries\":{}}}\n",
            self.entries.len()
        );
        for e in &self.entries {
            let name = json_escape(&e.name);
            let help = json_escape(&e.help);
            match &e.value {
                MetricValue::Counter { value } => out.push_str(&format!(
                    "{{\"kind\":\"Counter\",\"name\":\"{name}\",\"help\":\"{help}\",\"value\":{value}}}\n"
                )),
                MetricValue::Gauge { value, peak } => out.push_str(&format!(
                    "{{\"kind\":\"Gauge\",\"name\":\"{name}\",\"help\":\"{help}\",\"value\":{value},\"peak\":{peak}}}\n"
                )),
                MetricValue::Histogram { count, sum, buckets } => {
                    let buckets: Vec<String> = buckets.iter().map(u64::to_string).collect();
                    out.push_str(&format!(
                        "{{\"kind\":\"Histogram\",\"name\":\"{name}\",\"help\":\"{help}\",\"count\":{count},\"sum\":{sum},\"buckets\":[{}]}}\n",
                        buckets.join(",")
                    ));
                }
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`dprle_` prefix, dots mapped to underscores, no timestamps so the
    /// output is byte-stable). Gauges additionally expose their peak as a
    /// `<name>_peak` gauge; histograms follow the cumulative
    /// `_bucket{le=...}` / `_sum` / `_count` convention.
    pub fn to_prometheus(&self) -> String {
        let prom_name = |name: &str| format!("dprle_{}", name.replace('.', "_"));
        let mut out = String::new();
        for e in &self.entries {
            let name = prom_name(&e.name);
            match &e.value {
                MetricValue::Counter { value } => {
                    out.push_str(&format!("# HELP {name} {}\n", e.help));
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    out.push_str(&format!("{name} {value}\n"));
                }
                MetricValue::Gauge { value, peak } => {
                    out.push_str(&format!("# HELP {name} {}\n", e.help));
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    out.push_str(&format!("{name} {value}\n"));
                    out.push_str(&format!("# HELP {name}_peak Peak of {name}\n"));
                    out.push_str(&format!("# TYPE {name}_peak gauge\n"));
                    out.push_str(&format!("{name}_peak {peak}\n"));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!("# HELP {name} {}\n", e.help));
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().enumerate() {
                        cumulative += b;
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
                            bucket_le(i)
                        ));
                    }
                    out.push_str(&format!("{name}_sum {sum}\n"));
                    out.push_str(&format!("{name}_count {count}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let m = Metrics::disabled();
        assert!(!m.is_enabled());
        m.add(id::CONCAT_STATES, 5);
        m.gauge_set(id::WORKLIST_DEPTH, 3);
        m.observe(id::GCI_DISJUNCT_STATES, 7);
        assert!(m.snapshot().is_none());
    }

    #[test]
    fn counters_sum_across_threads_and_shards() {
        let m = Metrics::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = m.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.add(id::CONCAT_STATES, 1);
                    }
                });
            }
        });
        let snap = m.snapshot().expect("enabled");
        assert_eq!(snap.get("automata.concat.states").unwrap().headline(), 4000);
    }

    #[test]
    fn gauges_track_value_and_peak() {
        let m = Metrics::enabled();
        m.gauge_set(id::WORKLIST_DEPTH, 4);
        m.gauge_set(id::WORKLIST_DEPTH, 9);
        m.gauge_set(id::WORKLIST_DEPTH, 2);
        let snap = m.snapshot().unwrap();
        match &snap.get("core.worklist.depth").unwrap().value {
            MetricValue::Gauge { value, peak } => {
                assert_eq!(*value, 2);
                assert_eq!(*peak, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let m = Metrics::enabled();
        for v in [0, 1, 3, 4, 1024] {
            m.observe(id::INTERSECT_EXPLORED, v);
        }
        let snap = m.snapshot().unwrap();
        match &snap
            .get("automata.intersect.explored_states")
            .unwrap()
            .value
        {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, 5);
                assert_eq!(*sum, 1032);
                assert_eq!(buckets[0], 1); // 0
                assert_eq!(buckets[1], 1); // 1
                assert_eq!(buckets[2], 1); // 3
                assert_eq!(buckets[3], 1); // 4
                assert_eq!(buckets[11], 1); // 1024
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn snapshot_covers_every_def_in_order() {
        let snap = Metrics::enabled().snapshot().unwrap();
        assert_eq!(snap.len(), METRIC_DEFS.len());
        for (e, def) in snap.entries.iter().zip(METRIC_DEFS) {
            assert_eq!(e.name, def.name);
        }
    }

    #[test]
    fn jsonl_rendering_is_line_per_metric_and_stable() {
        let m = Metrics::enabled();
        m.add(id::CONCAT_STATES, 12);
        let snap = m.snapshot().unwrap();
        let jsonl = snap.to_jsonl(0);
        assert_eq!(jsonl.lines().count(), METRIC_DEFS.len() + 1);
        assert!(jsonl.starts_with("{\"kind\":\"Meta\",\"schema\":\"dprle-metrics-v1\""));
        assert!(jsonl.contains("\"name\":\"automata.concat.states\",\"help\""));
        assert!(jsonl.contains("\"value\":12"));
        // Byte-stable across renderings of the same snapshot.
        assert_eq!(jsonl, snap.to_jsonl(0));
    }

    #[test]
    fn prometheus_rendering_has_help_type_and_cumulative_buckets() {
        let m = Metrics::enabled();
        m.add(id::CONCAT_STATES, 3);
        m.observe(id::INTERSECT_EXPLORED, 2);
        m.observe(id::INTERSECT_EXPLORED, 5);
        m.gauge_set(id::WORKLIST_DEPTH, 7);
        let text = m.snapshot().unwrap().to_prometheus();
        assert!(text.contains("# TYPE dprle_automata_concat_states counter"));
        assert!(text.contains("dprle_automata_concat_states 3"));
        assert!(text.contains("# TYPE dprle_core_worklist_depth gauge"));
        assert!(text.contains("dprle_core_worklist_depth_peak 7"));
        assert!(text.contains("# TYPE dprle_automata_intersect_explored_states histogram"));
        assert!(text.contains("dprle_automata_intersect_explored_states_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dprle_automata_intersect_explored_states_sum 7"));
        assert!(text.contains("dprle_automata_intersect_explored_states_count 2"));
        // Buckets are cumulative: the le="7" bucket already includes both.
        assert!(text.contains("dprle_automata_intersect_explored_states_bucket{le=\"7\"} 2"));
    }

    #[test]
    fn clones_share_the_registry() {
        let m = Metrics::enabled();
        let n = m.clone();
        n.add(id::UNION_STATES, 2);
        m.add(id::UNION_STATES, 3);
        assert_eq!(
            m.snapshot()
                .unwrap()
                .get("automata.union.states")
                .unwrap()
                .headline(),
            5
        );
    }
}
