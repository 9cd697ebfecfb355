//! Per-layer accumulation for the traced run: exact work counters read
//! from `SolveStats`, the cost ledger and the metrics registry, and
//! per-op time split by layer.

use crate::spans::PhaseTotals;
use dprle_core::{LedgerRecord, MetricValue, MetricsSnapshot, QueryKind, SolveStats};
use std::collections::BTreeMap;

/// Span phases and the per-layer metric each one's self time feeds.
const PHASES: [(&str, &str); 5] = [
    ("reduce", "core.reduce.self_ms"),
    ("gci", "core.gci.self_ms"),
    ("enumerate", "core.enumerate.self_ms"),
    ("minimize", "core.minimize.self_ms"),
    ("verify", "core.verify.self_ms"),
];

/// Deterministic work counters over a fixed set of ops. Two runs of one
/// seed must produce identical maps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    fn add(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_default() += value;
    }

    fn max(&mut self, name: &'static str, value: u64) {
        let slot = self.0.entry(name).or_default();
        *slot = (*slot).max(value);
    }

    /// The counter's value (zero when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds one solve's `SolveStats` counters.
    pub fn add_stats(&mut self, stats: &SolveStats) {
        self.add("core.states_materialized", stats.states_materialized as u64);
        self.add("core.product_states", stats.product_states);
        self.add("core.fingerprint_misses", stats.fingerprint_misses as u64);
        self.add("core.group_disjuncts", stats.group_disjuncts as u64);
        self.add("core.branches_completed", stats.branches_completed as u64);
        self.add("store.memo_op_hits", stats.memo_op_hits as u64);
        self.add("store.memo_op_misses", stats.memo_op_misses as u64);
        self.add("store.evictions", stats.store_evictions);
    }

    /// Adds the counts of one op's ledger records.
    pub fn add_ledger(&mut self, records: &[LedgerRecord]) {
        for r in records {
            match r.kind {
                QueryKind::Inclusion => {
                    self.add("automata.inclusion.queries", 1);
                    self.add("automata.inclusion.macrostates", r.cost_main);
                }
                QueryKind::Product => self.add("automata.product.builds", 1),
            }
        }
    }

    /// Adds the registry's growth from `before` (`None`: an empty
    /// registry) to `after`; the memo-bytes gauge contributes its peak.
    pub fn add_metrics(&mut self, after: &MetricsSnapshot, before: Option<&MetricsSnapshot>) {
        let earlier = |name: &str| before.and_then(|b| b.get(name)).map(|e| e.value.clone());
        for entry in &after.entries {
            match (entry.name.as_str(), &entry.value) {
                ("automata.determinize.states_out", MetricValue::Histogram { sum, .. }) => {
                    let base = match earlier(&entry.name) {
                        Some(MetricValue::Histogram { sum, .. }) => sum,
                        _ => 0,
                    };
                    self.add("automata.determinize.out_states", sum.saturating_sub(base));
                }
                ("core.store.memo_bytes", MetricValue::Gauge { peak, .. }) => {
                    self.max("store.memo_bytes.peak", *peak);
                }
                _ => {}
            }
        }
    }

    /// Memo-op hits over memo-op lookups (the base is
    /// `store.memo_op_hits + store.memo_op_misses`).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.get("store.memo_op_hits");
        let lookups = hits + self.get("store.memo_op_misses");
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

/// Wall time spent in each layer, summed over the traced ops.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    /// Traced ops folded in.
    pub ops: u64,
    /// Span self times.
    pub phases: PhaseTotals,
    /// Time inside the solver, µs: the benchmark's own timer around
    /// `solve_traced`, or the root `solve` spans inside `handle_request`.
    pub solve_us: u64,
    /// Benchmark-timed witness extraction, µs.
    pub witness_us: u64,
    /// Ledger-recorded inclusion query time, µs.
    pub inclusion_us: u64,
    /// Ledger-recorded product build time, µs.
    pub product_us: u64,
}

impl LayerTime {
    /// Adds the ledger's per-query wall times.
    pub fn add_ledger(&mut self, records: &[LedgerRecord]) {
        for r in records {
            match r.kind {
                QueryKind::Inclusion => self.inclusion_us += r.ts_us,
                QueryKind::Product => self.product_us += r.ts_us,
            }
        }
    }

    /// Mean milliseconds per op of a µs total.
    fn per_op_ms(&self, total_us: u64) -> f64 {
        total_us as f64 / 1000.0 / self.ops.max(1) as f64
    }
}

/// Records the traced leg's per-layer time and exact counters.
pub fn record(layers: &mut BTreeMap<&'static str, f64>, time: &LayerTime, counters: &Counters) {
    layers.insert("core.solve.ms", time.per_op_ms(time.solve_us));
    layers.insert(
        "core.solve.self_frac",
        time.phases.self_of("solve") as f64 / time.phases.root_us.max(1) as f64,
    );
    for (phase, name) in PHASES {
        layers.insert(name, time.per_op_ms(time.phases.self_of(phase)));
    }
    layers.insert("automata.product.ms", time.per_op_ms(time.product_us));
    layers.insert("automata.inclusion.ms", time.per_op_ms(time.inclusion_us));
    layers.insert("core.witness.ms", time.per_op_ms(time.witness_us));
    for (name, value) in &counters.0 {
        layers.insert(name, *value as f64);
    }
    layers.insert("store.hit_ratio", counters.hit_ratio());
}
