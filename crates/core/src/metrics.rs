//! Resource budgets and metrics exposition for the solver.
//!
//! The metric *registry* itself lives in [`dprle_automata::metrics`] (so the
//! automata hot paths can record into it without a dependency cycle); this
//! module re-exports the registry types and layers the solver-side pieces on
//! top:
//!
//! * [`Budget`] — per-solve resource limits threaded through
//!   `SolveOptions::budget`. Limits convert automaton blowups (the paper's
//!   §3.5 quadratic product construction is the canonical one) into a
//!   graceful, typed [`ResourceExhausted`] error instead of an OOM kill.
//! * [`ResourceExhausted`] — the breach report: which limit, the configured
//!   bound, the observed value, the [`SolveStats`] accumulated so far, and —
//!   when metrics were enabled — a full [`MetricsSnapshot`].
//! * [`METRICS_SCHEMA`] / [`validate_metrics_jsonl`] / [`parse_snapshot`] —
//!   the pinned JSONL snapshot format (`docs/metrics.schema.json`),
//!   validated with the same fail-closed engine as the trace schema.
//! * [`render_report`] — the `dprle metrics-report` renderer: entries ranked
//!   by their headline cost (counter value, gauge peak, histogram sum).
//!
//! ## Determinism
//!
//! Budget checks are applied only at deterministic points: the
//! per-operation product-state cap inside the generalized concat-intersect
//! depends only on the operand machines, and the cumulative checks run at
//! each entry of the worklist's FIFO. The one exception is
//! [`Budget::deadline`], which is wall-clock by nature and documented as
//! nondeterministic.

use crate::schema::{self, Json};
use crate::solve::SolveStats;
use std::fmt;
use std::time::Duration;

pub use dprle_automata::metrics::{
    id, MetricDef, MetricEntry, MetricKind, MetricValue, Metrics, MetricsSnapshot, METRIC_DEFS,
};

/// The JSON Schema (draft-07 subset) pinning the metrics snapshot JSONL
/// format; the file ships at `docs/metrics.schema.json`.
pub const METRICS_SCHEMA: &str = include_str!("../../../docs/metrics.schema.json");

/// The `schema` tag stamped into every snapshot's `Meta` line.
pub const METRICS_SCHEMA_TAG: &str = "dprle-metrics-v1";

/// Resource limits for one solve. `Default` is fully unlimited.
///
/// Limits are checked against the *driver-accumulated* totals (see the
/// module docs), except `deadline`, which is wall-clock and therefore
/// inherently nondeterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Cap on the cumulative number of states *kept* across group solving
    /// and the reduce phase (the states a run holds live, as opposed to the
    /// product states it merely explores).
    pub max_live_states: Option<u64>,
    /// Cap on the cumulative number of product states explored by
    /// intersection constructions (paper §3.5: the product of an `n`-state
    /// and an `m`-state machine explores up to `n·m` states). Also applied
    /// *per operation*: a single intersection aborts the moment it would
    /// materialize more than this many pairs.
    pub max_product_states: Option<u64>,
    /// Wall-clock limit for the whole solve, checked between worklist
    /// entries and inside the inclusion searches of gci, of the
    /// variable-free constraints' check and of verification, all measured
    /// from one start instant per solve. Nondeterministic by nature.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// True when no limit is set (the default): the budget machinery is
    /// bypassed entirely.
    pub fn is_unlimited(&self) -> bool {
        self.max_live_states.is_none()
            && self.max_product_states.is_none()
            && self.deadline.is_none()
    }
}

/// Which [`Budget`] limit a [`ResourceExhausted`] breached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `Budget::max_product_states`.
    ProductStates,
    /// `Budget::max_live_states`.
    LiveStates,
    /// `Budget::deadline`.
    Deadline,
}

impl BudgetKind {
    /// Stable kebab-case name, used in error messages and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::ProductStates => "product-states",
            BudgetKind::LiveStates => "live-states",
            BudgetKind::Deadline => "deadline",
        }
    }
}

/// A solve stopped because a [`Budget`] limit was breached.
///
/// For [`BudgetKind::Deadline`], `limit` and `observed` are microseconds;
/// for the state kinds they are state counts. `stats` holds the counters
/// accumulated up to the breach (always available); `snapshot` holds the
/// full metrics registry, present only when metrics were enabled.
#[derive(Clone, Debug)]
pub struct ResourceExhausted {
    /// The limit that was breached.
    pub kind: BudgetKind,
    /// The configured bound.
    pub limit: u64,
    /// The observed value that tripped the bound. For
    /// [`BudgetKind::ProductStates`] breaches raised by a capped
    /// intersection this is the cap itself: the construction aborts *before*
    /// exceeding it, so at most `limit` product states were materialized.
    pub observed: u64,
    /// Full registry snapshot at the breach, when metrics were enabled.
    pub snapshot: Option<MetricsSnapshot>,
    /// Solve counters accumulated up to the breach.
    pub stats: SolveStats,
}

impl fmt::Display for ResourceExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = match self.kind {
            BudgetKind::Deadline => "us",
            BudgetKind::ProductStates | BudgetKind::LiveStates => "states",
        };
        write!(
            f,
            "resource budget exhausted: {} limit {} {unit} reached (observed {})",
            self.kind.name(),
            self.limit,
            self.observed
        )
    }
}

impl std::error::Error for ResourceExhausted {}

/// Validates a metrics JSONL snapshot against [`METRICS_SCHEMA`]. Returns
/// the number of validated lines. Fail-closed: unknown fields, missing
/// required fields, and type mismatches are all errors.
pub fn validate_metrics_jsonl(jsonl: &str) -> Result<usize, String> {
    schema::validate_jsonl(METRICS_SCHEMA, jsonl)
}

/// Parses a metrics JSONL snapshot (the `--metrics-format json` output)
/// back into a [`MetricsSnapshot`]. The leading `Meta` line is checked for
/// the [`METRICS_SCHEMA_TAG`] schema tag and the entry count.
pub fn parse_snapshot(jsonl: &str) -> Result<MetricsSnapshot, String> {
    let mut lines = jsonl.lines().filter(|l| !l.trim().is_empty());
    let meta_line = lines.next().ok_or("empty metrics snapshot")?;
    let meta = Json::parse(meta_line)?;
    let meta = meta.as_object().ok_or("Meta line is not an object")?;
    match schema::get_str(meta, "kind")? {
        "Meta" => {}
        other => return Err(format!("first line has kind {other:?}, expected \"Meta\"")),
    }
    let tag = schema::get_str(meta, "schema")?;
    if tag != METRICS_SCHEMA_TAG {
        return Err(format!(
            "schema tag {tag:?} does not match {METRICS_SCHEMA_TAG:?}"
        ));
    }
    let declared = schema::get_u64(meta, "entries")?;
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        let entry = parse_entry(line).map_err(|e| format!("line {}: {e}", i + 2))?;
        entries.push(entry);
    }
    if entries.len() as u64 != declared {
        return Err(format!(
            "Meta declares {declared} entries but the snapshot has {}",
            entries.len()
        ));
    }
    Ok(MetricsSnapshot { entries })
}

fn parse_entry(line: &str) -> Result<MetricEntry, String> {
    let json = Json::parse(line)?;
    let obj = json.as_object().ok_or("metric line is not an object")?;
    let name = schema::get_str(obj, "name")?.to_string();
    let help = schema::get_str(obj, "help")?.to_string();
    let value = match schema::get_str(obj, "kind")? {
        "Counter" => MetricValue::Counter {
            value: schema::get_u64(obj, "value")?,
        },
        "Gauge" => MetricValue::Gauge {
            value: schema::get_u64(obj, "value")?,
            peak: schema::get_u64(obj, "peak")?,
        },
        "Histogram" => {
            let buckets = schema::lookup(obj, "buckets")
                .and_then(Json::as_array)
                .ok_or("histogram is missing a buckets array")?
                .iter()
                .map(|b| b.as_u64().ok_or("bucket count is not an integer"))
                .collect::<Result<Vec<u64>, _>>()?;
            MetricValue::Histogram {
                count: schema::get_u64(obj, "count")?,
                sum: schema::get_u64(obj, "sum")?,
                buckets,
            }
        }
        other => return Err(format!("unknown metric kind {other:?}")),
    };
    Ok(MetricEntry { name, help, value })
}

/// Renders the `dprle metrics-report` table: the top `k` entries ranked by
/// their headline cost ([`MetricEntry::headline`]), with the shape-specific
/// detail column. Ties rank by name so the output is deterministic.
pub fn render_report(snapshot: &MetricsSnapshot, k: usize) -> String {
    let mut ranked: Vec<&MetricEntry> = snapshot.entries.iter().collect();
    ranked.sort_by(|a, b| {
        b.headline()
            .cmp(&a.headline())
            .then_with(|| a.name.cmp(&b.name))
    });
    ranked.truncate(k);
    let name_width = ranked
        .iter()
        .map(|e| e.name.len())
        .max()
        .unwrap_or(4)
        .max("metric".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>12}  detail\n",
        "metric",
        "cost",
        width = name_width
    ));
    for entry in &ranked {
        let detail = match &entry.value {
            MetricValue::Counter { .. } => "counter".to_string(),
            MetricValue::Gauge { value, peak } => {
                format!("gauge last={value} peak={peak}")
            }
            MetricValue::Histogram { count, sum, .. } => {
                let mean = if *count == 0 { 0 } else { sum / count };
                format!("histogram n={count} mean={mean}")
            }
        };
        out.push_str(&format!(
            "{:<width$}  {:>12}  {detail}\n",
            entry.name,
            entry.headline(),
            width = name_width
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Metrics {
        let metrics = Metrics::enabled();
        metrics.add(id::INTERSECT_PRODUCTS, 120);
        metrics.observe(id::INTERSECT_EXPLORED, 120);
        metrics.gauge_set(id::WORKLIST_DEPTH, 3);
        metrics.gauge_set(id::WORKLIST_DEPTH, 1);
        metrics
    }

    #[test]
    fn snapshot_round_trips_through_jsonl() {
        let metrics = sample_registry();
        let snapshot = metrics.snapshot().expect("enabled registry snapshots");
        let jsonl = snapshot.to_jsonl(1234);
        let lines = validate_metrics_jsonl(&jsonl).expect("snapshot validates");
        assert_eq!(lines, snapshot.len() + 1, "entries plus the Meta line");
        let parsed = parse_snapshot(&jsonl).expect("snapshot parses back");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn parse_rejects_wrong_schema_tag_and_bad_counts() {
        let metrics = sample_registry();
        let jsonl = metrics.snapshot().unwrap().to_jsonl(0);
        let bad_tag = jsonl.replacen(METRICS_SCHEMA_TAG, "dprle-metrics-v0", 1);
        assert!(parse_snapshot(&bad_tag).unwrap_err().contains("schema tag"));
        let truncated: String = jsonl.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(parse_snapshot(&truncated).unwrap_err().contains("declares"));
        assert!(parse_snapshot("").is_err());
    }

    #[test]
    fn report_ranks_by_headline_cost() {
        let metrics = sample_registry();
        let snapshot = metrics.snapshot().unwrap();
        let report = render_report(&snapshot, 3);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 4, "header plus top 3");
        assert!(
            lines[1].starts_with("automata.intersect.explored_states")
                || lines[1].starts_with("automata.intersect.products"),
            "the 120-cost entries rank first: {report}"
        );
        // Ties (both 120) break by name: explored_states < products.
        assert!(lines[1].starts_with("automata.intersect.explored_states"));
        assert!(lines[2].starts_with("automata.intersect.products"));
    }

    #[test]
    fn budget_reports_unlimited_only_when_empty() {
        assert!(Budget::default().is_unlimited());
        let b = Budget {
            max_product_states: Some(10),
            ..Budget::default()
        };
        assert!(!b.is_unlimited());
        let d = Budget {
            deadline: Some(Duration::from_millis(5)),
            ..Budget::default()
        };
        assert!(!d.is_unlimited());
    }

    #[test]
    fn exhausted_error_displays_kind_and_numbers() {
        let err = ResourceExhausted {
            kind: BudgetKind::ProductStates,
            limit: 100,
            observed: 100,
            snapshot: None,
            stats: SolveStats::default(),
        };
        let msg = err.to_string();
        assert!(msg.contains("product-states"), "{msg}");
        assert!(msg.contains("100"), "{msg}");
        let deadline = ResourceExhausted {
            kind: BudgetKind::Deadline,
            limit: 5000,
            observed: 6200,
            snapshot: None,
            stats: SolveStats::default(),
        };
        assert!(deadline.to_string().contains("us"), "{deadline}");
    }
}
