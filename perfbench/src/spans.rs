//! Exclusive (self) time per phase, computed from the solver's existing
//! trace spans: a span's self time is its duration minus the durations of
//! the spans whose `parent` is it.

use dprle_core::{TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, HashMap};

/// One closed span with its inclusive and exclusive time.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanTime {
    /// Phase name (`solve`, `reduce`, `gci`, `enumerate`, `minimize`, …).
    pub phase: String,
    /// Enclosing span id (`0` = a root).
    pub parent: u64,
    /// Inclusive duration, µs.
    pub total_us: u64,
    /// Duration no child span covers, µs.
    pub self_us: u64,
    /// Whether the children's durations summed past this span's — never
    /// true for a well-nested, single-threaded trace.
    pub overrun: bool,
}

/// Pairs `SpanStart`/`SpanEnd` events and subtracts each span's children.
/// Unclosed spans are dropped.
pub fn span_times(events: &[TraceEvent]) -> Vec<SpanTime> {
    let mut open: HashMap<u64, (String, u64, u64)> = HashMap::new();
    let mut closed: BTreeMap<u64, (String, u64, u64)> = BTreeMap::new();
    for event in events {
        match &event.kind {
            TraceEventKind::SpanStart {
                span,
                parent,
                phase,
                ..
            } => {
                open.insert(*span, (phase.clone(), *parent, event.ts_us));
            }
            TraceEventKind::SpanEnd { span, .. } => {
                if let Some((phase, parent, start)) = open.remove(span) {
                    closed.insert(*span, (phase, parent, event.ts_us.saturating_sub(start)));
                }
            }
            _ => {}
        }
    }
    let mut children_us: HashMap<u64, u64> = HashMap::new();
    for (parent, total) in closed.values().map(|(_, p, t)| (*p, *t)) {
        *children_us.entry(parent).or_default() += total;
    }
    closed
        .iter()
        .map(|(span, (phase, parent, total))| {
            let children = children_us.get(span).copied().unwrap_or(0);
            SpanTime {
                phase: phase.clone(),
                parent: *parent,
                total_us: *total,
                self_us: total.saturating_sub(children),
                overrun: children > *total,
            }
        })
        .collect()
}

/// Self time summed per phase over many ops.
#[derive(Clone, Debug, Default)]
pub struct PhaseTotals {
    /// Phase → summed self time, µs.
    pub self_us: BTreeMap<String, u64>,
    /// Summed duration of the root spans (no parent), µs.
    pub root_us: u64,
    /// Spans whose children overran them.
    pub overruns: u64,
}

impl PhaseTotals {
    /// Folds one op's trace into the totals.
    pub fn add(&mut self, events: &[TraceEvent]) {
        for s in span_times(events) {
            if s.parent == 0 {
                self.root_us += s.total_us;
            }
            self.overruns += u64::from(s.overrun);
            *self.self_us.entry(s.phase).or_default() += s.self_us;
        }
    }

    /// Summed self time of `phase`, µs.
    pub fn self_of(&self, phase: &str) -> u64 {
        self.self_us.get(phase).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(ts_us: u64, span: u64, parent: u64, phase: &str) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_us,
            request_id: None,
            kind: TraceEventKind::SpanStart {
                span,
                parent,
                phase: phase.to_owned(),
                node: None,
                group: None,
            },
        }
    }

    fn end(ts_us: u64, span: u64, phase: &str) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_us,
            request_id: None,
            kind: TraceEventKind::SpanEnd {
                span,
                phase: phase.to_owned(),
            },
        }
    }

    /// solve[0,100] ⊃ reduce[5,25] ⊃ minimize[10,20]; gci[30,90] ⊃
    /// enumerate[31,70], minimize[71,80]; verify[91,99].
    fn nested() -> Vec<TraceEvent> {
        vec![
            start(0, 1, 0, "solve"),
            start(5, 2, 1, "reduce"),
            start(10, 3, 2, "minimize"),
            end(20, 3, "minimize"),
            end(25, 2, "reduce"),
            start(30, 4, 1, "gci"),
            start(31, 5, 4, "enumerate"),
            end(70, 5, "enumerate"),
            start(71, 6, 4, "minimize"),
            end(80, 6, "minimize"),
            end(90, 4, "gci"),
            start(91, 7, 1, "verify"),
            end(99, 7, "verify"),
            end(100, 1, "solve"),
        ]
    }

    #[test]
    fn children_never_exceed_their_parent_and_self_times_sum_to_the_root() {
        let spans = span_times(&nested());
        assert_eq!(spans.len(), 7);
        assert!(spans.iter().all(|s| !s.overrun));
        let root = spans.iter().find(|s| s.parent == 0).expect("root span");
        assert_eq!(root.total_us, 100);
        assert_eq!(spans.iter().map(|s| s.self_us).sum::<u64>(), root.total_us);
        let mut totals = PhaseTotals::default();
        totals.add(&nested());
        assert_eq!(totals.self_of("solve"), 100 - 20 - 60 - 8);
        assert_eq!(totals.self_of("reduce"), 10);
        assert_eq!(totals.self_of("gci"), 60 - 39 - 9);
        assert_eq!(totals.self_of("minimize"), 10 + 9);
        assert_eq!(totals.self_of("enumerate"), 39);
        assert_eq!(totals.root_us, 100);
        assert_eq!(totals.overruns, 0);
    }

    #[test]
    fn overlapping_children_are_flagged_not_negative() {
        let events = vec![
            start(0, 1, 0, "gci"),
            start(1, 2, 1, "enumerate"),
            end(9, 2, "enumerate"),
            start(2, 3, 1, "minimize"),
            end(8, 3, "minimize"),
            end(10, 1, "gci"),
        ];
        let spans = span_times(&events);
        let gci = spans.iter().find(|s| s.phase == "gci").expect("gci");
        assert!(gci.overrun);
        assert_eq!(gci.self_us, 0);
    }

    #[test]
    fn a_real_solve_trace_attributes_all_of_its_root() {
        use dprle_automata::LangStore;
        use dprle_core::{solve_traced, CollectSink, SolveOptions, Tracer};
        use std::sync::Arc;
        let system = dprle_corpus::scaling::multi_group_system(2, 2);
        let sink = Arc::new(CollectSink::new());
        let _ = solve_traced(
            &system,
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::new(sink.clone()),
        );
        let events = sink.take();
        let spans = span_times(&events);
        assert!(spans.iter().all(|s| !s.overrun), "{spans:?}");
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.total_us)
            .sum();
        assert!(spans.iter().any(|s| s.phase == "gci"));
        assert_eq!(spans.iter().map(|s| s.self_us).sum::<u64>(), roots);
    }
}
