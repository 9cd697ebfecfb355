//! Branch-parallel worklist exploration with a deterministic merge.
//!
//! The sequential worklist (Figure 7; [`solve`](crate::solve())) is strictly
//! *level-synchronous*: every queue entry at group index `g` is processed
//! before any entry at `g + 1`, because each pop enqueues only `g + 1`
//! children at the back of a FIFO queue. Within a level the entries are
//! independent partial assignments over disjoint CI-groups, so they can run
//! on any thread in any order — the only shared mutable state is the
//! [`LangStore`] memo layer, which is internally synchronized and
//! *value-deterministic*: every memo slot's representative is the same value
//! no matter which thread computes it first (minimization is canonical per
//! language, see [`dprle_automata::minimize()`], and products of deterministic
//! operands are deterministic).
//!
//! This module exploits that: each level's entries are distributed to a
//! scoped thread pool (workers pull the next branch from a shared cursor —
//! a single shared deque, so the load balances like work stealing without
//! per-thread queues), and the results are then **replayed in the
//! sequential order** (the lexicographic order of branch paths, which is
//! exactly the order entries occupy within a level). The replay:
//!
//! - appends each entry's buffered trace events to the parent journal in
//!   order ([`Tracer::fork_buffered`] / [`Tracer::absorb_events`]), so span
//!   ids and sequence numbers match the sequential run exactly;
//! - rewrites each buffered `MemoHit`/`MemoMiss` outcome to the outcome the
//!   *sequential* run would have observed: within a level, the first touch
//!   of a memo slot (identified by [`MemoIdentity`]) in replay order is the
//!   miss — provided the slot was computed during this level at all; slots
//!   computed in earlier levels or pre-populated by earlier solves are hits
//!   everywhere, in both runs;
//! - accumulates the branch counters and re-simulates the sequential
//!   queue-length trajectory, so `peak_worklist` and the `depth` field of
//!   `WorklistBranch` events are scheduling-independent;
//! - applies `max_assignments` by truncating the replay of the final
//!   (branch-completion) level, discarding the speculative work past the
//!   cap — completing a branch touches no memo state, so the speculation
//!   never leaks into the stats.
//!
//! The result: solutions, statistics, and trace journals are byte-identical
//! to the sequential solver's (timestamps aside) for every thread count.
//! The `determinism` CI job and `tests/parallel_determinism.rs` enforce
//! this equivalence on the full corpus.

// `HashSet<MemoIdentity>` trips clippy's `mutable_key_type`: a
// `MemoIdentity` holds a `Lang`, whose interior fingerprint cache is a
// `OnceLock`. The lint is a false positive here — `MemoIdentity`'s
// `Hash`/`Eq` go through the handle *address* and immutable
// `Arc<CanonicalKey>`s only, never through the mutable cell.
#![allow(clippy::mutable_key_type)]

use crate::gci::{solve_group, GroupOutcome, ProductCapHit};
use crate::graph::{CiGroup, DependencyGraph, NodeId};
use crate::ledger::{
    collect_computed_costs, draft_from_inclusion, replay_drafts, Ledger, LedgerDraft,
    LedgerSlotGuard,
};
use crate::metrics::id;
use crate::solution::{Assignment, Solution};
use crate::solve::{
    cap_hit_breach, charge_entry_cost, check_deadline, finish_branch, Breach, BudgetTrack,
    SolveOptions, SolveStats,
};
use crate::spec::{Constraint, System};
use crate::trace::{TraceEvent, TraceEventKind, Tracer};
use dprle_automata::{InclusionQuery, Lang, LangStore, MemoIdentity, StoreObserver, StoreOp};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A handle that runs the solver with a fixed worker count. Thin
/// convenience over [`SolveOptions::jobs`]: `ParallelSolver::new(n)` solves
/// exactly like [`solve`](crate::solve()) with `options.jobs = n` — same
/// solutions in the same order, same statistics, same trace journal
/// (timestamps aside). `new(1)` *is* the sequential solver.
#[derive(Clone, Copy, Debug)]
pub struct ParallelSolver {
    jobs: usize,
}

impl ParallelSolver {
    /// A solver driving the worklist with `jobs` worker threads (clamped to
    /// at least 1).
    pub fn new(jobs: usize) -> ParallelSolver {
        ParallelSolver { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Solves `system` with this solver's worker count (other options from
    /// `options`; its `jobs` field is overridden).
    pub fn solve(&self, system: &System, options: &SolveOptions) -> Solution {
        self.solve_with_stats(system, options).0
    }

    /// Like [`ParallelSolver::solve`], additionally returning statistics.
    pub fn solve_with_stats(
        &self,
        system: &System,
        options: &SolveOptions,
    ) -> (Solution, SolveStats) {
        let store = LangStore::interning(options.interning);
        self.solve_traced(system, options, &store, &Tracer::disabled())
    }

    /// Like [`solve_traced`](crate::solve_traced), with this solver's
    /// worker count.
    pub fn solve_traced(
        &self,
        system: &System,
        options: &SolveOptions,
        store: &LangStore,
        tracer: &Tracer,
    ) -> (Solution, SolveStats) {
        let mut options = options.clone();
        options.jobs = self.jobs;
        crate::solve::solve_traced(system, &options, store, tracer)
    }
}

/// Everything one worklist entry needs, borrowed from `solve_prepared`.
pub(crate) struct WorklistCtx<'a> {
    pub system: &'a System,
    pub graph: &'a DependencyGraph,
    pub groups: &'a [CiGroup],
    pub leaf: &'a BTreeMap<NodeId, Lang>,
    pub options: &'a SolveOptions,
    pub original: &'a System,
    pub verify_constraints: &'a [Constraint],
    pub store: &'a LangStore,
    pub tracer: &'a Tracer,
}

/// What one group-level entry produced: its group outcome (disjunctive
/// solutions plus deterministic cost, or a product-cap breach) plus the
/// trace events (and their memo-slot identities) buffered while computing
/// them. Costs and breaches are *charged* only at the entry's replay
/// position, so budget accounting is identical to the sequential run.
struct EntryOutcome {
    result: Result<GroupOutcome, ProductCapHit>,
    events: Vec<TraceEvent>,
    ids: Vec<Option<MemoIdentity>>,
    ledger: Vec<LedgerDraft>,
}

/// What one completed branch produced.
struct FinishOutcome {
    assignment: Option<Assignment>,
    events: Vec<TraceEvent>,
    ids: Vec<Option<MemoIdentity>>,
    ledger: Vec<LedgerDraft>,
}

// ---------------------------------------------------------------------
// Store-observer routing
// ---------------------------------------------------------------------

type IdBuffer = Rc<RefCell<Vec<Option<MemoIdentity>>>>;

thread_local! {
    /// The active worker slot: while a thread processes one worklist entry
    /// it routes memo events (and their slot identities) into the entry's
    /// private buffers instead of the parent tracer.
    static WORKER_SLOT: RefCell<Option<(Tracer, IdBuffer)>> = const { RefCell::new(None) };
}

/// A [`StoreObserver`] that emits `MemoHit`/`MemoMiss` to the thread's
/// active worker buffer when one is installed, and to the main tracer
/// otherwise. With no worker slots in play (sequential runs, the reduce
/// phase) this behaves exactly like
/// [`TracerStoreObserver`](crate::trace::TracerStoreObserver).
///
/// When the run carries an enabled [`Ledger`], the observer additionally
/// reports every answered inclusion query into it; the ledger does its own
/// worker-slot routing (see [`LedgerSlotGuard`]), mirroring the trace path.
pub(crate) struct RoutedStoreObserver {
    main: Tracer,
    ledger: Ledger,
}

impl RoutedStoreObserver {
    pub(crate) fn new(main: Tracer, ledger: Ledger) -> RoutedStoreObserver {
        RoutedStoreObserver { main, ledger }
    }
}

fn memo_kind(op: StoreOp, hit: bool) -> TraceEventKind {
    if hit {
        TraceEventKind::MemoHit {
            op: op.name().to_owned(),
        }
    } else {
        TraceEventKind::MemoMiss {
            op: op.name().to_owned(),
        }
    }
}

impl StoreObserver for RoutedStoreObserver {
    fn memo_event(&self, op: StoreOp, hit: bool) {
        self.memo_event_keyed(op, None, hit);
    }

    fn memo_event_keyed(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool) {
        WORKER_SLOT.with(|slot| match &*slot.borrow() {
            Some((tracer, ids)) => {
                ids.borrow_mut().push(identity.cloned());
                tracer.emit(|| memo_kind(op, hit));
            }
            None => self.main.emit(|| memo_kind(op, hit)),
        });
    }

    fn wants_queries(&self) -> bool {
        self.ledger.is_enabled()
    }

    fn inclusion_query(&self, query: &InclusionQuery<'_>) {
        self.ledger.record(|| draft_from_inclusion(query));
    }
}

/// Installs the worker slot for the duration of one entry; removes it on
/// drop (also on unwind, so a panicking worker cannot leak its slot into
/// later entries on the same thread).
struct SlotGuard;

impl SlotGuard {
    fn install(tracer: &Tracer, ids: &IdBuffer) -> Option<SlotGuard> {
        if !tracer.is_enabled() {
            return None;
        }
        WORKER_SLOT.with(|slot| {
            *slot.borrow_mut() = Some((tracer.clone(), ids.clone()));
        });
        Some(SlotGuard)
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        WORKER_SLOT.with(|slot| {
            *slot.borrow_mut() = None;
        });
    }
}

// ---------------------------------------------------------------------
// The level pool
// ---------------------------------------------------------------------

/// Runs `f(0..n)` on up to `jobs` scoped worker threads pulling indices
/// from a shared cursor, returning the results in index order. Falls back
/// to an inline loop when one worker (or one item) makes threads pointless.
fn map_level<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // The spawner's request-scoped stats scope is thread-local, so it does
    // not propagate into the pool on its own: capture it here and install
    // it once per worker. Scoped counters are atomic and adds commute, so
    // totals stay byte-identical at every jobs count.
    let stats_scope = dprle_automata::current_stats_scope();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _stats_guard = stats_scope.clone().map(dprle_automata::install_stats_scope);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = f(i);
                    *slots[i].lock().expect("level slot") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("level slot")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

fn solve_level_entry(ctx: &WorklistCtx<'_>, gi: usize) -> EntryOutcome {
    let (fork, sink) = ctx.tracer.fork_buffered();
    let ids: IdBuffer = Rc::default();
    let guard = SlotGuard::install(&fork, &ids);
    let ledger_guard = ctx
        .options
        .ledger
        .is_enabled()
        .then(LedgerSlotGuard::install);
    let result = {
        let _gci_span = fork.span("gci", None, Some(gi));
        solve_group(
            ctx.graph,
            &ctx.groups[gi],
            ctx.system,
            ctx.leaf,
            &ctx.options.gci,
            ctx.store,
            &fork,
        )
    };
    let ledger = ledger_guard
        .map(LedgerSlotGuard::finish)
        .unwrap_or_default();
    drop(guard);
    EntryOutcome {
        result,
        events: sink.map(|s| s.take()).unwrap_or_default(),
        ids: Rc::try_unwrap(ids)
            .map(RefCell::into_inner)
            .unwrap_or_default(),
        ledger,
    }
}

fn finish_level_entry(ctx: &WorklistCtx<'_>, partial: &BTreeMap<NodeId, Lang>) -> FinishOutcome {
    let (fork, sink) = ctx.tracer.fork_buffered();
    let ids: IdBuffer = Rc::default();
    let guard = SlotGuard::install(&fork, &ids);
    let ledger_guard = ctx
        .options
        .ledger
        .is_enabled()
        .then(LedgerSlotGuard::install);
    let assignment = finish_branch(
        ctx.system,
        ctx.graph,
        ctx.leaf,
        partial,
        ctx.options,
        ctx.original,
        ctx.verify_constraints,
        &fork,
        ctx.groups.len(),
    );
    let ledger = ledger_guard
        .map(LedgerSlotGuard::finish)
        .unwrap_or_default();
    drop(guard);
    FinishOutcome {
        assignment,
        events: sink.map(|s| s.take()).unwrap_or_default(),
        ids: Rc::try_unwrap(ids)
            .map(RefCell::into_inner)
            .unwrap_or_default(),
        ledger,
    }
}

// ---------------------------------------------------------------------
// Deterministic replay
// ---------------------------------------------------------------------

/// Collects the memo slots that were *computed* (actually missed) anywhere
/// in this level. A slot absent from this set was either computed in an
/// earlier level or pre-populated by an earlier solve — in both cases the
/// sequential run hits it too, so its events need no rewriting.
fn collect_computed<'a>(
    items: impl Iterator<Item = (&'a [TraceEvent], &'a [Option<MemoIdentity>])>,
    computed: &mut HashSet<MemoIdentity>,
) {
    for (events, ids) in items {
        let mut k = 0usize;
        for event in events {
            match &event.kind {
                TraceEventKind::MemoMiss { .. } => {
                    if let Some(Some(id)) = ids.get(k) {
                        computed.insert(id.clone());
                    }
                    k += 1;
                }
                TraceEventKind::MemoHit { .. } => k += 1,
                _ => {}
            }
        }
    }
}

/// Replays one entry's buffered events into the parent journal, rewriting
/// memo outcomes to the sequential ones: for each slot computed during
/// this level, the first touch in replay order becomes the miss and every
/// later touch a hit. Slot-less events (pass-through stores) keep their
/// recorded outcome — with no cache, every operation deterministically
/// misses.
fn replay_entry_events(
    parent: &Tracer,
    mut events: Vec<TraceEvent>,
    ids: &[Option<MemoIdentity>],
    computed: &HashSet<MemoIdentity>,
    seen: &mut HashSet<MemoIdentity>,
) {
    let mut k = 0usize;
    for event in &mut events {
        let op = match &event.kind {
            TraceEventKind::MemoHit { op } | TraceEventKind::MemoMiss { op } => op.clone(),
            _ => continue,
        };
        if let Some(Some(id)) = ids.get(k) {
            let hit = seen.contains(id) || !computed.contains(id);
            seen.insert(id.clone());
            event.kind = memo_kind_named(op, hit);
        }
        k += 1;
    }
    parent.absorb_events(events);
}

fn memo_kind_named(op: String, hit: bool) -> TraceEventKind {
    if hit {
        TraceEventKind::MemoHit { op }
    } else {
        TraceEventKind::MemoMiss { op }
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Drives the worklist with `jobs` workers, producing the assignments in
/// the sequential order and updating `stats` exactly as the sequential
/// loop would. Called from `solve_prepared` when `options.jobs > 1`.
///
/// Budget accounting happens at replay positions only, so breaches are
/// raised at the same worklist entry as in the sequential run. The workers
/// may already have computed (and recorded metrics for) level-mates of the
/// breaching entry — that speculative work is discarded here, but an
/// error-path metrics *snapshot* can include it (documented on
/// [`try_solve_traced`](crate::solve::try_solve_traced)).
pub(crate) fn drive_worklist(
    ctx: &WorklistCtx<'_>,
    jobs: usize,
    stats: &mut SolveStats,
    track: &mut BudgetTrack,
) -> Result<Vec<Assignment>, Breach> {
    let metrics = &ctx.options.metrics;
    // The simulated sequential queue length: one seed entry, then
    // `-1` per pop and `+1` per push, replayed in sequential order.
    let mut sim_len = 1usize;
    stats.peak_worklist = stats.peak_worklist.max(sim_len);
    metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);

    let mut level: Vec<BTreeMap<NodeId, Lang>> = vec![BTreeMap::new()];
    for gi in 0..ctx.groups.len() {
        if level.is_empty() {
            break; // every branch died; the sequential queue drains too
        }
        let results = map_level(jobs, level.len(), |_entry| solve_level_entry(ctx, gi));
        let mut computed = HashSet::new();
        collect_computed(
            results
                .iter()
                .map(|r| (r.events.as_slice(), r.ids.as_slice())),
            &mut computed,
        );
        // The ledger replay mirrors the trace replay exactly: per level,
        // gather the engine cost of every memo slot computed here, then
        // rewrite each entry's drafts in sequential order (first touch of
        // a level-computed slot = the miss, carrying its cost).
        let mut ledger_costs = HashMap::new();
        collect_computed_costs(
            results.iter().map(|r| r.ledger.as_slice()),
            &mut ledger_costs,
        );
        let mut ledger_seen = HashSet::new();
        let mut seen = HashSet::new();
        let mut next: Vec<BTreeMap<NodeId, Lang>> = Vec::new();
        for (partial, result) in level.iter().zip(results) {
            sim_len -= 1;
            metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);
            check_deadline(ctx.options, track)?;
            replay_entry_events(ctx.tracer, result.events, &result.ids, &computed, &mut seen);
            replay_drafts(
                &ctx.options.ledger,
                result.ledger,
                &ledger_costs,
                &mut ledger_seen,
            );
            let outcome = match result.result {
                Ok(outcome) => outcome,
                Err(hit) => {
                    stats.product_states += hit.cost.product_states;
                    metrics.add(id::SOLVE_PRODUCT_STATES, hit.cost.product_states);
                    return Err(cap_hit_breach(&hit, ctx.options, track));
                }
            };
            charge_entry_cost(&outcome.cost, ctx.options, stats, track)?;
            let disjuncts = outcome.solutions;
            if ctx.options.trace {
                stats.events.push(format!(
                    "group {} produced {} disjunctive solution(s)",
                    gi,
                    disjuncts.len()
                ));
            }
            stats.group_disjuncts += disjuncts.len();
            if disjuncts.is_empty() {
                ctx.tracer.emit(|| TraceEventKind::WorklistPrune {
                    group: gi,
                    reason: "group-unsat".to_owned(),
                });
            }
            for disjunct in disjuncts {
                let mut extended = partial.clone();
                extended.extend(disjunct);
                next.push(extended);
                sim_len += 1;
                stats.peak_worklist = stats.peak_worklist.max(sim_len);
                metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);
                ctx.tracer.emit(|| TraceEventKind::WorklistBranch {
                    group: gi,
                    depth: sim_len,
                });
            }
        }
        level = next;
    }

    // Completion level: convert and filter every surviving branch. Branch
    // completion performs no store operations, so running branches past
    // `max_assignments` speculatively costs wall time on the workers but
    // cannot perturb any counter — the truncated replay below discards
    // everything past the cap, matching the sequential early exit.
    let results = map_level(jobs, level.len(), |i| finish_level_entry(ctx, &level[i]));
    let mut computed = HashSet::new();
    collect_computed(
        results
            .iter()
            .map(|r| (r.events.as_slice(), r.ids.as_slice())),
        &mut computed,
    );
    let mut ledger_costs = HashMap::new();
    collect_computed_costs(
        results.iter().map(|r| r.ledger.as_slice()),
        &mut ledger_costs,
    );
    let mut ledger_seen = HashSet::new();
    let mut seen = HashSet::new();
    let mut produced: Vec<Assignment> = Vec::new();
    for result in results {
        sim_len = sim_len.saturating_sub(1);
        metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);
        check_deadline(ctx.options, track)?;
        stats.branches_completed += 1;
        replay_entry_events(ctx.tracer, result.events, &result.ids, &computed, &mut seen);
        replay_drafts(
            &ctx.options.ledger,
            result.ledger,
            &ledger_costs,
            &mut ledger_seen,
        );
        match result.assignment {
            Some(assignment) => {
                produced.push(assignment);
                if let Some(cap) = ctx.options.max_assignments {
                    if produced.len() >= cap {
                        break;
                    }
                }
            }
            None => stats.branches_filtered += 1,
        }
    }
    Ok(produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve_traced;
    use crate::spec::Expr;
    use crate::trace::CollectSink;
    use dprle_regex::Regex;
    use std::sync::Arc;

    /// Two branching CI-groups — the worklist genuinely fans out, so the
    /// journal exercises the buffered-fork replay (see the solve.rs tests
    /// for the sequential expectations on this system).
    fn branching_system() -> System {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let v3 = sys.var("v3");
        let v4 = sys.var("v4");
        let re = |p: &str| {
            Regex::new(p)
                .expect("pattern compiles")
                .exact_language()
                .clone()
        };
        let cx = sys.constant("cx", re("x(yy)+"));
        let cy = sys.constant("cy", re("(yy)*z"));
        let ct = sys.constant("ct", re("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), cx);
        sys.require(Expr::Var(v2), cy);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), ct);
        sys.require(Expr::Var(v3), cx);
        sys.require(Expr::Var(v4), cy);
        sys.require(Expr::Var(v3).concat(Expr::Var(v4)), ct);
        sys
    }

    /// Solves a fresh instance of the branching system at the given worker
    /// count and returns the journal as JSONL lines with timestamps zeroed
    /// (the only field scheduling may legitimately change).
    fn journal(jobs: usize, options: &SolveOptions) -> Vec<String> {
        let sys = branching_system();
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        let store = LangStore::interning(options.interning);
        let opts = SolveOptions {
            jobs,
            ..options.clone()
        };
        let _ = solve_traced(&sys, &opts, &store, &tracer);
        sink.take()
            .into_iter()
            .map(|mut e| {
                e.ts_us = 0;
                e.to_json()
            })
            .collect()
    }

    #[test]
    fn journals_are_byte_identical_across_thread_counts() {
        let opts = SolveOptions::default();
        let baseline = journal(1, &opts);
        assert!(
            baseline
                .iter()
                .any(|l| l.contains("\"kind\":\"WorklistBranch\"")),
            "system must branch for the test to mean anything"
        );
        assert!(
            baseline
                .iter()
                .any(|l| l.contains("\"kind\":\"MemoHit\"") || l.contains("\"kind\":\"MemoMiss\"")),
            "memo traffic must appear for the rewrite to be exercised"
        );
        for jobs in [2, 4, 8] {
            assert_eq!(journal(jobs, &opts), baseline, "jobs={jobs}");
        }
    }

    /// Solves a fresh instance of the branching system at the given worker
    /// count with the ledger enabled and returns the records as JSONL with
    /// `ts_us` zeroed (the only field scheduling may legitimately change).
    fn ledger_lines(jobs: usize, options: &SolveOptions) -> Vec<String> {
        let sys = branching_system();
        let sink = Arc::new(crate::ledger::CollectLedger::new());
        let opts = SolveOptions {
            jobs,
            ledger: Ledger::new(sink.clone()),
            ..options.clone()
        };
        let store = LangStore::interning(opts.interning);
        let _ = solve_traced(&sys, &opts, &store, &Tracer::disabled());
        sink.take()
            .into_iter()
            .map(|mut r| {
                r.ts_us = 0;
                r.to_json()
            })
            .collect()
    }

    #[test]
    fn ledgers_are_byte_identical_across_thread_counts() {
        let opts = SolveOptions::default();
        let baseline = ledger_lines(1, &opts);
        assert!(
            baseline
                .iter()
                .any(|l| l.contains("\"kind\":\"Inclusion\"")),
            "inclusion queries must appear for the test to mean anything"
        );
        assert!(
            baseline.iter().any(|l| l.contains("\"kind\":\"Product\"")),
            "product builds must appear for the test to mean anything"
        );
        assert!(
            baseline.iter().any(|l| l.contains("\"memo\":\"hit\""))
                && baseline.iter().any(|l| l.contains("\"memo\":\"miss\"")),
            "memo traffic must appear for the replay rewrite to be exercised"
        );
        for jobs in [2, 4, 8] {
            assert_eq!(ledger_lines(jobs, &opts), baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn journals_match_under_max_assignments_cap() {
        let opts = SolveOptions {
            max_assignments: Some(2),
            ..SolveOptions::default()
        };
        let baseline = journal(1, &opts);
        for jobs in [4, 8] {
            assert_eq!(journal(jobs, &opts), baseline, "jobs={jobs}");
        }
    }

    #[test]
    fn map_level_preserves_index_order() {
        let squares = map_level(4, 37, |i| i * i);
        assert_eq!(squares, (0..37).map(|i| i * i).collect::<Vec<_>>());
        let inline = map_level(1, 5, |i| i + 1);
        assert_eq!(inline, vec![1, 2, 3, 4, 5]);
        let empty: Vec<usize> = map_level(8, 0, |i| i);
        assert!(empty.is_empty());
    }
}
