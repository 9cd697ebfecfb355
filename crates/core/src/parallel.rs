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
//!   of a memo slot (identified by [`MemoIdentity`]; a fingerprint's slot
//!   is its machine's structure) in replay order is the miss — provided the
//!   slot was computed during this level at all; slots computed in earlier
//!   levels or pre-populated by earlier solves are hits everywhere, in both
//!   runs, and so is every lookup of a handle keyed before the level;
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
// `Hash`/`Eq` go through the handle's address or immutable machine and
// immutable `Arc<CanonicalKey>`s only, never through the mutable cell.
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
    cap_hit_breach, charge_entry_cost, check_deadline, finish_branch, verification_keys, Breach,
    BudgetTrack, SolveOptions, SolveStats,
};
use crate::spec::{Constraint, System};
use crate::trace::{TraceEvent, TraceEventKind, Tracer};
use dprle_automata::{
    CanonicalKey, InclusionQuery, Lang, LangStore, MemoIdentity, StoreObserver, StoreOp, StoreScope,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// The [`StoreObserver`] of a traced or ledgered solve's [`StoreScope`]:
/// it emits `MemoHit`/`MemoMiss` to the thread's active worker buffer when
/// one is installed, and to the main tracer otherwise (sequential runs,
/// the reduce phase).
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

fn memo_kind(op: String, hit: bool) -> TraceEventKind {
    if hit {
        TraceEventKind::MemoHit { op }
    } else {
        TraceEventKind::MemoMiss { op }
    }
}

impl StoreObserver for RoutedStoreObserver {
    fn memo_event(&self, op: StoreOp, identity: Option<&MemoIdentity>, hit: bool) {
        WORKER_SLOT.with(|slot| match &*slot.borrow() {
            Some((tracer, ids)) => {
                ids.borrow_mut().push(identity.cloned());
                tracer.emit(|| memo_kind(op.name().to_owned(), hit));
            }
            None => self.main.emit(|| memo_kind(op.name().to_owned(), hit)),
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
    // The spawner's store scope is thread-local, so it does not propagate
    // into the pool on its own: capture it here and install it once per
    // worker, so the workers' store work is counted in it and reported to
    // its observer. Counts are adds that commute, so totals stay
    // byte-identical at every jobs count.
    let store_scope = StoreScope::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _scope_guard = store_scope.clone().map(StoreScope::install);
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

fn finish_level_entry(
    ctx: &WorklistCtx<'_>,
    verify_keys: &[Option<Arc<CanonicalKey>>],
    partial: &BTreeMap<NodeId, Lang>,
) -> FinishOutcome {
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
        verify_keys,
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

/// One level's memo-outcome replay: rewrites each entry's buffered
/// outcomes to the ones the sequential run observes.
///
/// For a slot computed (missed) anywhere in the level, the first touch in
/// replay order is the miss and every later touch a hit. A slot absent
/// from that set was computed in an earlier level or by an earlier solve,
/// and every run hits it. Slot-less events (pass-through stores) keep
/// their recorded outcome: with no cache, every operation deterministically
/// misses.
///
/// A fingerprint slot is a machine structure, which handles keyed before
/// this level do not enter: their own caches answer them in every run.
/// So only the first touch of a handle keyed in this level is a touch of
/// its structure; which entry keyed it first depends on scheduling, but
/// the handle's first touch in replay order is where the sequential run
/// keys it.
#[derive(Default)]
struct MemoReplay {
    computed: HashSet<MemoIdentity>,
    /// Addresses of the handles keyed in this level.
    keyed: HashSet<usize>,
    seen: HashSet<MemoIdentity>,
    seen_handles: HashSet<usize>,
}

impl MemoReplay {
    /// Collects the level's computed slots and keyed handles.
    fn collect<'a>(
        items: impl Iterator<Item = (&'a [TraceEvent], &'a [Option<MemoIdentity>])>,
    ) -> MemoReplay {
        let mut replay = MemoReplay::default();
        for (events, ids) in items {
            let outcomes = events.iter().filter_map(|event| match event.kind {
                TraceEventKind::MemoMiss { .. } => Some(false),
                TraceEventKind::MemoHit { .. } => Some(true),
                _ => None,
            });
            for (hit, id) in outcomes.zip(ids) {
                let Some(id) = id else { continue };
                if let MemoIdentity::Fingerprint {
                    handle,
                    keyed: true,
                    ..
                } = id
                {
                    replay.keyed.insert(handle.handle_addr());
                }
                if !hit {
                    replay.computed.insert(id.clone());
                }
            }
        }
        replay
    }

    /// Replays one entry's buffered events into the parent journal with
    /// their sequential outcomes.
    fn replay(
        &mut self,
        parent: &Tracer,
        mut events: Vec<TraceEvent>,
        ids: &[Option<MemoIdentity>],
    ) {
        let mut ids = ids.iter();
        for event in &mut events {
            let op = match &event.kind {
                TraceEventKind::MemoHit { op } | TraceEventKind::MemoMiss { op } => op.clone(),
                _ => continue,
            };
            let Some(Some(id)) = ids.next() else { continue };
            let hit = match id {
                MemoIdentity::Fingerprint { handle, .. }
                    if !self.keyed.contains(&handle.handle_addr())
                        || !self.seen_handles.insert(handle.handle_addr()) =>
                {
                    true
                }
                _ => !self.computed.contains(id) || !self.seen.insert(id.clone()),
            };
            event.kind = memo_kind(op, hit);
        }
        parent.absorb_events(events);
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
        let mut memo = MemoReplay::collect(
            results
                .iter()
                .map(|r| (r.events.as_slice(), r.ids.as_slice())),
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
        let mut next: Vec<BTreeMap<NodeId, Lang>> = Vec::new();
        for (partial, result) in level.iter().zip(results) {
            sim_len -= 1;
            metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);
            check_deadline(ctx.options, track)?;
            memo.replay(ctx.tracer, result.events, &result.ids);
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

    // Completion level: convert and filter every surviving branch. The
    // verification keys are looked up here, on this thread, where the
    // sequential loop looks them up: as its first branch completes. Branch
    // completion then performs no store operations, so running branches
    // past `max_assignments` speculatively costs wall time on the workers
    // but cannot perturb any counter — the truncated replay below discards
    // everything past the cap, matching the sequential early exit.
    if level.is_empty() {
        return Ok(Vec::new());
    }
    check_deadline(ctx.options, track)?;
    let verify_keys =
        verification_keys(ctx.options, ctx.store, ctx.original, ctx.verify_constraints);
    let results = map_level(jobs, level.len(), |i| {
        finish_level_entry(ctx, &verify_keys, &level[i])
    });
    let mut memo = MemoReplay::collect(
        results
            .iter()
            .map(|r| (r.events.as_slice(), r.ids.as_slice())),
    );
    let mut ledger_costs = HashMap::new();
    collect_computed_costs(
        results.iter().map(|r| r.ledger.as_slice()),
        &mut ledger_costs,
    );
    let mut ledger_seen = HashSet::new();
    let mut produced: Vec<Assignment> = Vec::new();
    for result in results {
        sim_len = sim_len.saturating_sub(1);
        metrics.gauge_set(id::WORKLIST_DEPTH, sim_len as u64);
        check_deadline(ctx.options, track)?;
        stats.branches_completed += 1;
        memo.replay(ctx.tracer, result.events, &result.ids);
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

    /// One buffered entry of fingerprint lookups: `(handle, keyed, hit)`.
    fn entry(lookups: &[(&Lang, bool, bool)]) -> (Vec<TraceEvent>, Vec<Option<MemoIdentity>>) {
        lookups
            .iter()
            .map(|&(handle, keyed, hit)| {
                let event = TraceEvent {
                    seq: 0,
                    ts_us: 0,
                    request_id: None,
                    kind: memo_kind("fingerprint".to_owned(), hit),
                };
                let identity = MemoIdentity::Fingerprint {
                    handle: handle.clone(),
                    // One machine, so one structure slot for all handles.
                    structure: Some(7),
                    keyed,
                };
                (event, Some(identity))
            })
            .unzip()
    }

    /// Replays entries in order and returns each lookup's outcome.
    fn replayed(entries: Vec<(Vec<TraceEvent>, Vec<Option<MemoIdentity>>)>) -> Vec<bool> {
        let mut memo = MemoReplay::collect(
            entries
                .iter()
                .map(|(events, ids)| (events.as_slice(), ids.as_slice())),
        );
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        for (events, ids) in entries {
            memo.replay(&tracer, events, &ids);
        }
        sink.take()
            .into_iter()
            .map(|event| matches!(event.kind, TraceEventKind::MemoHit { .. }))
            .collect()
    }

    #[test]
    fn replay_keys_a_structure_at_its_first_keying_touch() {
        let machine = dprle_automata::Nfa::literal(b"ab");
        let (keyed_before, fresh) = (Lang::new(machine.clone()), Lang::new(machine.clone()));
        // A handle keyed before the level answers from its own cache, so
        // it does not enter the structure: the fresh handle still misses,
        // whichever entry ran first.
        let outcomes = replayed(vec![
            entry(&[(&keyed_before, false, true)]),
            entry(&[(&fresh, true, false)]),
        ]);
        assert_eq!(outcomes, [true, false]);
        // One handle keyed in this level by the later entry: the earlier
        // entry's cache hit is where the sequential run keys it.
        let shared = Lang::new(machine);
        let outcomes = replayed(vec![
            entry(&[(&shared, false, true)]),
            entry(&[(&shared, true, false), (&fresh, true, true)]),
        ]);
        assert_eq!(outcomes, [false, true, true]);
    }

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
    fn stats_match_under_max_assignments_cap() {
        // Completion runs past the cap on the workers and is truncated in
        // replay, so it must touch no store: the verification keys are
        // looked up before it, as the sequential loop looks them up.
        let stats = |jobs| {
            let opts = SolveOptions {
                jobs,
                max_assignments: Some(1),
                ..SolveOptions::default()
            };
            let store = LangStore::new();
            solve_traced(&branching_system(), &opts, &store, &Tracer::disabled())
                .1
                .counter_fields()
        };
        let baseline = stats(1);
        for jobs in [4, 8] {
            assert_eq!(stats(jobs), baseline, "jobs={jobs}");
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
