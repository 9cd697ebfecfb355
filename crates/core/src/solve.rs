//! The worklist solver for general dependency graphs
//! (paper §3.4.2, Figure 7).
//!
//! Given a constraint [`System`], the solver:
//!
//! 1. desugars unions and builds the dependency graph (Figure 5);
//! 2. checks variable-free constraints directly (a constraint like
//!    `c₁·c₂ ⊆ c₃` either holds or the system is unsatisfiable — no
//!    branching can repair it);
//! 3. *reduces* plain variables — vertices with only inbound ⊆-edges — by
//!    NFA intersection in one pass (Figure 7, lines 3–8: `sort_acyclic_
//!    nodes` + `reduce`);
//! 4. pre-intersects the ⊆-constraints of variables that participate in
//!    concatenations (the *operation ordering* invariant: subsets before
//!    concats), then repeatedly applies the generalized concat-intersect
//!    procedure to each CI-group, maintaining a worklist of partial
//!    assignments that branches on disjunctive group solutions (Figure 7,
//!    lines 9–15);
//! 5. filters assignments per Figure 7's termination conditions (lines
//!    16–23): a branch in which some variable's language is empty is
//!    abandoned in favor of other worklist entries; if every branch dies
//!    the answer is "no assignments found".
//!
//! In the Figure 2 grammar distinct CI-groups share no vertices (a shared
//! variable joins its concatenations into one group), so the queue
//! processes groups in a fixed order and the set of complete assignments is
//! the merge of per-group disjuncts — the same set Figure 7 computes, with
//! the same branch-on-disjunction behavior.

use crate::gci::{abort_to_cap_hit, solve_group, GroupCost, ProductCapHit};
use crate::graph::{DependencyGraph, NodeId, NodeKind};
use crate::ledger::{
    bypass_inclusion_draft, draft_from_inclusion, Ledger, SITE_CONST_CHECK, SITE_VERIFY,
};
use crate::metrics::{id, Budget, BudgetKind, Metrics, ResourceExhausted};
use crate::solution::{Assignment, Solution};
use crate::spec::{Constraint, Expr, System, VarId};
use crate::trace::{TraceEventKind, Tracer};
use dprle_automata::{
    inclusion, ops, CanonicalKey, InclusionAbort, InclusionCost, InclusionLimits, InclusionQuery,
    Lang, LangStore, Nfa, StoreObserver, StoreOp, StoreScope,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Options controlling the solver.
#[derive(Clone, Debug)]
pub struct SolveOptions {
    /// Upper bound on the number of disjunctive solutions per CI-group;
    /// the worst case is exponential in the number of bridges (paper
    /// §3.5). It counts, per root, the candidates that leave every
    /// constant leaf whole, and then the merged combinations across roots.
    /// `None` means unbounded.
    pub max_disjuncts: Option<usize>,
    /// Re-verify every produced assignment against the original system and
    /// drop any that fail. The core algorithm's outputs satisfy by
    /// construction for variable leaves; verification additionally guards
    /// the constant-leaf checks (see `gci` module docs). Cost: one product
    /// walk against the right-hand constant's canonical key per distinct
    /// judgment per assignment: constraints repeated in the input are
    /// dropped first ([`System::normalized`]), and constraints whose sides
    /// hold the same handles are decided once (see [`satisfies`]). The
    /// keys are looked up once per solve, when the first branch completes;
    /// a constant that nothing keyed before is canonicalized then, unless
    /// that would build more than 8 192 DFA states, and a constant past
    /// that cap is verified by the antichain search instead. A
    /// variable-free constraint is not verified: the check that runs
    /// before reduce decided it, whatever the assignment.
    pub verify: bool,
    /// Stop after this many satisfying assignments (e.g. `Some(1)` for a
    /// "first solution" query — the paper notes the first solution can be
    /// produced without enumerating the rest, §3.5).
    pub max_assignments: Option<usize>,
    /// Rewrite constraints whose concatenation spine begins or ends with a
    /// *constant* by taking the universal quotient of the right-hand side:
    /// `C·e ⊆ c ⟺ e ⊆ {w | ∀u ∈ C, u·w ∈ c}` (and symmetrically on the
    /// right). An extension beyond the paper: the paper's algorithm treats
    /// constants as CI leaves, which is exact for the singleton string
    /// literals its front end produces but incomplete for multi-string
    /// constants (the induced sub-machine can never equal the whole
    /// constant); quotient stripping is exact for any regular constant.
    pub strip_constant_operands: bool,
    /// Ignored: every [`LangStore`] memoizes intersection, inclusion and
    /// minimization by canonical fingerprint. The field remains only
    /// because the `perfbench` benchmark still names it; ROADMAP item 1
    /// removes that reference, and this field goes with it.
    pub interning: bool,
    /// Ignored: every solve runs the one sequential Figure 7 worklist.
    /// The field remains only because the `perfbench` benchmark still
    /// names it; ROADMAP item 1 removes that reference, and this field
    /// goes with it.
    pub jobs: usize,
    /// Metrics registry the run records into (see
    /// [`metrics`](crate::metrics)). Disabled — a no-op handle — by
    /// default. Group solving records into it, and the entry points
    /// install it on the [`LangStore`], so automata-, store-, and
    /// solver-level costs all land in one registry.
    pub metrics: Metrics,
    /// Resource limits for the run. Breaches surface as a typed
    /// [`ResourceExhausted`] from [`try_solve_traced`]; the infallible
    /// entry points panic with a descriptive message instead of silently
    /// blowing up memory. Unlimited by default.
    pub budget: Budget,
    /// Query cost ledger for the run (see [`ledger`](crate::ledger)):
    /// every store inclusion query, every memo-bypassing `⊆` judgment
    /// (constant pre-check, verification), and every gci product emits
    /// one attributed cost record. Disabled — a no-op handle — by
    /// default; group solving records into it, and the entry points
    /// install a query-reporting store observer. Records are emitted in
    /// the order the queries are answered. Enabled on the CLI with
    /// `--ledger-out`.
    pub ledger: Ledger,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_disjuncts: Some(256),
            verify: true,
            max_assignments: None,
            strip_constant_operands: false,
            interning: true,
            jobs: 1,
            metrics: Metrics::disabled(),
            budget: Budget::default(),
            ledger: Ledger::disabled(),
        }
    }
}

/// Statistics from one solver run, for benchmarking and reporting (the
/// paper reasons about costs in machine sizes and solution counts; these
/// counters expose the same quantities).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[must_use = "solver statistics are the point of the *_with_stats entry points"]
pub struct SolveStats {
    /// Number of CI-groups the dependency graph contained.
    pub groups: usize,
    /// Total disjunctive group solutions produced across all `gci` calls.
    pub group_disjuncts: usize,
    /// Worklist branches that completed (reached the last group).
    pub branches_completed: usize,
    /// Assignments dropped by the nonemptiness/verification filters.
    pub branches_filtered: usize,
    /// Largest leaf machine (states) after the reduce phase.
    pub max_leaf_states: usize,
    /// Fingerprint lookups answered without canonicalizing: from a
    /// handle's cached canonical key or from the store's structure table
    /// (each hit is one determinize+minimize avoided).
    pub fingerprint_hits: usize,
    /// Fingerprint lookups that had to canonicalize a machine the store
    /// had not canonicalized: the minimal-DFA constructions the run
    /// performed, counting verification's capped constructions that gave
    /// up past their cap (see [`SolveOptions::verify`]).
    pub fingerprint_misses: usize,
    /// Memoized binary operations (intersection, inclusion, minimization)
    /// answered from the [`LangStore`] cache.
    pub memo_op_hits: usize,
    /// Memoized binary operations computed fresh.
    pub memo_op_misses: usize,
    /// Deepest the worklist of partial assignments ever got.
    pub peak_worklist: usize,
    /// Total NFA states of machines materialized by store-level operations.
    pub states_materialized: usize,
    /// Product states explored by the run's budget-relevant intersection
    /// constructions (the generalized concat-intersect builds — the paper's
    /// §3.5 quadratic term). Driver-accumulated from per-group costs, so it
    /// is available with metrics disabled.
    pub product_states: u64,
    /// Macrostates explored by the run's winning inclusion checks (see the
    /// [`inclusion`] module). Counted in the run's [`StoreScope`].
    pub inclusion_macrostates: u64,
    /// Growth of the store's memo byte footprint over this run (interned
    /// machines and memo table entries): the run's [`StoreScope`]
    /// `memo_bytes`, i.e. bytes this run's memo inserts charged minus
    /// bytes evicted during the run, so shared-store callers get this
    /// run's contribution only even under concurrent sessions; under a
    /// store byte cap eviction can outpace charging, in which case this
    /// saturates at zero rather than underflowing.
    pub peak_bytes: u64,
    /// Memo entries dropped by store LRU eviction during this run. Zero
    /// unless a `--store-max-bytes` cap is installed; nonzero values mean
    /// hit rates — never answers — were affected by cache pressure.
    pub store_evictions: u64,
}

impl SolveStats {
    /// Minimal-DFA canonicalizations performed — the cost the fingerprint
    /// cache exists to bound (each miss is one canonicalization).
    pub fn minimizations(&self) -> usize {
        self.fingerprint_misses
    }

    /// Every numeric counter as a `(name, value)` row, in display order.
    /// The single source of truth for stats reporting: the CLI's `--stats`
    /// output, the [`Display`](fmt::Display) impl, and the bench JSON all
    /// iterate this instead of hand-copying fields.
    pub fn counter_fields(&self) -> [(&'static str, u64); 15] {
        [
            ("groups", self.groups as u64),
            ("group-disjuncts", self.group_disjuncts as u64),
            ("branches-completed", self.branches_completed as u64),
            ("branches-filtered", self.branches_filtered as u64),
            ("max-leaf-states", self.max_leaf_states as u64),
            ("fingerprint-hits", self.fingerprint_hits as u64),
            ("fingerprint-misses", self.fingerprint_misses as u64),
            ("memo-op-hits", self.memo_op_hits as u64),
            ("memo-op-misses", self.memo_op_misses as u64),
            ("peak-worklist", self.peak_worklist as u64),
            ("states-materialized", self.states_materialized as u64),
            ("product-states", self.product_states),
            ("inclusion-macrostates", self.inclusion_macrostates),
            ("peak-bytes", self.peak_bytes),
            ("store-evictions", self.store_evictions),
        ]
    }

    /// Accumulates another run's counters into this one (summing totals,
    /// taking the max of the high-water marks) — for
    /// aggregating across the check-sats of one SMT script or the repeats
    /// of one benchmark row.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.groups += other.groups;
        self.group_disjuncts += other.group_disjuncts;
        self.branches_completed += other.branches_completed;
        self.branches_filtered += other.branches_filtered;
        self.max_leaf_states = self.max_leaf_states.max(other.max_leaf_states);
        self.fingerprint_hits += other.fingerprint_hits;
        self.fingerprint_misses += other.fingerprint_misses;
        self.memo_op_hits += other.memo_op_hits;
        self.memo_op_misses += other.memo_op_misses;
        self.peak_worklist = self.peak_worklist.max(other.peak_worklist);
        self.states_materialized += other.states_materialized;
        self.product_states += other.product_states;
        self.inclusion_macrostates += other.inclusion_macrostates;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.store_evictions += other.store_evictions;
    }
}

impl fmt::Display for SolveStats {
    /// One `name: value` line per counter, in [`SolveStats::counter_fields`]
    /// order (callers wanting a prefix — the CLI's `stats: ` — prepend it
    /// per line).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counter_fields() {
            writeln!(f, "{name}: {value}")?;
        }
        Ok(())
    }
}

/// Solves `system`, returning all disjunctive satisfying assignments (or
/// [`Solution::Unsat`]).
///
/// # Examples
///
/// The paper's §3.1.1 example — `v₁ ⊆ (xx)+y` and `v₁ ⊆ x*y`:
///
/// ```
/// use dprle_core::{solve, System, Expr, SolveOptions};
///
/// let mut sys = System::new();
/// let v1 = sys.var("v1");
/// let a = sys.constant_regex_exact("a", "(xx)+y")?;
/// let b = sys.constant_regex_exact("b", "x*y")?;
/// sys.require(Expr::Var(v1), a);
/// sys.require(Expr::Var(v1), b);
/// let solution = solve(&sys, &SolveOptions::default());
/// let x1 = solution.first().expect("satisfiable").get(v1).expect("assigned");
/// assert!(x1.contains(b"xxy"));      // in (xx)+y ∩ x*y
/// assert!(!x1.contains(b"xy"));      // not in (xx)+y
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn solve(system: &System, options: &SolveOptions) -> Solution {
    solve_with_stats(system, options).0
}

/// Like [`solve`], additionally returning run statistics.
pub fn solve_with_stats(system: &System, options: &SolveOptions) -> (Solution, SolveStats) {
    solve_with_store(system, options, &LangStore::new())
}

/// Like [`solve_with_stats`], but sharing a caller-supplied [`LangStore`]:
/// canonical keys and memoized operations survive across calls, which
/// is what makes re-solving related systems (unsat-core shrinking, the
/// check-sats of one SMT-LIB script, `dprle serve` sessions) cheap. The
/// returned counters are this call's own work.
pub fn solve_with_store(
    system: &System,
    options: &SolveOptions,
    store: &LangStore,
) -> (Solution, SolveStats) {
    solve_traced(system, options, store, &Tracer::disabled())
}

/// Like [`solve_with_store`], additionally recording a structured event
/// trace of the run (phase spans, reduce steps, CI-group disjuncts,
/// worklist decisions — see the [`trace`](crate::trace) module). The run's
/// [`StoreScope`] reports its memo-cache outcomes to the tracer as
/// `MemoHit`/`MemoMiss` events. A disabled tracer makes this identical to
/// [`solve_with_store`]: no event is ever constructed.
pub fn solve_traced(
    system: &System,
    options: &SolveOptions,
    store: &LangStore,
    tracer: &Tracer,
) -> (Solution, SolveStats) {
    match try_solve_traced(system, options, store, tracer) {
        Ok(result) => result,
        Err(exhausted) => panic!(
            "solve exceeded its resource budget: {exhausted} \
             (use try_solve_traced to handle ResourceExhausted gracefully)"
        ),
    }
}

/// The fallible form of [`solve_traced`]: returns a typed
/// [`ResourceExhausted`] when [`SolveOptions::budget`] is breached, instead
/// of panicking. With the default (unlimited) budget it never errs.
///
/// Every entry point ends here, and the first step is
/// [`System::normalized`]: the run decides each distinct constraint once,
/// over constants hash-consed by machine structure. Returned assignments
/// are indexed by `system`'s own variable ids and satisfy every one of its
/// constraints, repeats included.
///
/// The error carries the [`SolveStats`] accumulated up to the breach and —
/// when [`SolveOptions::metrics`] is enabled — a full registry snapshot.
pub fn try_solve_traced(
    system: &System,
    options: &SolveOptions,
    store: &LangStore,
    tracer: &Tracer,
) -> Result<(Solution, SolveStats), Box<ResourceExhausted>> {
    // Decide each distinct constraint once. A dropped constraint is
    // structurally identical to a kept one, so solving and verifying the
    // kept ones covers it.
    let normalized = system.normalized();
    let system = &*normalized;
    store.set_metrics(options.metrics.clone());

    // The run's store scope: every store operation this solve runs is
    // counted in it and reported to its observer. So the returned stats,
    // the journal's memo events and the ledger's store-site records cover
    // exactly this run, even when the store is shared with concurrent
    // sessions.
    let observer: Option<Arc<dyn StoreObserver>> =
        (tracer.is_enabled() || options.ledger.is_enabled()).then(|| {
            Arc::new(SolveObserver {
                tracer: tracer.clone(),
                ledger: options.ledger.clone(),
            }) as _
        });
    let scope = StoreScope::new(observer);
    let result = {
        let _scope_guard = StoreScope::install(Arc::clone(&scope));
        if options.strip_constant_operands {
            let (stripped, constraints) = strip_constant_operands(system);
            solve_prepared(&stripped, &constraints, options, system, store, tracer)
        } else {
            let constraints = system.union_free_constraints();
            solve_prepared(system, &constraints, options, system, store, tracer)
        }
    };
    let finalize = |stats: &mut SolveStats| {
        let counted = scope.stats();
        stats.fingerprint_hits = counted.fingerprint_hits as usize;
        stats.fingerprint_misses = counted.fingerprint_misses as usize;
        stats.memo_op_hits = counted.op_hits as usize;
        stats.memo_op_misses = counted.op_misses as usize;
        stats.states_materialized = counted.states_materialized as usize;
        stats.inclusion_macrostates = counted.inclusion_macrostates;
        stats.peak_bytes = counted.memo_bytes;
        stats.store_evictions = counted.evictions;
    };
    match result {
        Ok((solution, mut stats)) => {
            finalize(&mut stats);
            Ok((solution, stats))
        }
        Err(mut exhausted) => {
            finalize(&mut exhausted.stats);
            Err(exhausted)
        }
    }
}

/// The [`StoreObserver`] of a traced or ledgered solve's [`StoreScope`]:
/// memo outcomes become `MemoHit`/`MemoMiss` trace events, and answered
/// inclusion queries become ledger records.
struct SolveObserver {
    tracer: Tracer,
    ledger: Ledger,
}

impl StoreObserver for SolveObserver {
    fn memo_event(&self, op: StoreOp, hit: bool) {
        self.tracer.emit(|| {
            let op = op.name().to_owned();
            if hit {
                TraceEventKind::MemoHit { op }
            } else {
                TraceEventKind::MemoMiss { op }
            }
        });
    }

    fn wants_queries(&self) -> bool {
        self.ledger.is_enabled()
    }

    fn inclusion_query(&self, query: &InclusionQuery<'_>) {
        self.ledger.record(|| draft_from_inclusion(query));
    }
}

/// A budget breach as `(kind, limit, observed)` — the internal currency of
/// the budget checks, turned into a full [`ResourceExhausted`] (snapshot +
/// stats attached) only at the driver's return boundary.
type Breach = (BudgetKind, u64, u64);

/// Mutable budget-tracking state threaded through the reduce phase and
/// the worklist.
struct BudgetTrack {
    /// Solve start time; `Some` only when a deadline is configured. The
    /// worklist's checks and gci's budgeted inclusion checks both measure
    /// the deadline from it.
    start: Option<Instant>,
    /// Cumulative states *kept* (reduce-phase leaves + group solution
    /// machines), checked against `Budget::max_live_states`.
    live_states: u64,
    /// Cumulative group-solution states, reported by the
    /// `MetricsSnapshot` trace event.
    states_built: u64,
}

impl BudgetTrack {
    fn new(budget: &Budget) -> BudgetTrack {
        BudgetTrack {
            start: budget.deadline.map(|_| Instant::now()),
            live_states: 0,
            states_built: 0,
        }
    }

    /// The instant [`Budget::deadline`] passes: `start` plus the deadline.
    fn deadline(&self, budget: &Budget) -> Option<Instant> {
        Some(self.start? + budget.deadline?)
    }
}

/// Charges one entry's group cost (or one reduce-phase leaf) against the
/// cumulative budget, the stats, and the metrics registry.
fn charge_entry_cost(
    cost: &GroupCost,
    options: &SolveOptions,
    stats: &mut SolveStats,
    track: &mut BudgetTrack,
) -> Result<(), Breach> {
    stats.product_states += cost.product_states;
    track.live_states += cost.states_built;
    track.states_built += cost.states_built;
    options
        .metrics
        .add(id::SOLVE_PRODUCT_STATES, cost.product_states);
    options
        .metrics
        .add(id::SOLVE_STATES_BUILT, cost.states_built);
    if let Some(limit) = options.budget.max_product_states {
        if stats.product_states > limit {
            return Err((BudgetKind::ProductStates, limit, stats.product_states));
        }
    }
    if let Some(limit) = options.budget.max_live_states {
        if track.live_states > limit {
            return Err((BudgetKind::LiveStates, limit, track.live_states));
        }
    }
    Ok(())
}

/// The wall-clock check, run between worklist entries. Inherently
/// nondeterministic (documented on [`Budget::deadline`]).
fn check_deadline(options: &SolveOptions, track: &BudgetTrack) -> Result<(), Breach> {
    if let (Some(deadline), Some(start)) = (options.budget.deadline, track.start) {
        let elapsed = start.elapsed();
        if elapsed > deadline {
            return Err((
                BudgetKind::Deadline,
                u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX),
                u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            ));
        }
    }
    Ok(())
}

/// Turns a group-level [`ProductCapHit`] into the driver's breach tuple.
/// Product-state hits report the configured cap as both limit and observed
/// (the operation aborted *before* exceeding it); deadline hits — possible
/// only from the inclusion search's frontier loop — recompute the
/// elapsed/limit micros against the run's own clock, matching
/// [`check_deadline`]'s reporting.
fn cap_hit_breach(hit: &ProductCapHit, options: &SolveOptions, track: &BudgetTrack) -> Breach {
    match hit.kind {
        BudgetKind::Deadline => {
            let limit = options
                .budget
                .deadline
                .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
            let observed = track.start.map_or(limit, |s| {
                u64::try_from(s.elapsed().as_micros()).unwrap_or(u64::MAX)
            });
            (BudgetKind::Deadline, limit, observed)
        }
        kind => (kind, hit.limit, hit.limit),
    }
}

/// The error of an aborted const-check or verification judgment. These
/// judgments run without a macrostate cap, so only the deadline stops
/// them.
fn judgment_error(
    abort: &InclusionAbort,
    options: &SolveOptions,
    track: &BudgetTrack,
    stats: &SolveStats,
) -> Box<ResourceExhausted> {
    let hit = abort_to_cap_hit(abort, GroupCost::default());
    budget_error(cap_hit_breach(&hit, options, track), options, stats)
}

/// Wraps a breach into the full error, attaching the metrics snapshot (when
/// enabled) and the stats accumulated so far.
fn budget_error(
    breach: Breach,
    options: &SolveOptions,
    stats: &SolveStats,
) -> Box<ResourceExhausted> {
    let (kind, limit, observed) = breach;
    Box::new(ResourceExhausted {
        kind,
        limit,
        observed,
        snapshot: options.metrics.snapshot(),
        stats: stats.clone(),
    })
}

/// The solver body, parameterized over a possibly-rewritten system.
/// `original` is used for final verification so rewrites cannot mask an
/// unsound transformation.
fn solve_prepared(
    system: &System,
    constraints: &[Constraint],
    options: &SolveOptions,
    original: &System,
    store: &LangStore,
    tracer: &Tracer,
) -> Result<(Solution, SolveStats), Box<ResourceExhausted>> {
    let mut stats = SolveStats::default();
    let mut track = BudgetTrack::new(&options.budget);
    let constraints = constraints.to_vec();
    tracer.emit(|| TraceEventKind::SolveStart {
        constraints: constraints.len(),
        vars: system.num_vars(),
    });
    let _solve_span = tracer.span("solve", None, None);
    // Verification always runs against the *original* system so a buggy
    // rewrite cannot vouch for itself. A variable-free constraint's verdict
    // does not depend on the assignment, and the const-check below decides
    // it (no rewrite touches one), so verification skips it.
    let verify_constraints: Vec<Constraint> = original
        .union_free_constraints()
        .into_iter()
        .filter(|c| !c.lhs.variables().is_empty())
        .collect();
    // The const-check and verification stop at the solve's deadline. The
    // product cap bounds gci's operations, not these judgments.
    let limits = InclusionLimits {
        max_macrostates: None,
        deadline: track.deadline(&options.budget),
    };

    // Variable-free constraints are decided directly and kept out of the
    // graph (routing them through gci could only narrow constants, which
    // its constant-leaf check would then reject).
    let mut graph_constraints = Vec::with_capacity(constraints.len());
    let mut constant_constraints = Vec::new();
    for c in &constraints {
        if c.lhs.variables().is_empty() {
            constant_constraints.push(c.clone());
        } else {
            graph_constraints.push(c.clone());
        }
    }

    // The graph and its groups are computed before the variable-free check
    // so every exit path — including an early UNSAT — reports the full
    // shape counters.
    let graph = DependencyGraph::from_constraints(system, &graph_constraints);
    let groups = graph.ci_groups();
    stats.groups = groups.len();

    for c in &constant_constraints {
        let holds = constant_constraint_holds_with(options, system, c, &limits)
            .map_err(|abort| judgment_error(&abort, options, &track, &stats))?;
        if !holds {
            emit_metrics_snapshot(tracer, options, &stats, &track);
            tracer.emit(|| TraceEventKind::SolveEnd {
                sat: false,
                assignments: 0,
            });
            return Ok((Solution::Unsat, stats));
        }
    }

    let mut leaf = match reduce(
        system, &graph, options, store, tracer, &mut stats, &mut track,
    ) {
        Ok(leaf) => leaf,
        Err(breach) => return Err(budget_error(breach, options, &stats)),
    };
    for group in &groups {
        for &node in &group.nodes {
            if let NodeKind::Const(c) = graph.kind(node) {
                leaf.insert(node, system.const_lang(c).clone());
            }
        }
    }

    // Worklist over CI-groups: each queue entry is (next group index,
    // partial node assignment); group solutions branch the queue
    // (Figure 7, lines 13–14).
    // Partial assignments hold `Lang` handles: branching clones the map of
    // handles (O(entries) Arc bumps), never the machines themselves.
    let mut queue: VecDeque<(usize, BTreeMap<NodeId, Lang>)> =
        VecDeque::from([(0, BTreeMap::new())]);
    stats.peak_worklist = queue.len();
    options
        .metrics
        .gauge_set(id::WORKLIST_DEPTH, queue.len() as u64);
    let mut produced: Vec<Assignment> = Vec::new();
    let mut verify_keys = None;

    while let Some((gi, partial)) = queue.pop_front() {
        options
            .metrics
            .gauge_set(id::WORKLIST_DEPTH, queue.len() as u64);
        if let Err(breach) = check_deadline(options, &track) {
            return Err(budget_error(breach, options, &stats));
        }
        if gi == groups.len() {
            // Convert and filter as soon as a branch completes so that
            // `max_assignments` can stop the search early. A branch in
            // which some variable's language is empty has failed
            // (Figure 7, lines 16–23).
            stats.branches_completed += 1;
            let verify_keys = verify_keys.get_or_insert_with(|| {
                verification_keys(options, store, original, &verify_constraints)
            });
            let mut assignment = Assignment::new();
            for v in system.var_ids() {
                let node = graph.var_node(v);
                let machine = partial
                    .get(&node)
                    .or_else(|| leaf.get(&node))
                    .cloned()
                    .unwrap_or_else(|| Lang::new(Nfa::sigma_star()));
                assignment.insert(v, machine);
            }
            let pruned = if assignment.has_empty_language() {
                Some("empty-language")
            } else if options.verify {
                let _verify_span = tracer.span("verify", None, None);
                let held = satisfies_ledgered(
                    &options.ledger,
                    verify_keys,
                    original,
                    &verify_constraints,
                    &assignment,
                    &limits,
                )
                .map_err(|abort| judgment_error(&abort, options, &track, &stats))?;
                (!held).then_some("verify-failed")
            } else {
                None
            };
            if let Some(reason) = pruned {
                tracer.emit(|| TraceEventKind::WorklistPrune {
                    group: gi,
                    reason: reason.to_owned(),
                });
                stats.branches_filtered += 1;
                continue;
            }
            produced.push(assignment);
            if options
                .max_assignments
                .is_some_and(|cap| produced.len() >= cap)
            {
                break;
            }
            continue;
        }
        let result = {
            let _gci_span = tracer.span("gci", None, Some(gi));
            solve_group(
                &graph,
                &groups[gi],
                system,
                &leaf,
                options,
                track.deadline(&options.budget),
                store,
                tracer,
            )
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(hit) => {
                // A single intersection or inclusion hit a per-operation
                // limit: at most `limit` product states / macrostates were
                // materialized by it.
                stats.product_states += hit.cost.product_states;
                options
                    .metrics
                    .add(id::SOLVE_PRODUCT_STATES, hit.cost.product_states);
                return Err(budget_error(
                    cap_hit_breach(&hit, options, &track),
                    options,
                    &stats,
                ));
            }
        };
        if let Err(breach) = charge_entry_cost(&outcome.cost, options, &mut stats, &mut track) {
            return Err(budget_error(breach, options, &stats));
        }
        let disjuncts = outcome.solutions;
        stats.group_disjuncts += disjuncts.len();
        // An unsatisfiable group kills this branch (and, since groups share
        // no vertices, every branch — but the queue drains naturally).
        if disjuncts.is_empty() {
            tracer.emit(|| TraceEventKind::WorklistPrune {
                group: gi,
                reason: "group-unsat".to_owned(),
            });
        }
        for d in disjuncts {
            let mut extended = partial.clone();
            extended.extend(d);
            queue.push_back((gi + 1, extended));
            // Track the high-water mark at every enqueue: measuring once
            // per loop iteration (as earlier revisions did) under-reports
            // the peak whenever the run stops mid-iteration — e.g. a
            // `max_assignments` break after this entry's pushes.
            stats.peak_worklist = stats.peak_worklist.max(queue.len());
            options
                .metrics
                .gauge_set(id::WORKLIST_DEPTH, queue.len() as u64);
            tracer.emit(|| TraceEventKind::WorklistBranch {
                group: gi,
                depth: queue.len(),
            });
        }
    }

    let solution = if produced.is_empty() {
        Solution::Unsat
    } else {
        Solution::Assignments(produced)
    };
    emit_metrics_snapshot(tracer, options, &stats, &track);
    tracer.emit(|| TraceEventKind::SolveEnd {
        sat: solution.is_sat(),
        assignments: solution.assignments().len(),
    });
    Ok((solution, stats))
}

/// The reduce phase (Figure 7, lines 3–8): every variable's leaf is the
/// intersection of its inbound subset constants. For plain variables this
/// is their final language; for CI-group members it is their leaf machine.
///
/// Every intermediate intersection is minimized (the remedy the paper
/// proposes for its `secure` outlier, §4). Variables whose inbound
/// constants form the same set share one leaf, computed for the first of
/// them in that variable's inbound order. That leaf is the store's
/// canonical minimal machine for the intersection's language, which any
/// order of intersecting reaches, so each variable gets the machine it
/// would get alone. A set of fewer than two constants needs no
/// intersection (its leaf is the constant's own handle or its memoized
/// minimization), so only larger sets are remembered, and a system
/// without one adds no allocation.
/// Every variable still gets its `ReduceStep` event and is charged its
/// leaf's states against `max_live_states`.
fn reduce(
    system: &System,
    graph: &DependencyGraph,
    options: &SolveOptions,
    store: &LangStore,
    tracer: &Tracer,
    stats: &mut SolveStats,
    track: &mut BudgetTrack,
) -> Result<BTreeMap<NodeId, Lang>, Breach> {
    #[cfg(test)]
    if differential::reference_mode() {
        return differential::reference::reduce(
            system, graph, options, store, tracer, stats, track,
        );
    }
    let mut leaf: BTreeMap<NodeId, Lang> = BTreeMap::new();
    let mut shared: Vec<(Vec<NodeId>, Lang)> = Vec::new();
    for v in system.var_ids() {
        let node = graph.var_node(v);
        let _reduce_span = tracer.span("reduce", Some(node.index() as u32), None);
        let bounds = graph.inbound_subset_sources(node);
        let same_set = |set: &[NodeId]| {
            set.iter().all(|n| bounds.contains(n)) && bounds.iter().all(|n| set.contains(n))
        };
        let m = if let Some((_, m)) = shared.iter().find(|(set, _)| same_set(set)) {
            m.clone()
        } else {
            let mut m: Option<Lang> = None;
            for &source in &bounds {
                if let NodeKind::Const(c) = graph.kind(source) {
                    let constant = system.const_lang(c);
                    let next = match m {
                        None => constant.clone(),
                        Some(prev) => store.intersect(&prev, constant),
                    };
                    let _min_span = tracer.span("minimize", Some(node.index() as u32), None);
                    m = Some(store.minimized(&next));
                }
            }
            let m = m.unwrap_or_else(|| Lang::new(Nfa::sigma_star()));
            if bounds.len() > 1 {
                shared.push((bounds, m.clone()));
            }
            m
        };
        stats.max_leaf_states = stats.max_leaf_states.max(m.num_states());
        // The reduce phase keeps every leaf machine live for the rest of
        // the run, so its states are charged against `max_live_states`.
        let leaf_cost = GroupCost {
            product_states: 0,
            states_built: m.num_states() as u64,
        };
        charge_entry_cost(&leaf_cost, options, stats, track)?;
        tracer.emit(|| TraceEventKind::ReduceStep {
            node: node.index() as u32,
            var: system.var_name(v).to_owned(),
            states: m.num_states(),
        });
        leaf.insert(node, m);
    }
    Ok(leaf)
}

/// Emits the `MetricsSnapshot` trace event — the registry's headline
/// aggregates — just before `SolveEnd`, when metrics are enabled. Its
/// `peak_bytes` is the run's net memo growth so far, the figure
/// `try_solve_traced` reports as [`SolveStats::peak_bytes`].
fn emit_metrics_snapshot(
    tracer: &Tracer,
    options: &SolveOptions,
    stats: &SolveStats,
    track: &BudgetTrack,
) {
    if let Some(snapshot) = options.metrics.snapshot() {
        let product_states = stats.product_states;
        let states_built = track.states_built;
        let peak_bytes = StoreScope::current().map_or(0, |scope| scope.stats().memo_bytes);
        let entries = snapshot.len() as u64;
        tracer.emit(|| TraceEventKind::MetricsSnapshot {
            product_states,
            states_built,
            peak_bytes,
            entries,
        });
    }
}

/// The dependency graph the (non-rewriting) solver actually uses for
/// `system`: the union-free constraints of [`System::normalized`] with the
/// variable-free ones removed (those are decided directly and never enter
/// the graph). Trace events' `node` ids refer to this graph — pair it with
/// a recorded event stream for the provenance DOT export.
pub fn solver_graph(system: &System) -> DependencyGraph {
    let system = system.normalized();
    let constraints: Vec<Constraint> = system
        .union_free_constraints()
        .into_iter()
        .filter(|c| !c.lhs.variables().is_empty())
        .collect();
    DependencyGraph::from_constraints(&system, &constraints)
}

/// Convenience wrapper: the first satisfying assignment, if any.
pub fn solve_first(system: &System, options: &SolveOptions) -> Option<Assignment> {
    let mut opts = options.clone();
    opts.max_assignments = Some(1);
    match solve(system, &opts) {
        Solution::Assignments(mut v) => v.pop(),
        Solution::Unsat => None,
    }
}

/// The most DFA states verification builds to key a right-hand constant
/// nothing keyed before (the cap SMT-LIB `re.comp` observes). Past it the
/// constant is verified by the antichain search, which explores only the
/// subsets the left-hand side reaches: a small left-hand side against an
/// exponential constant stays cheap.
const VERIFY_KEY_MAX_STATES: usize = 8_192;

/// The right-hand key of each of `constraints`, in order, for the
/// verification filter ([`satisfies_ledgered`]); empty when verification
/// is off. Each distinct right-hand handle is looked up once through
/// `store` ([`LangStore::try_key_of`]): its cached key, the structure
/// table's, or a canonicalization capped at [`VERIFY_KEY_MAX_STATES`];
/// `None` past the cap. The worklist calls this when the first branch
/// completes.
fn verification_keys(
    options: &SolveOptions,
    store: &LangStore,
    system: &System,
    constraints: &[Constraint],
) -> Vec<Option<Arc<CanonicalKey>>> {
    if !options.verify {
        return Vec::new();
    }
    let mut keys: Vec<Option<Arc<CanonicalKey>>> = Vec::with_capacity(constraints.len());
    for (i, c) in constraints.iter().enumerate() {
        let rhs = system.const_lang(c.rhs);
        let earlier = constraints[..i]
            .iter()
            .position(|e| Lang::ptr_eq(system.const_lang(e.rhs), rhs));
        keys.push(match earlier {
            Some(j) => keys[j].clone(),
            None => store.try_key_of(rhs, VERIFY_KEY_MAX_STATES),
        });
    }
    keys
}

/// Rewrites every constraint by stripping leading and trailing constant
/// operands into universal quotients of the right-hand side. Returns the
/// rewritten system (same variable ids) plus its union-free
/// constraints.
///
/// `C·e ⊆ c` holds iff `e ⊆ {w | ∀u ∈ L(C), u·w ∈ L(c)}` (the universal
/// left quotient), and symmetrically for trailing constants, so the
/// rewriting preserves the satisfying-assignment set exactly.
fn strip_constant_operands(system: &System) -> (System, Vec<Constraint>) {
    use dprle_automata::quotient::{left_quotient_universal, right_quotient_universal};
    let mut out = system.clone();
    let mut fresh = 0usize;
    let mut rewritten = Vec::new();
    for constraint in system.union_free_constraints() {
        // Flatten the concatenation spine.
        fn flatten(e: &Expr, parts: &mut Vec<Expr>) {
            match e {
                Expr::Concat(a, b) => {
                    flatten(a, parts);
                    flatten(b, parts);
                }
                other => parts.push(other.clone()),
            }
        }
        let mut parts = Vec::new();
        flatten(&constraint.lhs, &mut parts);
        if parts.iter().all(|p| matches!(p, Expr::Const(_))) {
            // Variable-free: leave for the direct check.
            rewritten.push(constraint);
            continue;
        }
        let mut bound = system.const_machine(constraint.rhs).clone();
        let mut changed = false;
        while let Some(Expr::Const(c)) = parts.first() {
            bound = left_quotient_universal(&bound, system.const_machine(*c));
            parts.remove(0);
            changed = true;
        }
        while let Some(Expr::Const(c)) = parts.last() {
            bound = right_quotient_universal(&bound, system.const_machine(*c));
            parts.pop();
            changed = true;
        }
        let rhs = if changed {
            let name = format!("__quot{fresh}");
            fresh += 1;
            out.constant(&name, bound)
        } else {
            constraint.rhs
        };
        let mut lhs = parts.remove(0);
        for p in parts {
            lhs = lhs.concat(p);
        }
        rewritten.push(Constraint { lhs, rhs });
    }
    (out, rewritten)
}

/// Checks a variable-free constraint by direct machine evaluation, with
/// the antichain search under `limits`; recorded into the ledger under
/// the `const-check` site.
fn constant_constraint_holds_with(
    options: &SolveOptions,
    system: &System,
    c: &Constraint,
    limits: &InclusionLimits,
) -> Result<bool, InclusionAbort> {
    let unassigned = Assignment::new();
    let lhs = eval(system, &c.lhs, &unassigned);
    let rhs = system.const_machine(c.rhs);
    ledgered_subset(&options.ledger, SITE_CONST_CHECK, &lhs, rhs, || {
        inclusion::try_subset(&lhs, rhs, limits)
    })
}

/// A `⊆` judgment decided by `decide`, recorded into the ledger as a
/// memo-bypassing query (no memo) with `decide`'s cost and features of
/// `lhs` and `rhs`; an aborted judgment is recorded with no outcome, as
/// the store records one. Reads the clock only when the ledger is
/// enabled.
fn ledgered_subset(
    ledger: &Ledger,
    site: &'static str,
    lhs: &Nfa,
    rhs: &Nfa,
    decide: impl FnOnce() -> Result<(bool, InclusionCost), InclusionAbort>,
) -> Result<bool, InclusionAbort> {
    let started = ledger.is_enabled().then(Instant::now);
    let result = decide();
    if let Some(started) = started {
        let wall = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let (outcome, cost) = match &result {
            Ok((included, cost)) => (Some(*included), *cost),
            Err(abort) => (None, abort.cost()),
        };
        ledger.record(|| bypass_inclusion_draft(site, lhs, rhs, outcome, cost, wall));
    }
    result.map(|(included, _)| included)
}

/// Evaluates `[e]_A`: substitutes assigned variable languages and folds
/// concatenations into one machine.
pub fn eval_expr(system: &System, e: &Expr, assignment: &Assignment) -> Nfa {
    eval(system, e, assignment).into_owned()
}

/// [`eval_expr`], borrowing the machine of a single-leaf expression
/// instead of copying it. A concatenation builds on its left operand's
/// machine, copying it only when it is borrowed.
fn eval<'a>(system: &'a System, e: &Expr, assignment: &'a Assignment) -> Cow<'a, Nfa> {
    match e {
        Expr::Var(v) => assignment
            .get(*v)
            .map_or_else(|| Cow::Owned(Nfa::sigma_star()), |l| Cow::Borrowed(l.nfa())),
        Expr::Const(c) => Cow::Borrowed(system.const_machine(*c)),
        Expr::Concat(a, b) => {
            let left = eval(system, a, assignment).into_owned();
            Cow::Owned(ops::concat_owned(left, &eval(system, b, assignment)).nfa)
        }
        Expr::Union(a, b) => Cow::Owned(ops::union(
            &eval(system, a, assignment),
            &eval(system, b, assignment),
        )),
    }
}

/// The *Satisfying* judgment (paper §3.1): every constraint holds under the
/// assignment, with constants at full strength. Constraints whose two sides
/// hold the same handles pose one `⊆` judgment, which is decided once, by
/// the antichain search ([`dprle_automata::is_subset`]): this is the
/// oracle that tests hold the solver to, so it shares no code with
/// canonicalization.
pub fn satisfies(system: &System, constraints: &[Constraint], assignment: &Assignment) -> bool {
    let Ok(held) = satisfies_with(system, constraints, assignment, |_, lhs, rhs| {
        Ok::<_, Infallible>(dprle_automata::is_subset(lhs, rhs.nfa()))
    });
    held
}

/// The solver's verification filter: [`satisfies`], deciding each
/// judgment against the right-hand constant's canonical key
/// ([`inclusion::try_subset_of_key`]) and recording it into the ledger
/// under the `verify` site. `keys[i]` is the key of constraint `i`'s
/// right-hand side ([`verification_keys`]); a judgment whose key is
/// `None` is decided by the antichain search. Verification reads keys,
/// never a memoized verdict. Errs when a judgment hits `limits`.
fn satisfies_ledgered(
    ledger: &Ledger,
    keys: &[Option<Arc<CanonicalKey>>],
    system: &System,
    constraints: &[Constraint],
    assignment: &Assignment,
    limits: &InclusionLimits,
) -> Result<bool, InclusionAbort> {
    #[cfg(test)]
    if differential::reference_mode() {
        return Ok(differential::reference::satisfies_ledgered(
            ledger,
            system,
            constraints,
            assignment,
        ));
    }
    satisfies_with(system, constraints, assignment, |i, lhs, rhs| {
        ledgered_subset(ledger, SITE_VERIFY, lhs, rhs.nfa(), || match &keys[i] {
            Some(key) => inclusion::try_subset_of_key(lhs, key, limits),
            None => inclusion::try_subset(lhs, rhs.nfa(), limits),
        })
    })
}

/// Whether every constraint holds under `assignment`, each distinct
/// judgment decided once by `holds(i, lhs, rhs)` for the first constraint
/// `i` that poses it; the first error `holds` returns ends the check.
///
/// Two constraints pose the same judgment when their left-hand sides have
/// the same shape with the same handle at each leaf (a variable's assigned
/// language, a constant's machine) and their right-hand constants share a
/// handle; see [`same_judgment`]. The check stops at the first judgment
/// that fails, so one seen before held. The system and the assignment keep
/// every handle alive for the whole call, so a handle names one machine
/// throughout. Finding a repeat compares handles with the constraints
/// before it, which allocates nothing.
fn satisfies_with<E>(
    system: &System,
    constraints: &[Constraint],
    assignment: &Assignment,
    mut holds: impl FnMut(usize, &Nfa, &Lang) -> Result<bool, E>,
) -> Result<bool, E> {
    for (i, c) in constraints.iter().enumerate() {
        let repeated = constraints[..i]
            .iter()
            .any(|earlier| same_judgment(system, assignment, earlier, c));
        if !repeated
            && !holds(
                i,
                &eval(system, &c.lhs, assignment),
                system.const_lang(c.rhs),
            )?
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether `a` and `b` pose the same `⊆` judgment under `assignment`: the
/// same right-hand handle, and left-hand sides of the same shape with the
/// same handle at each leaf. Two unassigned variables both stand for Σ*.
fn same_judgment(system: &System, assignment: &Assignment, a: &Constraint, b: &Constraint) -> bool {
    fn same_leaves(system: &System, assignment: &Assignment, a: &Expr, b: &Expr) -> bool {
        let handle = |e: &Expr| match e {
            Expr::Var(v) => assignment.get(*v),
            Expr::Const(c) => Some(system.const_lang(*c)),
            Expr::Concat(..) | Expr::Union(..) => None,
        };
        match (a, b) {
            (Expr::Concat(a1, a2), Expr::Concat(b1, b2))
            | (Expr::Union(a1, a2), Expr::Union(b1, b2)) => {
                same_leaves(system, assignment, a1, b1) && same_leaves(system, assignment, a2, b2)
            }
            (Expr::Var(_) | Expr::Const(_), Expr::Var(_) | Expr::Const(_)) => {
                match (handle(a), handle(b)) {
                    (Some(x), Some(y)) => Lang::ptr_eq(x, y),
                    (None, None) => true,
                    _ => false,
                }
            }
            _ => false,
        }
    }
    Lang::ptr_eq(system.const_lang(a.rhs), system.const_lang(b.rhs))
        && same_leaves(system, assignment, &a.lhs, &b.lhs)
}

/// Like [`satisfies`] but over the system's own (possibly union-carrying)
/// constraints.
pub fn satisfies_system(system: &System, assignment: &Assignment) -> bool {
    satisfies(system, system.constraints(), assignment)
}

/// Returns the set of variables for which `assignment` can be *extended* —
/// a violation of the paper's Maximal condition — under the restriction
/// that each variable occurs at most once per constraint (for
/// multi-occurrence constraints extension checking is not supported and
/// those variables are skipped).
///
/// For each variable `v` and each constraint `α·v·β ⊆ c` the maximal
/// admissible language for `v` (others fixed) is the universal quotient
/// `{w | ∀u ∈ [α], ∀u′ ∈ [β] : u·w·u′ ∈ c}`; `v` is extendable iff its
/// assigned language is a proper subset of the intersection of these.
/// Intersecting a bound twice changes nothing, so the check iterates the
/// distinct constraints of [`System::normalized`].
pub fn extendable_vars(system: &System, assignment: &Assignment) -> Vec<VarId> {
    use dprle_automata::quotient::{left_quotient_universal, right_quotient_universal};
    let system = &*system.normalized();
    let constraints = system.union_free_constraints();
    let mut out = Vec::new();
    'vars: for v in system.var_ids() {
        let Some(current) = assignment.get(v) else {
            continue;
        };
        let mut allowed: Option<Nfa> = None;
        for c in &constraints {
            let occurrences = c.lhs.variables().iter().filter(|x| **x == v).count();
            if occurrences == 0 {
                continue;
            }
            if occurrences > 1 {
                continue 'vars; // multi-occurrence: skip this variable
            }
            let (alpha, beta) = split_around(system, &c.lhs, v, assignment);
            let mut bound = system.const_machine(c.rhs).clone();
            bound = left_quotient_universal(&bound, &alpha);
            bound = right_quotient_universal(&bound, &beta);
            allowed = Some(match allowed {
                None => bound,
                Some(a) => ops::intersect_lang(&a, &bound),
            });
        }
        if let Some(allowed) = allowed {
            if !dprle_automata::is_subset(&allowed, current) {
                out.push(v);
            }
        }
    }
    out
}

/// Splits `e` (union-free) around the single occurrence of `v`: the
/// machines for the prefix context α and suffix context β with all other
/// variables substituted from `assignment`.
fn split_around(system: &System, e: &Expr, v: VarId, assignment: &Assignment) -> (Nfa, Nfa) {
    // Flatten the concat spine.
    fn flatten<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::Concat(a, b) => {
                flatten(a, out);
                flatten(b, out);
            }
            other => out.push(other),
        }
    }
    let mut parts = Vec::new();
    flatten(e, &mut parts);
    let pos = parts
        .iter()
        .position(|p| matches!(p, Expr::Var(x) if *x == v))
        .expect("v occurs in e");
    let mut alpha = Nfa::epsilon();
    for p in &parts[..pos] {
        alpha = ops::concat(&alpha, &eval_expr(system, p, assignment)).nfa;
    }
    let mut beta = Nfa::epsilon();
    for p in &parts[pos + 1..] {
        beta = ops::concat(&beta, &eval_expr(system, p, assignment)).nfa;
    }
    (alpha, beta)
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_automata::equivalent;
    use dprle_regex::Regex;

    fn exact(pattern: &str) -> Nfa {
        Regex::new(pattern)
            .expect("pattern compiles")
            .exact_language()
            .clone()
    }

    #[test]
    fn plain_intersection_system() {
        // §3.1.1 first example: v1 ⊆ (xx)+y, v1 ⊆ x*y → v1 = (xx)+y.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let a = sys.constant("a", exact("(xx)+y"));
        let b = sys.constant("b", exact("x*y"));
        sys.require(Expr::Var(v1), a);
        sys.require(Expr::Var(v1), b);
        let solution = solve(&sys, &SolveOptions::default());
        let asg = solution.first().expect("satisfiable");
        let x1 = asg.get(v1).expect("assigned");
        assert!(equivalent(x1, &exact("(xx)+y")));
        assert!(extendable_vars(&sys, asg).is_empty(), "solution is maximal");
    }

    #[test]
    fn motivating_example_end_to_end() {
        // v1 ⊆ c1 (faulty filter), c2·v1 ⊆ c3 (query contains a quote).
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c1 = sys.constant_regex("c1", "[\\d]+$").expect("filter");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant_regex("c3", "'").expect("quote");
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        let solution = solve(&sys, &SolveOptions::default());
        let asg = solution.first().expect("the code is vulnerable");
        let exploit = asg.witness(v1).expect("nonempty language");
        // Any witness passes the faulty filter and injects a quote.
        assert!(Regex::new("[\\d]+$").expect("re").is_match(&exploit));
        assert!(exploit.contains(&b'\''));
    }

    #[test]
    fn verification_leaves_an_exponential_constant_unkeyed() {
        // `c`'s minimal DFA has 2^17 states, past `VERIFY_KEY_MAX_STATES`:
        // verification gives up keying it and the antichain search decides
        // `v . w ⊆ c`, exploring only the subsets `xy` reaches.
        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let x = sys.constant("x", exact("x"));
        let y = sys.constant("y", exact("y"));
        let c = sys.constant("c", exact("xy|[ab]*a[ab]{16}"));
        sys.require(Expr::Var(v), x);
        sys.require(Expr::Var(w), y);
        sys.require(Expr::Var(v).concat(Expr::Var(w)), c);
        let (solution, stats) = solve_traced(
            &sys,
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::disabled(),
        );
        let asg = solution.first().expect("xy ⊆ c");
        assert_eq!(asg.witness(v).as_deref(), Some(b"x".as_slice()));
        assert_eq!(stats.branches_filtered, 0);
        assert!(!sys.const_lang(c).fingerprint_is_cached());
    }

    #[test]
    fn fixed_filter_is_unsatisfiable() {
        // With the corrected filter ^[\d]+$ the exploit language is empty:
        // the paper notes the algorithm then reports no bug.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c1 = sys.constant_regex("c1", "^[\\d]+$").expect("filter");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant_regex("c3", "'").expect("quote");
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        assert!(!solve(&sys, &SolveOptions::default()).is_sat());
    }

    #[test]
    fn variable_free_constraints_are_checked() {
        let mut sys = System::new();
        let small = sys.constant("small", exact("ab"));
        let big = sys.constant("big", exact("a*b*"));
        sys.require(Expr::Const(small), big);
        assert!(solve(&sys, &SolveOptions::default()).is_sat());

        let mut bad = System::new();
        let v = bad.var("v");
        let small = bad.constant("small", exact("ab"));
        let big = bad.constant("big", exact("a*b*"));
        bad.require(Expr::Const(big), small);
        bad.require(Expr::Var(v), big);
        assert!(!solve(&bad, &SolveOptions::default()).is_sat());
    }

    #[test]
    fn disjunctive_worklist_branches() {
        // Two independent CI groups, each with two disjuncts → 4 assignments.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let v3 = sys.var("v3");
        let v4 = sys.var("v4");
        let cx = sys.constant("cx", exact("x(yy)+"));
        let cy = sys.constant("cy", exact("(yy)*z"));
        let ct = sys.constant("ct", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), cx);
        sys.require(Expr::Var(v2), cy);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), ct);
        sys.require(Expr::Var(v3), cx);
        sys.require(Expr::Var(v4), cy);
        sys.require(Expr::Var(v3).concat(Expr::Var(v4)), ct);
        let solution = solve(&sys, &SolveOptions::default());
        assert_eq!(solution.assignments().len(), 4);
        for a in solution.assignments() {
            assert!(satisfies_system(&sys, a));
        }
    }

    #[test]
    fn solve_first_stops_early() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let cx = sys.constant("cx", exact("x(yy)+"));
        let cy = sys.constant("cy", exact("(yy)*z"));
        let ct = sys.constant("ct", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), cx);
        sys.require(Expr::Var(v2), cy);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), ct);
        let first = solve_first(&sys, &SolveOptions::default()).expect("sat");
        assert!(satisfies_system(&sys, &first));
    }

    #[test]
    fn union_extension_solves() {
        // (v1 ∪ v2) ⊆ ab|cd with v1 ⊆ a., v2 ⊆ c. →
        // v1 = ab, v2 = cd.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let c = sys.constant("c", exact("ab|cd"));
        let ca = sys.constant("ca", exact("a."));
        let cb = sys.constant("cb", exact("c."));
        sys.require(Expr::Var(v1), ca);
        sys.require(Expr::Var(v2), cb);
        sys.require(Expr::Var(v1).union(Expr::Var(v2)), c);
        let solution = solve(&sys, &SolveOptions::default());
        let asg = solution.first().expect("sat");
        assert!(equivalent(asg.get(v1).expect("v1"), &exact("ab")));
        assert!(equivalent(asg.get(v2).expect("v2"), &exact("cd")));
    }

    #[test]
    fn length_extension_solves() {
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant("c", exact("a*"));
        sys.require(Expr::Var(v), c);
        sys.require_length(v, 2, 3);
        let solution = solve(&sys, &SolveOptions::default());
        let asg = solution.first().expect("sat");
        let lang = asg.get(v).expect("v");
        assert!(lang.contains(b"aa") && lang.contains(b"aaa"));
        assert!(!lang.contains(b"a") && !lang.contains(b"aaaa"));
    }

    #[test]
    fn unconstrained_variable_gets_sigma_star() {
        let mut sys = System::new();
        let v = sys.var("used");
        let w = sys.var("unused");
        let c = sys.constant("c", exact("a"));
        sys.require(Expr::Var(v), c);
        let solution = solve(&sys, &SolveOptions::default());
        let asg = solution.first().expect("sat");
        assert!(asg
            .get(w)
            .expect("unused var still assigned")
            .contains(b"anything"));
    }

    #[test]
    fn empty_result_reports_unsat_not_empty_assignment() {
        let mut sys = System::new();
        let v = sys.var("v");
        let ca = sys.constant("ca", exact("a"));
        let cb = sys.constant("cb", exact("b"));
        sys.require(Expr::Var(v), ca);
        sys.require(Expr::Var(v), cb);
        assert!(!solve(&sys, &SolveOptions::default()).is_sat());
    }

    #[test]
    fn maximality_detector_flags_shrunk_assignment() {
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant("c", exact("a|b"));
        sys.require(Expr::Var(v), c);
        let mut shrunk = Assignment::new();
        shrunk.insert(v, exact("a"));
        assert!(satisfies_system(&sys, &shrunk));
        assert_eq!(extendable_vars(&sys, &shrunk), vec![v]);
        let solution = solve(&sys, &SolveOptions::default());
        assert!(extendable_vars(&sys, solution.first().expect("sat")).is_empty());
    }

    #[test]
    fn quotient_stripping_recovers_multistring_constant_solutions() {
        // c·v ⊆ {ab, abb} with c = {a, ab}: the maximal v is {b} (a·b = ab
        // and ab·b = abb both land in the bound). The paper-faithful
        // enumerate mode cannot keep the whole constant on one bridge edge
        // and reports unsat; quotient stripping is exact.
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant("c", exact("a|ab"));
        let bound = sys.constant("bound", exact("ab|abb"));
        sys.require(Expr::Const(c).concat(Expr::Var(v)), bound);

        let faithful = solve(&sys, &SolveOptions::default());
        assert!(
            !faithful.is_sat(),
            "documented incompleteness of enumerate mode"
        );

        let opts = SolveOptions {
            strip_constant_operands: true,
            ..Default::default()
        };
        let solution = solve(&sys, &opts);
        let asg = solution
            .first()
            .expect("quotient mode finds the assignment");
        assert!(equivalent(asg.get(v).expect("assigned"), &exact("b")));
        assert!(satisfies_system(&sys, asg));
    }

    #[test]
    fn quotient_stripping_matches_enumerate_on_singletons() {
        // On the motivating example (singleton constant) both modes agree.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c1 = sys.constant_regex("c1", "[\\d]+$").expect("filter");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant_regex("c3", "'").expect("quote");
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        let base = solve(&sys, &SolveOptions::default());
        let opts = SolveOptions {
            strip_constant_operands: true,
            ..Default::default()
        };
        let stripped = solve(&sys, &opts);
        let a = base.first().expect("sat");
        let b = stripped.first().expect("sat");
        assert!(equivalent(
            a.get(v1).expect("assigned"),
            b.get(v1).expect("assigned")
        ));
    }

    #[test]
    fn quotient_stripping_handles_trailing_constants() {
        // v·c ⊆ {xa, xab}* shape: v ⊆ Σ*, v·"ab" ⊆ x(ab)+ → v = x(ab)*.
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant("c", Nfa::literal(b"ab"));
        let bound = sys.constant("bound", exact("x(ab)+"));
        sys.require(Expr::Var(v).concat(Expr::Const(c)), bound);
        let opts = SolveOptions {
            strip_constant_operands: true,
            ..Default::default()
        };
        let solution = solve(&sys, &opts);
        let asg = solution.first().expect("sat");
        assert!(equivalent(asg.get(v).expect("assigned"), &exact("x(ab)*")));
    }

    /// The motivating system with every constant declared once per name
    /// suffix in `copies` and every constraint stated once per copy.
    fn motivating_copies(copies: &[&str]) -> System {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        for copy in copies {
            let c1 = sys
                .constant_regex(&format!("c1{copy}"), "[\\d]+$")
                .expect("filter");
            let c2 = sys.constant(&format!("c2{copy}"), Nfa::literal(b"nid_"));
            let c3 = sys
                .constant_regex(&format!("c3{copy}"), "'")
                .expect("quote");
            sys.require(Expr::Var(v1), c1);
            sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        }
        sys
    }

    #[test]
    fn duplicated_system_solves_like_its_distinct_constraints() {
        let sys = motivating_copies(&["", "_again"]);
        assert_eq!(sys.num_constraints(), 4);
        assert_eq!(sys.normalized().num_constraints(), 2);
        let (solution, stats) = solve_with_stats(&sys, &SolveOptions::default());
        let asg = solution.first().expect("the code is vulnerable");
        assert!(satisfies_system(&sys, asg), "every input constraint holds");
        assert!(extendable_vars(&sys, asg).is_empty());
        let (expected, expected_stats) =
            solve_with_stats(&motivating_copies(&[""]), &SolveOptions::default());
        let v1 = sys.var_id("v1").expect("declared");
        assert_eq!(
            asg.get(v1).expect("assigned").fingerprint(),
            expected
                .first()
                .expect("sat")
                .get(v1)
                .expect("assigned")
                .fingerprint()
        );
        // The repeats cost nothing: no extra canonicalization, product or
        // inclusion work.
        assert_eq!(stats, expected_stats);
    }

    #[test]
    fn trace_node_ids_resolve_in_the_solver_graph_of_a_duplicated_system() {
        use crate::trace::CollectSink;
        let sys = motivating_copies(&["", "_again"]);
        let sink = Arc::new(CollectSink::new());
        let (solution, _) = solve_traced(
            &sys,
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::new(sink.clone()),
        );
        assert!(solution.is_sat());
        let graph = solver_graph(&sys);
        let groups = graph.ci_groups();
        let resolves = |node: u32| (node as usize) < graph.num_nodes();
        let (mut reduce_steps, mut group_starts) = (0, 0);
        for event in sink.take() {
            match event.kind {
                TraceEventKind::SolveStart { constraints, .. } => assert_eq!(constraints, 2),
                TraceEventKind::ReduceStep { node, var, .. } => {
                    assert!(resolves(node), "reduce node {node}");
                    let v = sys.var_id(&var).expect("declared variable");
                    assert_eq!(graph.kind(NodeId(node)), NodeKind::Var(v));
                    reduce_steps += 1;
                }
                TraceEventKind::CiGroupStart { group, nodes, .. } => {
                    let expected: Vec<u32> = groups[group].nodes.iter().map(|n| n.0).collect();
                    assert_eq!(nodes, expected, "group {group}");
                    group_starts += 1;
                }
                TraceEventKind::SpanStart {
                    node: Some(node), ..
                } => assert!(resolves(node), "span node {node}"),
                _ => {}
            }
        }
        assert_eq!((reduce_steps, group_starts), (1, 1));
    }

    #[test]
    fn stats_reflect_the_run() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let cx = sys.constant("cx", exact("x(yy)+"));
        let cy = sys.constant("cy", exact("(yy)*z"));
        let ct = sys.constant("ct", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), cx);
        sys.require(Expr::Var(v2), cy);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), ct);
        let (solution, stats) = solve_with_stats(&sys, &SolveOptions::default());
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.group_disjuncts, 2);
        assert_eq!(stats.branches_completed, 2);
        assert_eq!(stats.branches_filtered, 0);
        assert!(stats.max_leaf_states > 0);
        assert_eq!(solution.assignments().len(), 2);

        // An unsat plain-intersection system: no groups, one filtered branch.
        let mut unsat = System::new();
        let v = unsat.var("v");
        let a = unsat.constant("a", exact("a"));
        let b = unsat.constant("b", exact("b"));
        unsat.require(Expr::Var(v), a);
        unsat.require(Expr::Var(v), b);
        let (solution, stats) = solve_with_stats(&unsat, &SolveOptions::default());
        assert!(!solution.is_sat());
        assert_eq!(stats.groups, 0);
        assert_eq!(stats.branches_filtered, 1);
    }

    #[test]
    fn eval_expr_folds_concats() {
        let mut sys = System::new();
        let a = sys.constant("a", exact("a"));
        let b = sys.constant("b", exact("b"));
        let m = eval_expr(
            &sys,
            &Expr::Const(a).concat(Expr::Const(b)),
            &Assignment::new(),
        );
        assert!(m.contains(b"ab"));
        assert!(!m.contains(b"a"));
    }

    /// Two independent CI-groups, each producing two disjuncts — the
    /// smallest system whose worklist genuinely branches (4 complete
    /// branches, queue trajectory 1 → 2 → 3 → 4).
    fn two_group_disjunctive_system() -> System {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let v3 = sys.var("v3");
        let v4 = sys.var("v4");
        let cx = sys.constant("cx", exact("x(yy)+"));
        let cy = sys.constant("cy", exact("(yy)*z"));
        let ct = sys.constant("ct", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), cx);
        sys.require(Expr::Var(v2), cy);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), ct);
        sys.require(Expr::Var(v3), cx);
        sys.require(Expr::Var(v4), cy);
        sys.require(Expr::Var(v3).concat(Expr::Var(v4)), ct);
        sys
    }

    #[test]
    fn peak_worklist_counts_every_enqueue() {
        let sys = two_group_disjunctive_system();
        // Trajectory: seed (1); pop + group 0 pushes two children (2);
        // pop + group 1 pushes two (3); pop + group 1 pushes two (4).
        let (solution, stats) = solve_with_stats(&sys, &SolveOptions::default());
        assert_eq!(solution.assignments().len(), 4);
        assert_eq!(stats.peak_worklist, 4);
        // An early `max_assignments` exit must not lose the high-water
        // mark: the peak is reached while branching, before the first
        // completed branch stops the run.
        let opts = SolveOptions {
            max_assignments: Some(1),
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&sys, &opts);
        assert_eq!(solution.assignments().len(), 1);
        assert_eq!(stats.peak_worklist, 4);
    }

    #[test]
    fn counter_fields_enumerate_every_numeric_stat_field() {
        // Drift guard: adding a numeric field to `SolveStats` without
        // adding it to `counter_fields` silently drops it from the CLI
        // stats output and the bench JSON. Parse the Debug rendering of
        // the struct (rustc formats every field as `name: value`) and
        // require a 1:1 match with the kebab-cased counter names; `events`
        // is the only non-numeric field and is exempt.
        let debug = format!("{:?}", SolveStats::default());
        let body = debug
            .trim_start_matches("SolveStats {")
            .trim_end_matches('}');
        let mut fields: Vec<String> = body
            .split(", ")
            .filter_map(|pair| pair.split(':').next())
            .map(|name| name.trim().replace('_', "-"))
            .filter(|name| name != "events")
            .collect();
        let stats = SolveStats::default();
        let mut counters: Vec<String> = stats
            .counter_fields()
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        fields.sort();
        counters.sort();
        assert_eq!(
            counters, fields,
            "counter_fields() must list exactly the numeric SolveStats fields"
        );
    }

    #[test]
    fn budget_product_cap_errs_instead_of_blowing_up() {
        let sys = two_group_disjunctive_system();
        let opts = SolveOptions {
            budget: crate::metrics::Budget {
                max_product_states: Some(1),
                ..Default::default()
            },
            ..SolveOptions::default()
        };
        let store = LangStore::new();
        let err = try_solve_traced(&sys, &opts, &store, &Tracer::disabled())
            .expect_err("a 1-product-state budget must trip");
        assert_eq!(err.kind, BudgetKind::ProductStates);
        assert_eq!(err.limit, 1);
        assert!(
            err.observed <= err.limit,
            "the per-op cap aborts before exceeding the limit: observed {} > limit {}",
            err.observed,
            err.limit
        );
        assert!(err.snapshot.is_none(), "metrics were disabled");
        assert!(err.to_string().contains("product-states"));
        // The same system solves cleanly with the budget lifted.
        let sys = two_group_disjunctive_system();
        let (solution, stats) = try_solve_traced(
            &sys,
            &SolveOptions::default(),
            &LangStore::new(),
            &Tracer::disabled(),
        )
        .expect("unlimited budget");
        assert_eq!(solution.assignments().len(), 4);
        assert!(stats.product_states > 0);
    }

    #[test]
    fn budget_live_states_and_deadline_trip() {
        let sys = two_group_disjunctive_system();
        let opts = SolveOptions {
            budget: crate::metrics::Budget {
                max_live_states: Some(1),
                ..Default::default()
            },
            ..SolveOptions::default()
        };
        let err = try_solve_traced(&sys, &opts, &LangStore::new(), &Tracer::disabled())
            .expect_err("reduce-phase leaves exceed one live state");
        assert_eq!(err.kind, BudgetKind::LiveStates);
        assert!(err.observed > err.limit);

        let sys = two_group_disjunctive_system();
        let opts = SolveOptions {
            budget: crate::metrics::Budget {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
            ..SolveOptions::default()
        };
        let err = try_solve_traced(&sys, &opts, &LangStore::new(), &Tracer::disabled())
            .expect_err("a zero deadline trips at the first worklist entry");
        assert_eq!(err.kind, BudgetKind::Deadline);
    }

    #[test]
    fn metrics_registry_reflects_the_run() {
        let sys = two_group_disjunctive_system();
        let metrics = Metrics::enabled();
        let opts = SolveOptions {
            metrics: metrics.clone(),
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&sys, &opts);
        assert_eq!(solution.assignments().len(), 4);
        let snapshot = metrics.snapshot().expect("enabled registry");
        assert_eq!(
            snapshot
                .get("core.solve.product_states")
                .expect("recorded")
                .headline(),
            stats.product_states,
            "driver-accumulated stats and the registry agree"
        );
        let gauge = snapshot.get("core.worklist.depth").expect("recorded");
        match gauge.value {
            crate::metrics::MetricValue::Gauge { value, peak } => {
                assert_eq!(peak, stats.peak_worklist as u64);
                assert_eq!(value, 0, "the queue drains by the end");
            }
            ref other => panic!("worklist depth is a gauge, got {other:?}"),
        }
        assert!(
            snapshot
                .get("core.store.memo_bytes")
                .expect("recorded")
                .headline()
                > 0,
            "the store charged the memo byte account"
        );
        assert_eq!(
            stats.peak_bytes,
            snapshot.get("core.store.memo_bytes").unwrap().headline()
        );
    }

    #[test]
    fn max_assignments_stops_the_worklist() {
        let sys = two_group_disjunctive_system();
        let opts = SolveOptions {
            max_assignments: Some(2),
            ..SolveOptions::default()
        };
        let (solution, stats) = solve_with_stats(&sys, &opts);
        assert_eq!(solution.assignments().len(), 2);
        assert_eq!(stats.branches_completed, 2);
    }

    #[test]
    fn an_unsat_group_drains_the_worklist() {
        // The branching groups are satisfiable but another group is not →
        // every branch dies.
        let mut sys = two_group_disjunctive_system();
        let v5 = sys.var("v5");
        let v6 = sys.var("v6");
        let ca = sys.constant("ca", exact("a"));
        let cb = sys.constant("cb", exact("b"));
        let cc = sys.constant("cc", exact("c"));
        sys.require(Expr::Var(v5), ca);
        sys.require(Expr::Var(v6), cb);
        sys.require(Expr::Var(v5).concat(Expr::Var(v6)), cc);
        let (solution, stats) = solve_with_stats(&sys, &SolveOptions::default());
        assert!(!solution.is_sat());
        assert_eq!(stats.groups, 3);
        assert_eq!(stats.branches_completed, 0);
    }
}
