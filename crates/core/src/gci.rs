//! Generalized concat-intersect: solving whole CI-groups
//! (paper §3.4.3, Figure 8).
//!
//! A CI-group is a connected component of ∘-edges. Its temporaries form a
//! forest; the *roots* (temps that are not operands of another
//! concatenation — the paper's "non-influenced nodes") each denote one big
//! machine built from the group's leaves by concatenation and intersection.
//! The paper maintains a shared pointer-based sub-NFA representation so
//! that updates to a root's machine propagate to the solution views of its
//! leaves. This implementation achieves the same sharing with explicit
//! *provenance*:
//!
//! * Every state of every leaf machine gets a fresh **core id**.
//!   Concatenation preserves core ids; intersection maps each product state
//!   to the core id of its concatenation-side component; trimming renames
//!   states but keeps their cores.
//! * Each concatenation records its **bridge** as the *pair of core ids*
//!   `(final core of the left part, start core of the right part)`. Because
//!   leaf machines are normalized (no out-edges from finals, no in-edges to
//!   starts) and products never add edges, an epsilon edge whose endpoint
//!   cores match a bridge pair is necessarily an instance of that bridge —
//!   the generalized analogue of `Q_lhs × Q_rhs` in Figure 3.
//!
//! A disjunctive solution of a root chooses one epsilon instance per bridge
//! (Figure 8's `all_combinations`); the leaf *segments* between consecutive
//! chosen edges are cut out with `induce_segment`. A leaf that occurs in
//! several segments (the paper's Figure 9 `vb`, which joins two
//! concatenations) receives the **intersection** of its segment languages;
//! combinations where that intersection is empty are rejected.
//!
//! Enumeration is a depth-first walk over the bridges that decides segment
//! `k` as soon as its closing bridge instance is chosen: an empty segment
//! prunes the whole subtree below it. A segment is determined by its
//! `(start, final)` pair of root states, so each root keeps a map from that
//! pair to the segment's outcome and cuts, checks and minimizes each
//! distinct segment once, however many combinations share it.
//!
//! Deviation from the paper, documented in DESIGN.md: for shared leaves the
//! paper keeps only combinations whose per-side machines "match", which on
//! its own Figure 9/10 example yields 2 solutions; intersecting the sides
//! instead validates all 4 combinations (each satisfies every constraint).
//! We return the larger, still-satisfying set.
//!
//! Constant leaves cannot be narrowed by the solver: a combination is kept
//! only if each constant leaf's segment language is the constant's whole
//! language. A constant segment is a slice of the product of the root's
//! concatenation with its constraints, between a state over the constant's
//! start and one over its final; leaf machines are normalized and bridges
//! only leave a leaf through its final, so every path of the slice
//! projects onto a path through the constant's own machine, and
//! `L(segment) ⊆ L(c)`. The segment is therefore all of `L(c)` exactly
//! when `L(c) ⊆ L(segment)`. When `c` is structurally one word
//! ([`Nfa::is_single_word`], which every string literal of the three
//! front ends is), a nonempty segment is that word and nothing is cut;
//! otherwise one budgeted inclusion query decides it. An accepted segment
//! is bound to the constant's own handle, so constants are never
//! minimized or canonicalized here, and every solution of a group holds
//! the same constant handles.

use crate::graph::{CiGroup, ConcatEdgePair, DependencyGraph, NodeId, NodeKind};
use crate::ledger::{bypass_inclusion_draft, product_draft, Ledger, QueryOutcome, SITE_GCI};
use crate::metrics::{id, BudgetKind, Metrics};
use crate::spec::System;
use crate::trace::{TraceEventKind, Tracer};
use dprle_automata::{
    inclusion, ops, CanonicalKey, InclusionAbort, InclusionLimits, Lang, LangStore, Nfa, StateId,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Options controlling group solving.
#[derive(Clone, Debug)]
pub struct GciOptions {
    /// Remove language-equivalent duplicate solutions (quadratic in the
    /// number of solutions, using canonical language fingerprints).
    pub dedup: bool,
    /// Upper bound on the number of disjunctive solutions per group; the
    /// worst case is exponential in the number of bridges (paper §3.5).
    /// It counts, per root, the candidates that leave every constant leaf
    /// whole, and then the merged combinations across roots. `None` means
    /// unbounded.
    pub max_disjuncts: Option<usize>,
    /// Minimize every induced segment machine before further processing.
    /// The paper's prototype did *not* minimize and attributes its
    /// Figure 12 `secure` outlier partly to that ("applying NFA
    /// minimization techniques might improve performance"); disabling this
    /// reproduces the prototype's behavior for the ablation study.
    pub minimize_solutions: bool,
    /// Metrics registry the group solve records its operation costs into.
    /// Disabled (no-op) by default. The per-entry set of recording calls
    /// depends only on the entry's inputs, so totals are identical at every
    /// `--jobs N`.
    pub metrics: Metrics,
    /// Per-operation cap on product states explored by one intersection
    /// (paper §3.5). A build whose intersection would materialize more than
    /// this many pairs aborts with [`ProductCapHit`] *before* exceeding it.
    /// The same cap bounds the macrostates of each budgeted inclusion check
    /// (constant-leaf checks, subsumption pruning) — the inclusion
    /// search's frontier loop is the other place the paper's exponential
    /// can hide. Deterministic at every `--jobs N`: the check depends only
    /// on the operand machines.
    pub max_product_states: Option<u64>,
    /// Wall-clock deadline for budgeted inclusion checks, forwarded into
    /// the inclusion search's frontier loop. Set by the solver's normalization from
    /// [`crate::metrics::Budget::deadline`]; inherently nondeterministic,
    /// like the worklist-level deadline check.
    pub deadline: Option<Instant>,
    /// Query cost ledger each `intersect_build` product and each
    /// constant-leaf inclusion query is recorded into (site `gci`).
    /// Disabled (no-op) by default; set by the solver's normalization from
    /// [`crate::solve::SolveOptions::ledger`].
    pub ledger: Ledger,
}

impl Default for GciOptions {
    fn default() -> Self {
        GciOptions {
            dedup: true,
            max_disjuncts: Some(256),
            minimize_solutions: true,
            metrics: Metrics::disabled(),
            max_product_states: None,
            deadline: None,
            ledger: Ledger::disabled(),
        }
    }
}

impl GciOptions {
    /// The limits handed to every budgeted inclusion check this group
    /// solve performs.
    fn inclusion_limits(&self) -> InclusionLimits {
        InclusionLimits {
            max_macrostates: self.max_product_states,
            deadline: self.deadline,
        }
    }
}

/// Deterministic cost totals of one [`solve_group`] call, charged against
/// the solver's cumulative [`crate::metrics::Budget`] by the driver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupCost {
    /// Product states explored by the group's intersection constructions.
    pub product_states: u64,
    /// States of the returned solution machines (the states the solver
    /// keeps live when it branches on the disjuncts).
    pub states_built: u64,
}

impl GroupCost {
    fn add_products(&self, cell: &Cell<u64>) -> GroupCost {
        GroupCost {
            product_states: self.product_states + cell.get(),
            states_built: self.states_built,
        }
    }
}

/// A solved group: its disjunctive solutions plus the cost totals.
#[derive(Clone, Debug)]
pub struct GroupOutcome {
    /// Disjunctive solutions; empty means the group is unsatisfiable.
    pub solutions: Vec<GroupSolution>,
    /// Deterministic cost of producing them.
    pub cost: GroupCost,
}

/// A group solve aborted: one intersection or budgeted inclusion check hit
/// a per-operation limit. For [`BudgetKind::ProductStates`] at most `limit`
/// product states (or inclusion macrostates) were materialized by the
/// aborting operation; for [`BudgetKind::Deadline`] an inclusion frontier
/// loop observed the wall-clock deadline (the driver recomputes the
/// elapsed/limit micros itself, so `limit` is zero here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProductCapHit {
    /// Which budget dimension was breached.
    pub kind: BudgetKind,
    /// The configured per-operation cap (zero for deadline breaches).
    pub limit: u64,
    /// Cost accumulated by the group before the abort.
    pub cost: GroupCost,
}

/// Maps an inclusion-search abort to the group-level error
/// ([`ProductCapHit`]) the worklist handles.
fn abort_to_cap_hit(abort: &InclusionAbort, cost: GroupCost) -> ProductCapHit {
    match abort {
        InclusionAbort::MacrostateCap { limit, .. } => ProductCapHit {
            kind: BudgetKind::ProductStates,
            limit: *limit,
            cost,
        },
        InclusionAbort::Deadline { .. } => ProductCapHit {
            kind: BudgetKind::Deadline,
            limit: 0,
            cost,
        },
    }
}

/// One disjunctive solution for a group: a language handle per *leaf*
/// vertex (variables and constants; temporaries are interior and omitted).
/// Handles are cheap to clone, so merging a solution into many worklist
/// branches shares the underlying machines.
pub type GroupSolution = BTreeMap<NodeId, Lang>;

/// Solves one CI-group: returns the disjunctive solutions for its leaves.
///
/// `leaf_machines` must contain, for every non-temp vertex of the group,
/// the machine to use for that leaf — for variables, Σ* already intersected
/// with the variable's inbound subset constants (the paper's
/// *operation-ordering* invariant: subset constraints are processed before
/// concatenation constraints); for constants, the constant's machine.
///
/// An empty return value means the group is unsatisfiable (some root's
/// intersection machine is empty, or every combination was rejected).
///
/// When `tracer` is enabled the call is bracketed by `CiGroupStart` /
/// `CiGroupEnd` events and every returned solution is reported as a
/// `GciDisjunct` (so the event count equals the disjunct count the solver
/// branches on), carrying the group's bridge count, the solution's total
/// leaf states, and a hash of its variable leaves' canonical language
/// fingerprints (the keys dedup computes; every solution holds the same
/// constant handles, so hashing them would only canonicalize constants in
/// traced runs).
///
/// Returns `Err` when an intersection hits
/// [`GciOptions::max_product_states`]; the `CiGroupEnd` event is still
/// emitted (with zero disjuncts) so traces stay well-bracketed.
pub fn solve_group(
    graph: &DependencyGraph,
    group: &CiGroup,
    system: &System,
    leaf_machines: &BTreeMap<NodeId, Lang>,
    options: &GciOptions,
    store: &LangStore,
    tracer: &Tracer,
) -> Result<GroupOutcome, ProductCapHit> {
    tracer.emit(|| TraceEventKind::CiGroupStart {
        group: group.index,
        nodes: group.nodes.iter().map(|n| n.index() as u32).collect(),
        bridges: group.num_bridges(),
    });
    let result = solve_group_inner(graph, group, system, leaf_machines, options, store, tracer);
    let solutions: &[GroupSolution] = match &result {
        Ok(outcome) => &outcome.solutions,
        Err(_) => &[],
    };
    if options.metrics.is_enabled() {
        for sol in solutions {
            let states: usize = sol.values().map(Lang::num_states).sum();
            options
                .metrics
                .observe(id::GCI_DISJUNCT_STATES, states as u64);
        }
    }
    if tracer.is_enabled() {
        for sol in solutions {
            let states: usize = sol.values().map(Lang::num_states).sum();
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            for (node, lang) in variable_leaves(graph, sol) {
                node.index().hash(&mut hasher);
                store.key_of(lang).hash(&mut hasher);
            }
            let fingerprint = hasher.finish();
            tracer.emit(|| TraceEventKind::GciDisjunct {
                group: group.index,
                bridge_eps: group.num_bridges(),
                states,
                fingerprint,
            });
        }
    }
    let disjuncts = solutions.len();
    tracer.emit(|| TraceEventKind::CiGroupEnd {
        group: group.index,
        disjuncts,
    });
    result
}

/// The root machine of every CI-group of `system`, as the solver's first
/// pass builds it before minimization: a variable leaf is the intersection
/// of its inbound subset constants (Σ* without one), a constant leaf is the
/// constant's machine. A group with an empty root contributes nothing.
///
/// These are the machines enumeration slices with
/// [`Nfa::induce_segment`]; the automata crate's kernel tests run their
/// reference constructions on them.
pub fn root_machines(system: &System) -> Vec<Nfa> {
    let graph = DependencyGraph::from_system(system);
    let mut out = Vec::new();
    for group in graph.ci_groups() {
        let mut leaves = BTreeMap::new();
        for &node in &group.nodes {
            let machine = match graph.kind(node) {
                NodeKind::Var(_) => graph
                    .inbound_subset_sources(node)
                    .into_iter()
                    .filter_map(|source| match graph.kind(source) {
                        NodeKind::Const(c) => Some(system.const_lang(c).clone()),
                        _ => None,
                    })
                    .reduce(|m, c| Lang::new(ops::intersect_lang(&m, &c)))
                    .unwrap_or_else(|| Lang::new(Nfa::sigma_star())),
                NodeKind::Const(c) => system.const_lang(c).clone(),
                NodeKind::Temp(_) => continue,
            };
            leaves.insert(node, machine);
        }
        let builder = GroupBuilder {
            graph: &graph,
            group: &group,
            system,
            leaf_machines: &leaves,
            metrics: &Metrics::disabled(),
            ledger: &Ledger::disabled(),
            cap: usize::MAX,
            product_states: Cell::new(0),
        };
        if let Ok(Some(roots)) = builder.build_roots() {
            out.extend(roots.into_iter().map(|root| root.nfa));
        }
    }
    out
}

fn solve_group_inner(
    graph: &DependencyGraph,
    group: &CiGroup,
    system: &System,
    leaf_machines: &BTreeMap<NodeId, Lang>,
    options: &GciOptions,
    store: &LangStore,
    tracer: &Tracer,
) -> Result<GroupOutcome, ProductCapHit> {
    let cap = options
        .max_product_states
        .map_or(usize::MAX, |v| usize::try_from(v).unwrap_or(usize::MAX));
    let builder = GroupBuilder {
        graph,
        group,
        system,
        leaf_machines,
        metrics: &options.metrics,
        ledger: &options.ledger,
        cap,
        product_states: Cell::new(0),
    };
    let mut cost = GroupCost::default();
    let roots = match builder.build_roots() {
        Ok(Some(roots)) => roots,
        // Some root machine is empty: no solutions.
        Ok(None) => {
            return Ok(GroupOutcome {
                solutions: Vec::new(),
                cost: cost.add_products(&builder.product_states),
            })
        }
        Err(CapHit) => {
            return Err(ProductCapHit {
                kind: BudgetKind::ProductStates,
                limit: options.max_product_states.unwrap_or(u64::MAX),
                cost: cost.add_products(&builder.product_states),
            })
        }
    };
    cost = cost.add_products(&builder.product_states);

    let unsat = |cost: GroupCost| {
        Ok(GroupOutcome {
            solutions: Vec::new(),
            cost,
        })
    };

    // Enumerate per-root candidate solutions (choices of bridge edges that
    // leave every constant leaf whole).
    let mut per_root: Vec<Vec<RootSolution>> = Vec::with_capacity(roots.len());
    {
        let _enumerate_span = tracer.span("enumerate", None, Some(group.index));
        for root in &roots {
            let candidates = enumerate_root(root, options, store)
                .map_err(|abort| abort_to_cap_hit(&abort, cost))?;
            if candidates.is_empty() {
                return unsat(cost);
            }
            per_root.push(candidates);
        }
    }

    // Cartesian product across roots, merging shared leaves by
    // intersection. `max_disjuncts` bounds each root's product as a whole,
    // not one partial's share of it.
    let mut solutions: Vec<GroupSolution> = vec![GroupSolution::new()];
    for candidates in &per_root {
        let mut next = Vec::new();
        'partials: for partial in &solutions {
            for candidate in candidates {
                if let Some(merged) = merge(partial, candidate, store) {
                    next.push(merged);
                }
                if options.max_disjuncts.is_some_and(|cap| next.len() >= cap) {
                    break 'partials;
                }
            }
        }
        solutions = next;
        if solutions.is_empty() {
            return unsat(cost);
        }
    }

    if options.dedup {
        // A leaf is *linear* when it occupies exactly one segment across all
        // roots; unioning a linear leaf across two otherwise-equal solutions
        // is sound because every constraint sees it once.
        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for root in &roots {
            for leaf in &root.segments {
                *counts.entry(*leaf).or_insert(0) += 1;
            }
        }
        let linear: Vec<NodeId> = counts
            .iter()
            .filter_map(|(n, c)| (*c == 1).then_some(*n))
            .collect();
        let _minimize_span = tracer.span("minimize", None, Some(group.index));
        solutions = minimize(
            solutions,
            &linear,
            graph,
            store,
            &options.metrics,
            &options.inclusion_limits(),
        )
        .map_err(|abort| abort_to_cap_hit(&abort, cost))?;
    }
    cost.states_built = solutions
        .iter()
        .flat_map(|sol| sol.values())
        .map(|lang| lang.num_states() as u64)
        .sum();
    Ok(GroupOutcome { solutions, cost })
}

/// A candidate solution for one root: ordered `(leaf, segment language)`
/// pairs.
type RootSolution = Vec<(NodeId, Lang)>;

/// Adds a root's candidate to a partial group solution, intersecting the
/// languages of a leaf both hold (`None` when that is empty). One handle
/// met twice, as every constant leaf is, stays as it is: `L ∩ L = L`.
fn merge(
    partial: &GroupSolution,
    candidate: &RootSolution,
    store: &LangStore,
) -> Option<GroupSolution> {
    let mut out = partial.clone();
    for (node, machine) in candidate {
        match out.get(node) {
            None => {
                out.insert(*node, machine.clone());
            }
            Some(existing) if Lang::ptr_eq(existing, machine) => {}
            Some(existing) => {
                let both = store.intersect(existing, machine);
                if both.is_empty_language() {
                    return None;
                }
                out.insert(*node, both);
            }
        }
    }
    Some(out)
}

/// Removes language-equivalent duplicates, widens solutions by merging
/// pairs that differ only at one *linear* leaf (unioning that leaf — sound
/// because every constraint sees a linear leaf exactly once, and union
/// distributes over concatenation), and finally removes solutions
/// *subsumed* pointwise by another (they add no coverage; see
/// `ci::minimal_solutions`).
fn minimize(
    solutions: Vec<GroupSolution>,
    linear: &[NodeId],
    graph: &DependencyGraph,
    store: &LangStore,
    metrics: &Metrics,
    limits: &InclusionLimits,
) -> Result<Vec<GroupSolution>, InclusionAbort> {
    let deduped = dedup(solutions, graph, store);
    let merged = merge_linear(deduped, linear, graph, store, metrics);
    prune_subsumed(merged, store, limits)
}

fn dedup(solutions: Vec<GroupSolution>, graph: &DependencyGraph, store: &LangStore) -> Vec<Keyed> {
    let mut out: Vec<Keyed> = Vec::with_capacity(solutions.len());
    for s in solutions {
        let k = Keyed::new(s, graph, store);
        if !out.iter().any(|t| t.keys == k.keys) {
            out.push(k);
        }
    }
    out
}

/// The variable leaves of a group solution. Its constant leaves are bound
/// to the constants' own handles in every solution, so they never tell
/// two solutions apart.
fn variable_leaves<'a>(
    graph: &'a DependencyGraph,
    sol: &'a GroupSolution,
) -> impl Iterator<Item = (&'a NodeId, &'a Lang)> + 'a {
    sol.iter()
        .filter(|(node, _)| !matches!(graph.kind(**node), NodeKind::Const(_)))
}

/// A group solution paired with its variable leaves' canonical language
/// fingerprints, so equality and merge checks avoid repeated complement
/// constructions. Fingerprints come from the store: a handle shared
/// across solutions (the common case after intersection-merging) is
/// canonicalized once.
struct Keyed {
    sol: GroupSolution,
    keys: BTreeMap<NodeId, Arc<CanonicalKey>>,
}

impl Keyed {
    fn new(sol: GroupSolution, graph: &DependencyGraph, store: &LangStore) -> Keyed {
        let keys = variable_leaves(graph, &sol)
            .map(|(n, m)| (*n, store.key_of(m)))
            .collect();
        Keyed { sol, keys }
    }
}

/// Additive merge closure over linear leaves (see [`minimize`]); originals
/// are kept so one solution can feed several maximal merges, and the
/// subsumption prune removes dominated entries afterwards.
fn merge_linear(
    mut sols: Vec<Keyed>,
    linear: &[NodeId],
    graph: &DependencyGraph,
    store: &LangStore,
    metrics: &Metrics,
) -> Vec<Keyed> {
    const MAX_ADDED: usize = 64;
    let mut added = 0;
    let mut changed = true;
    while changed && added < MAX_ADDED {
        changed = false;
        'pairs: for i in 0..sols.len() {
            for j in (i + 1)..sols.len() {
                let Some(candidate) = try_merge(&sols[i], &sols[j], linear, graph, store, metrics)
                else {
                    continue;
                };
                if !sols.iter().any(|t| t.keys == candidate.keys) {
                    sols.push(candidate);
                    added += 1;
                    changed = true;
                    break 'pairs;
                }
            }
        }
    }
    sols
}

/// If `a` and `b` agree (language-equivalent) on every node except exactly
/// one linear node, returns the widened solution unioning that node.
fn try_merge(
    a: &Keyed,
    b: &Keyed,
    linear: &[NodeId],
    graph: &DependencyGraph,
    store: &LangStore,
    metrics: &Metrics,
) -> Option<Keyed> {
    if a.keys.len() != b.keys.len() {
        return None;
    }
    let mut difference: Option<NodeId> = None;
    for (node, ka) in &a.keys {
        let kb = b.keys.get(node)?;
        if ka != kb {
            if difference.is_some() {
                return None; // differs at two nodes
            }
            difference = Some(*node);
        }
    }
    let node = difference?;
    if !linear.contains(&node) {
        return None;
    }
    let mut sol = a.sol.clone();
    let union = ops::union(&a.sol[&node], &b.sol[&node]);
    metrics.add(id::UNION_STATES, union.num_states() as u64);
    let widened = store.minimized(&Lang::new(union));
    sol.insert(node, widened);
    Some(Keyed::new(sol, graph, store))
}

/// Keeps only solutions not pointwise contained in another solution. Every
/// containment test is a budgeted inclusion query (same per-operation
/// limits as the product builds).
fn prune_subsumed(
    out: Vec<Keyed>,
    store: &LangStore,
    limits: &InclusionLimits,
) -> Result<Vec<GroupSolution>, InclusionAbort> {
    let mut keep = vec![true; out.len()];
    for i in 0..out.len() {
        for (j, other) in out.iter().enumerate() {
            if i == j || !keep[j] || other.keys.len() != out[i].keys.len() {
                continue;
            }
            let mut subsumed = true;
            for (node, machine) in &out[i].sol {
                let contained = match other.sol.get(node) {
                    Some(big) => store.try_is_subset(machine, big, limits)?,
                    None => false,
                };
                if !contained {
                    subsumed = false;
                    break;
                }
            }
            if subsumed {
                keep[i] = false;
                break;
            }
        }
    }
    Ok(out
        .into_iter()
        .zip(keep)
        .filter_map(|(s, k)| k.then_some(s.sol))
        .collect())
}

// ---------------------------------------------------------------------
// Root construction with core provenance
// ---------------------------------------------------------------------

/// A root machine under construction: the NFA plus, for every state, the
/// *core id* of the leaf-skeleton state it descends from.
struct Build {
    nfa: Nfa,
    core: Vec<u32>,
    /// Leaf vertex per segment, left to right.
    segments: Vec<NodeId>,
    /// Per segment, the constant's own handle for a constant leaf (the one
    /// `leaf_machines` supplies), `None` for a variable.
    constants: Vec<Option<Lang>>,
    /// Bridge core pairs; `bridges[k]` joins `segments[k]` and
    /// `segments[k+1]`.
    bridges: Vec<(u32, u32)>,
}

impl Build {
    fn single_final(&self) -> StateId {
        self.nfa.single_final()
    }
}

/// Marker error: a build's intersection hit the product-state cap.
struct CapHit;

struct GroupBuilder<'a> {
    graph: &'a DependencyGraph,
    group: &'a CiGroup,
    system: &'a System,
    leaf_machines: &'a BTreeMap<NodeId, Lang>,
    metrics: &'a Metrics,
    ledger: &'a Ledger,
    /// Per-operation product-state cap (`usize::MAX` when unbudgeted).
    cap: usize,
    /// Product states explored so far across this builder's intersections.
    product_states: Cell<u64>,
}

impl GroupBuilder<'_> {
    /// Builds the machine for every root temp of the group. `Ok(None)`
    /// means some root's language is empty; `Err(CapHit)` means an
    /// intersection hit the product-state cap.
    fn build_roots(&self) -> Result<Option<Vec<Build>>, CapHit> {
        let edges: Vec<&ConcatEdgePair> = self
            .group
            .edge_indices
            .iter()
            .map(|&i| &self.graph.concat_edges()[i])
            .collect();
        let is_operand = |n: NodeId| edges.iter().any(|e| e.left == n || e.right == n);
        let mut roots = Vec::new();
        let mut next_core = 0u32;
        for e in &edges {
            if !is_operand(e.target) {
                match self.build_node(e.target, &edges, &mut next_core)? {
                    Some(build) => roots.push(build),
                    None => return Ok(None),
                }
            }
        }
        Ok(Some(roots))
    }

    fn build_node(
        &self,
        node: NodeId,
        edges: &[&ConcatEdgePair],
        next_core: &mut u32,
    ) -> Result<Option<Build>, CapHit> {
        let mut build = match self.graph.kind(node) {
            NodeKind::Temp(_) => {
                let e = edges
                    .iter()
                    .find(|e| e.target == node)
                    .expect("every temp in a group is a concat target");
                let Some(left) = self.build_node(e.left, edges, next_core)? else {
                    return Ok(None);
                };
                let Some(right) = self.build_node(e.right, edges, next_core)? else {
                    return Ok(None);
                };
                let joined = concat_builds(left, right);
                self.metrics
                    .add(id::CONCAT_STATES, joined.nfa.num_states() as u64);
                joined
            }
            NodeKind::Var(_) | NodeKind::Const(_) => {
                let leaf = self
                    .leaf_machines
                    .get(&node)
                    .expect("leaf machine supplied for every group leaf");
                let machine = leaf.normalize();
                let n = machine.num_states();
                let core: Vec<u32> = (*next_core..*next_core + n as u32).collect();
                *next_core += n as u32;
                Build {
                    nfa: machine,
                    core,
                    segments: vec![node],
                    constants: vec![
                        matches!(self.graph.kind(node), NodeKind::Const(_)).then(|| leaf.clone())
                    ],
                    bridges: Vec::new(),
                }
            }
        };
        // Operation ordering (paper invariant 1): this node's own inbound
        // subset constraints are applied before its result feeds any parent
        // concatenation. Leaf variables already come pre-intersected; temp
        // constraints are applied here.
        if matches!(self.graph.kind(node), NodeKind::Temp(_)) {
            for source in self.graph.inbound_subset_sources(node) {
                let NodeKind::Const(c) = self.graph.kind(source) else {
                    unreachable!("subset-edge sources are constants in the Figure 2 grammar");
                };
                match self.intersect_build(build, self.system.const_machine(c))? {
                    Some(next) => build = next,
                    None => return Ok(None),
                }
            }
        }
        Ok(Some(build))
    }

    /// Intersects a build with a constraint machine, mapping cores through
    /// the product and trimming. `Ok(None)` when the result is empty;
    /// `Err(CapHit)` when the product would exceed the cap (at most `cap`
    /// product states were materialized).
    fn intersect_build(&self, build: Build, constraint: &Nfa) -> Result<Option<Build>, CapHit> {
        let constraint = constraint.normalize();
        // The clock is read only when the ledger is enabled, preserving the
        // zero-cost-when-disabled contract.
        let started = self.ledger.is_enabled().then(Instant::now);
        let wall = |started: Option<Instant>| {
            started.map_or(0, |t| {
                u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
            })
        };
        let Some(product) = ops::try_intersect(&build.nfa, &constraint, self.cap) else {
            self.product_states
                .set(self.product_states.get() + self.cap as u64);
            self.ledger.record(|| {
                product_draft(
                    &build.nfa,
                    &constraint,
                    QueryOutcome::Exhausted,
                    self.cap as u64,
                    0,
                    wall(started),
                )
            });
            return Err(CapHit);
        };
        let explored = product.pairs.len();
        self.product_states
            .set(self.product_states.get() + explored as u64);
        let core: Vec<u32> = product
            .pairs
            .iter()
            .map(|&(left, _)| build.core[left.index()])
            .collect();
        let (trimmed, old_of_new) = product.nfa.trim();
        self.metrics.add(id::INTERSECT_PRODUCTS, explored as u64);
        self.metrics
            .observe(id::INTERSECT_EXPLORED, explored as u64);
        self.metrics
            .observe(id::INTERSECT_REACHABLE, trimmed.num_states() as u64);
        if trimmed.finals().is_empty() {
            self.ledger.record(|| {
                product_draft(
                    &build.nfa,
                    &constraint,
                    QueryOutcome::Empty,
                    explored as u64,
                    0,
                    wall(started),
                )
            });
            return Ok(None);
        }
        self.ledger.record(|| {
            product_draft(
                &build.nfa,
                &constraint,
                QueryOutcome::Built,
                explored as u64,
                trimmed.num_states() as u64,
                wall(started),
            )
        });
        let core = old_of_new.iter().map(|old| core[old.index()]).collect();
        Ok(Some(Build {
            nfa: trimmed,
            core,
            segments: build.segments,
            constants: build.constants,
            bridges: build.bridges,
        }))
    }
}

/// Concatenates two builds with a fresh epsilon bridge, preserving cores.
fn concat_builds(left: Build, right: Build) -> Build {
    let mut nfa = left.nfa.clone();
    let offset = nfa.num_states() as u32;
    for _ in 0..right.nfa.num_states() {
        nfa.add_state();
    }
    for (from, class, to) in right.nfa.edges() {
        nfa.add_edge(StateId(from.0 + offset), class, StateId(to.0 + offset));
    }
    for (from, to) in right.nfa.eps_edges() {
        nfa.add_eps(StateId(from.0 + offset), StateId(to.0 + offset));
    }
    let left_final = left.nfa.single_final();
    let right_start = StateId(right.nfa.start().0 + offset);
    nfa.add_eps(left_final, right_start);
    nfa.set_single_final(StateId(right.nfa.single_final().0 + offset));

    let mut core = left.core.clone();
    core.extend(right.core.iter().copied());

    let bridge = (
        left.core[left_final.index()],
        right.core[right.nfa.start().index()],
    );
    let mut bridges = left.bridges;
    bridges.push(bridge);
    bridges.extend(right.bridges);

    let mut segments = left.segments;
    segments.extend(right.segments);
    let mut constants = left.constants;
    constants.extend(right.constants);

    Build {
        nfa,
        core,
        segments,
        constants,
        bridges,
    }
}

// ---------------------------------------------------------------------
// Solution enumeration
// ---------------------------------------------------------------------

/// Enumerates the candidate solutions of one root: every combination of one
/// epsilon instance per bridge whose segments are all nonempty and leave
/// each constant leaf its whole language, in depth-first order, until
/// [`GciOptions::max_disjuncts`] candidates are found. Errs when a
/// constant leaf's inclusion query hits a budget.
fn enumerate_root(
    root: &Build,
    options: &GciOptions,
    store: &LangStore,
) -> Result<Vec<RootSolution>, InclusionAbort> {
    // Candidate epsilon instances per bridge, identified by core pairs.
    let mut candidates: Vec<Vec<(StateId, StateId)>> = vec![Vec::new(); root.bridges.len()];
    for (from, to) in root.nfa.eps_edges() {
        let pair = (root.core[from.index()], root.core[to.index()]);
        for (k, bridge) in root.bridges.iter().enumerate() {
            if *bridge == pair {
                candidates[k].push((from, to));
            }
        }
    }
    let mut walk = Enumeration {
        root,
        candidates,
        options,
        store,
        decided: HashMap::new(),
        out: Vec::new(),
    };
    let mut partial = Vec::with_capacity(root.segments.len());
    walk.descend(root.nfa.start(), &mut partial)?;
    Ok(walk.out)
}

/// One root's depth-first walk over its bridges.
struct Enumeration<'a> {
    root: &'a Build,
    /// Candidate epsilon instances per bridge.
    candidates: Vec<Vec<(StateId, StateId)>>,
    options: &'a GciOptions,
    store: &'a LangStore,
    /// Every segment decided so far, by its `(start, final)` root states:
    /// `None` when it is empty or narrows its constant, else the language
    /// its leaf gets.
    decided: HashMap<(StateId, StateId), Option<Lang>>,
    out: Vec<RootSolution>,
}

impl Enumeration<'_> {
    /// Extends `partial`, which holds segments `0..k`, by every choice of
    /// the bridges from `k` on; segment `k` starts at `start`.
    fn descend(
        &mut self,
        start: StateId,
        partial: &mut RootSolution,
    ) -> Result<(), InclusionAbort> {
        if let Some(cap) = self.options.max_disjuncts {
            if self.out.len() >= cap {
                return Ok(());
            }
        }
        let k = partial.len();
        let leaf = self.root.segments[k];
        if k == self.candidates.len() {
            if let Some(lang) = self.segment(k, start, self.root.single_final())? {
                let mut solution = partial.clone();
                solution.push((leaf, lang));
                self.out.push(solution);
            }
            return Ok(());
        }
        for i in 0..self.candidates[k].len() {
            // Segment `k` closes at this bridge instance; a rejected one
            // prunes every combination below it.
            let (from, to) = self.candidates[k][i];
            if let Some(lang) = self.segment(k, start, from)? {
                partial.push((leaf, lang));
                self.descend(to, partial)?;
                partial.pop();
            }
        }
        Ok(())
    }

    /// Segment `k` from `start` to `final_`, decided once per root.
    fn segment(
        &mut self,
        k: usize,
        start: StateId,
        final_: StateId,
    ) -> Result<Option<Lang>, InclusionAbort> {
        if let Some(decided) = self.decided.get(&(start, final_)) {
            return Ok(decided.clone());
        }
        let decided = self.decide(k, start, final_)?;
        self.decided.insert((start, final_), decided.clone());
        Ok(decided)
    }

    /// Cuts segment `k`. An empty segment is `None`. A variable's segment
    /// is induced and (by default) minimized. A constant's segment is a
    /// subset of the constant (module docs), so it is kept, as the
    /// constant's own handle, exactly when it covers the constant: at once
    /// for a one-word constant, else by one inclusion query.
    fn decide(
        &self,
        k: usize,
        start: StateId,
        final_: StateId,
    ) -> Result<Option<Lang>, InclusionAbort> {
        let nfa = &self.root.nfa;
        if !nfa.reaches(start, final_) {
            return Ok(None);
        }
        let cut = || {
            let machine = nfa.induce_segment(start, final_);
            self.store.note_materialized(machine.num_states());
            machine
        };
        let Some(constant) = &self.root.constants[k] else {
            let machine = Lang::new(cut());
            return Ok(Some(if self.options.minimize_solutions {
                self.store.minimized(&machine)
            } else {
                machine
            }));
        };
        let whole = constant.is_single_word() || covers(constant, &cut(), self.options)?;
        Ok(whole.then(|| constant.clone()))
    }
}

/// Whether `L(constant) ⊆ L(segment)`: one budgeted inclusion query. It
/// bypasses the store, whose memo is keyed by canonical fingerprints that
/// neither a fresh segment nor a constant otherwise needs, and is recorded
/// into the ledger at site `gci`.
fn covers(constant: &Lang, segment: &Nfa, options: &GciOptions) -> Result<bool, InclusionAbort> {
    let started = options.ledger.is_enabled().then(Instant::now);
    let result = inclusion::try_subset(constant.nfa(), segment, &options.inclusion_limits());
    let (outcome, cost) = match &result {
        Ok((included, cost)) => (Some(*included), *cost),
        Err(abort) => (None, abort.cost()),
    };
    let metrics = &options.metrics;
    metrics.add(id::INCLUSION_MACROSTATES, cost.macrostates);
    metrics.observe(id::INCLUSION_ANTICHAIN_SIZE, cost.antichain_size);
    metrics.add(id::INCLUSION_PRUNES, cost.prunes);
    options.ledger.record(|| {
        let wall = started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
        });
        bypass_inclusion_draft(SITE_GCI, constant.nfa(), segment, outcome, cost, wall)
    });
    result.map(|(included, _)| included)
}

#[cfg(test)]
pub(crate) mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DependencyGraph;
    use crate::spec::{Expr, System};
    use dprle_automata::{equivalent, is_subset, Nfa};
    use dprle_regex::Regex;

    fn exact(pattern: &str) -> Nfa {
        Regex::new(pattern)
            .expect("pattern compiles")
            .exact_language()
            .clone()
    }

    /// Helper: build the graph, collect leaf machines (vars pre-intersected
    /// with their plain subset constraints), and solve the single group.
    fn solve_single_group(sys: &System) -> Vec<GroupSolution> {
        let graph = DependencyGraph::from_system(sys);
        let groups = graph.ci_groups();
        assert_eq!(groups.len(), 1, "test systems have one group");
        let group = &groups[0];
        let store = LangStore::new();
        let mut leaf_machines = BTreeMap::new();
        for &node in &group.nodes {
            match graph.kind(node) {
                NodeKind::Var(_) => {
                    let mut m = Nfa::sigma_star();
                    for source in graph.inbound_subset_sources(node) {
                        if let NodeKind::Const(c) = graph.kind(source) {
                            m = ops::intersect_lang(&m, sys.const_machine(c));
                        }
                    }
                    leaf_machines.insert(node, Lang::new(m));
                }
                NodeKind::Const(c) => {
                    leaf_machines.insert(node, sys.const_lang(c).clone());
                }
                NodeKind::Temp(_) => {}
            }
        }
        solve_group(
            &graph,
            group,
            sys,
            &leaf_machines,
            &GciOptions::default(),
            &store,
            &Tracer::disabled(),
        )
        .expect("no product-state cap set")
        .solutions
    }

    /// The §3.1.1 two-variable system (one temp, so `intersect_build` runs).
    fn simple_system() -> System {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let c1 = sys.constant("c1", exact("x(yy)+"));
        let c2 = sys.constant("c2", exact("(yy)*z"));
        let c3 = sys.constant("c3", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Var(v2), c2);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), c3);
        sys
    }

    fn solve_single_group_with(
        sys: &System,
        options: &GciOptions,
    ) -> Result<GroupOutcome, ProductCapHit> {
        let graph = DependencyGraph::from_system(sys);
        let groups = graph.ci_groups();
        assert_eq!(groups.len(), 1, "test systems have one group");
        let group = &groups[0];
        let store = LangStore::new();
        let mut leaf_machines = BTreeMap::new();
        for &node in &group.nodes {
            match graph.kind(node) {
                NodeKind::Var(_) => {
                    let mut m = Nfa::sigma_star();
                    for source in graph.inbound_subset_sources(node) {
                        if let NodeKind::Const(c) = graph.kind(source) {
                            m = ops::intersect_lang(&m, sys.const_machine(c));
                        }
                    }
                    leaf_machines.insert(node, Lang::new(m));
                }
                NodeKind::Const(c) => {
                    leaf_machines.insert(node, sys.const_lang(c).clone());
                }
                NodeKind::Temp(_) => {}
            }
        }
        solve_group(
            &graph,
            group,
            sys,
            &leaf_machines,
            options,
            &store,
            &Tracer::disabled(),
        )
    }

    /// Two roots whose merged candidates pass the default cap of 256: the
    /// cap bounds the cross-root product, not each partial's share of it.
    #[test]
    fn max_disjuncts_bounds_the_merge_across_roots() {
        let mut sys = System::new();
        let v0 = sys.var("v0");
        let a = sys.constant("'a'", Nfa::literal(b"a"));
        let ba = sys.constant("'ba'", Nfa::literal(b"ba"));
        let empty = sys.constant("''", Nfa::literal(b""));
        let short = sys.constant("[ab]{0,5}", exact("[ab]{0,5}"));
        let abs = sys.constant("(ab)*", exact("(ab)*"));
        sys.require(
            Expr::Const(a)
                .concat(Expr::Const(ba))
                .concat(Expr::Var(v0))
                .concat(Expr::Const(empty)),
            short,
        );
        sys.require(
            Expr::Const(abs).concat(Expr::Var(v0)).concat(Expr::Var(v0)),
            abs,
        );
        let solutions = |max_disjuncts| {
            let options = GciOptions {
                dedup: false,
                max_disjuncts,
                ..GciOptions::default()
            };
            solve_single_group_with(&sys, &options)
                .expect("no product-state cap set")
                .solutions
                .len()
        };
        assert!(solutions(None) > 256, "the cap binds");
        assert_eq!(solutions(Some(256)), 256);
        let options = crate::solve::SolveOptions {
            gci: GciOptions {
                dedup: false,
                ..GciOptions::default()
            },
            ..crate::solve::SolveOptions::default()
        };
        let solved = crate::solve::solve(&sys, &options);
        assert!(solved.assignments().len() <= 256);
    }

    #[test]
    fn product_cap_aborts_before_exceeding_the_limit() {
        let sys = simple_system();
        let tight = GciOptions {
            max_product_states: Some(1),
            ..GciOptions::default()
        };
        let hit = solve_single_group_with(&sys, &tight).expect_err("cap of 1 must trip");
        assert_eq!(hit.limit, 1);
        assert!(hit.cost.product_states >= 1);
        // The same system solves cleanly with the cap lifted, and reports
        // a nonzero deterministic cost.
        let outcome =
            solve_single_group_with(&sys, &GciOptions::default()).expect("uncapped solves");
        assert_eq!(outcome.solutions.len(), 2);
        assert!(outcome.cost.product_states > 0);
        assert!(outcome.cost.states_built > 0);
    }

    #[test]
    fn group_solve_records_into_an_installed_registry() {
        let sys = simple_system();
        let metrics = Metrics::enabled();
        let options = GciOptions {
            metrics: metrics.clone(),
            ..GciOptions::default()
        };
        let outcome = solve_single_group_with(&sys, &options).expect("solves");
        let snapshot = metrics.snapshot().expect("enabled registry");
        let products = snapshot
            .get("automata.intersect.products")
            .expect("recorded")
            .headline();
        assert_eq!(products, outcome.cost.product_states);
        let disjuncts = snapshot
            .get("core.gci.disjunct_states")
            .expect("recorded")
            .headline();
        assert_eq!(disjuncts, outcome.cost.states_built);
        assert!(
            snapshot
                .get("automata.concat.states")
                .expect("recorded")
                .headline()
                > 0
        );
    }

    #[test]
    fn simple_ci_group_matches_ci_algorithm() {
        // v1 ⊆ x(yy)+, v2 ⊆ (yy)*z, v1·v2 ⊆ xyyz|xyyyyz — §3.1.1.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let c1 = sys.constant("c1", exact("x(yy)+"));
        let c2 = sys.constant("c2", exact("(yy)*z"));
        let c3 = sys.constant("c3", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Var(v2), c2);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), c3);
        let graph = DependencyGraph::from_system(&sys);
        let n1 = graph.var_node(v1);
        let n2 = graph.var_node(v2);
        let solutions = solve_single_group(&sys);
        assert_eq!(solutions.len(), 2, "two disjunctive solutions");
        let a1 = solutions
            .iter()
            .find(|s| s[&n1].contains(b"xyy") && !s[&n1].contains(b"xyyyy"))
            .expect("A1");
        assert!(a1[&n2].contains(b"z") && a1[&n2].contains(b"yyz"));
        let a2 = solutions
            .iter()
            .find(|s| s[&n1].contains(b"xyyyy"))
            .expect("A2");
        assert!(a2[&n2].contains(b"z") && !a2[&n2].contains(b"yyz"));
    }

    #[test]
    fn figure9_shared_variable_group() {
        // va·vb ⊆ c1, vb·vc ⊆ c2 with the paper's Figure 9 languages.
        let mut sys = System::new();
        let va = sys.var("va");
        let vb = sys.var("vb");
        let vc = sys.var("vc");
        let ca = sys.constant("ca", exact("o(pp)+"));
        let cb = sys.constant("cb", exact("p*(qq)+"));
        let cc = sys.constant("cc", exact("q*r"));
        let c1 = sys.constant("c1", exact("op{5}q*"));
        let c2 = sys.constant("c2", exact("p*q{4}r"));
        sys.require(Expr::Var(va), ca);
        sys.require(Expr::Var(vb), cb);
        sys.require(Expr::Var(vc), cc);
        sys.require(Expr::Var(va).concat(Expr::Var(vb)), c1);
        sys.require(Expr::Var(vb).concat(Expr::Var(vc)), c2);

        let graph = DependencyGraph::from_system(&sys);
        let (na, nb, nc) = (graph.var_node(va), graph.var_node(vb), graph.var_node(vc));
        let solutions = solve_single_group(&sys);
        // The paper reports A1 = [va↦op², vb↦p³q², vc↦q²r] and
        // A2 = [va↦op⁴, vb↦pq², vc↦q²r]; intersection-merging additionally
        // validates the two cross combinations (see module docs).
        assert!(
            solutions.len() >= 2 && solutions.len() <= 4,
            "got {}",
            solutions.len()
        );
        let a1 = solutions
            .iter()
            .find(|s| s[&na].contains(b"opp") && s[&nc].contains(b"qqr"))
            .expect("paper's A1 present");
        assert!(a1[&nb].contains(b"pppqq"));
        let a2 = solutions
            .iter()
            .find(|s| s[&na].contains(b"opppp") && s[&nc].contains(b"qqr"))
            .expect("paper's A2 present");
        assert!(a2[&nb].contains(b"pqq"));
        // Every solution satisfies both concatenation constraints.
        for s in &solutions {
            let t1 = ops::concat(&s[&na], &s[&nb]).nfa;
            assert!(is_subset(&t1, sys.const_machine(c1)));
            let t2 = ops::concat(&s[&nb], &s[&nc]).nfa;
            assert!(is_subset(&t2, sys.const_machine(c2)));
        }
    }

    #[test]
    fn constant_operand_is_not_narrowed() {
        // c2·v1 ⊆ c3 (the motivating example): the constant keeps its full
        // language and v1 gets the exploit language.
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c1 = sys.constant_regex("c1", "[\\d]+$").expect("filter");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant_regex("c3", "'").expect("quote");
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        let graph = DependencyGraph::from_system(&sys);
        let n1 = graph.var_node(v1);
        let solutions = solve_single_group(&sys);
        assert_eq!(solutions.len(), 1);
        let v1_lang = &solutions[0][&n1];
        assert!(v1_lang.contains(b"' OR 1=1 ; DROP news --9"));
        assert!(!v1_lang.contains(b"1234"));
        // The constant leaf keeps exactly its language.
        let nc2 = graph.const_node(c2);
        assert!(equivalent(&solutions[0][&nc2], sys.const_machine(c2)));
    }

    #[test]
    fn nested_concatenation_tower() {
        // (v1·v2)·v3 ⊆ c4 with per-variable constraints (paper §3.4.3's
        // nested example shape).
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let v3 = sys.var("v3");
        let c1 = sys.constant("c1", exact("a+"));
        let c2 = sys.constant("c2", exact("b+"));
        let c3 = sys.constant("c3", exact("c+"));
        let c4 = sys.constant("c4", exact("aabbcc"));
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Var(v2), c2);
        sys.require(Expr::Var(v3), c3);
        sys.require(
            Expr::Var(v1).concat(Expr::Var(v2)).concat(Expr::Var(v3)),
            c4,
        );
        let graph = DependencyGraph::from_system(&sys);
        let solutions = solve_single_group(&sys);
        assert_eq!(solutions.len(), 1);
        let s = &solutions[0];
        assert!(s[&graph.var_node(v1)].contains(b"aa"));
        assert!(s[&graph.var_node(v2)].contains(b"bb"));
        assert!(s[&graph.var_node(v3)].contains(b"cc"));
        assert!(!s[&graph.var_node(v1)].contains(b"a"));
    }

    #[test]
    fn unsatisfiable_group_returns_no_solutions() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let ca = sys.constant("ca", exact("a+"));
        let cb = sys.constant("cb", exact("b+"));
        let cc = sys.constant("cc", exact("c+"));
        sys.require(Expr::Var(v1), ca);
        sys.require(Expr::Var(v2), cb);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), cc);
        assert!(solve_single_group(&sys).is_empty());
    }

    #[test]
    fn self_concatenation_intersects_both_occurrences() {
        // v·v ⊆ abab|cdcd with v ⊆ ab|cd: v must work in both positions, so
        // each solution is {ab} or {cd}, never {ab, cd}.
        let mut sys = System::new();
        let v = sys.var("v");
        let cv = sys.constant("cv", exact("ab|cd"));
        let cc = sys.constant("cc", exact("abab|cdcd"));
        sys.require(Expr::Var(v), cv);
        sys.require(Expr::Var(v).concat(Expr::Var(v)), cc);
        let graph = DependencyGraph::from_system(&sys);
        let nv = graph.var_node(v);
        let solutions = solve_single_group(&sys);
        assert!(!solutions.is_empty());
        for s in &solutions {
            let vv = ops::concat(&s[&nv], &s[&nv]).nfa;
            assert!(is_subset(&vv, sys.const_machine(cc)));
            // {ab, cd} would give abcd ∉ cc; intersection-merging prevents it.
            assert!(!(s[&nv].contains(b"ab") && s[&nv].contains(b"cd")));
        }
    }
}
