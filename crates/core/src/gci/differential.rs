//! Enumeration against the code it replaced, kept verbatim as
//! `#[cfg(test)]` references: the walk that cut and minimized every segment
//! of every combination at the leaf of its recursion, and the post-merge
//! filter that then rejected the combinations narrowing a constant leaf.
//! The group solve must return the same solutions in the same order (each
//! leaf's language compared by canonical key) and the same
//! [`ProductCapHit`] under small caps, and each root's candidate list must
//! be the reference list with the narrowing combinations removed.

use super::*;
use crate::metrics::Budget;
use crate::spec::{ConstId, Expr, VarId};
use dprle_regex::Regex;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The replaced enumeration and constant filter.
mod reference {
    use super::super::*;

    /// Enumerates the candidate solutions of one root: every combination of one
    /// epsilon instance per bridge whose induced segments are all nonempty.
    pub(super) fn enumerate_root(
        root: &Build,
        cap: Option<usize>,
        minimize: bool,
        store: &LangStore,
    ) -> Vec<RootSolution> {
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
        let mut out = Vec::new();
        let mut chosen: Vec<(StateId, StateId)> = Vec::with_capacity(root.bridges.len());
        enumerate_rec(
            root,
            &candidates,
            &mut chosen,
            &mut out,
            cap,
            minimize,
            store,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_rec(
        root: &Build,
        candidates: &[Vec<(StateId, StateId)>],
        chosen: &mut Vec<(StateId, StateId)>,
        out: &mut Vec<RootSolution>,
        cap: Option<usize>,
        minimize: bool,
        store: &LangStore,
    ) {
        if let Some(cap) = cap {
            if out.len() >= cap {
                return;
            }
        }
        let k = chosen.len();
        if k == candidates.len() {
            // All bridges chosen; cut out every segment.
            let mut solution = Vec::with_capacity(root.segments.len());
            for (i, &leaf) in root.segments.iter().enumerate() {
                let start = if i == 0 {
                    root.nfa.start()
                } else {
                    chosen[i - 1].1
                };
                let final_ = if i == root.segments.len() - 1 {
                    root.single_final()
                } else {
                    chosen[i].0
                };
                let machine = root.nfa.induce_segment(start, final_);
                if machine.is_empty_language() {
                    return; // incompatible choice combination
                }
                store.note_materialized(machine.num_states());
                let machine = Lang::new(machine);
                let machine = if minimize {
                    store.minimized(&machine)
                } else {
                    machine
                };
                solution.push((leaf, machine));
            }
            out.push(solution);
            return;
        }
        for &edge in &candidates[k] {
            // Early pruning: the segment ending at this bridge must be
            // nonempty given the previous choice.
            let seg_start = if k == 0 {
                root.nfa.start()
            } else {
                chosen[k - 1].1
            };
            if !root.nfa.reaches(seg_start, edge.0) {
                continue;
            }
            chosen.push(edge);
            enumerate_rec(root, candidates, chosen, out, cap, minimize, store);
            chosen.pop();
        }
    }

    /// The post-merge constant filter, verbatim but for its signature.
    pub(super) fn reject_narrowed(
        mut solutions: Vec<GroupSolution>,
        graph: &DependencyGraph,
        system: &System,
        store: &LangStore,
        limits: InclusionLimits,
        cost: GroupCost,
    ) -> Result<Vec<GroupSolution>, ProductCapHit> {
        // Reject combinations that narrow a constant leaf: constants are not
        // assignable, so their induced language must be their full language.
        // Each check is a budgeted inclusion query: the search's frontier loop
        // honors the same per-operation cap (and deadline) as the product
        // builds, so a blowup hiding in the subset judgment aborts the group
        // instead of running away.
        {
            let mut kept = Vec::with_capacity(solutions.len());
            for sol in solutions {
                let mut holds = true;
                for (node, machine) in &sol {
                    if let NodeKind::Const(c) = graph.kind(*node) {
                        match store.try_is_subset(system.const_lang(c), machine, &limits) {
                            Ok(included) => {
                                if !included {
                                    holds = false;
                                    break;
                                }
                            }
                            Err(abort) => return Err(abort_to_cap_hit(&abort, cost)),
                        }
                    }
                }
                if holds {
                    kept.push(sol);
                }
            }
            solutions = kept;
        }
        Ok(solutions)
    }
}

/// `solve_group_inner` as it ran on the reference enumeration and filter.
fn reference_solve_group(
    graph: &DependencyGraph,
    group: &CiGroup,
    system: &System,
    leaf_machines: &BTreeMap<NodeId, Lang>,
    options: &SolveOptions,
    store: &LangStore,
) -> Result<GroupOutcome, ProductCapHit> {
    let limits = InclusionLimits {
        max_macrostates: options.budget.max_product_states,
        deadline: None,
    };
    let cap = limits
        .max_macrostates
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
    let unsat = |cost: GroupCost| {
        Ok(GroupOutcome {
            solutions: Vec::new(),
            cost,
        })
    };
    let roots = match builder.build_roots() {
        Ok(Some(roots)) => roots,
        Ok(None) => return unsat(cost.add_products(&builder.product_states)),
        Err(CapHit) => {
            return Err(ProductCapHit {
                kind: BudgetKind::ProductStates,
                limit: limits.max_macrostates.unwrap_or(u64::MAX),
                cost: cost.add_products(&builder.product_states),
            })
        }
    };
    cost = cost.add_products(&builder.product_states);
    let mut per_root = Vec::with_capacity(roots.len());
    for root in &roots {
        let candidates = reference::enumerate_root(root, options.max_disjuncts, true, store);
        if candidates.is_empty() {
            return unsat(cost);
        }
        per_root.push(candidates);
    }
    let mut solutions: Vec<GroupSolution> = vec![GroupSolution::new()];
    for candidates in &per_root {
        let mut next = Vec::new();
        for partial in &solutions {
            for candidate in candidates {
                if let Some(merged) = merge(partial, candidate, store) {
                    next.push(merged);
                }
                if let Some(cap) = options.max_disjuncts {
                    if next.len() >= cap {
                        break;
                    }
                }
            }
        }
        solutions = next;
        if solutions.is_empty() {
            return unsat(cost);
        }
    }
    solutions = reference::reject_narrowed(solutions, graph, system, store, limits, cost)?;
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
    solutions = minimize(solutions, &linear, graph, store, &options.metrics, &limits)
        .map_err(|abort| abort_to_cap_hit(&abort, cost))?;
    cost.states_built = solutions
        .iter()
        .flat_map(|sol| sol.values())
        .map(|lang| lang.num_states() as u64)
        .sum();
    Ok(GroupOutcome { solutions, cost })
}

/// A solution as the differential compares it: each leaf's language by
/// canonical key, in node order.
type KeyedSolution = Vec<(NodeId, Arc<CanonicalKey>)>;

fn keys_of<'a>(leaves: impl IntoIterator<Item = (&'a NodeId, &'a Lang)>) -> KeyedSolution {
    leaves
        .into_iter()
        .map(|(node, lang)| (*node, lang.fingerprint()))
        .collect()
}

/// A group outcome up to what the rewrite may change: solutions by key, the
/// product states (exact), and an abort in full.
fn comparable(
    outcome: Result<GroupOutcome, ProductCapHit>,
) -> Result<(Vec<KeyedSolution>, u64), ProductCapHit> {
    outcome.map(|outcome| {
        let solutions = outcome.solutions.iter().map(keys_of).collect();
        (solutions, outcome.cost.product_states)
    })
}

/// Each group's leaf machines as the solver's reduce phase builds them: a
/// variable gets the (minimized) intersection of its inbound constants, a
/// constant its own handle.
fn leaf_machines(graph: &DependencyGraph, system: &System) -> BTreeMap<NodeId, Lang> {
    let store = LangStore::new();
    let mut leaves = BTreeMap::new();
    for group in graph.ci_groups() {
        for &node in &group.nodes {
            let machine = match graph.kind(node) {
                NodeKind::Var(_) => graph
                    .inbound_subset_sources(node)
                    .into_iter()
                    .filter_map(|source| match graph.kind(source) {
                        NodeKind::Const(c) => Some(system.const_lang(c).clone()),
                        _ => None,
                    })
                    .reduce(|m, c| store.minimized(&store.intersect(&m, &c)))
                    .unwrap_or_else(|| Lang::new(Nfa::sigma_star())),
                NodeKind::Const(c) => system.const_lang(c).clone(),
                NodeKind::Temp(_) => continue,
            };
            leaves.insert(node, machine);
        }
    }
    leaves
}

/// What one system exercised, summed over the systems a test runs.
#[derive(Default, Debug)]
struct Coverage {
    groups: usize,
    solutions: usize,
    /// Reference candidates that narrowed a constant.
    narrowed: usize,
    /// Constant segments decided by an inclusion query.
    queried: usize,
    /// Budgeted runs that aborted (in both).
    aborts: usize,
}

/// Runs every check on every CI-group of `system`. The reference counted
/// narrowing combinations against [`SolveOptions::max_disjuncts`], so
/// outcomes are compared without that cap, and with the default one only
/// where no combination narrows a constant.
fn assert_matches_reference(system: &System, what: &str, coverage: &mut Coverage) {
    let graph = DependencyGraph::from_system(system);
    let leaves = leaf_machines(&graph, system);
    for group in graph.ci_groups() {
        coverage.groups += 1;
        let what = format!("{what}, group {}", group.index);
        let narrowed = assert_candidates_match(&graph, &group, system, &leaves, &what, coverage);
        let run = |options: &SolveOptions, reference: bool| {
            let store = LangStore::new();
            let outcome = if reference {
                reference_solve_group(&graph, &group, system, &leaves, options, &store)
            } else {
                solve_group(
                    &graph,
                    &group,
                    system,
                    &leaves,
                    options,
                    None,
                    &store,
                    &Tracer::disabled(),
                )
            };
            comparable(outcome)
        };
        let unbounded = SolveOptions {
            max_disjuncts: None,
            ..SolveOptions::default()
        };
        let expected = run(&unbounded, true);
        assert_eq!(run(&unbounded, false), expected, "{what}");
        let (solutions, product_states) = expected.expect("unbudgeted");
        coverage.solutions += solutions.len();
        if narrowed == 0 {
            let defaults = SolveOptions::default();
            assert_eq!(
                run(&defaults, false),
                run(&defaults, true),
                "{what}, default cap"
            );
        }
        // Caps growing by half from one to past every product build, where
        // only inclusion queries can still abort.
        let mut limit = 1;
        while limit <= 2 * product_states.max(1) {
            let capped = SolveOptions {
                budget: Budget {
                    max_product_states: Some(limit),
                    ..Budget::default()
                },
                ..unbounded.clone()
            };
            let expected = run(&capped, true);
            coverage.aborts += usize::from(expected.is_err());
            assert_eq!(run(&capped, false), expected, "{what}, cap {limit}");
            limit += limit.div_ceil(2);
        }
    }
}

/// Each root's candidates, unbounded and under a cap of two, are the
/// reference's with the narrowing combinations removed. Returns how many
/// reference candidates narrowed a constant.
fn assert_candidates_match(
    graph: &DependencyGraph,
    group: &CiGroup,
    system: &System,
    leaves: &BTreeMap<NodeId, Lang>,
    what: &str,
    coverage: &mut Coverage,
) -> usize {
    let builder = GroupBuilder {
        graph,
        group,
        system,
        leaf_machines: leaves,
        metrics: &Metrics::disabled(),
        ledger: &Ledger::disabled(),
        cap: usize::MAX,
        product_states: Cell::new(0),
    };
    let Ok(Some(roots)) = builder.build_roots() else {
        return 0;
    };
    let mut narrowed = 0;
    for (r, root) in roots.iter().enumerate() {
        let mut whole: Vec<KeyedSolution> = Vec::new();
        for candidate in reference::enumerate_root(root, None, true, &LangStore::new()) {
            let narrows = candidate
                .iter()
                .any(|(node, lang)| match graph.kind(*node) {
                    NodeKind::Const(c) => !system.const_lang(c).same_language(lang),
                    _ => false,
                });
            narrowed += usize::from(narrows);
            if !narrows {
                whole.push(keys_of(candidate.iter().map(|(n, l)| (n, l))));
            }
        }
        for cap in [None, Some(2)] {
            let collected = Arc::new(crate::ledger::CollectLedger::new());
            let options = SolveOptions {
                max_disjuncts: cap,
                ledger: Ledger::new(collected.clone()),
                ..SolveOptions::default()
            };
            let candidates = enumerate_root(
                root,
                &options,
                &InclusionLimits::UNLIMITED,
                &LangStore::new(),
            )
            .expect("unbudgeted");
            let got: Vec<KeyedSolution> = candidates
                .iter()
                .map(|c| keys_of(c.iter().map(|(n, l)| (n, l))))
                .collect();
            let expected: Vec<KeyedSolution> = whole
                .iter()
                .take(cap.unwrap_or(usize::MAX))
                .cloned()
                .collect();
            assert_eq!(got, expected, "{what}, root {r}, cap {cap:?}");
            // Constant leaves are bound to the constants' own handles.
            for candidate in &candidates {
                for (node, lang) in candidate {
                    if let NodeKind::Const(c) = graph.kind(*node) {
                        assert!(Lang::ptr_eq(lang, system.const_lang(c)), "{what}");
                    }
                }
            }
            let records = collected.take();
            assert!(records.iter().all(|r| r.site == SITE_GCI), "{what}");
            if cap.is_none() {
                coverage.queried += records.len();
            }
        }
    }
    coverage.narrowed += narrowed;
    narrowed
}

/// The Figure 12 rows' systems as the front end builds them, repeats and
/// shared condition handles included, crossed over from the corpus's build
/// of this crate.
pub(crate) fn fig12_systems() -> Vec<(String, System)> {
    use dprle_corpus::dprle_lang::dprle_core as theirs;
    use dprle_corpus::dprle_lang::{explore, symex::SymexOptions, to_system, Policy};
    fn local_expr(e: &theirs::Expr) -> Expr {
        match e {
            theirs::Expr::Var(v) => Expr::Var(VarId(v.0)),
            theirs::Expr::Const(c) => Expr::Const(ConstId(c.0)),
            theirs::Expr::Concat(a, b) => local_expr(a).concat(local_expr(b)),
            theirs::Expr::Union(a, b) => local_expr(a).union(local_expr(b)),
        }
    }
    let mut out = Vec::new();
    for (spec, program) in dprle_corpus::fig12_programs() {
        let reaches = explore(&program, &SymexOptions::default()).expect(spec.name);
        for (i, reach) in reaches.iter().enumerate() {
            let (theirs, _) = to_system(reach, &Policy::sql_quote());
            let mut system = System::new();
            for v in theirs.var_ids() {
                system.var(theirs.var_name(v));
            }
            for c in 0..theirs.num_consts() {
                let id = theirs::ConstId(c as u32);
                system.constant(theirs.const_name(id), theirs.const_lang(id).clone());
            }
            for c in theirs.constraints() {
                system.require(local_expr(&c.lhs), ConstId(c.rhs.0));
            }
            out.push((format!("{} sink {i}", spec.name), system));
        }
    }
    out
}

#[test]
fn enumeration_matches_reference_on_fig12_systems() {
    let systems = fig12_systems();
    assert!(systems.len() >= 17, "every row has a sink");
    let mut coverage = Coverage::default();
    for (name, system) in &systems {
        assert_matches_reference(&system.normalized(), name, &mut coverage);
    }
    assert!(
        coverage.groups >= 17 && coverage.solutions >= 17,
        "{coverage:?}"
    );
    // Every Figure 12 constant is a string literal: no query, no narrowing.
    assert_eq!(
        (coverage.queried, coverage.narrowed),
        (0, 0),
        "{coverage:?}"
    );
}

#[test]
fn enumeration_matches_reference_on_figure_9_10() {
    let exact = |p: &str| Regex::new(p).expect("pattern").exact_language().clone();
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
    let mut coverage = Coverage::default();
    assert_matches_reference(&sys, "Figure 9/10", &mut coverage);
    assert_eq!(coverage.solutions, 4, "{coverage:?}");
}

/// Every segment the reference cuts from the roots of `system`'s CI-groups.
fn segments_of(system: &System) -> Vec<Nfa> {
    let graph = DependencyGraph::from_system(system);
    let leaves = leaf_machines(&graph, system);
    let options = SolveOptions::default();
    let store = LangStore::new();
    let mut segments = Vec::new();
    for group in graph.ci_groups() {
        let builder = GroupBuilder {
            graph: &graph,
            group: &group,
            system,
            leaf_machines: &leaves,
            metrics: &options.metrics,
            ledger: &options.ledger,
            cap: usize::MAX,
            product_states: Cell::new(0),
        };
        let roots = builder.build_roots().ok().flatten().unwrap_or_default();
        for root in &roots {
            for candidate in reference::enumerate_root(root, None, false, &store) {
                segments.extend(candidate.into_iter().map(|(_, lang)| lang.into_nfa()));
            }
        }
    }
    segments
}

#[test]
fn structural_hits_match_cold_canonicalization_on_segments() {
    let mut systems: Vec<System> = fig12_systems()
        .into_iter()
        .map(|(_, system)| system.normalized().into_owned())
        .collect();
    let exact = |p: &str| Regex::new(p).expect("pattern").exact_language().clone();
    let mut figure_9_10 = System::new();
    let (va, vb, vc) = (
        figure_9_10.var("va"),
        figure_9_10.var("vb"),
        figure_9_10.var("vc"),
    );
    for (v, pattern) in [(va, "o(pp)+"), (vb, "p*(qq)+"), (vc, "q*r")] {
        let c = figure_9_10.constant(pattern, exact(pattern));
        figure_9_10.require(Expr::Var(v), c);
    }
    let c1 = figure_9_10.constant("c1", exact("op{5}q*"));
    let c2 = figure_9_10.constant("c2", exact("p*q{4}r"));
    figure_9_10.require(Expr::Var(va).concat(Expr::Var(vb)), c1);
    figure_9_10.require(Expr::Var(vb).concat(Expr::Var(vc)), c2);
    systems.push(figure_9_10);
    let mut checked = 0;
    for system in &systems {
        for segment in segments_of(system) {
            // The key decodes to the minimal machine. One handle
            // canonicalizes; a fresh handle of the same machine takes its
            // key from the table, and minimizes from that key.
            let store = LangStore::new();
            let cold_key = dprle_automata::canonical_key(&segment);
            assert_eq!(cold_key.to_nfa(), dprle_automata::minimize(&segment));
            assert_eq!(*store.key_of(&Lang::new(segment.clone())), cold_key);
            let before = store.stats();
            let warm = Lang::new(segment.clone());
            assert_eq!(*store.key_of(&warm), cold_key);
            let after = store.stats();
            assert_eq!(after.fingerprint_misses, before.fingerprint_misses);
            assert_eq!(after.fingerprint_hits, before.fingerprint_hits + 1);
            let minimal = store.minimized(&Lang::new(segment.clone()));
            assert_eq!(*minimal.nfa(), dprle_automata::minimize(&segment));
            checked += 1;
        }
    }
    assert!(checked >= 40, "{checked} segments");
}

/// The constants random systems draw from: literals (ε included), ε-chains
/// of literals, multi-word and infinite constants.
fn constant_pool() -> Vec<(&'static str, Nfa)> {
    let exact = |p: &str| Regex::new(p).expect("pattern").exact_language().clone();
    let lit = Nfa::literal;
    vec![
        ("'a'", lit(b"a")),
        ("'ab'", lit(b"ab")),
        ("'ba'", lit(b"ba")),
        ("''", lit(b"")),
        ("'a'·'b'", ops::concat(&lit(b"a"), &lit(b"b")).nfa),
        (
            "'b'·'a'·'a'",
            ops::concat(&ops::concat(&lit(b"b"), &lit(b"a")).nfa, &lit(b"a")).nfa,
        ),
        ("a|ab", exact("a|ab")),
        ("[ab]", exact("[ab]")),
        ("b|ba|bb", exact("b|ba|bb")),
        ("a*", exact("a*")),
        ("(ab)*", exact("(ab)*")),
        ("[ab]{0,2}", exact("[ab]{0,2}")),
    ]
}

/// The right-hand sides of random concatenation constraints.
const BOUNDS: &[&str] = &[
    "[ab]*",
    "a*b*",
    "(ab)*",
    "a[ab]*b",
    "[ab]{0,5}",
    "(a|ba)*",
    "ab(a|b)*",
    "(aa|b)*a?",
];

/// Filters for variables.
const FILTERS: &[&str] = &["[ab]*", "a+", "b*", "(ab)+", "[ab]{1,3}", "a*b"];

/// A random system over `{a, b}`: up to three variables, most of them
/// filtered, and a concatenation (sometimes two) of two to four operands,
/// one or two of them variables, so that constants land at the ends and in
/// the interior.
fn random_system(seed: u64) -> System {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = constant_pool();
    let mut sys = System::new();
    let vars: Vec<VarId> = (0..rng.gen_range(1..=3))
        .map(|i| sys.var(&format!("v{i}")))
        .collect();
    for &v in &vars {
        if rng.gen_bool(0.8) {
            let filter = FILTERS[rng.gen_range(0..FILTERS.len())];
            let c = sys
                .constant_regex_exact(&format!("filter {filter}"), filter)
                .expect("filter");
            sys.require(Expr::Var(v), c);
        }
    }
    for _ in 0..1 + usize::from(rng.gen_bool(0.3)) {
        let len = rng.gen_range(2..=4);
        let (first, second) = (rng.gen_range(0..len), rng.gen_range(0..len));
        let operands: Vec<Expr> = (0..len)
            .map(|i| {
                if i == first || i == second {
                    Expr::Var(vars[rng.gen_range(0..vars.len())])
                } else {
                    let (name, machine) = &pool[rng.gen_range(0..pool.len())];
                    Expr::Const(sys.constant(name, machine.clone()))
                }
            })
            .collect();
        let bound = BOUNDS[rng.gen_range(0..BOUNDS.len())];
        let rhs = sys
            .constant_regex_exact(&format!("bound {bound}"), bound)
            .expect("bound");
        let lhs = operands
            .into_iter()
            .reduce(|l, r| l.concat(r))
            .expect("two or more operands");
        sys.require(lhs, rhs);
    }
    sys
}

#[test]
fn enumeration_matches_reference_on_random_systems_with_constants() {
    let mut coverage = Coverage::default();
    for seed in 0..96 {
        let system = random_system(seed);
        assert_matches_reference(&system, &format!("seed {seed}: {system}"), &mut coverage);
    }
    // The inclusion path ran, and both outcomes of a constant check did.
    assert!(coverage.queried > 0, "{coverage:?}");
    assert!(coverage.narrowed > 0, "{coverage:?}");
    assert!(
        coverage.solutions > 0 && coverage.aborts > 0,
        "{coverage:?}"
    );
}
