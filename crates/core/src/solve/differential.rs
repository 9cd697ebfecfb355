//! Reduce and verification against the code they replaced, kept verbatim
//! as `#[cfg(test)]` references: the reduce loop that intersected every
//! variable's inbound constants in that variable's own order, and the
//! verification that decided every constraint by the antichain search,
//! copying each leaf machine. A thread in [reference mode](with_reference)
//! runs the references inside the real solver, so whole solves compare, on
//! interning and pass-through stores. Solutions must agree in order, with
//! each variable's canonical key, witness and printed language, and with
//! `minimize_intermediate` on, machine for machine. With it off, a shared
//! leaf is the product in the first variable's order, so only the
//! languages must agree, and on Figure 12 what prints. The verification
//! filter, which walks each distinct judgment against the right-hand
//! constant's key (or, for a constant without one, runs the antichain
//! search), and the public `satisfies` must give the reference's
//! verdict on random assignments, failing ones included, and the
//! verify-site ledger must hold one record per distinct judgment.

use super::*;
use crate::ledger::CollectLedger;
use crate::spec::ConstId;
use crate::trace::CollectSink;
use dprle_regex::Regex;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashSet;

thread_local! {
    static REFERENCE: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread runs the reference reduce and verification.
pub(super) fn reference_mode() -> bool {
    REFERENCE.with(Cell::get)
}

/// Runs `f` with this thread in reference mode.
fn with_reference<T>(f: impl FnOnce() -> T) -> T {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            REFERENCE.with(|r| r.set(false));
        }
    }
    REFERENCE.with(|r| r.set(true));
    let _reset = Reset;
    f()
}

/// The replaced reduce loop and verification.
pub(super) mod reference {
    use super::super::*;

    /// Every variable picks up the intersection of its inbound subset
    /// constants, in its own inbound order.
    pub(in crate::solve) fn reduce(
        system: &System,
        graph: &DependencyGraph,
        options: &SolveOptions,
        store: &LangStore,
        tracer: &Tracer,
        stats: &mut SolveStats,
        track: &mut BudgetTrack,
    ) -> Result<BTreeMap<NodeId, Lang>, Breach> {
        let mut leaf: BTreeMap<NodeId, Lang> = BTreeMap::new();
        for v in system.var_ids() {
            let node = graph.var_node(v);
            let _reduce_span = tracer.span("reduce", Some(node.index() as u32), None);
            let mut m: Option<Lang> = None;
            for source in graph.inbound_subset_sources(node) {
                if let NodeKind::Const(c) = graph.kind(source) {
                    let constant = system.const_lang(c);
                    let next = match m {
                        None => constant.clone(),
                        Some(prev) => store.intersect(&prev, constant),
                    };
                    m = Some(if options.minimize_intermediate {
                        let _min_span = tracer.span("minimize", Some(node.index() as u32), None);
                        store.minimized(&next)
                    } else {
                        next
                    });
                }
            }
            let m = m.unwrap_or_else(|| Lang::new(Nfa::sigma_star()));
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

    /// [`satisfies`], recording each per-constraint `⊆` judgment into the
    /// ledger under the `verify` site (the solver's verification filter).
    pub(in crate::solve) fn satisfies_ledgered(
        ledger: &Ledger,
        system: &System,
        constraints: &[Constraint],
        assignment: &Assignment,
    ) -> bool {
        constraints.iter().all(|c| {
            let lhs = eval_expr(system, &c.lhs, assignment);
            let rhs = system.const_machine(c.rhs);
            ledgered_subset(ledger, SITE_VERIFY, &lhs, rhs, |limits| {
                inclusion::try_subset(&lhs, rhs, limits)
            })
        })
    }
}

/// One solve's answer and the records the comparison reads.
struct Run {
    solution: Solution,
    stats: SolveStats,
    /// `(node, var, states)` of every `ReduceStep` event, in order.
    reduce_steps: Vec<(u32, String, usize)>,
    verify_records: usize,
}

fn run(system: &System, options: &SolveOptions, store: &LangStore) -> Run {
    let sink = Arc::new(CollectSink::new());
    let ledger = Arc::new(CollectLedger::new());
    let options = SolveOptions {
        ledger: Ledger::new(ledger.clone()),
        ..options.clone()
    };
    let (solution, stats) = solve_traced(system, &options, store, &Tracer::new(sink.clone()));
    let reduce_steps = sink
        .take()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::ReduceStep { node, var, states } => Some((node, var, states)),
            _ => None,
        })
        .collect();
    let verify_records = ledger
        .take()
        .iter()
        .filter(|r| r.site == SITE_VERIFY)
        .count();
    Run {
        solution,
        stats,
        reduce_steps,
        verify_records,
    }
}

/// A variable's language as the comparison reads it: the canonical key, a
/// shortest witness and the printed language.
type Observed = (VarId, Arc<dprle_automata::CanonicalKey>, String, String);

fn observed(a: &Assignment) -> Vec<Observed> {
    a.vars()
        .map(|v| {
            let lang = a.get(v).expect("assigned");
            let witness = format!("{:?}", lang.shortest_member());
            let printed = dprle_regex::display_language(lang, 200);
            (v, lang.fingerprint(), witness, printed)
        })
        .collect()
}

/// The distinct judgments `satisfies` poses before it stops, counted
/// independently of [`same_judgment`]: each constraint is rendered with
/// the addresses of its leaves' handles, and counting stops after the
/// first judgment that fails.
fn distinct_judgments(
    system: &System,
    constraints: &[Constraint],
    assignment: &Assignment,
) -> usize {
    fn render(system: &System, a: &Assignment, e: &Expr) -> String {
        match e {
            Expr::Var(v) => a
                .get(*v)
                .map_or_else(|| "Σ*".to_owned(), |l| l.handle_addr().to_string()),
            Expr::Const(c) => system.const_lang(*c).handle_addr().to_string(),
            Expr::Concat(l, r) => format!("({}·{})", render(system, a, l), render(system, a, r)),
            Expr::Union(l, r) => format!("({}|{})", render(system, a, l), render(system, a, r)),
        }
    }
    let mut seen = HashSet::new();
    for c in constraints {
        let key = (
            render(system, assignment, &c.lhs),
            system.const_lang(c.rhs).handle_addr(),
        );
        if seen.insert(key) {
            let lhs = eval_expr(system, &c.lhs, assignment);
            if !dprle_automata::is_subset(&lhs, system.const_machine(c.rhs)) {
                break;
            }
        }
    }
    seen.len()
}

/// What the comparisons exercised, summed over the systems a test runs.
#[derive(Default, Debug)]
struct Coverage {
    solutions: usize,
    /// Variables that reused another variable's leaf.
    shared_leaves: usize,
    /// Verification judgments skipped as repeats.
    repeated_judgments: usize,
}

/// Solves `system` with the new and the reference code under both
/// settings of `minimize_intermediate`, each on a fresh interning and a
/// fresh pass-through store, and compares the answers. With
/// `prints_identical_off`, witnesses and printed languages must also match
/// without intermediate minimization.
fn assert_matches_reference(
    system: &System,
    what: &str,
    prints_identical_off: bool,
    coverage: &mut Coverage,
) {
    for (minimize, interning) in [(true, true), (false, true), (true, false), (false, false)] {
        let options = SolveOptions {
            minimize_intermediate: minimize,
            ..SolveOptions::default()
        };
        let what = format!("{what} (minimize_intermediate {minimize}, interning {interning})");
        let new = run(system, &options, &LangStore::interning(interning));
        let old = with_reference(|| run(system, &options, &LangStore::interning(interning)));
        let (got, want) = (new.solution.assignments(), old.solution.assignments());
        assert_eq!(got.len(), want.len(), "{what}");
        for (g, w) in got.iter().zip(want) {
            let (g, w) = (observed(g), observed(w));
            if minimize || prints_identical_off {
                assert_eq!(g, w, "{what}");
            } else {
                let keys = |o: &[Observed]| {
                    o.iter()
                        .map(|(v, key, ..)| (*v, key.clone()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(keys(&g), keys(&w), "{what}");
            }
        }
        if minimize {
            for (g, w) in got.iter().zip(want) {
                for v in w.vars() {
                    let (gm, wm) = (g.get(v).expect("assigned"), w.get(v).expect("assigned"));
                    assert!(gm.nfa() == wm.nfa(), "{what}: {}", system.var_name(v));
                }
            }
        }
        // Every variable still gets its event, in order; by default with
        // the very machine it gets alone.
        let nodes = |steps: &[(u32, String, usize)]| {
            steps
                .iter()
                .map(|(n, v, _)| (*n, v.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(nodes(&new.reduce_steps), nodes(&old.reduce_steps), "{what}");
        if minimize {
            assert_eq!(new.reduce_steps, old.reduce_steps, "{what}");
            assert_eq!(
                new.stats.max_leaf_states, old.stats.max_leaf_states,
                "{what}"
            );
        }
        for counter in ["product-states", "groups", "branches-completed"] {
            let field = |s: &SolveStats| {
                s.counter_fields()
                    .iter()
                    .find(|(name, _)| *name == counter)
                    .map(|(_, n)| *n)
            };
            assert_eq!(field(&new.stats), field(&old.stats), "{what}: {counter}");
        }
        // One verify record per distinct judgment of each completed branch;
        // all of them held, since no branch was filtered here.
        if old.stats.branches_filtered == 0 && minimize {
            let normalized = system.normalized();
            let constraints = normalized.union_free_constraints();
            let expected: usize = got
                .iter()
                .map(|a| distinct_judgments(&normalized, &constraints, a))
                .sum();
            assert_eq!(new.verify_records, expected, "{what}");
            if interning {
                coverage.repeated_judgments += old.verify_records - new.verify_records;
            }
        }
        if minimize && interning {
            coverage.solutions += got.len();
            coverage.shared_leaves += shared_leaves(system);
        }
    }
}

/// The variables whose bound set of two or more constants an earlier
/// variable already has.
fn shared_leaves(system: &System) -> usize {
    let normalized = system.normalized();
    let graph = DependencyGraph::from_system(&normalized);
    let mut sets: Vec<Vec<NodeId>> = Vec::new();
    let mut shared = 0;
    for v in normalized.var_ids() {
        let mut bounds = graph.inbound_subset_sources(graph.var_node(v));
        bounds.sort();
        if bounds.len() > 1 {
            if sets.contains(&bounds) {
                shared += 1;
            } else {
                sets.push(bounds);
            }
        }
    }
    shared
}

#[test]
fn reduce_and_verify_match_reference_on_fig12_systems() {
    let systems = crate::gci::differential::fig12_systems();
    assert!(systems.len() >= 17, "every row has a sink");
    let mut coverage = Coverage::default();
    let mut verify_records = 0;
    for (name, system) in &systems {
        assert_matches_reference(system, name, true, &mut coverage);
        verify_records += run(system, &SolveOptions::default(), &LangStore::new()).verify_records;
    }
    assert!(coverage.solutions >= 17, "{coverage:?}");
    // Eight rows bound eight variables by one three-constant set, and two
    // rows bound six variables by three two-constant sets.
    assert_eq!(coverage.shared_leaves, 8 * 7 + 2 * 3, "{coverage:?}");
    assert!(coverage.repeated_judgments > 0, "{coverage:?}");
    // The distinct judgments of the 17 rows, each decided once.
    assert_eq!(verify_records, 94);
}

#[test]
fn reduce_and_verify_match_reference_on_figure_9_10() {
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
    assert_matches_reference(&sys, "Figure 9/10", false, &mut coverage);
    assert_eq!(coverage.solutions, 4, "{coverage:?}");
}

/// Languages over `{a, b}` that variables are bounded by.
const FILTERS: &[&str] = &[
    "[ab]*",
    "a*b*",
    "(ab|b)*",
    "[ab]{0,4}",
    "a+|b",
    "(a|bb)*",
    "[ab]*a",
    "b?a*",
];

/// The right-hand sides of concatenation constraints.
const BOUNDS: &[&str] = &["[ab]*", "a*b*", "(ab)*", "[ab]{0,5}", "(a|ba)*"];

/// A random system in which several variables share a bound set, each in
/// its own order, some constraints repeat, and equal constants sometimes
/// share a handle and sometimes are separate copies of one machine.
fn random_system(rng: &mut StdRng) -> System {
    let exact = |p: &str| Regex::new(p).expect("pattern").exact_language().clone();
    let mut sys = System::new();
    let handles: Vec<Lang> = FILTERS.iter().map(|p| Lang::new(exact(p))).collect();
    // Constants: a shared handle, a structural copy, or a fresh handle.
    let mut consts: Vec<ConstId> = Vec::new();
    for k in 0..rng.gen_range(3..=7) {
        let at = rng.gen_range(0..handles.len());
        let lang = match rng.gen_range(0..3) {
            0 => handles[at].clone(),
            1 => Lang::new(handles[at].nfa().clone()),
            _ => Lang::new(exact(FILTERS[rng.gen_range(0..FILTERS.len())])),
        };
        consts.push(sys.constant(&format!("c{k}"), lang));
    }
    let pick = |rng: &mut StdRng| consts[rng.gen_range(0..consts.len())];
    let sets: Vec<Vec<ConstId>> = (0..rng.gen_range(1..=2))
        .map(|_| (0..rng.gen_range(2..=3)).map(|_| pick(rng)).collect())
        .collect();
    let vars: Vec<VarId> = (0..rng.gen_range(2..=5))
        .map(|i| sys.var(&format!("v{i}")))
        .collect();
    for &v in &vars {
        let mut bounds = if rng.gen_bool(0.75) {
            sets[rng.gen_range(0..sets.len())].clone()
        } else {
            vec![pick(rng)]
        };
        // Each variable lists its set in its own order.
        for i in (1..bounds.len()).rev() {
            bounds.swap(i, rng.gen_range(0..=i));
        }
        for c in bounds {
            sys.require(Expr::Var(v), c);
        }
    }
    for _ in 0..rng.gen_range(0..=2) {
        let left = vars[rng.gen_range(0..vars.len())];
        let lhs = if rng.gen_bool(0.5) {
            Expr::Var(left).concat(Expr::Var(vars[rng.gen_range(0..vars.len())]))
        } else {
            let lit = sys.constant(&format!("lit{}", sys.num_consts()), Nfa::literal(b"a"));
            Expr::Const(lit).concat(Expr::Var(left))
        };
        let bound = BOUNDS[rng.gen_range(0..BOUNDS.len())];
        let rhs = sys
            .constant_regex_exact(&format!("bound {bound}"), bound)
            .expect("bound");
        sys.require(lhs, rhs);
    }
    // Repeat some constraints verbatim.
    let repeats: Vec<Constraint> = sys
        .constraints()
        .iter()
        .filter(|_| rng.gen_bool(0.25))
        .cloned()
        .collect();
    for c in repeats {
        sys.require(c.lhs, c.rhs);
    }
    sys
}

#[test]
fn reduce_and_verify_match_reference_on_random_systems() {
    let mut coverage = Coverage::default();
    for seed in 0..48 {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = random_system(&mut rng);
        assert_matches_reference(
            &system,
            &format!("seed {seed}: {system}"),
            false,
            &mut coverage,
        );
    }
    assert!(
        coverage.solutions > 0 && coverage.shared_leaves > 0 && coverage.repeated_judgments > 0,
        "{coverage:?}"
    );
}

/// The verification filter, with an interning and a pass-through store's
/// keys and with none, and the public `satisfies` on random assignments,
/// failing ones included:
/// the same verdict as the reference, and one verify record per distinct
/// judgment the filter poses before it stops.
#[test]
fn satisfies_matches_reference_on_random_assignments() {
    let exact = |p: &str| Regex::new(p).expect("pattern").exact_language().clone();
    let pool: Vec<Lang> = ["a", "ab", "[ab]*", "b*", "a*", "", "ba|b"]
        .iter()
        .map(|p| Lang::new(exact(p)))
        .collect();
    let stores = [LangStore::new(), LangStore::interning(false)];
    let (mut held, mut failed) = (0, 0);
    for seed in 0..64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let system = random_system(&mut rng);
        let normalized = system.normalized();
        for _ in 0..8 {
            let mut assignment = Assignment::new();
            for v in system.var_ids() {
                // A variable may be left out (Σ*), take a pooled handle, or
                // take one of the system's own constant handles.
                match rng.gen_range(0..5) {
                    0 => {}
                    1 => {
                        let c = ConstId(rng.gen_range(0..system.num_consts() as u32));
                        assignment.insert(v, system.const_lang(c).clone());
                    }
                    _ => assignment.insert(v, pool[rng.gen_range(0..pool.len())].clone()),
                }
            }
            for (sys, what) in [(&system, "as built"), (&*normalized, "normalized")] {
                let constraints = sys.union_free_constraints();
                let expected = reference::satisfies_ledgered(
                    &Ledger::disabled(),
                    sys,
                    &constraints,
                    &assignment,
                );
                assert_eq!(
                    satisfies(sys, &constraints, &assignment),
                    expected,
                    "seed {seed}, {what}, the public oracle: {sys}"
                );
                // Each store's keys, and none at all (every constant past
                // the cap: the antichain search decides).
                let unkeyed = vec![None; constraints.len()];
                let keyed = stores.iter().map(|store| {
                    verification_keys(&SolveOptions::default(), store, sys, &constraints)
                });
                for keys in keyed.chain([unkeyed]) {
                    let collected = Arc::new(CollectLedger::new());
                    let ledger = Ledger::new(collected.clone());
                    let verdict =
                        satisfies_ledgered(&ledger, &keys, sys, &constraints, &assignment);
                    assert_eq!(verdict, expected, "seed {seed}, {what}: {sys}");
                    let records = collected.take();
                    assert!(records.iter().all(|r| r.site == SITE_VERIFY));
                    assert_eq!(
                        records.len(),
                        distinct_judgments(sys, &constraints, &assignment),
                        "seed {seed}, {what}: {sys}"
                    );
                }
                if expected {
                    held += 1;
                } else {
                    failed += 1;
                }
            }
        }
    }
    assert!(held > 0 && failed > 0, "held {held}, failed {failed}");
}
