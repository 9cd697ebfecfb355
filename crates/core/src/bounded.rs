//! A bounded-string baseline solver.
//!
//! The paper positions DPRLE against *bounded* approaches (§5: its
//! concurrent HAMPI work "show\[s\] that bounded context-free language
//! constraints can be solved efficiently by direct conversion to SAT.
//! Both approaches deal with individual string assignments. The algorithm
//! presented here, in contrast, deals with languages rather than
//! individual strings, and does not require (or reason about) string
//! length bounds."
//!
//! To measure that contrast, this module implements the baseline: find
//! *one concrete string per variable*, with every string's length at most
//! a user-supplied bound, satisfying the system. The search enumerates
//! candidate strings per variable from the variable's *local* constraints
//! (plain subset constraints only — the cheap pruning any bounded solver
//! would do) in length-lexicographic order and backtracks over tuples,
//! checking concatenation constraints by direct membership.
//!
//! The `baseline` bench compares this against the decision procedure: the
//! baseline degrades with the length bound and with how deep the shortest
//! witness sits, while DPRLE's cost is independent of witness length.

use crate::graph::{DependencyGraph, NodeKind};
use crate::solution::Assignment;
use crate::spec::{Constraint, Expr, System, VarId};
use dprle_automata::analysis::members;
use dprle_automata::{ops, Nfa};
use std::collections::BTreeMap;

/// Options for the bounded baseline.
#[derive(Clone, Debug)]
pub struct BoundedOptions {
    /// Maximum length of any variable's string.
    pub max_len: usize,
    /// Maximum candidate strings enumerated per variable.
    pub max_candidates: usize,
}

impl Default for BoundedOptions {
    fn default() -> Self {
        BoundedOptions {
            max_len: 8,
            max_candidates: 4096,
        }
    }
}

/// A concrete (single-string-per-variable) solution.
pub type BoundedSolution = BTreeMap<VarId, Vec<u8>>;

/// Finds one bounded concrete solution, or `None` if none exists within
/// the bounds. (Unlike [`crate::solve()`], a `None` here proves nothing:
/// longer strings might work — that incompleteness is the point of the
/// comparison.)
pub fn solve_bounded(system: &System, options: &BoundedOptions) -> Option<BoundedSolution> {
    let constraints = system.union_free_constraints();

    // Check variable-free constraints directly.
    for c in &constraints {
        if c.lhs.variables().is_empty() {
            let lhs = crate::solve::eval_expr(system, &c.lhs, &Assignment::new());
            if !dprle_automata::is_subset(&lhs, system.const_machine(c.rhs)) {
                return None;
            }
        }
    }

    // Per-variable candidate languages: Σ≤n intersected with the
    // variable's plain subset constraints.
    let graph = DependencyGraph::from_constraints(system, &constraints);
    let vars: Vec<VarId> = system.var_ids().collect();
    let mut candidates: Vec<Vec<Vec<u8>>> = Vec::with_capacity(vars.len());
    for &v in &vars {
        let node = graph.var_node(v);
        let mut lang = Nfa::length_between(0, options.max_len);
        for source in graph.inbound_subset_sources(node) {
            if let NodeKind::Const(c) = graph.kind(source) {
                lang = ops::intersect_lang(&lang, system.const_machine(c));
            }
        }
        let words: Vec<Vec<u8>> = members(&lang).take(options.max_candidates).collect();
        if words.is_empty() {
            return None;
        }
        candidates.push(words);
    }

    // Backtracking over tuples, checking every constraint whose variables
    // are all assigned.
    let mut assignment: BTreeMap<VarId, Vec<u8>> = BTreeMap::new();
    if search(system, &constraints, &vars, &candidates, 0, &mut assignment) {
        Some(assignment)
    } else {
        None
    }
}

fn search(
    system: &System,
    constraints: &[Constraint],
    vars: &[VarId],
    candidates: &[Vec<Vec<u8>>],
    depth: usize,
    assignment: &mut BTreeMap<VarId, Vec<u8>>,
) -> bool {
    if depth == vars.len() {
        return true;
    }
    let v = vars[depth];
    for word in &candidates[depth] {
        assignment.insert(v, word.clone());
        // Early pruning: check constraints fully assigned so far.
        let consistent = constraints.iter().all(|c| {
            let used = c.lhs.variables();
            if used.iter().any(|u| !assignment.contains_key(u)) {
                return true; // not yet checkable
            }
            let concrete = concretize(system, &c.lhs, assignment);
            system.const_machine(c.rhs).contains(&concrete)
        });
        if consistent && search(system, constraints, vars, candidates, depth + 1, assignment) {
            return true;
        }
    }
    assignment.remove(&v);
    false
}

/// Evaluates a union-free expression to concrete bytes under a concrete
/// assignment (constants contribute their shortest member).
fn concretize(system: &System, e: &Expr, assignment: &BTreeMap<VarId, Vec<u8>>) -> Vec<u8> {
    match e {
        Expr::Var(v) => assignment.get(v).cloned().unwrap_or_default(),
        Expr::Const(c) => system
            .const_machine(*c)
            .shortest_member()
            .unwrap_or_default(),
        Expr::Concat(a, b) => {
            let mut out = concretize(system, a, assignment);
            out.extend(concretize(system, b, assignment));
            out
        }
        Expr::Union(a, _) => concretize(system, a, assignment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve, SolveOptions};
    use dprle_regex::Regex;

    fn exact(pattern: &str) -> Nfa {
        Regex::new(pattern)
            .expect("compiles")
            .exact_language()
            .clone()
    }

    /// Checks a bounded solution against the system concretely.
    fn check(system: &System, sol: &BoundedSolution) {
        for c in system.union_free_constraints() {
            let concrete = concretize(system, &c.lhs, sol);
            assert!(
                system.const_machine(c.rhs).contains(&concrete),
                "constraint violated by {:?}",
                sol
            );
        }
    }

    #[test]
    fn bounded_finds_simple_solutions() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let c1 = sys.constant("c1", exact("x(yy)+"));
        let c2 = sys.constant("c2", exact("(yy)*z"));
        let c3 = sys.constant("c3", exact("xyyz|xyyyyz"));
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Var(v2), c2);
        sys.require(Expr::Var(v1).concat(Expr::Var(v2)), c3);
        let sol = solve_bounded(&sys, &BoundedOptions::default()).expect("in bounds");
        check(&sys, &sol);
    }

    #[test]
    fn bounded_agrees_with_dprle_on_the_motivating_example() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c1 = sys.constant_regex("c1", "[\\d]+$").expect("filter");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant_regex("c3", "'").expect("quote");
        sys.require(Expr::Var(v1), c1);
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        let sol = solve_bounded(&sys, &BoundedOptions::default()).expect("in bounds");
        check(&sys, &sol);
        assert!(sol[&v1].contains(&b'\''));
        assert!(solve(&sys, &SolveOptions::default()).is_sat());
    }

    #[test]
    fn bounded_misses_long_witnesses() {
        // The shortest satisfying string has length 10; a bound of 8 fails
        // while the decision procedure (no bounds) succeeds — the paper's
        // "does not require string length bounds" claim in miniature.
        let mut sys = System::new();
        let v = sys.var("v");
        let c = sys.constant("c", exact("a{10}"));
        sys.require(Expr::Var(v), c);
        assert!(solve_bounded(&sys, &BoundedOptions::default()).is_none());
        assert!(solve(&sys, &SolveOptions::default()).is_sat());
        let bigger = BoundedOptions {
            max_len: 10,
            ..Default::default()
        };
        assert!(solve_bounded(&sys, &bigger).is_some());
    }

    #[test]
    fn bounded_respects_unsat() {
        let mut sys = System::new();
        let v = sys.var("v");
        let a = sys.constant("a", exact("a+"));
        let b = sys.constant("b", exact("b+"));
        sys.require(Expr::Var(v), a);
        sys.require(Expr::Var(v), b);
        assert!(solve_bounded(&sys, &BoundedOptions::default()).is_none());
    }

    #[test]
    fn bounded_checks_variable_free_constraints() {
        let mut sys = System::new();
        let v = sys.var("v");
        let small = sys.constant("small", exact("zz"));
        let big = sys.constant("big", exact("z"));
        sys.require(Expr::Const(small), big); // zz ⊄ z
        sys.require(Expr::Var(v), small);
        assert!(solve_bounded(&sys, &BoundedOptions::default()).is_none());
    }

    #[test]
    fn shared_variable_tuples_are_checked_jointly() {
        // va·vb ⊆ c1, vb·vc ⊆ c2 — vb must satisfy both.
        let mut sys = System::new();
        let va = sys.var("va");
        let vb = sys.var("vb");
        let vc = sys.var("vc");
        let c1 = sys.constant("c1", exact("op{5}q*"));
        let c2 = sys.constant("c2", exact("p*q{4}r"));
        let ca = sys.constant("ca", exact("o(pp)+"));
        let cb = sys.constant("cb", exact("p*(qq)+"));
        let cc = sys.constant("cc", exact("q*r"));
        sys.require(Expr::Var(va), ca);
        sys.require(Expr::Var(vb), cb);
        sys.require(Expr::Var(vc), cc);
        sys.require(Expr::Var(va).concat(Expr::Var(vb)), c1);
        sys.require(Expr::Var(vb).concat(Expr::Var(vc)), c2);
        let options = BoundedOptions {
            max_len: 7,
            ..Default::default()
        };
        let sol = solve_bounded(&sys, &options).expect("in bounds");
        check(&sys, &sol);
    }
}
