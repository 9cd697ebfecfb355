//! Unsat cores: minimal explanations of unsatisfiability.
//!
//! When the solver reports "no satisfying assignments", downstream tools
//! want to know *why* — which checks conflict. (In the paper's setting an
//! unsat system means the code is safe; the core names the sanitization
//! responsible, which is exactly what a developer auditing a
//! reported-then-refuted defect wants to see.)
//!
//! The implementation is deletion-based minimization: drop one constraint
//! at a time and re-solve; a constraint is kept in the core iff its removal
//! makes the system satisfiable. The result is a *minimal* core (every
//! member is necessary), though not necessarily a *minimum* one. Repeated
//! constraints are tried once, as one constraint (see
//! [`System::distinct_constraints`]): dropping one copy of a repeat cannot
//! change the answer.

use crate::solve::{solve_traced, SolveOptions};
use crate::spec::{Constraint, System};
use crate::trace::{TraceEventKind, Tracer};
use dprle_automata::LangStore;

/// A minimal unsatisfiable core: indices into [`System::constraints`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatCore {
    /// Indices of the core constraints, ascending. A constraint that occurs
    /// several times is named by its first occurrence.
    pub indices: Vec<usize>,
}

impl UnsatCore {
    /// Renders the core's constraints using the system's interned names.
    pub fn display(&self, system: &System) -> String {
        self.indices
            .iter()
            .map(|&i| {
                let c = &system.constraints()[i];
                format!(
                    "[{}] {} <= {}",
                    i,
                    system.expr_to_string(&c.lhs),
                    system.const_name(c.rhs)
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Computes a minimal unsat core of `system`, or `None` if the system is
/// satisfiable.
///
/// Cost: one solver call per distinct constraint (deletion loop) plus the
/// initial check. The front end repeats constraints heavily: the paper's
/// largest |C|, 387 for `xw_mn`, holds 26 distinct constraints. Every
/// re-solve shares one [`LangStore`]: the trials differ only in which
/// constraints are present, so the constant machines (shared handles
/// across the cloned systems) and the repeated leaf intersections hit the
/// caches of earlier trials.
pub fn unsat_core(system: &System, options: &SolveOptions) -> Option<UnsatCore> {
    unsat_core_traced(system, options, &Tracer::disabled())
}

/// Like [`unsat_core`], recording every deletion trial as an
/// `UnsatCoreTrial` trace event (plus the full solver trace of each trial's
/// re-solve).
pub fn unsat_core_traced(
    system: &System,
    options: &SolveOptions,
    tracer: &Tracer,
) -> Option<UnsatCore> {
    let store = LangStore::interning(options.interning);
    if solve_traced(system, options, &store, tracer).0.is_sat() {
        return None;
    }
    Some(unsat_core_of_unsat(system, options, &store, tracer))
}

/// The deletion loop of [`unsat_core_traced`], for a caller that has just
/// solved `system` on `store` and found it unsat: the trials run on that
/// store, warm from the caller's solve, and the system is not solved
/// again to confirm the answer. Passing a satisfiable system yields a
/// meaningless core.
pub fn unsat_core_of_unsat(
    system: &System,
    options: &SolveOptions,
    store: &LangStore,
    tracer: &Tracer,
) -> UnsatCore {
    let all: Vec<Constraint> = system.constraints().to_vec();
    // Work on a copy of the system with no constraints; re-add per trial.
    let mut keep = system.distinct_constraints();
    let mut i = 0;
    while i < keep.len() {
        // Try removing keep[i].
        let dropped = keep[i];
        let candidate: Vec<usize> = keep.iter().copied().filter(|&k| k != dropped).collect();
        let trial = with_constraints(system, &all, &candidate);
        let sat = solve_traced(&trial, options, store, tracer).0.is_sat();
        tracer.emit(|| TraceEventKind::UnsatCoreTrial {
            dropped,
            still_unsat: !sat,
        });
        if sat {
            // Necessary: keep it, move on.
            i += 1;
        } else {
            // Still unsat without it: drop permanently.
            keep = candidate;
        }
    }
    UnsatCore { indices: keep }
}

fn with_constraints(system: &System, all: &[Constraint], indices: &[usize]) -> System {
    let mut out = system.clone();
    out.retain_constraints(0);
    for &i in indices {
        out.require(all[i].lhs.clone(), all[i].rhs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use crate::spec::Expr;
    use dprle_automata::Nfa;
    use dprle_regex::Regex;

    fn exact(pattern: &str) -> Nfa {
        Regex::new(pattern)
            .expect("compiles")
            .exact_language()
            .clone()
    }

    #[test]
    fn satisfiable_systems_have_no_core() {
        let mut sys = System::new();
        let v = sys.var("v");
        let a = sys.constant("a", exact("a+"));
        sys.require(Expr::Var(v), a);
        assert_eq!(unsat_core(&sys, &SolveOptions::default()), None);
    }

    #[test]
    fn core_isolates_the_conflicting_pair() {
        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let a = sys.constant("a", exact("a+"));
        let b = sys.constant("b", exact("b+"));
        let c = sys.constant("c", exact("c*"));
        sys.require(Expr::Var(w), c); // irrelevant
        sys.require(Expr::Var(v), a); // conflict half 1
        sys.require(Expr::Var(w), c); // irrelevant duplicate
        sys.require(Expr::Var(v), b); // conflict half 2
        let core = unsat_core(&sys, &SolveOptions::default()).expect("unsat");
        assert_eq!(core.indices, vec![1, 3]);
        let text = core.display(&sys);
        assert!(text.contains("v <= a"), "{text}");
        assert!(text.contains("v <= b"), "{text}");
        assert!(!text.contains("w <= c"), "{text}");
    }

    #[test]
    fn core_members_are_each_necessary() {
        let mut sys = System::new();
        let v = sys.var("v");
        // Three pairwise-compatible constraints that are jointly unsat:
        // starts with a, ends with b, and has length 1.
        let starts = sys.constant("starts", exact("a[ab]*"));
        let ends = sys.constant("ends", exact("[ab]*b"));
        let len1 = sys.constant("len1", exact("[ab]"));
        sys.require(Expr::Var(v), starts);
        sys.require(Expr::Var(v), ends);
        sys.require(Expr::Var(v), len1);
        let core = unsat_core(&sys, &SolveOptions::default()).expect("unsat");
        assert_eq!(core.indices.len(), 3, "all three needed");
        // Each pair alone is satisfiable.
        for drop in 0..3 {
            let mut pair = System::new();
            let v = pair.var("v");
            let machines = [exact("a[ab]*"), exact("[ab]*b"), exact("[ab]")];
            for (i, m) in machines.into_iter().enumerate() {
                if i != drop {
                    let c = pair.constant(&format!("c{i}"), m);
                    pair.require(Expr::Var(v), c);
                }
            }
            assert!(solve(&pair, &SolveOptions::default()).is_sat());
        }
    }

    #[test]
    fn traced_trials_explain_the_core() {
        use crate::trace::{CollectSink, TraceEventKind, Tracer};
        use std::sync::Arc;

        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let a = sys.constant("a", exact("a+"));
        let b = sys.constant("b", exact("b+"));
        let c = sys.constant("c", exact("c*"));
        sys.require(Expr::Var(w), c); // redundant
        sys.require(Expr::Var(v), a); // conflict half 1
        sys.require(Expr::Var(v), b); // conflict half 2
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        let core = unsat_core_traced(&sys, &SolveOptions::default(), &tracer).expect("unsat");
        assert_eq!(core.indices, vec![1, 2]);
        let trials: Vec<(usize, bool)> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::UnsatCoreTrial {
                    dropped,
                    still_unsat,
                } => Some((dropped, still_unsat)),
                _ => None,
            })
            .collect();
        // One trial per surviving constraint, and the redundant constraint's
        // trial stays unsat (which is why it leaves the core).
        assert!(trials.contains(&(0, true)), "{trials:?}");
        assert!(trials.contains(&(1, false)), "{trials:?}");
        assert!(trials.contains(&(2, false)), "{trials:?}");
    }

    #[test]
    fn repeated_constraints_are_tried_once_and_named_by_first_occurrence() {
        use crate::trace::{CollectSink, TraceEventKind, Tracer};
        use std::sync::Arc;

        let mut sys = System::new();
        let v = sys.var("v");
        let a = sys.constant("a", exact("a+"));
        let a_again = sys.constant("a_again", exact("a+"));
        let b = sys.constant("b", exact("b+"));
        sys.require(Expr::Var(v), a); // conflict half 1
        sys.require(Expr::Var(v), a_again); // same machine as `a`
        sys.require(Expr::Var(v), b); // conflict half 2
        sys.require(Expr::Var(v), b); // verbatim repeat
        let sink = Arc::new(CollectSink::new());
        let tracer = Tracer::new(sink.clone());
        let core = unsat_core_traced(&sys, &SolveOptions::default(), &tracer).expect("unsat");
        assert_eq!(core.indices, vec![0, 2]);
        let trials: Vec<(usize, bool)> = sink
            .take()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::UnsatCoreTrial {
                    dropped,
                    still_unsat,
                } => Some((dropped, still_unsat)),
                _ => None,
            })
            .collect();
        // One trial per distinct constraint: dropping a whole set of
        // duplicates makes the system satisfiable.
        assert_eq!(trials, vec![(0, false), (2, false)]);
    }

    #[test]
    fn core_through_concatenation() {
        // The safe-after-patching story: filter blocks quotes, policy wants
        // one — the core is exactly {filter, policy}, not the length check.
        let mut sys = System::new();
        let v = sys.var("v");
        let filter = sys.constant_regex("filter", "^[\\d]+$").expect("re");
        let len = sys.constant("len", Nfa::length_between(0, 64));
        let pre = sys.constant("pre", Nfa::literal(b"nid_"));
        let policy = sys.constant_regex("policy", "'").expect("re");
        sys.require(Expr::Var(v), filter);
        sys.require(Expr::Var(v), len);
        sys.require(Expr::Const(pre).concat(Expr::Var(v)), policy);
        let core = unsat_core(&sys, &SolveOptions::default()).expect("safe = unsat");
        assert_eq!(
            core.indices,
            vec![0, 2],
            "filter + policy, not the length cap"
        );
    }
}
