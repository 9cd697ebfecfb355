//! Satisfying assignments: the output of the decision procedure.
//!
//! An [`Assignment`] maps each variable of a [`System`] to a
//! regular language (an NFA). The RMA problem (paper §3.1) may admit several
//! inherently disjunctive assignments; [`Solution`] carries all of them, or
//! records that none exists.

use crate::spec::{System, VarId};
use dprle_automata::{equivalent, Lang};
use std::collections::BTreeMap;
use std::fmt;

/// A single satisfying assignment `A = [v₁ ↦ x₁, …, vₘ ↦ xₘ]`.
///
/// Languages are held as shared [`Lang`] handles: cloning an assignment (or
/// a whole [`Solution`]) is O(number of variables), not O(machine size),
/// and the handles keep their cached canonical fingerprints, so language
/// comparisons across solver phases stay cheap.
#[derive(Clone, Debug, Default)]
pub struct Assignment {
    map: BTreeMap<VarId, Lang>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Assignment {
        Assignment::default()
    }

    /// Sets the language for `var`.
    pub fn insert(&mut self, var: VarId, language: impl Into<Lang>) {
        self.map.insert(var, language.into());
    }

    /// The language assigned to `var` — `A[vᵢ]` in the paper's notation.
    /// The returned handle dereferences to the underlying machine.
    pub fn get(&self, var: VarId) -> Option<&Lang> {
        self.map.get(&var)
    }

    /// The assigned variables in id order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.map.keys().copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// A concrete witness string for `var`: a shortest member of its
    /// assigned language. This is what turns a solved constraint system
    /// into a test input (paper §4: generating exploit inputs).
    pub fn witness(&self, var: VarId) -> Option<Vec<u8>> {
        self.map.get(&var).and_then(|l| l.shortest_member())
    }

    /// Whether some assigned language is empty (cached per handle).
    pub fn has_empty_language(&self) -> bool {
        self.map.values().any(Lang::is_empty_language)
    }

    /// Language-level equality with another assignment over the same
    /// variables. Handles sharing a machine compare in O(1).
    pub fn equivalent_to(&self, other: &Assignment) -> bool {
        self.map.len() == other.map.len()
            && self.map.iter().all(|(v, m)| {
                other
                    .map
                    .get(v)
                    .is_some_and(|o| Lang::ptr_eq(m, o) || equivalent(m.nfa(), o.nfa()))
            })
    }

    /// Renders the assignment with variable names and shortest witnesses.
    pub fn display<'a>(&'a self, system: &'a System) -> AssignmentDisplay<'a> {
        AssignmentDisplay {
            assignment: self,
            system,
        }
    }
}

/// Helper returned by [`Assignment::display`].
#[derive(Debug)]
pub struct AssignmentDisplay<'a> {
    assignment: &'a Assignment,
    system: &'a System,
}

impl fmt::Display for AssignmentDisplay<'_> {
    /// Renders each variable's language as a regular expression when that
    /// stays readable (the paper's `L(xyy|xyyyy)` notation), falling back
    /// to a structural summary, and includes a shortest witness.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (var, machine)) in self.assignment.map.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let name = self.system.var_name(*var);
            let lang = dprle_regex::display_lang(machine, 200);
            match machine.shortest_member() {
                Some(w) => write!(
                    f,
                    "{name} -> {lang} (e.g. {:?})",
                    String::from_utf8_lossy(&w)
                )?,
                None => write!(f, "{name} -> (empty language)")?,
            }
        }
        Ok(())
    }
}

/// The result of solving a system: the disjunctive satisfying assignments,
/// or the paper's "no assignments found".
#[derive(Clone, Debug)]
pub enum Solution {
    /// One or more disjunctive satisfying assignments.
    Assignments(Vec<Assignment>),
    /// No satisfying assignment exists (under the solver's nonemptiness
    /// requirement — see [`crate::solve::SolveOptions::require_nonempty`]).
    Unsat,
}

impl Solution {
    /// The assignments, or an empty slice for `Unsat`.
    pub fn assignments(&self) -> &[Assignment] {
        match self {
            Solution::Assignments(v) => v,
            Solution::Unsat => &[],
        }
    }

    /// The first assignment, if any.
    pub fn first(&self) -> Option<&Assignment> {
        self.assignments().first()
    }

    /// Whether the system was satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, Solution::Assignments(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_automata::Nfa;

    #[test]
    fn assignment_roundtrip() {
        let mut a = Assignment::new();
        assert!(a.is_empty());
        a.insert(VarId(0), Nfa::literal(b"hi"));
        assert_eq!(a.len(), 1);
        assert!(a.get(VarId(0)).expect("set").contains(b"hi"));
        assert!(a.get(VarId(1)).is_none());
        assert_eq!(a.witness(VarId(0)), Some(b"hi".to_vec()));
        assert!(!a.has_empty_language());
    }

    #[test]
    fn empty_language_detection() {
        let mut a = Assignment::new();
        a.insert(VarId(0), Nfa::empty_language());
        assert!(a.has_empty_language());
        assert_eq!(a.witness(VarId(0)), None);
    }

    #[test]
    fn equivalence_is_language_level() {
        let mut a = Assignment::new();
        a.insert(VarId(0), Nfa::literal(b"x"));
        let mut b = Assignment::new();
        b.insert(VarId(0), Nfa::literal(b"x").normalize());
        assert!(a.equivalent_to(&b));
        let mut c = Assignment::new();
        c.insert(VarId(0), Nfa::literal(b"y"));
        assert!(!a.equivalent_to(&c));
        let empty = Assignment::new();
        assert!(!a.equivalent_to(&empty));
    }

    #[test]
    fn solution_accessors() {
        let sat = Solution::Assignments(vec![Assignment::new()]);
        assert!(sat.is_sat());
        assert!(sat.first().is_some());
        let unsat = Solution::Unsat;
        assert!(!unsat.is_sat());
        assert!(unsat.assignments().is_empty());
    }

    #[test]
    fn display_shows_witness() {
        let mut sys = System::new();
        let v = sys.var("input");
        let mut a = Assignment::new();
        a.insert(v, Nfa::literal(b"hi"));
        let s = a.display(&sys).to_string();
        assert!(s.contains("input ->"), "got {s}");
        assert!(s.contains("hi"), "got {s}");
        let mut b = Assignment::new();
        b.insert(v, Nfa::empty_language());
        assert!(
            b.display(&sys).to_string().contains("empty"),
            "empty case labelled"
        );
    }
}
