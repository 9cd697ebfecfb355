//! The constraint language: subset constraints over regular languages.
//!
//! This module implements the grammar of the paper's Figure 2,
//!
//! ```text
//! S ::= E ⊆ C        subset constraint
//! E ::= E · E        language concatenation
//!     | C | V
//! C ::= c₁ | … | cₙ   constants
//! V ::= v₁ | … | vₘ   variables
//! ```
//!
//! plus the §3.1.2 extension of union on the left-hand side (which desugars
//! exactly: `(e₁ ∪ e₂) ⊆ c ⟺ e₁ ⊆ c ∧ e₂ ⊆ c`, distributing over
//! concatenation).
//!
//! A [`System`] owns the list of constraints and interns their operands in
//! two layers:
//!
//! 1. *By name*, as the system is built: [`System::var`] and
//!    [`System::constant`] return the existing id for a name seen before
//!    (constants through a hash index). A front end that names one
//!    constant per path condition therefore registers the same language
//!    under many names, ideally as one shared [`Lang`] handle.
//! 2. *By machine structure*, when the solver starts:
//!    [`System::normalized`] maps every constant to the first constant
//!    with a structurally identical machine, rewrites the constraints to
//!    use those representatives, and drops repeated constraints. The paper
//!    defines an instance as a *set* of constraints (§3.1), so a repeat
//!    adds nothing, and the solver decides each distinct constraint once.
//!    Constants that share one handle share a representative without
//!    their machines being hashed again.
//!
//! The system is the input to the dependency-graph construction and the
//! solver.

use dprle_automata::{Lang, Nfa};
use dprle_regex::Regex;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// The most operands the left-hand side of one constraint may have: the
/// operands of its concatenation, counting every leaf of the
/// concatenations and unions nested in it. Front ends fold a
/// concatenation into a left-deep chain of [`Expr::Concat`], and the
/// solver's walks over an expression (building the dependency graph,
/// normalization, evaluation, display, drop) and its group enumeration
/// recurse once per operand, so the expression's depth must be bounded
/// before it is built. A system whose concatenation has this many
/// operands, in any of the three front ends, is read, solved and dropped
/// within a spawned thread's default 2 MiB stack, a `dprle serve`
/// session's, even in a debug build, where 400 to 500 overflow it.
pub const MAX_CONCAT_OPERANDS: usize = 256;

/// Identifier of an interned language variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// Identifier of an interned constant language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ConstId(pub u32);

/// The left-hand side of a subset constraint: concatenations and unions of
/// variables and constants.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A language variable.
    Var(VarId),
    /// A constant language.
    Const(ConstId),
    /// Concatenation `e₁ · e₂`.
    Concat(Box<Expr>, Box<Expr>),
    /// Union `e₁ ∪ e₂` (§3.1.2 extension; desugared before solving).
    Union(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Concatenates two expressions.
    pub fn concat(self, rhs: Expr) -> Expr {
        Expr::Concat(Box::new(self), Box::new(rhs))
    }

    /// Unions two expressions.
    pub fn union(self, rhs: Expr) -> Expr {
        Expr::Union(Box::new(self), Box::new(rhs))
    }

    /// All variables occurring in the expression, in occurrence order
    /// (duplicates preserved).
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Var(v) => out.push(*v),
            Expr::Const(_) => {}
            Expr::Concat(a, b) | Expr::Union(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// The expression with every constant `c` replaced by `f(c)`.
    fn map_consts(&self, f: &impl Fn(ConstId) -> ConstId) -> Expr {
        match self {
            Expr::Var(v) => Expr::Var(*v),
            Expr::Const(c) => Expr::Const(f(*c)),
            Expr::Concat(a, b) => a.map_consts(f).concat(b.map_consts(f)),
            Expr::Union(a, b) => a.map_consts(f).union(b.map_consts(f)),
        }
    }

    /// Whether the expression contains any union node.
    pub fn has_union(&self) -> bool {
        match self {
            Expr::Var(_) | Expr::Const(_) => false,
            Expr::Union(_, _) => true,
            Expr::Concat(a, b) => a.has_union() || b.has_union(),
        }
    }

    /// Rewrites the expression into a union of union-free expressions
    /// (distributing `·` over `∪`).
    pub fn into_union_free(self) -> Vec<Expr> {
        match self {
            Expr::Var(_) | Expr::Const(_) => vec![self],
            Expr::Union(a, b) => {
                let mut out = a.into_union_free();
                out.extend(b.into_union_free());
                out
            }
            Expr::Concat(a, b) => {
                let lefts = a.into_union_free();
                let rights = b.into_union_free();
                let mut out = Vec::with_capacity(lefts.len() * rights.len());
                for l in &lefts {
                    for r in &rights {
                        out.push(l.clone().concat(r.clone()));
                    }
                }
                out
            }
        }
    }
}

impl From<VarId> for Expr {
    fn from(v: VarId) -> Expr {
        Expr::Var(v)
    }
}

impl From<ConstId> for Expr {
    fn from(c: ConstId) -> Expr {
        Expr::Const(c)
    }
}

/// A single subset constraint `lhs ⊆ rhs` where `rhs` is a constant.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Constraint {
    /// The left-hand expression.
    pub lhs: Expr,
    /// The constant the expression must be contained in.
    pub rhs: ConstId,
}

/// A system of subset constraints over a shared set of variables — an
/// instance `I = {s₁, …, sₚ}` of the Regular Matching Assignments problem
/// (paper §3.1).
///
/// # Examples
///
/// Build the paper's motivating system `v₁ ⊆ c₁, c₂·v₁ ⊆ c₃`:
///
/// ```
/// use dprle_core::{Expr, System};
/// use dprle_automata::Nfa;
///
/// let mut sys = System::new();
/// let v1 = sys.var("v1");
/// let c1 = sys.constant_regex("c1", "[\\d]+$")?; // faulty filter, search mode
/// let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
/// let c3 = sys.constant_regex("c3", "'")?;       // contains a quote
/// sys.require(Expr::Var(v1), c1);
/// sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
/// assert_eq!(sys.num_constraints(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct System {
    vars: Vec<String>,
    /// Each constant's name and language; a name is shared with
    /// `const_index`, so copying the table copies no string.
    consts: Vec<(Arc<str>, Lang)>,
    /// Each constant's id by name. It covers every constant, except in a
    /// normalized copy, which leaves it empty until a constant is added.
    const_index: HashMap<Arc<str>, ConstId>,
    constraints: Vec<Constraint>,
}

impl System {
    /// Creates an empty system.
    pub fn new() -> System {
        System::default()
    }

    /// Interns a variable by name, returning its id. Repeated calls with
    /// the same name return the same id.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(i) = self.vars.iter().position(|n| n == name) {
            return VarId(i as u32);
        }
        self.vars.push(name.to_owned());
        VarId((self.vars.len() - 1) as u32)
    }

    /// Interns a constant language under `name`.
    ///
    /// Unlike variables, constants are interned by *name only*: registering
    /// a different machine under an existing name replaces nothing and
    /// returns the existing id — use distinct names for distinct languages.
    ///
    /// Accepts an owned [`Nfa`] or an already-shared [`Lang`] handle; the
    /// table stores handles, so cloning a `System` shares the machines.
    /// Passing one handle under many names copies no machine, and
    /// [`System::normalized`] then maps those constants together without
    /// hashing the machine again.
    pub fn constant(&mut self, name: &str, machine: impl Into<Lang>) -> ConstId {
        if self.const_index.len() < self.consts.len() {
            self.const_index = (0..self.consts.len())
                .map(|i| (Arc::clone(&self.consts[i].0), ConstId(i as u32)))
                .collect();
        }
        if let Some(&id) = self.const_index.get(name) {
            return id;
        }
        let id = ConstId(self.consts.len() as u32);
        let name: Arc<str> = name.into();
        self.const_index.insert(Arc::clone(&name), id);
        self.consts.push((name, machine.into()));
        id
    }

    /// Interns a constant from a regex pattern with *search* (`preg_match`)
    /// semantics: the language of subjects in which the pattern matches.
    ///
    /// # Errors
    ///
    /// Propagates regex parse/compile errors.
    pub fn constant_regex(
        &mut self,
        name: &str,
        pattern: &str,
    ) -> Result<ConstId, dprle_regex::ParseRegexError> {
        let re = Regex::new(pattern)?;
        Ok(self.constant(name, re.search_language().clone()))
    }

    /// Interns a constant from a regex pattern with *exact* (full-match)
    /// semantics.
    ///
    /// # Errors
    ///
    /// Propagates regex parse/compile errors.
    pub fn constant_regex_exact(
        &mut self,
        name: &str,
        pattern: &str,
    ) -> Result<ConstId, dprle_regex::ParseRegexError> {
        let re = Regex::new(pattern)?;
        Ok(self.constant(name, re.exact_language().clone()))
    }

    /// Adds the constraint `lhs ⊆ rhs`.
    pub fn require(&mut self, lhs: impl Into<Expr>, rhs: ConstId) {
        self.constraints.push(Constraint {
            lhs: lhs.into(),
            rhs,
        });
    }

    /// Restricts `var` to strings of length `min..=max` (§3.1.2 extension:
    /// substring/length modeling). Implemented as an ordinary subset
    /// constraint against a fresh length-window constant.
    pub fn require_length(&mut self, var: VarId, min: usize, max: usize) {
        let name = format!("__len_{min}_{max}");
        let c = self.constant(&name, Nfa::length_between(min, max));
        self.require(Expr::Var(var), c);
    }

    /// The number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The number of interned variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The number of interned constants.
    pub fn num_consts(&self) -> usize {
        self.consts.len()
    }

    /// The name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0 as usize]
    }

    /// Looks up a variable id by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// The name of a constant.
    pub fn const_name(&self, c: ConstId) -> &str {
        &self.consts[c.0 as usize].0
    }

    /// The machine of a constant.
    pub fn const_machine(&self, c: ConstId) -> &Nfa {
        self.consts[c.0 as usize].1.nfa()
    }

    /// The shared language handle of a constant (clone is O(1); the handle
    /// carries the constant's cached fingerprint across solver phases).
    pub fn const_lang(&self, c: ConstId) -> &Lang {
        &self.consts[c.0 as usize].1
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// The constraints of the system.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Keeps only the first `len` constraints (interned variables and
    /// constants stay: they are harmless, and their compiled machines stay
    /// reusable).
    pub(crate) fn retain_constraints(&mut self, len: usize) {
        self.constraints.truncate(len);
    }

    /// Returns the constraints with every union desugared away
    /// (`(e₁ ∪ e₂) ⊆ c` becomes `e₁ ⊆ c, e₂ ⊆ c`).
    pub fn union_free_constraints(&self) -> Vec<Constraint> {
        let mut out = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            if c.lhs.has_union() {
                for e in c.lhs.clone().into_union_free() {
                    out.push(Constraint { lhs: e, rhs: c.rhs });
                }
            } else {
                out.push(c.clone());
            }
        }
        out
    }

    /// The system the solver decides: constants hash-consed by machine
    /// structure and every repeated union-free constraint dropped.
    ///
    /// Each constant is represented by the first constant whose machine is
    /// structurally equal to its own (`Nfa`'s derived `Hash` and `==`;
    /// constants with equal languages but different machines stay apart).
    /// Constants that share one [`Lang`] handle share a representative
    /// found by the handle's address: only a handle's first constant is
    /// hashed. The representative keeps its name and its handle, so a
    /// machine shared by many constants is fingerprinted once. The
    /// constraints are desugared ([`System::union_free_constraints`]),
    /// rewritten to use representatives, and kept at their first
    /// occurrence. Variables and the constant table are unchanged, so every
    /// [`VarId`] and [`ConstId`] of `self` means the same in the result.
    ///
    /// Returns `self` itself, without a copy, when no constraint refers to
    /// a merged constant and none repeats.
    pub fn normalized(&self) -> Cow<'_, System> {
        let flat = self.union_free_constraints();
        let (canonical, firsts) = self.canonical_constraints(&flat);
        if firsts.len() == flat.len() && canonical == flat {
            return Cow::Borrowed(self);
        }
        Cow::Owned(System {
            vars: self.vars.clone(),
            consts: self.consts.clone(),
            const_index: HashMap::new(),
            constraints: firsts.iter().map(|&i| canonical[i].clone()).collect(),
        })
    }

    /// Indices into [`System::constraints`] of the first occurrence of each
    /// distinct constraint, ascending. Two constraints are the same when
    /// they are equal once every constant is replaced by its
    /// representative (see [`System::normalized`]).
    pub fn distinct_constraints(&self) -> Vec<usize> {
        self.canonical_constraints(&self.constraints).1
    }

    /// `constraints` with every constant replaced by its representative,
    /// plus the positions of each distinct result's first occurrence.
    fn canonical_constraints(&self, constraints: &[Constraint]) -> (Vec<Constraint>, Vec<usize>) {
        let mut by_handle: HashMap<usize, ConstId> = HashMap::with_capacity(self.consts.len());
        let mut by_machine: HashMap<&Nfa, ConstId> = HashMap::new();
        let reps: Vec<ConstId> = self
            .consts
            .iter()
            .enumerate()
            .map(|(i, (_, lang))| {
                *by_handle
                    .entry(lang.handle_addr())
                    .or_insert_with(|| *by_machine.entry(lang.nfa()).or_insert(ConstId(i as u32)))
            })
            .collect();
        let rep = |c: ConstId| reps[c.0 as usize];
        let canonical: Vec<Constraint> = constraints
            .iter()
            .map(|c| Constraint {
                lhs: c.lhs.map_consts(&rep),
                rhs: rep(c.rhs),
            })
            .collect();
        let firsts = {
            let mut seen = HashSet::with_capacity(canonical.len());
            (0..canonical.len())
                .filter(|&i| seen.insert(&canonical[i]))
                .collect()
        };
        (canonical, firsts)
    }

    /// Renders an expression using interned names.
    pub fn expr_to_string(&self, e: &Expr) -> String {
        match e {
            Expr::Var(v) => self.var_name(*v).to_owned(),
            Expr::Const(c) => self.const_name(*c).to_owned(),
            Expr::Concat(a, b) => {
                format!("{} . {}", self.expr_to_string(a), self.expr_to_string(b))
            }
            Expr::Union(a, b) => {
                format!("({} | {})", self.expr_to_string(a), self.expr_to_string(b))
            }
        }
    }
}

impl fmt::Display for System {
    /// Renders the system one constraint per line, e.g. `c2 . v1 <= c3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.constraints {
            writeln!(
                f,
                "{} <= {}",
                self.expr_to_string(&c.lhs),
                self.const_name(c.rhs)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut sys = System::new();
        let a = sys.var("a");
        let b = sys.var("b");
        assert_ne!(a, b);
        assert_eq!(sys.var("a"), a);
        assert_eq!(sys.num_vars(), 2);
        assert_eq!(sys.var_name(b), "b");
        assert_eq!(sys.var_id("b"), Some(b));
        assert_eq!(sys.var_id("zz"), None);
    }

    #[test]
    fn constant_interning_by_name() {
        let mut sys = System::new();
        let c1 = sys.constant("k", Nfa::literal(b"x"));
        let c2 = sys.constant("k", Nfa::literal(b"y"));
        assert_eq!(c1, c2);
        assert!(sys.const_machine(c1).contains(b"x"));
        assert_eq!(sys.num_consts(), 1);
    }

    #[test]
    fn regex_constants() {
        let mut sys = System::new();
        let c = sys.constant_regex("digits", "^[0-9]+$").expect("compiles");
        assert!(sys.const_machine(c).contains(b"123"));
        assert!(!sys.const_machine(c).contains(b"12a"));
        let search = sys.constant_regex("has_quote", "'").expect("compiles");
        assert!(sys.const_machine(search).contains(b"a'b"));
        assert!(sys.constant_regex("bad", "(").is_err());
    }

    #[test]
    fn expr_variables_in_order() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let e = Expr::Var(v2).concat(Expr::Var(v1)).concat(Expr::Var(v2));
        assert_eq!(e.variables(), vec![v2, v1, v2]);
    }

    #[test]
    fn union_desugars_distributively() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let v2 = sys.var("v2");
        let v3 = sys.var("v3");
        let c = sys.constant("c", Nfa::sigma_star());
        // (v1 ∪ v2) · v3 ⊆ c  desugars to  v1·v3 ⊆ c, v2·v3 ⊆ c.
        let e = Expr::Var(v1).union(Expr::Var(v2)).concat(Expr::Var(v3));
        assert!(e.has_union());
        sys.require(e, c);
        let flat = sys.union_free_constraints();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat[0].lhs, Expr::Var(v1).concat(Expr::Var(v3)));
        assert_eq!(flat[1].lhs, Expr::Var(v2).concat(Expr::Var(v3)));
        assert!(!flat[0].lhs.has_union());
    }

    #[test]
    fn length_constraint_is_a_subset_constraint() {
        let mut sys = System::new();
        let v = sys.var("v");
        sys.require_length(v, 1, 3);
        assert_eq!(sys.num_constraints(), 1);
        let c = sys.constraints()[0].rhs;
        assert!(sys.const_machine(c).contains(b"ab"));
        assert!(!sys.const_machine(c).contains(b""));
        assert!(!sys.const_machine(c).contains(b"abcd"));
    }

    #[test]
    fn normalizing_merges_identical_machines_and_drops_repeats() {
        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let a = sys.constant("a", Nfa::literal(b"x"));
        let b = sys.constant("b", Nfa::sigma_star());
        let a2 = sys.constant("a2", Nfa::literal(b"x"));
        sys.require(Expr::Var(v), b);
        sys.require(Expr::Var(v).concat(Expr::Const(a2)), b);
        sys.require(Expr::Var(v), b);
        sys.require(Expr::Var(w).union(Expr::Var(v)), b);
        sys.require(Expr::Var(v).concat(Expr::Const(a)), b);
        assert_eq!(sys.distinct_constraints(), vec![0, 1, 3]);

        let normalized = sys.normalized();
        let Cow::Owned(norm) = &normalized else {
            panic!("a system with repeats is copied");
        };
        // `w | v <= b` desugars to `w <= b, v <= b`; the second repeats
        // constraint 0. Constraint 4 repeats 1 once `a2` maps to `a`.
        let expected = vec![
            Constraint {
                lhs: Expr::Var(v),
                rhs: b,
            },
            Constraint {
                lhs: Expr::Var(v).concat(Expr::Const(a)),
                rhs: b,
            },
            Constraint {
                lhs: Expr::Var(w),
                rhs: b,
            },
        ];
        assert_eq!(norm.constraints(), expected.as_slice());
        // Ids keep their meaning: the tables are unchanged.
        assert_eq!(norm.num_consts(), 3);
        assert_eq!(norm.const_name(a2), "a2");
        assert_eq!(norm.var_name(w), "w");
        assert!(Lang::ptr_eq(norm.const_lang(a), sys.const_lang(a)));
    }

    #[test]
    fn constants_sharing_a_handle_share_a_representative() {
        let mut sys = System::new();
        let v = sys.var("v");
        let shared = Lang::new(Nfa::literal(b"x"));
        let a = sys.constant("a", shared.clone());
        let b = sys.constant("b", shared.clone());
        let copy = sys.constant("copy", Nfa::literal(b"x"));
        sys.require(Expr::Var(v), b);
        sys.require(Expr::Var(v), copy);
        sys.require(Expr::Var(v), a);
        assert_eq!(sys.distinct_constraints(), vec![0]);
        let norm = sys.normalized().into_owned();
        assert_eq!(
            norm.constraints(),
            &[Constraint {
                lhs: Expr::Var(v),
                rhs: a
            }]
        );
        assert!(Lang::ptr_eq(norm.const_lang(a), &shared));
        assert!(Lang::ptr_eq(norm.const_lang(b), &shared));
    }

    #[test]
    fn a_normalized_copy_still_interns_constants_by_name() {
        let mut sys = System::new();
        let v = sys.var("v");
        let a = sys.constant("a", Nfa::literal(b"x"));
        sys.require(Expr::Var(v), a);
        sys.require(Expr::Var(v), a);
        let mut norm = sys.normalized().into_owned();
        assert_eq!(norm.constant("a", Nfa::literal(b"y")), a);
        let b = norm.constant("b", Nfa::literal(b"y"));
        assert_eq!(b, ConstId(1));
        assert_eq!(norm.constant("b", Nfa::sigma_star()), b);
        assert_eq!(norm.const_name(b), "b");
        assert_eq!(norm.num_consts(), 2);
    }

    #[test]
    fn equal_languages_with_different_machines_stay_apart() {
        let mut sys = System::new();
        let v = sys.var("v");
        let lit = sys.constant("lit", Nfa::literal(b"a"));
        let re = sys
            .constant_regex_exact("re", "a|a")
            .expect("pattern compiles");
        assert_ne!(sys.const_machine(lit), sys.const_machine(re));
        assert!(dprle_automata::equivalent(
            sys.const_machine(lit),
            sys.const_machine(re)
        ));
        sys.require(Expr::Var(v), lit);
        sys.require(Expr::Var(v), re);
        assert_eq!(sys.distinct_constraints(), vec![0, 1]);
        assert!(matches!(sys.normalized(), Cow::Borrowed(_)));
    }

    #[test]
    fn duplicate_free_systems_normalize_without_a_copy() {
        let mut sys = System::new();
        let v = sys.var("v");
        let w = sys.var("w");
        let c = sys.constant("c", Nfa::sigma_star());
        let d = sys.constant("d", Nfa::literal(b"x"));
        // An unreferenced copy of `d`'s machine changes no constraint.
        sys.constant("d2", Nfa::literal(b"x"));
        sys.require(Expr::Var(v).union(Expr::Var(w)), c);
        sys.require(Expr::Const(d).concat(Expr::Var(v)), c);
        let normalized = sys.normalized();
        match normalized {
            Cow::Borrowed(same) => assert!(std::ptr::eq(same, &sys)),
            Cow::Owned(_) => panic!("nothing repeats, so nothing is copied"),
        }
    }

    #[test]
    fn display_renders_constraints() {
        let mut sys = System::new();
        let v1 = sys.var("v1");
        let c2 = sys.constant("c2", Nfa::literal(b"nid_"));
        let c3 = sys.constant("c3", Nfa::sigma_star());
        sys.require(Expr::Const(c2).concat(Expr::Var(v1)), c3);
        assert_eq!(sys.to_string(), "c2 . v1 <= c3\n");
    }
}
