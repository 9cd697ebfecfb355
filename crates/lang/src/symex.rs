//! Path-sensitive symbolic execution for the string IR.
//!
//! This is the analog of the paper's "simple prototype program analysis
//! that uses symbolic execution to set up a system of string variable
//! constraints based on paths that lead to the defect" (§4). Each program
//! path is explored; `preg_match` and equality branches contribute
//! language constraints on the symbolic values they test, and every
//! `query()` sink reached yields a [`SinkReach`] recording the symbolic
//! query string plus the path's constraints.
//!
//! Exploration takes time linear in the statements and conditions on the
//! explored paths. The continuation is a chain of borrowed statement
//! slices that forks share, so no statement is copied. Pending `else`
//! arms wait on an explicit stack, so Rust's stack does not grow with the
//! program. A fork saves three lengths; backtracking undoes the
//! environment, conditions and decisions to them. Each pattern is
//! compiled once per call, and each tested language and its complement
//! are built once, as a [`Lang`] handle that every path condition testing
//! them shares.

use crate::ast::{Cond, Program, Stmt, StringExpr};
use dprle_automata::{complement, ByteMap, Lang, Nfa};
use dprle_regex::Regex;
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// One atom of a symbolic string value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Atom {
    /// A known literal chunk.
    Literal(Vec<u8>),
    /// An untrusted input parameter, by name.
    Input(String),
    /// An input parameter viewed through a byte-to-byte homomorphism
    /// (e.g. `strtolower($_GET['x'])`). Case folding distributes over
    /// concatenation, so symbolic evaluation pushes it down to atoms.
    MappedInput {
        /// The per-byte map applied (boxed: 256 bytes of table).
        map: Box<ByteMap>,
        /// A short display name for the map (`strtolower`, …).
        map_name: String,
        /// The underlying input parameter.
        input: String,
    },
}

/// A symbolic string: a concatenation of literal chunks and inputs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SymValue {
    /// The atoms in order. Adjacent literals are kept merged.
    pub atoms: Vec<Atom>,
}

impl SymValue {
    /// The empty string.
    pub fn empty() -> SymValue {
        SymValue::default()
    }

    /// A single literal.
    pub fn literal(bytes: &[u8]) -> SymValue {
        if bytes.is_empty() {
            return SymValue::empty();
        }
        SymValue {
            atoms: vec![Atom::Literal(bytes.to_vec())],
        }
    }

    /// A single input parameter.
    pub fn input(name: &str) -> SymValue {
        SymValue {
            atoms: vec![Atom::Input(name.to_owned())],
        }
    }

    /// Appends another symbolic value, merging adjacent literals.
    pub fn append(&mut self, other: &SymValue) {
        for atom in &other.atoms {
            match (self.atoms.last_mut(), atom) {
                (Some(Atom::Literal(tail)), Atom::Literal(chunk)) => {
                    tail.extend_from_slice(chunk);
                }
                _ => self.atoms.push(atom.clone()),
            }
        }
    }

    /// Whether the value is fully concrete (no inputs).
    pub fn is_concrete(&self) -> bool {
        self.atoms.iter().all(|a| matches!(a, Atom::Literal(_)))
    }

    /// Applies a byte map to the whole value: literals concretely, inputs
    /// symbolically (composing with any map already applied).
    pub fn map_bytes(&self, map: &ByteMap, map_name: &str) -> SymValue {
        let atoms = self
            .atoms
            .iter()
            .map(|a| match a {
                Atom::Literal(bytes) => Atom::Literal(map.map_bytes(bytes)),
                Atom::Input(name) => Atom::MappedInput {
                    map: Box::new(map.clone()),
                    map_name: map_name.to_owned(),
                    input: name.clone(),
                },
                Atom::MappedInput {
                    map: inner,
                    map_name: inner_name,
                    input,
                } => {
                    // Compose: outer ∘ inner.
                    let mut table = [0u8; 256];
                    for (i, slot) in table.iter_mut().enumerate() {
                        *slot = map.map(inner.map(i as u8));
                    }
                    Atom::MappedInput {
                        map: Box::new(ByteMap::from_table(table)),
                        map_name: format!("{map_name}∘{inner_name}"),
                        input: input.clone(),
                    }
                }
            })
            .collect();
        SymValue { atoms }
    }

    /// The concrete bytes, if fully concrete.
    pub fn concrete_bytes(&self) -> Option<Vec<u8>> {
        if !self.is_concrete() {
            return None;
        }
        let mut out = Vec::new();
        for a in &self.atoms {
            if let Atom::Literal(bytes) = a {
                out.extend_from_slice(bytes);
            }
        }
        Some(out)
    }

    /// The input parameters mentioned, in order of first occurrence.
    pub fn inputs(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for a in &self.atoms {
            match a {
                Atom::Input(name) | Atom::MappedInput { input: name, .. } => {
                    if !out.contains(&name.as_str()) {
                        out.push(name);
                    }
                }
                Atom::Literal(_) => {}
            }
        }
        out
    }
}

impl fmt::Display for SymValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "\"\"");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " . ")?;
            }
            match a {
                Atom::Literal(bytes) => write!(f, "{:?}", String::from_utf8_lossy(bytes))?,
                Atom::Input(name) => write!(f, "{name}")?,
                Atom::MappedInput {
                    map_name, input, ..
                } => write!(f, "{map_name}({input})")?,
            }
        }
        Ok(())
    }
}

/// A language constraint collected along a path: `subject ⊆ language`.
#[derive(Clone, Debug)]
pub struct PathCondition {
    /// The constrained symbolic value.
    pub subject: SymValue,
    /// The language it must lie in: a handle shared by every condition
    /// of one `explore` call that tests the same thing with the same
    /// outcome.
    pub language: Lang,
    /// Human-readable origin, e.g. `preg_match(/[\d]+$/) held`.
    pub description: String,
}

/// What kind of security-sensitive sink a path reached.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SinkKind {
    /// A database query — SQL-injection surface.
    Query,
    /// An HTML-emitting `echo` — cross-site-scripting surface (the paper
    /// names XSS alongside SQL injection as a target class; tracked only
    /// when [`SymexOptions::track_echo`] is set).
    Echo,
}

/// A path that reaches a security-sensitive sink.
#[derive(Clone, Debug)]
pub struct SinkReach {
    /// Program name.
    pub program: String,
    /// Index of the sink among the program's recorded reaches, in path
    /// order.
    pub sink_index: usize,
    /// Which kind of sink was reached.
    pub kind: SinkKind,
    /// The symbolic sink value (query string or echoed HTML).
    pub query: SymValue,
    /// The constraints accumulated along the path.
    pub conditions: Vec<PathCondition>,
    /// The branch decisions taken (true = then), for reporting/slicing.
    pub decisions: Vec<bool>,
}

/// Errors from symbolic execution.
#[derive(Clone, Debug)]
pub enum SymexError {
    /// A `preg_match` pattern failed to parse/compile.
    BadPattern {
        /// The offending pattern.
        pattern: String,
        /// The underlying regex error.
        error: dprle_regex::ParseRegexError,
    },
    /// The path bound was exceeded; results would be incomplete.
    PathLimit(usize),
}

impl fmt::Display for SymexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymexError::BadPattern { pattern, error } => {
                write!(f, "pattern /{pattern}/ failed to compile: {error}")
            }
            SymexError::PathLimit(n) => write!(f, "exceeded path limit of {n}"),
        }
    }
}

impl std::error::Error for SymexError {}

/// Options for path exploration.
#[derive(Clone, Debug)]
pub struct SymexOptions {
    /// Maximum path count before giving up. The start of exploration
    /// counts one, and so does every branch arm entered, concrete arms
    /// included: a concretely decided `if` counts its one arm, a symbolic
    /// one both, and each unrolled `while` test counts like an `if`.
    pub max_paths: usize,
    /// Also record `echo` statements as sinks (for XSS policies).
    pub track_echo: bool,
    /// Loop-unrolling bound for `while` statements: each loop is explored
    /// for 0, 1, …, `max_loop_unroll` iterations; deeper behaviors are cut
    /// off (standard bounded symbolic execution — findings stay sound,
    /// absence of findings beyond the bound is not guaranteed).
    pub max_loop_unroll: usize,
}

impl Default for SymexOptions {
    fn default() -> Self {
        SymexOptions {
            max_paths: 4096,
            track_echo: false,
            max_loop_unroll: 3,
        }
    }
}

/// Explores all feasible paths of `program`, returning every sink reach.
///
/// Infeasibility is pruned *concretely*: a branch whose condition tests a
/// fully concrete value takes only the matching arm. Symbolic conditions
/// fork the path and record the corresponding language constraint.
///
/// # Errors
///
/// Fails on malformed regex patterns or when the path bound is exceeded.
pub fn explore(program: &Program, options: &SymexOptions) -> Result<Vec<SinkReach>, SymexError> {
    let mut explorer = Explorer::new(&program.name, options);
    explorer.run(&program.stmts)?;
    Ok(explorer.reaches)
}

/// A statement list in progress.
#[derive(Clone, Copy)]
enum Frame<'p> {
    /// The statements still to run, in order.
    Seq(&'p [Stmt]),
    /// A `while` loop about to test its condition, with `left` unrolled
    /// iterations still allowed; at 0 the loop is left untested.
    Loop {
        cond: &'p Cond,
        body: &'p [Stmt],
        left: usize,
    },
}

/// What remains of a path: `frame`, then the frames enclosing it. The
/// enclosing frames are shared, so a fork copies none of them.
#[derive(Clone)]
struct Cont<'p> {
    frame: Frame<'p>,
    outer: Option<Rc<Cont<'p>>>,
}

impl<'p> Cont<'p> {
    /// The continuation after `exit`: nothing.
    fn exit() -> Cont<'p> {
        Cont {
            frame: Frame::Seq(&[]),
            outer: None,
        }
    }

    /// Runs `frame`, then `outer`.
    fn new(frame: Frame<'p>, outer: Option<Rc<Cont<'p>>>) -> Cont<'p> {
        Cont { frame, outer }
    }

    /// This continuation as the enclosing one of a nested frame (skipped
    /// when nothing of it is left).
    fn into_outer(self) -> Option<Rc<Cont<'p>>> {
        match self.frame {
            Frame::Seq([]) => self.outer,
            _ => Some(Rc::new(self)),
        }
    }
}

/// A symbolic fork's `else` arm, waiting for its `then` arm to finish,
/// and the lengths to undo the path's state to before running it.
struct Pending<'p> {
    arm: Cont<'p>,
    condition: Option<Condition>,
    trail: usize,
    conditions: usize,
    decisions: usize,
}

/// A path condition as kept during exploration: the subject and the index
/// of its language in `Languages::built`.
struct Condition {
    subject: SymValue,
    language: usize,
}

/// What a symbolic condition tests its subject against.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Test<'p> {
    /// `preg_match` with this pattern.
    Matches(&'p str),
    /// Equality with this literal.
    Equals(&'p [u8]),
}

/// The languages one `explore` call tests against, each built once:
/// a pattern is compiled on its first test, a language and its complement
/// on the first symbolic test, however many paths test them again.
#[derive(Default)]
struct Languages<'p> {
    regexes: HashMap<&'p str, Regex>,
    /// Each (language, description) built so far.
    built: Vec<(Lang, String)>,
    /// Where `built` holds the language of a test holding (`true`) or
    /// failing (`false`).
    index: HashMap<(Test<'p>, bool), usize>,
}

impl<'p> Languages<'p> {
    fn regex(&mut self, pattern: &'p str) -> Result<&Regex, SymexError> {
        match self.regexes.entry(pattern) {
            Entry::Occupied(compiled) => Ok(compiled.into_mut()),
            Entry::Vacant(slot) => {
                let regex = Regex::new(pattern).map_err(|error| SymexError::BadPattern {
                    pattern: pattern.to_owned(),
                    error,
                })?;
                Ok(slot.insert(regex))
            }
        }
    }

    /// The index in `built` of the language of `test` holding or failing.
    /// A `Matches` test's pattern is compiled already.
    fn language(&mut self, test: Test<'p>, holds: bool) -> usize {
        if let Some(&at) = self.index.get(&(test, holds)) {
            return at;
        }
        let built = match test {
            Test::Matches(pattern) => {
                let search = self.regexes[pattern].search_language();
                if holds {
                    (
                        search.clone().into(),
                        format!("preg_match(/{pattern}/) held"),
                    )
                } else {
                    (
                        complement(search).into(),
                        format!("preg_match(/{pattern}/) failed"),
                    )
                }
            }
            Test::Equals(literal) => {
                let exact = Nfa::literal(literal);
                let shown = String::from_utf8_lossy(literal);
                if holds {
                    (exact.into(), format!("equals {shown:?}"))
                } else {
                    (complement(&exact).into(), format!("differs from {shown:?}"))
                }
            }
        };
        self.built.push(built);
        self.index.insert((test, holds), self.built.len() - 1);
        self.built.len() - 1
    }
}

/// The outcome of testing a branch condition on the current path.
enum Judgment {
    /// Decided concretely: only this arm is feasible.
    Concrete(bool),
    /// Both arms are feasible, each under its optional condition.
    Symbolic(Option<Condition>, Option<Condition>),
}

impl Judgment {
    fn negate(self) -> Self {
        match self {
            Judgment::Concrete(holds) => Judgment::Concrete(!holds),
            Judgment::Symbolic(when_true, when_false) => Judgment::Symbolic(when_false, when_true),
        }
    }
}

/// One exploration. The path's environment, conditions and decisions are
/// stacks: a fork records their lengths, and backtracking to the fork
/// undoes them to those lengths (the environment through `trail`).
struct Explorer<'p> {
    program: &'p str,
    options: &'p SymexOptions,
    reaches: Vec<SinkReach>,
    paths: usize,
    env: HashMap<&'p str, SymValue>,
    /// Each assignment made while a fork is pending, with the value it
    /// replaced.
    trail: Vec<(&'p str, Option<SymValue>)>,
    conditions: Vec<Condition>,
    decisions: Vec<bool>,
    languages: Languages<'p>,
}

impl<'p> Explorer<'p> {
    fn new(program: &'p str, options: &'p SymexOptions) -> Self {
        Explorer {
            program,
            options,
            reaches: Vec::new(),
            paths: 0,
            env: HashMap::new(),
            trail: Vec::new(),
            conditions: Vec::new(),
            decisions: Vec::new(),
            languages: Languages::default(),
        }
    }

    /// Explores every path through `stmts` in depth-first order: a
    /// symbolic fork runs its `then` arm to the end of every path first,
    /// then its `else` arm.
    fn run(&mut self, stmts: &'p [Stmt]) -> Result<(), SymexError> {
        let mut pending: Vec<Pending<'p>> = Vec::new();
        self.count_path()?;
        let mut at = Cont::new(Frame::Seq(stmts), None);
        loop {
            match at.frame {
                Frame::Seq([stmt, rest @ ..]) => {
                    at.frame = Frame::Seq(rest);
                    at = self.step(stmt, at, &mut pending)?;
                }
                Frame::Loop { cond, body, left } if left > 0 => {
                    // The then-arm runs the body and comes back here with
                    // one iteration fewer; the else-arm leaves the loop.
                    let outer = at.outer;
                    let again = Frame::Loop {
                        cond,
                        body,
                        left: left - 1,
                    };
                    let again = Some(Rc::new(Cont::new(again, outer.clone())));
                    let then = Cont::new(Frame::Seq(body), again);
                    let leave = Cont::new(Frame::Seq(&[]), outer);
                    at = self.branch(cond, then, leave, &mut pending)?;
                }
                // The frame is done: go on with the enclosing one, or, at
                // the end of the path, with the latest pending arm.
                _ => {
                    if let Some(outer) = at.outer {
                        at = Rc::unwrap_or_clone(outer);
                    } else if let Some(fork) = pending.pop() {
                        at = self.resume(fork)?;
                    } else {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Runs one statement; returns the continuation after it.
    fn step(
        &mut self,
        stmt: &'p Stmt,
        at: Cont<'p>,
        pending: &mut Vec<Pending<'p>>,
    ) -> Result<Cont<'p>, SymexError> {
        match stmt {
            Stmt::Assign { var, value } => {
                let v = eval(value, &self.env);
                let old = self.env.insert(var, v);
                // With no fork pending, nothing will undo this.
                if !pending.is_empty() {
                    self.trail.push((var, old));
                }
            }
            Stmt::Echo { expr } => {
                if self.options.track_echo {
                    let value = eval(expr, &self.env);
                    // Concrete echoes of literals are uninteresting.
                    if !value.is_concrete() {
                        self.record(SinkKind::Echo, value);
                    }
                }
            }
            Stmt::Exit => return Ok(Cont::exit()),
            Stmt::Query { expr } => {
                let query = eval(expr, &self.env);
                self.record(SinkKind::Query, query);
            }
            Stmt::If { cond, then, els } => {
                let outer = at.into_outer();
                let then = Cont::new(Frame::Seq(then), outer.clone());
                return self.branch(cond, then, Cont::new(Frame::Seq(els), outer), pending);
            }
            Stmt::While { cond, body } => {
                // Bounded unrolling: while (c) { b } ≈ if (c) { b; if (c)
                // { b; … }} with at most `max_loop_unroll` iterations,
                // then assume the loop exits. A bound of 0 skips the
                // loop entirely.
                let left = self.options.max_loop_unroll;
                if left > 0 {
                    return Ok(Cont::new(Frame::Loop { cond, body, left }, at.into_outer()));
                }
            }
        }
        Ok(at)
    }

    /// Tests `cond` and enters the feasible arm; a symbolic test enters
    /// `then` and leaves `els` pending.
    fn branch(
        &mut self,
        cond: &'p Cond,
        then: Cont<'p>,
        els: Cont<'p>,
        pending: &mut Vec<Pending<'p>>,
    ) -> Result<Cont<'p>, SymexError> {
        match self.judge(cond)? {
            Judgment::Concrete(true) => self.enter(true, None, then),
            Judgment::Concrete(false) => self.enter(false, None, els),
            Judgment::Symbolic(when_true, when_false) => {
                pending.push(Pending {
                    arm: els,
                    condition: when_false,
                    trail: self.trail.len(),
                    conditions: self.conditions.len(),
                    decisions: self.decisions.len(),
                });
                self.enter(true, when_true, then)
            }
        }
    }

    /// Backtracks to a pending fork and enters its `else` arm.
    fn resume(&mut self, fork: Pending<'p>) -> Result<Cont<'p>, SymexError> {
        for (var, old) in self.trail.drain(fork.trail..).rev() {
            match old {
                Some(value) => self.env.insert(var, value),
                None => self.env.remove(var),
            };
        }
        self.conditions.truncate(fork.conditions);
        self.decisions.truncate(fork.decisions);
        self.enter(false, fork.condition, fork.arm)
    }

    fn enter(
        &mut self,
        taken: bool,
        condition: Option<Condition>,
        arm: Cont<'p>,
    ) -> Result<Cont<'p>, SymexError> {
        self.count_path()?;
        self.decisions.push(taken);
        self.conditions.extend(condition);
        Ok(arm)
    }

    fn count_path(&mut self) -> Result<(), SymexError> {
        self.paths += 1;
        if self.paths > self.options.max_paths {
            return Err(SymexError::PathLimit(self.options.max_paths));
        }
        Ok(())
    }

    fn record(&mut self, kind: SinkKind, query: SymValue) {
        let built = &self.languages.built;
        let conditions = self
            .conditions
            .iter()
            .map(|c| PathCondition {
                subject: c.subject.clone(),
                language: built[c.language].0.clone(),
                description: built[c.language].1.clone(),
            })
            .collect();
        self.reaches.push(SinkReach {
            program: self.program.to_owned(),
            sink_index: self.reaches.len(),
            kind,
            query,
            conditions,
            decisions: self.decisions.clone(),
        });
    }

    fn judge(&mut self, cond: &'p Cond) -> Result<Judgment, SymexError> {
        let (test, value) = match cond {
            Cond::Not(inner) => return Ok(self.judge(inner)?.negate()),
            Cond::Opaque(_) => return Ok(Judgment::Symbolic(None, None)),
            Cond::PregMatch { pattern, subject } => {
                let regex = self.languages.regex(pattern)?;
                let value = eval(subject, &self.env);
                if let Some(bytes) = value.concrete_bytes() {
                    return Ok(Judgment::Concrete(regex.is_match(&bytes)));
                }
                (Test::Matches(pattern), value)
            }
            Cond::EqualsLiteral { subject, literal } => {
                let value = eval(subject, &self.env);
                if let Some(bytes) = value.concrete_bytes() {
                    return Ok(Judgment::Concrete(&bytes == literal));
                }
                (Test::Equals(literal), value)
            }
        };
        let held = self.languages.language(test, true);
        let failed = self.languages.language(test, false);
        Ok(Judgment::Symbolic(
            Some(Condition {
                subject: value.clone(),
                language: held,
            }),
            Some(Condition {
                subject: value,
                language: failed,
            }),
        ))
    }
}

/// Evaluates a string expression to a symbolic value under `env`.
/// Unassigned variables evaluate to the empty string (PHP semantics for
/// uninitialized string use).
pub fn eval<K>(expr: &StringExpr, env: &HashMap<K, SymValue>) -> SymValue
where
    K: Borrow<str> + Hash + Eq,
{
    match expr {
        StringExpr::Literal(bytes) => SymValue::literal(bytes),
        StringExpr::Input(name) => SymValue::input(name),
        StringExpr::Var(name) => env.get(name.as_str()).cloned().unwrap_or_default(),
        StringExpr::Concat(parts) => {
            let mut out = SymValue::empty();
            for p in parts {
                out.append(&eval(p, env));
            }
            out
        }
        StringExpr::Lower(inner) => {
            eval(inner, env).map_bytes(&ByteMap::to_lowercase(), "strtolower")
        }
        StringExpr::Upper(inner) => {
            eval(inner, env).map_bytes(&ByteMap::to_uppercase(), "strtoupper")
        }
    }
}

/// The explorer as it was before exploration became linear, kept verbatim
/// (bar returning its path count and calling `eval` directly) to hold the
/// linear one to the same reaches, decisions, errors and path counts. It
/// copies the branch arm and the rest of the program at every `if` and
/// recurses once per `if`.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn explore(
        program: &Program,
        options: &SymexOptions,
    ) -> (Result<Vec<SinkReach>, SymexError>, usize) {
        let mut explorer = Explorer {
            program: &program.name,
            options,
            reaches: Vec::new(),
            paths: 0,
            regex_cache: HashMap::new(),
        };
        let state = State {
            env: HashMap::new(),
            conditions: Vec::new(),
            decisions: Vec::new(),
        };
        let outcome = explorer.run(&program.stmts, state);
        let paths = explorer.paths;
        (outcome.map(|()| explorer.reaches), paths)
    }

    #[derive(Clone, Default)]
    struct State {
        env: HashMap<String, SymValue>,
        conditions: Vec<PathCondition>,
        decisions: Vec<bool>,
    }

    struct Explorer<'a> {
        program: &'a str,
        options: &'a SymexOptions,
        reaches: Vec<SinkReach>,
        paths: usize,
        regex_cache: HashMap<String, Regex>,
    }

    impl Explorer<'_> {
        fn record(&mut self, kind: SinkKind, query: SymValue, state: &State) {
            let sink_index = self.reaches.len();
            self.reaches.push(SinkReach {
                program: self.program.to_owned(),
                sink_index,
                kind,
                query,
                conditions: state.conditions.clone(),
                decisions: state.decisions.clone(),
            });
        }

        fn run(&mut self, stmts: &[Stmt], mut state: State) -> Result<(), SymexError> {
            self.paths += 1;
            if self.paths > self.options.max_paths {
                return Err(SymexError::PathLimit(self.options.max_paths));
            }
            let mut i = 0;
            while i < stmts.len() {
                match &stmts[i] {
                    Stmt::Assign { var, value } => {
                        let v = eval(value, &state.env);
                        state.env.insert(var.clone(), v);
                    }
                    Stmt::Echo { expr } => {
                        if self.options.track_echo {
                            let value = eval(expr, &state.env);
                            // Concrete echoes of literals are uninteresting.
                            if !value.is_concrete() {
                                self.record(SinkKind::Echo, value, &state);
                            }
                        }
                    }
                    Stmt::Exit => return Ok(()),
                    Stmt::Query { expr } => {
                        let query = eval(expr, &state.env);
                        self.record(SinkKind::Query, query, &state);
                    }
                    Stmt::If { cond, then, els } => {
                        let rest = &stmts[i + 1..];
                        return self.branch(cond, then, els, rest, state);
                    }
                    Stmt::While { cond, body } => {
                        // Bounded unrolling: while (c) { b } ≈ if (c) { b; if (c)
                        // { b; … }} with at most `max_loop_unroll` iterations,
                        // then assume the loop exits. A bound of 0 skips the
                        // loop entirely.
                        if self.options.max_loop_unroll > 0 {
                            let rest = &stmts[i + 1..];
                            let unrolled = unroll(cond, body, self.options.max_loop_unroll - 1);
                            return self.branch(&unrolled.0, &unrolled.1, &[], rest, state);
                        }
                    }
                }
                i += 1;
            }
            Ok(())
        }

        fn branch(
            &mut self,
            cond: &Cond,
            then: &[Stmt],
            els: &[Stmt],
            rest: &[Stmt],
            state: State,
        ) -> Result<(), SymexError> {
            match self.judge(cond, &state)? {
                Judgment::ConcreteTrue => {
                    let mut s = state;
                    s.decisions.push(true);
                    self.run_seq(then, rest, s)
                }
                Judgment::ConcreteFalse => {
                    let mut s = state;
                    s.decisions.push(false);
                    self.run_seq(els, rest, s)
                }
                Judgment::Symbolic {
                    when_true,
                    when_false,
                } => {
                    let mut t = state.clone();
                    t.decisions.push(true);
                    if let Some(c) = when_true {
                        t.conditions.push(*c);
                    }
                    self.run_seq(then, rest, t)?;
                    let mut e = state;
                    e.decisions.push(false);
                    if let Some(c) = when_false {
                        e.conditions.push(*c);
                    }
                    self.run_seq(els, rest, e)
                }
            }
        }

        /// Runs a branch arm followed by the remaining statements. The arm is
        /// spliced ahead of the continuation so `exit` inside it correctly
        /// terminates the whole path.
        fn run_seq(&mut self, arm: &[Stmt], rest: &[Stmt], state: State) -> Result<(), SymexError> {
            let mut seq: Vec<Stmt> = Vec::with_capacity(arm.len() + rest.len());
            seq.extend_from_slice(arm);
            seq.extend_from_slice(rest);
            self.run(&seq, state)
        }

        fn judge(&mut self, cond: &Cond, state: &State) -> Result<Judgment, SymexError> {
            match cond {
                Cond::Not(inner) => Ok(self.judge(inner, state)?.negate()),
                Cond::Opaque(_) => Ok(Judgment::Symbolic {
                    when_true: None,
                    when_false: None,
                }),
                Cond::PregMatch { pattern, subject } => {
                    let regex = self.compile(pattern)?;
                    let value = eval(subject, &state.env);
                    if let Some(bytes) = value.concrete_bytes() {
                        return Ok(if regex.is_match(&bytes) {
                            Judgment::ConcreteTrue
                        } else {
                            Judgment::ConcreteFalse
                        });
                    }
                    let lang = regex.search_language().clone();
                    Ok(Judgment::Symbolic {
                        when_true: Some(Box::new(PathCondition {
                            subject: value.clone(),
                            language: lang.clone().into(),
                            description: format!("preg_match(/{pattern}/) held"),
                        })),
                        when_false: Some(Box::new(PathCondition {
                            subject: value,
                            language: complement(&lang).into(),
                            description: format!("preg_match(/{pattern}/) failed"),
                        })),
                    })
                }
                Cond::EqualsLiteral { subject, literal } => {
                    let value = eval(subject, &state.env);
                    if let Some(bytes) = value.concrete_bytes() {
                        return Ok(if &bytes == literal {
                            Judgment::ConcreteTrue
                        } else {
                            Judgment::ConcreteFalse
                        });
                    }
                    let lit = Nfa::literal(literal);
                    Ok(Judgment::Symbolic {
                        when_true: Some(Box::new(PathCondition {
                            subject: value.clone(),
                            language: lit.clone().into(),
                            description: format!("equals {:?}", String::from_utf8_lossy(literal)),
                        })),
                        when_false: Some(Box::new(PathCondition {
                            subject: value,
                            language: complement(&lit).into(),
                            description: format!(
                                "differs from {:?}",
                                String::from_utf8_lossy(literal)
                            ),
                        })),
                    })
                }
            }
        }

        fn compile(&mut self, pattern: &str) -> Result<Regex, SymexError> {
            if let Some(r) = self.regex_cache.get(pattern) {
                return Ok(r.clone());
            }
            let r = Regex::new(pattern).map_err(|error| SymexError::BadPattern {
                pattern: pattern.to_owned(),
                error,
            })?;
            self.regex_cache.insert(pattern.to_owned(), r.clone());
            Ok(r)
        }
    }

    /// Builds the if-shaped unrolling of a while loop: returns the loop
    /// condition and the then-arm containing `depth` nested copies.
    fn unroll(cond: &Cond, body: &[Stmt], depth: usize) -> (Cond, Vec<Stmt>) {
        let mut then: Vec<Stmt> = body.to_vec();
        if depth > 0 {
            let (inner_cond, inner_then) = unroll(cond, body, depth - 1);
            then.push(Stmt::If {
                cond: inner_cond,
                then: inner_then,
                els: Vec::new(),
            });
        }
        (cond.clone(), then)
    }

    enum Judgment {
        ConcreteTrue,
        ConcreteFalse,
        Symbolic {
            when_true: Option<Box<PathCondition>>,
            when_false: Option<Box<PathCondition>>,
        },
    }

    impl Judgment {
        fn negate(self) -> Judgment {
            match self {
                Judgment::ConcreteTrue => Judgment::ConcreteFalse,
                Judgment::ConcreteFalse => Judgment::ConcreteTrue,
                Judgment::Symbolic {
                    when_true,
                    when_false,
                } => Judgment::Symbolic {
                    when_true: when_false,
                    when_false: when_true,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    #[test]
    fn symvalue_merges_literals() {
        let mut v = SymValue::literal(b"a");
        v.append(&SymValue::literal(b"b"));
        assert_eq!(v.atoms.len(), 1);
        v.append(&SymValue::input("x"));
        v.append(&SymValue::literal(b"c"));
        assert_eq!(v.atoms.len(), 3);
        assert_eq!(v.to_string(), "\"ab\" . x . \"c\"");
    }

    #[test]
    fn symvalue_concreteness() {
        assert_eq!(
            SymValue::literal(b"hi").concrete_bytes(),
            Some(b"hi".to_vec())
        );
        assert_eq!(SymValue::input("x").concrete_bytes(), None);
        assert!(SymValue::empty().is_concrete());
        assert_eq!(SymValue::empty().concrete_bytes(), Some(Vec::new()));
    }

    #[test]
    fn figure1_reaches_sink_with_filter_condition() {
        let reaches = explore(&Program::figure1(), &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1, "one path reaches the query");
        let r = &reaches[0];
        assert_eq!(r.conditions.len(), 1);
        assert!(r.conditions[0].description.contains("preg_match"));
        // The filter held on the surviving path (if-arm exits).
        assert!(r.conditions[0].language.contains(b"123"));
        assert!(r.conditions[0].language.contains(b"' OR 1=1 --9"));
        // The query is "SELECT…" . "nid_" . input.
        assert_eq!(r.query.inputs(), vec!["posted_newsid"]);
        assert!(r.query.to_string().contains("nid_"));
    }

    #[test]
    fn concrete_branches_are_pruned() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("prune");
        p.stmts.push(Stmt::Assign {
            var: "a".into(),
            value: StringExpr::lit("abc"),
        });
        p.stmts.push(Stmt::If {
            cond: Cond::PregMatch {
                pattern: "^abc$".into(),
                subject: StringExpr::var("a"),
            },
            then: vec![Stmt::Query {
                expr: StringExpr::input("x"),
            }],
            els: vec![Stmt::Query {
                expr: StringExpr::lit("never"),
            }],
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1, "only the true arm is feasible");
        assert!(
            reaches[0].conditions.is_empty(),
            "concrete check leaves no constraint"
        );
    }

    #[test]
    fn opaque_branches_fork() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("fork");
        p.stmts.push(Stmt::If {
            cond: Cond::Opaque("unknown()".into()),
            then: vec![Stmt::Query {
                expr: StringExpr::input("x"),
            }],
            els: vec![],
        });
        p.stmts.push(Stmt::Query {
            expr: StringExpr::input("y"),
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        // then-arm: query(x) then query(y); else-arm: query(y) → 3 reaches.
        assert_eq!(reaches.len(), 3);
    }

    #[test]
    fn exit_in_branch_kills_continuation() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("exit");
        p.stmts.push(Stmt::If {
            cond: Cond::Opaque("c".into()),
            then: vec![Stmt::Exit],
            els: vec![],
        });
        p.stmts.push(Stmt::Query {
            expr: StringExpr::input("x"),
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1, "only the else path reaches the sink");
        assert_eq!(reaches[0].decisions, vec![false]);
    }

    #[test]
    fn equality_conditions_constrain() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("eq");
        p.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::input("mode"),
                literal: b"admin".to_vec(),
            },
            then: vec![Stmt::Query {
                expr: StringExpr::input("q"),
            }],
            els: vec![],
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1);
        let c = &reaches[0].conditions[0];
        assert!(c.language.contains(b"admin"));
        assert!(!c.language.contains(b"user"));
    }

    #[test]
    fn bad_pattern_is_reported() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("bad");
        p.stmts.push(Stmt::If {
            cond: Cond::PregMatch {
                pattern: "(".into(),
                subject: StringExpr::input("x"),
            },
            then: vec![],
            els: vec![],
        });
        assert!(matches!(
            explore(&p, &SymexOptions::default()),
            Err(SymexError::BadPattern { .. })
        ));
    }

    #[test]
    fn path_limit_is_enforced() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("blowup");
        for i in 0..12 {
            p.stmts.push(Stmt::If {
                cond: Cond::Opaque(format!("c{i}")),
                then: vec![Stmt::Echo {
                    expr: StringExpr::lit("t"),
                }],
                els: vec![Stmt::Echo {
                    expr: StringExpr::lit("e"),
                }],
            });
        }
        let opts = SymexOptions {
            max_paths: 100,
            ..Default::default()
        };
        assert!(matches!(
            explore(&p, &opts),
            Err(SymexError::PathLimit(100))
        ));
    }

    /// Asserts that exploring `p` counts exactly `paths`: a bound of
    /// `paths` suffices and one less trips [`SymexError::PathLimit`].
    fn assert_path_count(p: &Program, options: &SymexOptions, paths: usize) -> Vec<SinkReach> {
        let at = SymexOptions {
            max_paths: paths,
            ..options.clone()
        };
        let reaches = explore(p, &at)
            .unwrap_or_else(|e| panic!("{}: a bound of {paths} must suffice: {e}", p.name));
        let below = SymexOptions {
            max_paths: paths - 1,
            ..options.clone()
        };
        match explore(p, &below) {
            Err(SymexError::PathLimit(n)) => assert_eq!(n, paths - 1),
            other => panic!("{}: a bound of {} must trip: {other:?}", p.name, paths - 1),
        }
        reaches
    }

    fn query(input: &str) -> Stmt {
        Stmt::Query {
            expr: StringExpr::input(input),
        }
    }

    #[test]
    fn sequential_opaque_ifs_count_every_arm() {
        // The start plus both arms of every `if` on every path:
        // 1 + 2 + 4 + … + 2^k = 2^(k+1) − 1.
        for k in 0..=6 {
            let mut p = Program::new("opaque_run");
            for i in 0..k {
                p.stmts.push(Stmt::If {
                    cond: Cond::Opaque(format!("c{i}")),
                    then: vec![Stmt::Echo {
                        expr: StringExpr::lit("t"),
                    }],
                    els: vec![],
                });
            }
            p.stmts.push(query("x"));
            let reaches = assert_path_count(&p, &SymexOptions::default(), (1 << (k + 1)) - 1);
            assert_eq!(reaches.len(), 1 << k, "k = {k}");
        }
    }

    /// `guards` concretely pruned guards in the corpus padding shape, then
    /// a query: each guard brands a constant and exits if it fails an
    /// always-true match.
    fn pruned_guards(guards: usize) -> Program {
        let mut p = Program::new("pruned");
        for i in 0..guards {
            let var = format!("__pad{i}");
            p.stmts.push(Stmt::Assign {
                var: var.clone(),
                value: StringExpr::lit("ok"),
            });
            p.stmts.push(Stmt::If {
                cond: Cond::PregMatch {
                    pattern: "^ok$".into(),
                    subject: StringExpr::Var(var),
                }
                .negate(),
                then: vec![
                    Stmt::Echo {
                        expr: StringExpr::lit("unreachable"),
                    },
                    Stmt::Exit,
                ],
                els: vec![],
            });
        }
        p.stmts.push(query("x"));
        p
    }

    /// `guards` symbolic `if (!preg_match(/[a-z]+$/, $_GET['a'])) exit;`
    /// guards, then a query.
    fn symbolic_guards(guards: usize) -> Program {
        let mut p = Program::new("guarded");
        for _ in 0..guards {
            p.stmts.push(Stmt::If {
                cond: Cond::PregMatch {
                    pattern: "[a-z]+$".into(),
                    subject: StringExpr::input("a"),
                }
                .negate(),
                then: vec![Stmt::Exit],
                els: vec![],
            });
        }
        p.stmts.push(query("x"));
        p
    }

    #[test]
    fn concretely_pruned_guards_count_one_arm_each() {
        // Each guard enters only its else-arm.
        for guards in [0, 1, 5, 40] {
            let p = pruned_guards(guards);
            let reaches = assert_path_count(&p, &SymexOptions::default(), guards + 1);
            assert_eq!(reaches.len(), 1);
            assert_eq!(reaches[0].decisions, vec![false; guards]);
        }
    }

    #[test]
    fn unrolled_while_counts_both_arms_per_iteration() {
        // `while (c) { b }` unrolled `u` times forks once per iteration:
        // 1 + 2u paths, and the query after the loop is reached after
        // 0, 1, …, u iterations.
        let mut p = Program::new("loop");
        p.stmts.push(Stmt::While {
            cond: Cond::Opaque("more".into()),
            body: vec![Stmt::Echo {
                expr: StringExpr::lit("b"),
            }],
        });
        p.stmts.push(query("x"));
        for unroll in 0..=3 {
            let options = SymexOptions {
                max_loop_unroll: unroll,
                ..Default::default()
            };
            let reaches = assert_path_count(&p, &options, 1 + 2 * unroll);
            let decisions: Vec<Vec<bool>> = reaches.iter().map(|r| r.decisions.clone()).collect();
            // Depth first: every iteration, then each pending exit from
            // the innermost out.
            let mut expected = vec![vec![true; unroll]];
            expected.extend((0..unroll).rev().map(|taken| {
                let mut d = vec![true; taken];
                d.push(false);
                d
            }));
            assert_eq!(decisions, expected, "unroll {unroll}");
        }
    }

    #[test]
    fn symbolic_guards_count_both_arms_each() {
        // Each guard's then-arm exits at once; its else-arm goes on.
        for guards in [1, 5, 40] {
            let reaches = assert_path_count(
                &symbolic_guards(guards),
                &SymexOptions::default(),
                2 * guards + 1,
            );
            assert_eq!(reaches.len(), 1);
            assert_eq!(reaches[0].conditions.len(), guards);
        }
    }

    #[test]
    fn bad_patterns_are_reported_only_when_tested() {
        let bad = || Cond::PregMatch {
            pattern: "(".into(),
            subject: StringExpr::input("x"),
        };
        // Behind a concretely false test.
        let mut dead = Program::new("dead");
        dead.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::lit("a"),
                literal: b"b".to_vec(),
            },
            then: vec![Stmt::If {
                cond: bad(),
                then: vec![],
                els: vec![],
            }],
            els: vec![],
        });
        dead.stmts.push(query("x"));
        // A loop condition, tested only when the loop is unrolled.
        let mut looped = Program::new("looped");
        looped.stmts.push(Stmt::While {
            cond: bad(),
            body: vec![],
        });
        looped.stmts.push(query("x"));
        for options in option_grid(SymexOptions::default().max_paths) {
            assert_eq!(explore(&dead, &options).expect("never tested").len(), 1);
            let outcome = explore(&looped, &options);
            if options.max_loop_unroll == 0 {
                assert_eq!(outcome.expect("never tested").len(), 1);
            } else {
                assert!(matches!(outcome, Err(SymexError::BadPattern { .. })));
            }
            assert_same_as_reference(&dead, &options);
            assert_same_as_reference(&looped, &options);
        }
    }

    /// Runs `explore` on a thread with a 256 KiB stack: a stack overflow
    /// aborts the test binary.
    fn explore_on_small_stack(
        p: &Program,
        options: &SymexOptions,
    ) -> Result<Vec<SinkReach>, SymexError> {
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn_scoped(scope, || explore(p, options))
                .expect("spawns the explorer thread")
                .join()
                .expect("the explorer thread does not panic")
        })
    }

    #[test]
    fn many_pruned_guards_explore_on_a_small_stack() {
        let guards = 20_000;
        let options = SymexOptions {
            max_paths: guards + 1,
            ..Default::default()
        };
        let reaches = explore_on_small_stack(&pruned_guards(guards), &options).expect("explores");
        assert_eq!(reaches.len(), 1);
        assert!(reaches[0].conditions.is_empty());
    }

    #[test]
    fn many_symbolic_guards_explore_on_a_small_stack() {
        let guards = 2_000;
        let options = SymexOptions {
            max_paths: 2 * guards + 1,
            ..Default::default()
        };
        let reaches = explore_on_small_stack(&symbolic_guards(guards), &options).expect("explores");
        assert_eq!(reaches.len(), 1);
        assert_eq!(reaches[0].conditions.len(), guards);
        assert_eq!(reaches[0].decisions, vec![false; guards]);
    }

    /// The corpus is built on the library build of this crate, whose types
    /// differ from this test build's, so a corpus program crosses over as
    /// PHP source.
    fn from_corpus(program: &dprle_corpus::dprle_lang::Program) -> Program {
        let source = dprle_corpus::dprle_lang::print_php(program);
        let local = crate::php::parse_php(&program.name, &source)
            .unwrap_or_else(|e| panic!("{}: {e}", program.name));
        assert_eq!(crate::php::print_php(&local), source, "{}", program.name);
        local
    }

    /// Asserts that the explorer and the reference agree on `p`: the path
    /// count, the error if any, and otherwise the reaches in order, each
    /// with its `sink_index`, kind, query, decisions, and each condition's
    /// subject, description and machine.
    fn assert_same_as_reference(p: &Program, options: &SymexOptions) {
        let context = format!("{} under {options:?}", p.name);
        let mut explorer = Explorer::new(&p.name, options);
        let outcome = explorer.run(&p.stmts);
        let paths = explorer.paths;
        let got = outcome.map(|()| explorer.reaches);
        let (want, want_paths) = reference::explore(p, options);
        assert_eq!(paths, want_paths, "{context}: path count");
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => {
                let (got, want) = (got.err(), want.err());
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{context}");
                return;
            }
        };
        assert_eq!(got.len(), want.len(), "{context}: reaches");
        for (g, w) in got.iter().zip(&want) {
            let at = format!("{context}, reach {}", w.sink_index);
            assert_eq!(g.program, w.program, "{at}");
            assert_eq!(g.sink_index, w.sink_index, "{at}");
            assert_eq!(g.kind, w.kind, "{at}");
            assert_eq!(g.query, w.query, "{at}");
            assert_eq!(g.decisions, w.decisions, "{at}");
            assert_eq!(g.conditions.len(), w.conditions.len(), "{at}");
            for (gc, wc) in g.conditions.iter().zip(&w.conditions) {
                assert_eq!(gc.subject, wc.subject, "{at}");
                assert_eq!(gc.description, wc.description, "{at}");
                assert!(*gc.language == *wc.language, "{at}: {}", wc.description);
            }
        }
    }

    /// `track_echo` off and on, each with `max_loop_unroll` 0 to 3.
    fn option_grid(max_paths: usize) -> impl Iterator<Item = SymexOptions> {
        [false, true].into_iter().flat_map(move |track_echo| {
            (0..=3).map(move |max_loop_unroll| SymexOptions {
                max_paths,
                track_echo,
                max_loop_unroll,
            })
        })
    }

    fn has_loop(stmts: &[Stmt]) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::While { .. } => true,
            Stmt::If { then, els, .. } => has_loop(then) || has_loop(els),
            _ => false,
        })
    }

    #[test]
    fn matches_reference_on_fig12_rows() {
        for (_, program) in dprle_corpus::fig12_programs() {
            let program = from_corpus(&program);
            // The rows have no loop, so the unroll bound cannot matter.
            assert!(!has_loop(&program.stmts), "{}", program.name);
            for track_echo in [false, true] {
                let options = SymexOptions {
                    track_echo,
                    ..Default::default()
                };
                assert_same_as_reference(&program, &options);
            }
        }
    }

    #[test]
    fn matches_reference_on_random_programs() {
        use dprle_corpus::{random_program, RandomProgramConfig};
        // Seeds 30 and 44 blow up past this bound at an unroll of 3 (and
        // seed 30 at 2); they are compared where it trips. A bound of
        // 100 000 would take a debug build over a minute on them alone.
        const MAX_PATHS: usize = 10_000;
        // The front-end fuzz tests' two configurations.
        let configs = [
            RandomProgramConfig::default(),
            RandomProgramConfig {
                max_depth: 2,
                ..Default::default()
            },
        ];
        for config in configs {
            for seed in 0..120 {
                let program = from_corpus(&random_program(seed, &config));
                for options in option_grid(MAX_PATHS) {
                    assert_same_as_reference(&program, &options);
                }
            }
        }
    }
}
