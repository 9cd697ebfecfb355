//! SMT-LIB 2.6 strings front end.
//!
//! Modern string solvers (Z3str, CVC5 — the lineage the paper seeded)
//! speak the SMT-LIB theory of strings; this module accepts the regular
//! fragment of that language and translates it onto the DPRLE grammar,
//! making the solver usable as a drop-in for membership-style queries:
//!
//! ```text
//! (declare-const v1 String)
//! (assert (str.in_re v1 (re.+ (re.range "0" "9"))))
//! (assert (str.in_re (str.++ "nid_" v1)
//!                    (re.++ re.all (str.to_re "'") re.all)))
//! (check-sat)
//! (get-model)
//! ```
//!
//! Supported commands: `declare-const`/`declare-fun` (String sort),
//! `assert` of `str.in_re`, `check-sat`, `get-model`, `set-logic`,
//! `set-info`, `set-option`, `exit` (the latter four are accepted and
//! ignored). Terms: String constants, declared variables, `str.++`.
//! Regular expressions: `str.to_re`, `re.++`, `re.union`, `re.inter`,
//! `re.*`, `re.+`, `re.opt`, `re.comp`, `re.diff`, `re.range`, `re.all`,
//! `re.allchar`, `re.none`, and `((_ re.loop n m) r)`.
//!
//! The fragment is exactly the decidable theory the paper treats: no
//! length arithmetic, no `str.replace`, no word equations.
//!
//! A `re.loop` is priced before it is built, by the rule the native regex
//! parser applies to `{n,m}` ([`dprle_regex::parser::repeat_states`]); one
//! that prices past [`dprle_regex::parser::MAX_STATES`] is an error at the
//! loop's offset, so nested loops cannot multiply into a machine no solve
//! finishes with. `re.comp` and `re.diff` determinize a machine while the
//! script is read, before any solve's clock runs; a determinization that
//! would number more than `MAX_STATES` states stops there and is an error
//! at the operator's offset.
//!
//! The term of one assertion has at most [`MAX_CONCAT_OPERANDS`]
//! operands, counting those of nested `str.++` terms; the next is an
//! error at its offset.
//!
//! Lists nest at most [`MAX_NESTING`] deep; a deeper `(` is an error at its
//! offset. Reading, lowering, solving and dropping a script all recurse
//! once per level, so the limit keeps a hostile script from overflowing
//! the stack of the thread that runs it.

use dprle_automata::{analysis, ops, try_complement, ByteClass, LangStore, Nfa};
use dprle_core::metrics::id;
use dprle_core::{
    try_solve_traced, Expr, ResourceExhausted, Solution, SolveOptions, SolveStats, System, Tracer,
    MAX_CONCAT_OPERANDS,
};
use dprle_regex::parser::{repeat_states, MAX_STATES};
use std::fmt;
use std::sync::Arc;

/// The deepest list nesting a script may have: `(assert (str.in_re x
/// (re.* (str.to_re "a"))))` nests 4 deep. A script at the limit, in any
/// recursive form (`re.*`, `re.++`, `re.union`, `str.++`, `re.loop`), is
/// read, solved and dropped within a spawned thread's default 2 MiB stack,
/// the stack of a `dprle serve` session, even in a debug build, where the
/// regex forms overflow it near 280 levels.
pub const MAX_NESTING: usize = 200;

/// A positioned SMT-LIB front-end error.
#[derive(Clone, Debug)]
pub struct SmtError {
    /// Byte offset into the input.
    pub pos: usize,
    /// Description.
    pub message: String,
    /// Populated when a `(check-sat)` tripped a resource budget rather
    /// than failing to parse: carries the typed breach (with its metrics
    /// snapshot) so callers can distinguish "bad script" from "solver
    /// out of budget" and exit accordingly.
    pub exhausted: Option<Box<ResourceExhausted>>,
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "smt-lib error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for SmtError {}

/// The result of executing a script: one entry per output-producing
/// command, ready to print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtOutput {
    /// From `(check-sat)`.
    CheckSat(bool),
    /// From `(get-model)`: `(define-fun …)` lines.
    Model(Vec<String>),
}

impl fmt::Display for SmtOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtOutput::CheckSat(true) => write!(f, "sat"),
            SmtOutput::CheckSat(false) => write!(f, "unsat"),
            SmtOutput::Model(lines) => {
                writeln!(f, "(")?;
                for l in lines {
                    writeln!(f, "  {l}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// The result of executing a script with [`run_script_with_stats`]: the
/// printable outputs plus the aggregated solver statistics and the final
/// constraint system (for post-run reporting such as the provenance DOT
/// export).
#[derive(Debug)]
pub struct ScriptRun {
    /// One entry per output-producing command, in script order.
    pub outputs: Vec<SmtOutput>,
    /// Solver counters summed over every `(check-sat)` in the script
    /// (high-water marks are maxima — see `SolveStats::absorb`).
    pub stats: SolveStats,
    /// The system as of the end of the script.
    pub system: System,
}

/// Parses and executes an SMT-LIB strings script.
///
/// # Errors
///
/// Returns the first syntax or translation error with its byte position.
pub fn run_script(input: &str) -> Result<Vec<SmtOutput>, SmtError> {
    run_script_with_stats(input, &SolveOptions::default(), &Tracer::disabled())
        .map(|run| run.outputs)
}

/// Like [`run_script`], with explicit solver options, a tracer threaded
/// into every `(check-sat)`, and aggregated statistics in the result. All
/// checks share one [`LangStore`], so later check-sats reuse earlier
/// fingerprints and memoized operations.
///
/// # Errors
///
/// Returns the first syntax or translation error with its byte position.
pub fn run_script_with_stats(
    input: &str,
    options: &SolveOptions,
    tracer: &Tracer,
) -> Result<ScriptRun, SmtError> {
    run_script_shared(input, options, tracer, Arc::new(LangStore::new()))
}

/// Like [`run_script_with_stats`], but every `(check-sat)` runs against
/// the caller-supplied store instead of a script-private one, so
/// concurrent scripts (the `dprle serve` sessions) reuse each other's
/// fingerprints and memoized operations.
///
/// # Errors
///
/// Returns the first syntax or translation error with its byte position.
pub fn run_script_shared(
    input: &str,
    options: &SolveOptions,
    tracer: &Tracer,
    store: Arc<LangStore>,
) -> Result<ScriptRun, SmtError> {
    let sexprs = parse_sexprs(input)?;
    let mut engine = Engine {
        system: System::new(),
        outputs: Vec::new(),
        model: None,
        options: options.clone(),
        store,
        tracer: tracer.clone(),
        stats: SolveStats::default(),
    };
    for sexpr in &sexprs {
        engine.command(sexpr)?;
    }
    Ok(ScriptRun {
        outputs: engine.outputs,
        stats: engine.stats,
        system: engine.system,
    })
}

// ---------------------------------------------------------------------
// S-expressions
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum Sexpr {
    Atom { text: String, pos: usize },
    Str { value: Vec<u8>, pos: usize },
    List { items: Vec<Sexpr>, pos: usize },
}

impl Sexpr {
    fn pos(&self) -> usize {
        match self {
            Sexpr::Atom { pos, .. } | Sexpr::Str { pos, .. } | Sexpr::List { pos, .. } => *pos,
        }
    }

    fn atom(&self) -> Option<&str> {
        match self {
            Sexpr::Atom { text, .. } => Some(text),
            _ => None,
        }
    }
}

fn err(pos: usize, message: impl Into<String>) -> SmtError {
    SmtError {
        pos,
        message: message.into(),
        exhausted: None,
    }
}

fn parse_sexprs(input: &str) -> Result<Vec<Sexpr>, SmtError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let mut out = Vec::new();
    while let Some(sexpr) = parse_one(bytes, &mut pos, 0)? {
        out.push(sexpr);
    }
    Ok(out)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    loop {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
        if *pos < bytes.len() && bytes[*pos] == b';' {
            while *pos < bytes.len() && bytes[*pos] != b'\n' {
                *pos += 1;
            }
        } else {
            return;
        }
    }
}

/// Reads one S-expression at `pos`, which lies inside `depth` lists.
fn parse_one(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Option<Sexpr>, SmtError> {
    skip_ws(bytes, pos);
    if *pos >= bytes.len() {
        return Ok(None);
    }
    let start = *pos;
    match bytes[*pos] {
        b'(' if depth == MAX_NESTING => Err(err(
            start,
            format!("lists nest deeper than {MAX_NESTING} levels"),
        )),
        b'(' => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(bytes, pos);
                if *pos >= bytes.len() {
                    return Err(err(start, "unclosed `(`"));
                }
                if bytes[*pos] == b')' {
                    *pos += 1;
                    return Ok(Some(Sexpr::List { items, pos: start }));
                }
                match parse_one(bytes, pos, depth + 1)? {
                    Some(item) => items.push(item),
                    None => return Err(err(start, "unclosed `(`")),
                }
            }
        }
        b')' => Err(err(start, "unexpected `)`")),
        b'"' => {
            *pos += 1;
            let mut value = Vec::new();
            loop {
                if *pos >= bytes.len() {
                    return Err(err(start, "unterminated string literal"));
                }
                match bytes[*pos] {
                    b'"' if bytes.get(*pos + 1) == Some(&b'"') => {
                        // SMT-LIB escapes a quote by doubling it.
                        value.push(b'"');
                        *pos += 2;
                    }
                    b'"' => {
                        *pos += 1;
                        return Ok(Some(Sexpr::Str { value, pos: start }));
                    }
                    b => {
                        value.push(b);
                        *pos += 1;
                    }
                }
            }
        }
        _ => {
            while *pos < bytes.len()
                && !bytes[*pos].is_ascii_whitespace()
                && !matches!(bytes[*pos], b'(' | b')' | b'"' | b';')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| err(start, "non-UTF-8 atom"))?
                .to_owned();
            Ok(Some(Sexpr::Atom { text, pos: start }))
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

struct Engine {
    system: System,
    outputs: Vec<SmtOutput>,
    /// Last check-sat model, for get-model.
    model: Option<Option<dprle_core::Assignment>>,
    options: SolveOptions,
    /// Shared across the script's check-sats (and, for served scripts,
    /// across every session of the process): fingerprints and memoized
    /// operations computed for the common prefix are cache hits later.
    store: Arc<LangStore>,
    tracer: Tracer,
    /// Aggregated over every check-sat (see `SolveStats::absorb`).
    stats: SolveStats,
}

impl Engine {
    fn command(&mut self, sexpr: &Sexpr) -> Result<(), SmtError> {
        let Sexpr::List { items, pos } = sexpr else {
            return Err(err(sexpr.pos(), "expected a command list"));
        };
        let head = items
            .first()
            .and_then(Sexpr::atom)
            .ok_or_else(|| err(*pos, "empty command"))?;
        match head {
            "set-logic" | "set-info" | "set-option" | "exit" | "echo" => Ok(()),
            "declare-const" => {
                let name = items
                    .get(1)
                    .and_then(Sexpr::atom)
                    .ok_or_else(|| err(*pos, "declare-const needs a name"))?;
                let sort = items.get(2).and_then(Sexpr::atom);
                if sort != Some("String") {
                    return Err(err(*pos, "only the String sort is supported"));
                }
                self.system.var(name);
                Ok(())
            }
            "declare-fun" => {
                let name = items
                    .get(1)
                    .and_then(Sexpr::atom)
                    .ok_or_else(|| err(*pos, "declare-fun needs a name"))?;
                let nullary =
                    matches!(items.get(2), Some(Sexpr::List { items, .. }) if items.is_empty());
                let sort = items.get(3).and_then(Sexpr::atom);
                if !nullary || sort != Some("String") {
                    return Err(err(*pos, "only nullary String functions are supported"));
                }
                self.system.var(name);
                Ok(())
            }
            "assert" => {
                let body = items
                    .get(1)
                    .ok_or_else(|| err(*pos, "assert needs a body"))?;
                self.assert(body)
            }
            "check-sat" => {
                let (solution, stats) = match try_solve_traced(
                    &self.system,
                    &self.options,
                    &self.store,
                    &self.tracer,
                ) {
                    Ok(run) => run,
                    Err(exhausted) => {
                        return Err(SmtError {
                            pos: *pos,
                            message: format!("check-sat aborted: {exhausted}"),
                            exhausted: Some(exhausted),
                        })
                    }
                };
                self.stats.absorb(&stats);
                let sat = solution.is_sat();
                self.model = Some(match solution {
                    Solution::Assignments(mut list) => Some(list.remove(0)),
                    Solution::Unsat => None,
                });
                self.outputs.push(SmtOutput::CheckSat(sat));
                Ok(())
            }
            "get-model" => {
                let Some(model) = &self.model else {
                    return Err(err(*pos, "get-model before check-sat"));
                };
                let Some(assignment) = model else {
                    return Err(err(*pos, "get-model after unsat"));
                };
                let mut lines = Vec::new();
                for v in self.system.var_ids() {
                    let witness = assignment.witness(v).unwrap_or_default();
                    lines.push(format!(
                        "(define-fun {} () String \"{}\")",
                        self.system.var_name(v),
                        escape_smt(&witness)
                    ));
                }
                self.outputs.push(SmtOutput::Model(lines));
                Ok(())
            }
            other => Err(err(*pos, format!("unsupported command `{other}`"))),
        }
    }

    fn assert(&mut self, body: &Sexpr) -> Result<(), SmtError> {
        let Sexpr::List { items, pos } = body else {
            return Err(err(body.pos(), "assert body must be (str.in_re …)"));
        };
        match items.first().and_then(Sexpr::atom) {
            Some("str.in_re") => {
                let term = items
                    .get(1)
                    .ok_or_else(|| err(*pos, "str.in_re needs a term"))?;
                let re = items
                    .get(2)
                    .ok_or_else(|| err(*pos, "str.in_re needs a regex"))?;
                let lhs = self.term(term)?;
                let machine = self.regex(re)?;
                let name = format!("__re{}", self.system.num_consts());
                let rhs = self.system.constant(&name, machine);
                self.system.require(lhs, rhs);
                Ok(())
            }
            Some("=") => {
                // (= term "literal") — equality with a constant string.
                let term = items
                    .get(1)
                    .ok_or_else(|| err(*pos, "= needs two operands"))?;
                let value = match items.get(2) {
                    Some(Sexpr::Str { value, .. }) => value.clone(),
                    _ => return Err(err(*pos, "`=` supports only a string-literal right side")),
                };
                let lhs = self.term(term)?;
                let name = format!("__eq{}", self.system.num_consts());
                let rhs = self.system.constant(&name, Nfa::literal(&value));
                self.system.require(lhs, rhs);
                Ok(())
            }
            _ => Err(err(
                *pos,
                "only (str.in_re …) and (= t \"lit\") assertions are supported",
            )),
        }
    }

    /// Lowers a term of at most [`MAX_CONCAT_OPERANDS`] operands, counting
    /// those of nested `str.++` terms.
    fn term(&mut self, sexpr: &Sexpr) -> Result<Expr, SmtError> {
        self.term_counted(sexpr, &mut 0)
    }

    /// [`Engine::term`], adding the operands it lowers to `operands`.
    fn term_counted(&mut self, sexpr: &Sexpr, operands: &mut usize) -> Result<Expr, SmtError> {
        match sexpr {
            Sexpr::Str { value, .. } => {
                *operands += 1;
                let name = format!("__lit{}", self.system.num_consts());
                Ok(Expr::Const(
                    self.system.constant(&name, Nfa::literal(value)),
                ))
            }
            Sexpr::Atom { text, pos } => match self.system.var_id(text) {
                Some(v) => {
                    *operands += 1;
                    Ok(Expr::Var(v))
                }
                None => Err(err(*pos, format!("undeclared variable `{text}`"))),
            },
            Sexpr::List { items, pos } => {
                if items.first().and_then(Sexpr::atom) != Some("str.++") {
                    return Err(err(*pos, "terms are variables, literals, or (str.++ …)"));
                }
                let mut expr: Option<Expr> = None;
                for item in &items[1..] {
                    if *operands == MAX_CONCAT_OPERANDS {
                        return Err(err(
                            item.pos(),
                            format!("str.++ has more than {MAX_CONCAT_OPERANDS} operands"),
                        ));
                    }
                    let next = self.term_counted(item, operands)?;
                    expr = Some(match expr {
                        None => next,
                        Some(e) => e.concat(next),
                    });
                }
                expr.ok_or_else(|| err(*pos, "str.++ needs at least one operand"))
            }
        }
    }

    fn regex(&mut self, sexpr: &Sexpr) -> Result<Nfa, SmtError> {
        match sexpr {
            Sexpr::Atom { text, pos } => match text.as_str() {
                "re.all" => Ok(Nfa::sigma_star()),
                "re.allchar" => Ok(Nfa::class(ByteClass::FULL)),
                "re.none" => Ok(Nfa::empty_language()),
                other => Err(err(*pos, format!("unknown regex atom `{other}`"))),
            },
            Sexpr::Str { pos, .. } => Err(err(
                *pos,
                "string literals need (str.to_re …) in regex position",
            )),
            Sexpr::List { items, pos } => {
                // Indexed operator: ((_ re.loop n m) r)
                if let Some(Sexpr::List { items: index, .. }) = items.first() {
                    let is_loop = index.first().and_then(Sexpr::atom) == Some("_")
                        && index.get(1).and_then(Sexpr::atom) == Some("re.loop");
                    if is_loop {
                        let n: usize = index
                            .get(2)
                            .and_then(Sexpr::atom)
                            .and_then(|a| a.parse().ok())
                            .ok_or_else(|| err(*pos, "re.loop needs numeric bounds"))?;
                        let m: usize = index
                            .get(3)
                            .and_then(Sexpr::atom)
                            .and_then(|a| a.parse().ok())
                            .ok_or_else(|| err(*pos, "re.loop needs numeric bounds"))?;
                        if m < n {
                            return Err(err(*pos, "re.loop upper bound below lower bound"));
                        }
                        let inner = self.regex(
                            items
                                .get(1)
                                .ok_or_else(|| err(*pos, "re.loop needs a regex"))?,
                        )?;
                        // Priced like the native `{n,m}` before it is built:
                        // nested loops multiply.
                        let normalized =
                            inner.num_states() + if inner.is_normalized() { 0 } else { 2 };
                        let states = repeat_states(normalized as u64, n as u64, Some(m as u64));
                        if states > MAX_STATES {
                            return Err(err(
                                *pos,
                                format!(
                                    "too many states: re.loop prices at {states}, past the budget of {MAX_STATES}"
                                ),
                            ));
                        }
                        return Ok(ops::repeat_range(&inner, n, m));
                    }
                }
                let head = items
                    .first()
                    .and_then(Sexpr::atom)
                    .ok_or_else(|| err(*pos, "expected a regex operator"))?;
                let args = &items[1..];
                let sub = |engine: &mut Engine, i: usize| -> Result<Nfa, SmtError> {
                    engine.regex(
                        args.get(i)
                            .ok_or_else(|| err(*pos, format!("`{head}` is missing operands")))?,
                    )
                };
                match head {
                    "str.to_re" => match args.first() {
                        Some(Sexpr::Str { value, .. }) => Ok(Nfa::literal(value)),
                        _ => Err(err(*pos, "str.to_re needs a string literal")),
                    },
                    "re.range" => {
                        let lo = match args.first() {
                            Some(Sexpr::Str { value, .. }) if value.len() == 1 => value[0],
                            _ => return Err(err(*pos, "re.range needs single-char strings")),
                        };
                        let hi = match args.get(1) {
                            Some(Sexpr::Str { value, .. }) if value.len() == 1 => value[0],
                            _ => return Err(err(*pos, "re.range needs single-char strings")),
                        };
                        Ok(Nfa::class(ByteClass::range(lo, hi)))
                    }
                    "re.++" => {
                        let mut out = self.regex(
                            args.first()
                                .ok_or_else(|| err(*pos, "re.++ needs operands"))?,
                        )?;
                        for a in &args[1..] {
                            out = ops::concat_owned(out, &self.regex(a)?).nfa;
                        }
                        self.options
                            .metrics
                            .add(id::CONCAT_STATES, out.num_states() as u64);
                        Ok(out)
                    }
                    "re.union" => {
                        let mut machines = Vec::with_capacity(args.len());
                        for a in args {
                            machines.push(self.regex(a)?);
                        }
                        let out = ops::union_all(machines.iter());
                        self.options
                            .metrics
                            .add(id::UNION_STATES, out.num_states() as u64);
                        Ok(out)
                    }
                    "re.inter" => {
                        let mut machines = Vec::with_capacity(args.len());
                        for a in args {
                            machines.push(self.regex(a)?);
                        }
                        let out = ops::intersect_all(machines.iter());
                        self.options
                            .metrics
                            .add(id::INTERSECT_PRODUCTS, out.num_states() as u64);
                        Ok(out)
                    }
                    "re.*" => Ok(ops::star(&sub(self, 0)?)),
                    "re.+" => Ok(ops::plus(&sub(self, 0)?)),
                    "re.opt" => Ok(ops::optional(&sub(self, 0)?)),
                    "re.comp" => try_complement(&sub(self, 0)?, MAX_STATES as usize)
                        .ok_or_else(|| too_many_states(*pos, head)),
                    "re.diff" => {
                        let a = sub(self, 0)?;
                        let b = sub(self, 1)?;
                        analysis::try_difference(&a, &b, MAX_STATES as usize)
                            .ok_or_else(|| too_many_states(*pos, head))
                    }
                    other => Err(err(*pos, format!("unsupported regex operator `{other}`"))),
                }
            }
        }
    }
}

/// The error for a `re.comp` or `re.diff` at `pos` whose determinization
/// passed [`MAX_STATES`] states.
fn too_many_states(pos: usize, head: &str) -> SmtError {
    err(
        pos,
        format!("too many states: `{head}` determinizes past the budget of {MAX_STATES}"),
    )
}

fn escape_smt(bytes: &[u8]) -> String {
    let mut out = String::new();
    for &b in bytes {
        match b {
            b'"' => out.push_str("\"\""),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\u{{{b:02x}}}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MOTIVATING: &str = r#"
        (set-logic QF_S)
        (declare-const v1 String)
        ; the faulty filter: ends in a digit (no anchor at the front)
        (assert (str.in_re v1 (re.++ re.all (re.+ (re.range "0" "9")))))
        ; the prefixed value must be able to contain a quote
        (assert (str.in_re (str.++ "nid_" v1)
                           (re.++ re.all (str.to_re "'") re.all)))
        (check-sat)
        (get-model)
    "#;

    #[test]
    fn motivating_example_in_smtlib() {
        let out = run_script(MOTIVATING).expect("runs");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], SmtOutput::CheckSat(true));
        match &out[1] {
            SmtOutput::Model(lines) => {
                assert_eq!(lines.len(), 1);
                assert!(
                    lines[0].starts_with("(define-fun v1 () String"),
                    "{lines:?}"
                );
                assert!(lines[0].contains('\''), "witness has the quote: {lines:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsat_scripts() {
        let out = run_script(
            r#"
            (declare-const x String)
            (assert (str.in_re x (str.to_re "a")))
            (assert (str.in_re x (str.to_re "b")))
            (check-sat)
            "#,
        )
        .expect("runs");
        assert_eq!(out, vec![SmtOutput::CheckSat(false)]);
    }

    #[test]
    fn equality_assertions() {
        let out = run_script(
            r#"
            (declare-const x String)
            (assert (= x "hello"))
            (check-sat)
            (get-model)
            "#,
        )
        .expect("runs");
        match &out[1] {
            SmtOutput::Model(lines) => assert!(lines[0].contains("\"hello\"")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn regex_operators() {
        let out = run_script(
            r#"
            (declare-const x String)
            (assert (str.in_re x (re.union (str.to_re "cat") (str.to_re "dog"))))
            (assert (str.in_re x (re.comp (str.to_re "dog"))))
            (check-sat)
            (get-model)
            "#,
        )
        .expect("runs");
        assert_eq!(out[0], SmtOutput::CheckSat(true));
        match &out[1] {
            SmtOutput::Model(lines) => assert!(lines[0].contains("cat"), "{lines:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loop_and_inter_and_diff() {
        let out = run_script(
            r#"
            (declare-const x String)
            (assert (str.in_re x ((_ re.loop 2 3) (str.to_re "ab"))))
            (assert (str.in_re x (re.inter (re.* (re.range "a" "b"))
                                           (re.diff re.all (str.to_re "ababab")))))
            (check-sat)
            (get-model)
            "#,
        )
        .expect("runs");
        assert_eq!(out[0], SmtOutput::CheckSat(true));
        match &out[1] {
            SmtOutput::Model(lines) => assert!(lines[0].contains("abab"), "{lines:?}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declare_fun_and_quoted_strings() {
        let out = run_script(
            r#"
            (declare-fun y () String)
            (assert (= y "say ""hi"""))
            (check-sat)
            (get-model)
            "#,
        )
        .expect("runs");
        match &out[1] {
            SmtOutput::Model(lines) => {
                assert!(lines[0].contains("say \"\"hi\"\""), "{lines:?}")
            }
            other => panic!("{other:?}"),
        }
    }

    /// A script that nests `((_ re.loop 1 2) …)` `depth` deep around
    /// `(str.to_re "a")`.
    fn nested_loops(depth: usize) -> String {
        format!(
            "(declare-const x String)\n(assert (str.in_re x {}(str.to_re \"a\"){}))\n(check-sat)\n",
            "((_ re.loop 1 2) ".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn nested_loops_are_priced_like_native_repeats() {
        // Sixteen levels once built toward 2^16 copies of the operand.
        let script = nested_loops(16);
        assert_eq!(script.len(), 364);
        let err = run_script(&script).expect_err("past the state budget");
        assert!(
            err.exhausted.is_none(),
            "a script error, not a budget breach"
        );
        assert!(err.message.contains("too many states"), "{}", err.message);
        // The error names the loop that crosses the budget by its offset:
        // the tenth from the inside, as for the native `a{1,2}{1,2}…`.
        let at = &script[err.pos..];
        assert!(at.starts_with(&"((_ re.loop 1 2) ".repeat(10)), "{at}");
        assert!(!at.starts_with(&"((_ re.loop 1 2) ".repeat(11)), "{at}");
        let native = format!("a{}", "{1,2}".repeat(16));
        let native = dprle_regex::parse(&native).expect_err("native budget");
        assert_eq!(
            native.pos,
            1 + 9 * "{1,2}".len(),
            "the tenth level crosses it"
        );
        // Within the budget a loop builds, and its price bounds its machine.
        let out = run_script(&nested_loops(4)).expect("four levels solve");
        assert_eq!(out, vec![SmtOutput::CheckSat(true)]);
        let inner = Nfa::literal(b"ab");
        let built = ops::repeat_range(&inner, 2, 5);
        assert!(built.num_states() as u64 <= repeat_states(inner.num_states() as u64, 2, Some(5)));
    }

    /// `depth` copies of `open` and `close` around `inner`.
    fn nest(open: &str, inner: &str, close: &str, depth: usize) -> String {
        format!("{}{inner}{}", open.repeat(depth), close.repeat(depth))
    }

    /// A satisfiable script whose lists nest `depth` deep, in each recursive
    /// form, with the offset of its first `(` inside `depth - 1` lists.
    fn deep_scripts(depth: usize) -> Vec<(&'static str, String, usize)> {
        // `(assert (str.in_re x R))` adds two levels, and the innermost
        // `(str.to_re "a")` one.
        let member = |open: &str| {
            let regex = nest(open, "(str.to_re \"a\")", ")", depth - 3);
            format!("(declare-const x String)\n(assert (str.in_re x {regex}))\n(check-sat)\n")
        };
        let concat = nest("(str.++ \"a\" ", "x", ")", depth - 2);
        let scripts = [
            ("re.*", member("(re.* ")),
            ("re.++", member("(re.++ (str.to_re \"a\") ")),
            ("re.union", member("(re.union (str.to_re \"b\") ")),
            ("re.loop", member("((_ re.loop 1 1) ")),
            (
                "str.++",
                format!(
                    "(declare-const x String)\n(assert (str.in_re {concat} re.all))\n(check-sat)\n"
                ),
            ),
        ];
        scripts
            .into_iter()
            .map(|(form, script)| {
                let mut open = 0;
                let deepest = script.bytes().position(|b| {
                    open += usize::from(b == b'(');
                    open -= usize::from(b == b')');
                    b == b'(' && open == depth
                });
                (form, script.clone(), deepest.expect("nested"))
            })
            .collect()
    }

    #[test]
    fn the_deepest_scripts_run_on_a_small_stack() {
        for (form, script, _) in deep_scripts(MAX_NESTING) {
            // 2 MiB is a spawned thread's default stack (a `dprle serve`
            // session's).
            std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let out = run_script(&script).unwrap_or_else(|e| panic!("{form}: {e}"));
                    assert_eq!(out, vec![SmtOutput::CheckSat(true)], "{form}");
                })
                .expect("spawn")
                .join()
                .unwrap_or_else(|_| panic!("{form}: no stack overflow"));
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_at_the_deepest_list() {
        for (form, script, deepest) in deep_scripts(MAX_NESTING + 1) {
            let err = run_script(&script).expect_err(form);
            assert!(err.exhausted.is_none(), "{form}");
            assert!(
                err.message.contains("nest deeper"),
                "{form}: {}",
                err.message
            );
            assert_eq!(err.pos, deepest, "{form}");
        }
        // Far past it, the reader stops at the limit too.
        let script = format!(
            "(assert (str.in_re x {}))",
            nest("(re.* ", "re.all", ")", 100_000)
        );
        let err = run_script(&script).expect_err("too deep");
        assert_eq!(
            err.pos,
            "(assert (str.in_re x ".len() + (MAX_NESTING - 2) * "(re.* ".len()
        );
    }

    /// `(str.++ "a" … "a" x)` with `operands` operands, and the offset of
    /// the last.
    fn long_concatenation(operands: usize) -> (String, usize) {
        let head = format!(
            "(declare-const x String)\n(assert (str.in_re (str.++ {}",
            "\"a\" ".repeat(operands - 1)
        );
        (format!("{head}x) re.all))\n(check-sat)\n"), head.len())
    }

    #[test]
    fn the_longest_concatenations_run_on_a_small_stack() {
        let (flat, _) = long_concatenation(MAX_CONCAT_OPERANDS);
        // Operands of nested terms count with the outer ones.
        let nested = format!(
            "(declare-const x String)\n(assert (str.in_re (str.++ (str.++ {}) {}x) re.all))\n(check-sat)\n",
            "\"a\" ".repeat(100),
            "\"a\" ".repeat(MAX_CONCAT_OPERANDS - 101)
        );
        for script in [flat, nested] {
            std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let out = run_script(&script).expect("solves");
                    assert_eq!(out, vec![SmtOutput::CheckSat(true)]);
                })
                .expect("spawn")
                .join()
                .expect("no stack overflow");
        }
    }

    #[test]
    fn concatenations_past_the_limit_are_errors_at_the_extra_operand() {
        let (script, last) = long_concatenation(MAX_CONCAT_OPERANDS + 1);
        let err = run_script(&script).expect_err("one operand too many");
        assert!(err.exhausted.is_none());
        assert!(err.message.contains("operands"), "{}", err.message);
        assert_eq!(err.pos, last);
        let (script, _) = long_concatenation(100_000);
        assert_eq!(run_script(&script).expect_err("far too many").pos, last);
        let nested = format!(
            "(declare-const x String)\n(assert (str.in_re (str.++ (str.++ {}) {}x) re.all))",
            "\"a\" ".repeat(200),
            "\"a\" ".repeat(MAX_CONCAT_OPERANDS - 200)
        );
        let err = run_script(&nested).expect_err("nested operands count");
        assert_eq!(err.pos, nested.len() - "x) re.all))".len());
    }

    #[test]
    fn complements_past_the_state_budget_are_errors_at_the_operator() {
        // `Σ*aΣ^n` needs 2^(n+1) states deterministically.
        let script = |op: &str, n: usize| {
            format!(
                "(declare-const x String)\n(assert (str.in_re x ({op} (re.++ re.all (str.to_re \"a\") ((_ re.loop {n} {n}) re.allchar)))))\n(check-sat)\n"
            )
        };
        for op in ["re.comp", "re.diff re.all"] {
            let started = std::time::Instant::now();
            let err = run_script(&script(op, 19)).expect_err(op);
            assert!(err.exhausted.is_none(), "{op}");
            assert!(err.message.contains("too many states"), "{}", err.message);
            assert_eq!(
                err.pos,
                "(declare-const x String)\n(assert (str.in_re x ".len()
            );
            assert!(
                started.elapsed().as_secs() < 5,
                "{op}: {:?}",
                started.elapsed()
            );
            // Small enough, the same shapes solve: strings without an `a`
            // three from the end.
            let out = run_script(&script(op, 3)).expect(op);
            assert_eq!(out, vec![SmtOutput::CheckSat(true)], "{op}");
        }
    }

    #[test]
    fn errors_are_positioned() {
        assert!(run_script("(declare-const x Int)").is_err());
        assert!(run_script("(assert (str.in_re y re.all))").is_err());
        assert!(run_script("(get-model)").is_err());
        assert!(run_script("(frobnicate)").is_err());
        assert!(run_script("(").is_err());
        assert!(run_script("\"unterminated").is_err());
        let unsat_model = run_script(
            "(declare-const x String)\n(assert (str.in_re x re.none))\n(check-sat)\n(get-model)",
        );
        assert!(unsat_model.is_err(), "model after unsat is an error");
    }

    #[test]
    fn comments_and_ignored_commands() {
        let out = run_script(
            "; header comment\n(set-info :status sat)\n(set-option :produce-models true)\n(check-sat)\n(exit)\n",
        )
        .expect("runs");
        assert_eq!(out, vec![SmtOutput::CheckSat(true)]);
    }

    #[test]
    fn check_sat_reports_budget_exhaustion() {
        let options = SolveOptions {
            budget: dprle_core::Budget {
                max_product_states: Some(1),
                ..Default::default()
            },
            ..SolveOptions::default()
        };
        let e = run_script_with_stats(MOTIVATING, &options, &Tracer::disabled())
            .expect_err("a 1-product-state budget cannot solve the motivating query");
        let exhausted = e.exhausted.as_ref().expect("typed breach attached");
        assert_eq!(exhausted.kind, dprle_core::BudgetKind::ProductStates);
        assert!(e.message.contains("product-states"), "{e}");
        // The same script runs clean without the budget.
        let ok = run_script_with_stats(MOTIVATING, &SolveOptions::default(), &Tracer::disabled())
            .expect("unlimited budget");
        assert_eq!(ok.outputs[0], SmtOutput::CheckSat(true));
    }

    #[test]
    fn lowering_records_into_an_installed_registry() {
        let metrics = dprle_core::Metrics::enabled();
        let options = SolveOptions {
            metrics: metrics.clone(),
            ..SolveOptions::default()
        };
        run_script_with_stats(MOTIVATING, &options, &Tracer::disabled()).expect("runs");
        let snapshot = metrics.snapshot().expect("enabled registry");
        assert!(
            snapshot
                .get("automata.concat.states")
                .expect("re.++ lowered")
                .headline()
                > 0,
            "regex lowering charges the concat counter"
        );
        assert!(
            snapshot
                .get("core.solve.product_states")
                .expect("solved")
                .headline()
                > 0,
            "check-sat recorded solver work"
        );
    }

    #[test]
    fn output_display() {
        assert_eq!(SmtOutput::CheckSat(true).to_string(), "sat");
        assert_eq!(SmtOutput::CheckSat(false).to_string(), "unsat");
        let model = SmtOutput::Model(vec!["(define-fun x () String \"a\")".into()]);
        let text = model.to_string();
        assert!(text.starts_with("(\n"), "{text}");
        assert!(text.ends_with(')'), "{text}");
    }
}
