//! SQL-injection analysis: from sink reaches to exploit inputs.
//!
//! This module closes the loop the paper's §4 evaluation describes: take a
//! path that reaches a query sink (from [`crate::symex`]), phrase the
//! path's conditions and an *unsafe-query policy* as a DPRLE constraint
//! system, solve it, and — when satisfiable — extract concrete exploit
//! values for each HTTP input parameter. An unsatisfiable system certifies
//! the path safe with respect to the policy ("our algorithm would indicate
//! that the language of vulnerable strings is empty, i.e., there is no
//! bug").

use crate::symex::{explore, Atom, SinkReach, SymValue, SymexError, SymexOptions};
use dprle_automata::homomorphism::{image, preimage};
use dprle_automata::{ops, ByteMap, Lang, Nfa};
use dprle_core::{solve, Expr, Solution, SolveOptions, System, VarId, MAX_CONCAT_OPERANDS};
use std::collections::BTreeMap;
use std::fmt;

/// A policy describing *unsafe* query strings.
#[derive(Clone, Debug)]
pub struct Policy {
    name: String,
    /// Shared with every system [`build_system`] generates under it.
    language: Lang,
}

impl Policy {
    /// Creates a policy from an explicit language of unsafe queries.
    pub fn new(name: &str, language: Nfa) -> Policy {
        Policy {
            name: name.to_owned(),
            language: language.into(),
        }
    }

    /// The paper's SQL-injection approximation: a query is unsafe when it
    /// contains an unescaped single quote — "one common approximation for
    /// an unsafe SQL query" (§3.2, citing Wassermann & Su).
    pub fn sql_quote() -> Policy {
        let quote = ops::concat(
            &ops::concat(&Nfa::sigma_star(), &Nfa::literal(b"'")).nfa,
            &Nfa::sigma_star(),
        )
        .nfa;
        Policy::new("contains-quote", quote)
    }

    /// A cross-site-scripting policy: the emitted HTML contains a
    /// `<script` tag opener (the paper names XSS as its other target
    /// class; use with [`crate::symex::SymexOptions::track_echo`]).
    pub fn xss_script_tag() -> Policy {
        let m = ops::concat(
            &ops::concat(&Nfa::sigma_star(), &Nfa::literal(b"<script")).nfa,
            &Nfa::sigma_star(),
        )
        .nfa;
        Policy::new("xss-script-tag", m)
    }

    /// A stricter variant: the query contains a quote followed by a SQL
    /// statement separator (`;`) — modeling stacked-query injections.
    pub fn sql_stacked_query() -> Policy {
        let m = ops::concat(
            &ops::concat(
                &ops::concat(&Nfa::sigma_star(), &Nfa::literal(b"'")).nfa,
                &Nfa::sigma_star(),
            )
            .nfa,
            &ops::concat(&Nfa::literal(b";"), &Nfa::sigma_star()).nfa,
        )
        .nfa;
        Policy::new("stacked-query", m)
    }

    /// The policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The unsafe-query language.
    pub fn language(&self) -> &Nfa {
        self.language.nfa()
    }
}

/// A confirmed vulnerability: a sink, a satisfiable constraint system, and
/// concrete exploit inputs.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Program name.
    pub program: String,
    /// Which sink (index among the path's reaches).
    pub sink_index: usize,
    /// The symbolic query at the sink.
    pub query: SymValue,
    /// Number of constraints in the generated system — the paper's `|C|`.
    pub num_constraints: usize,
    /// Concrete exploit value per input parameter.
    pub witnesses: BTreeMap<String, Vec<u8>>,
    /// The full solved exploit language per input parameter; enumerate it
    /// (e.g. with [`dprle_automata::analysis::members`]) to produce
    /// additional indicative test cases, as the paper's test-generation
    /// use case calls for.
    pub languages: BTreeMap<String, Nfa>,
    /// The branch decisions of the vulnerable path (a path slice in the
    /// sense of the paper's §2: the statements a developer must look at).
    pub decisions: Vec<bool>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: sink #{} is exploitable",
            self.program, self.sink_index
        )?;
        for (input, value) in &self.witnesses {
            writeln!(f, "  {} = {:?}", input, String::from_utf8_lossy(value))?;
        }
        Ok(())
    }
}

/// The outcome of analyzing one program.
#[derive(Clone, Debug, Default)]
pub struct AnalysisReport {
    /// Vulnerabilities with exploit inputs.
    pub findings: Vec<Finding>,
    /// Sinks proven safe under the policy (their exploit language is
    /// empty).
    pub safe_sinks: usize,
    /// Total sink reaches examined.
    pub total_sinks: usize,
}

/// Errors from the analysis pipeline.
#[derive(Clone, Debug)]
pub enum AnalysisError {
    /// Symbolic execution failed.
    Symex(SymexError),
    /// An input parameter is used both directly and through a case map (or
    /// through two different maps) on one path; the constraint system
    /// cannot link the two views soundly.
    MixedMappedUse {
        /// The offending input parameter.
        input: String,
    },
    /// A string reaching a sink or a condition concatenates more than
    /// [`MAX_CONCAT_OPERANDS`] literals and inputs: its constraint would
    /// be too deep for the solver to walk.
    TooManyOperands {
        /// The operands the string has.
        operands: usize,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Symex(e) => write!(f, "symbolic execution failed: {e}"),
            AnalysisError::MixedMappedUse { input } => write!(
                f,
                "input `{input}` is used both raw and case-mapped on one path; unsupported"
            ),
            AnalysisError::TooManyOperands { operands } => write!(
                f,
                "a string concatenates {operands} operands, more than the \
                 {MAX_CONCAT_OPERANDS} one constraint may have"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<SymexError> for AnalysisError {
    fn from(e: SymexError) -> Self {
        AnalysisError::Symex(e)
    }
}

/// How one input parameter is represented in a generated system.
#[derive(Clone, Debug)]
pub enum InputBinding {
    /// The parameter appears directly: the solver variable *is* the input.
    Direct(VarId),
    /// The parameter appears only through a byte map `h`: the solver
    /// variable stands for `h(input)`, and input witnesses/languages are
    /// recovered through the preimage.
    Mapped {
        /// The variable standing for the mapped view.
        var: VarId,
        /// The applied map (boxed: 256 bytes of table).
        map: Box<ByteMap>,
    },
}

impl InputBinding {
    /// The underlying solver variable.
    pub fn var(&self) -> VarId {
        match self {
            InputBinding::Direct(v) | InputBinding::Mapped { var: v, .. } => *v,
        }
    }
}

/// The constraint system generated for one sink reach.
#[derive(Debug)]
pub struct GeneratedSystem {
    /// The constraint system, ready to solve.
    pub system: System,
    /// Per input parameter, how it is bound to a solver variable.
    pub inputs: BTreeMap<String, InputBinding>,
}

/// Builds the DPRLE constraint system for one sink reach under `policy`.
///
/// Returns the system plus the mapping from input-parameter names to
/// solver variables. This is the paper's constraint-generation step; its
/// size is the `|C|` column of Figure 12.
///
/// # Panics
///
/// Panics where [`build_system`] fails: an input used both raw and
/// mapped, or a string of more than [`MAX_CONCAT_OPERANDS`] operands.
pub fn to_system(reach: &SinkReach, policy: &Policy) -> (System, BTreeMap<String, VarId>) {
    let generated = build_system(reach, policy).expect("reach builds a system");
    let vars = generated
        .inputs
        .iter()
        .map(|(name, binding)| (name.clone(), binding.var()))
        .collect();
    (generated.system, vars)
}

/// Like [`to_system`], with explicit handling of case-mapped inputs
/// (`strtolower($_GET[…])` and friends).
///
/// Path conditions and the policy enter the system as the [`Lang`]
/// handles they already are, so no condition machine is copied: a
/// language that many conditions test is one handle under many names.
///
/// # Errors
///
/// Fails when an input is used both raw and mapped (or under two distinct
/// maps) on the same path — the grammar of Figure 2 cannot relate the two
/// views.
pub fn build_system(reach: &SinkReach, policy: &Policy) -> Result<GeneratedSystem, AnalysisError> {
    let mut sys = System::new();
    let mut inputs: BTreeMap<String, InputBinding> = BTreeMap::new();
    let mut literal_count = 0usize;
    let mut cond_count = 0usize;
    let mut map_constants: BTreeMap<String, ()> = BTreeMap::new();

    let mut atom_to_expr = |sys: &mut System,
                            inputs: &mut BTreeMap<String, InputBinding>,
                            map_constants: &mut BTreeMap<String, ()>,
                            atom: &Atom|
     -> Result<Expr, AnalysisError> {
        Ok(match atom {
            Atom::Literal(bytes) => {
                let name = format!("lit{literal_count}");
                literal_count += 1;
                Expr::Const(sys.constant(&name, Nfa::literal(bytes)))
            }
            Atom::Input(name) => match inputs.get(name) {
                Some(InputBinding::Direct(v)) => Expr::Var(*v),
                Some(InputBinding::Mapped { .. }) => {
                    return Err(AnalysisError::MixedMappedUse {
                        input: name.clone(),
                    })
                }
                None => {
                    let v = sys.var(name);
                    inputs.insert(name.clone(), InputBinding::Direct(v));
                    Expr::Var(v)
                }
            },
            Atom::MappedInput {
                map,
                map_name,
                input,
            } => {
                let derived_name = format!("{input}%{map_name}");
                match inputs.get(input) {
                    Some(InputBinding::Direct(_)) => {
                        return Err(AnalysisError::MixedMappedUse {
                            input: input.clone(),
                        })
                    }
                    Some(InputBinding::Mapped { var, map: existing }) => {
                        if existing != map {
                            return Err(AnalysisError::MixedMappedUse {
                                input: input.clone(),
                            });
                        }
                        Expr::Var(*var)
                    }
                    None => {
                        let v = sys.var(&derived_name);
                        inputs.insert(
                            input.clone(),
                            InputBinding::Mapped {
                                var: v,
                                map: map.clone(),
                            },
                        );
                        // The mapped view ranges over the map's image, so
                        // witnesses are always invertible.
                        if map_constants.insert(derived_name.clone(), ()).is_none() {
                            let img_name = format!("__image_{map_name}");
                            let img = sys.constant(&img_name, image(&Nfa::sigma_star(), map));
                            sys.require(Expr::Var(v), img);
                        }
                        Expr::Var(v)
                    }
                }
            }
        })
    };

    let mut value_to_expr = |sys: &mut System,
                             inputs: &mut BTreeMap<String, InputBinding>,
                             map_constants: &mut BTreeMap<String, ()>,
                             value: &SymValue|
     -> Result<Option<Expr>, AnalysisError> {
        if value.atoms.len() > MAX_CONCAT_OPERANDS {
            return Err(AnalysisError::TooManyOperands {
                operands: value.atoms.len(),
            });
        }
        let mut expr: Option<Expr> = None;
        for atom in &value.atoms {
            let next = atom_to_expr(sys, inputs, map_constants, atom)?;
            expr = Some(match expr {
                None => next,
                Some(e) => e.concat(next),
            });
        }
        Ok(expr)
    };

    for cond in &reach.conditions {
        let Some(lhs) = value_to_expr(&mut sys, &mut inputs, &mut map_constants, &cond.subject)?
        else {
            continue; // empty subject: trivially constrained
        };
        let name = format!("cond{cond_count}");
        cond_count += 1;
        let rhs = sys.constant(&name, cond.language.clone());
        sys.require(lhs, rhs);
    }

    // An empty symbolic query is the concrete empty string; constrain it
    // like any other concrete query, so a policy that excludes "" proves
    // the sink safe. Dropping the policy constraint instead turned any
    // satisfiable path condition into a spurious finding (corpus
    // frontend_fuzz seed 86: uninitialized variable queried under an
    // input-dependent branch).
    let lhs = value_to_expr(&mut sys, &mut inputs, &mut map_constants, &reach.query)?
        .unwrap_or_else(|| Expr::Const(sys.constant("__empty_query", Nfa::literal(b""))));
    let rhs = sys.constant("__policy", policy.language.clone());
    sys.require(lhs, rhs);
    Ok(GeneratedSystem {
        system: sys,
        inputs,
    })
}

/// Analyzes one program: explores paths, solves the constraint system of
/// every sink reach, and reports exploitable sinks with witnesses.
///
/// # Errors
///
/// Propagates symbolic-execution failures (bad patterns, path explosion)
/// and the first sink whose constraints cannot be generated (an input used
/// both raw and case-mapped, a string past [`MAX_CONCAT_OPERANDS`]): such a
/// sink is not known to be safe.
pub fn analyze(
    program: &crate::ast::Program,
    policy: &Policy,
    symex_options: &SymexOptions,
    solve_options: &SolveOptions,
) -> Result<AnalysisReport, AnalysisError> {
    analyze_sinks(program, policy, symex_options, solve_options, None)
}

/// Like [`analyze`], restricted to sinks of one kind (e.g.
/// [`SinkKind::Echo`](crate::symex::SinkKind::Echo) for XSS policies).
/// `None` analyzes every recorded sink.
pub fn analyze_sinks(
    program: &crate::ast::Program,
    policy: &Policy,
    symex_options: &SymexOptions,
    solve_options: &SolveOptions,
    kind: Option<crate::symex::SinkKind>,
) -> Result<AnalysisReport, AnalysisError> {
    let reaches = explore(program, symex_options)?;
    let relevant: Vec<_> = reaches
        .iter()
        .filter(|r| kind.is_none_or(|k| r.kind == k))
        .collect();
    let mut report = AnalysisReport {
        total_sinks: relevant.len(),
        ..Default::default()
    };
    for reach in relevant {
        // A sink whose constraints could not be generated is not known to
        // be safe, so every error ends the analysis.
        match try_analyze_reach(reach, policy, solve_options)? {
            Some(finding) => report.findings.push(finding),
            None => report.safe_sinks += 1,
        }
    }
    Ok(report)
}

/// Solves one sink reach; returns a finding when exploitable.
pub fn analyze_reach(
    reach: &SinkReach,
    policy: &Policy,
    solve_options: &SolveOptions,
) -> Option<Finding> {
    try_analyze_reach(reach, policy, solve_options)
        .ok()
        .flatten()
}

/// Like [`analyze_reach`] but surfaces constraint-generation errors
/// (mixed raw/mapped input use) instead of treating them as safe.
pub fn try_analyze_reach(
    reach: &SinkReach,
    policy: &Policy,
    solve_options: &SolveOptions,
) -> Result<Option<Finding>, AnalysisError> {
    let generated = build_system(reach, policy)?;
    let sys = &generated.system;
    // A sink with no symbolic inputs is vulnerable iff its concrete text is
    // already unsafe; `solve` handles that uniformly (variable-free
    // constraints are checked directly).
    let solution = solve(sys, solve_options);
    let assignment = match &solution {
        Solution::Assignments(list) => match list.first() {
            Some(a) => a,
            None => return Ok(None),
        },
        Solution::Unsat => return Ok(None),
    };
    let mut witnesses = BTreeMap::new();
    let mut languages = BTreeMap::new();
    for (name, binding) in &generated.inputs {
        match binding {
            InputBinding::Direct(v) => {
                if let Some(w) = assignment.witness(*v) {
                    witnesses.insert(name.clone(), w);
                }
                if let Some(m) = assignment.get(*v) {
                    languages.insert(name.clone(), m.nfa().clone());
                }
            }
            InputBinding::Mapped { var, map } => {
                // The solved language is for h(input); the input's exploit
                // language is the preimage, and witnesses invert per byte.
                if let Some(m) = assignment.get(*var) {
                    languages.insert(name.clone(), preimage(m, map));
                }
                if let Some(w) = assignment.witness(*var) {
                    witnesses.insert(name.clone(), invert_witness(&w, map));
                }
            }
        }
    }
    Ok(Some(Finding {
        program: reach.program.clone(),
        sink_index: reach.sink_index,
        query: reach.query.clone(),
        num_constraints: sys.num_constraints(),
        witnesses,
        languages,
        decisions: reach.decisions.clone(),
    }))
}

/// Inverts a byte map on a witness drawn from the map's image: each byte
/// gets some preimage byte (itself when the map fixes it).
fn invert_witness(w: &[u8], map: &ByteMap) -> Vec<u8> {
    w.iter()
        .map(|&b| {
            if map.map(b) == b {
                b
            } else {
                (0u8..=255)
                    .find(|&c| map.map(c) == b)
                    .expect("witness bytes lie in the map's image")
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use dprle_regex::Regex;

    #[test]
    fn strings_past_the_operand_limit_are_errors() {
        use crate::php::parse_php;
        let query = |operands: usize| {
            let source = format!(
                "<?php\n$x = $_GET['x'];\nquery(\"SELECT \"{});\n",
                " . $x".repeat(operands - 1)
            );
            let program = parse_php("long", &source).expect("parses");
            analyze_sinks(
                &program,
                &Policy::sql_quote(),
                &SymexOptions::default(),
                &SolveOptions::default(),
                None,
            )
        };
        let report = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(move || {
                query(MAX_CONCAT_OPERANDS)
                    .expect("at the limit")
                    .findings
                    .len()
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert_eq!(report, 1);
        for operands in [MAX_CONCAT_OPERANDS + 1, 100_000] {
            match query(operands) {
                Err(AnalysisError::TooManyOperands { operands: n }) => assert_eq!(n, operands),
                other => panic!("{operands} operands: {other:?}"),
            }
        }
    }

    #[test]
    fn figure1_yields_an_exploit() {
        let report = analyze(
            &Program::figure1(),
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.total_sinks, 1);
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        let exploit = finding
            .witnesses
            .get("posted_newsid")
            .expect("input witness");
        // The exploit passes the faulty filter and injects a quote.
        assert!(Regex::new("[\\d]+$").expect("re").is_match(exploit));
        assert!(exploit.contains(&b'\''));
        assert!(finding.num_constraints >= 2);
        assert!(finding.to_string().contains("exploitable"));
    }

    #[test]
    fn fixed_filter_is_safe() {
        // Patch Figure 1's filter with the proper ^ anchor: no finding.
        let mut p = Program::figure1();
        if let crate::ast::Stmt::If { cond, .. } = &mut p.stmts[1] {
            *cond = crate::ast::Cond::PregMatch {
                pattern: "^[\\d]+$".to_owned(),
                subject: crate::ast::StringExpr::var("newsid"),
            }
            .negate();
        } else {
            panic!("unexpected program shape");
        }
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 0);
        assert_eq!(report.safe_sinks, 1);
    }

    #[test]
    fn concrete_unsafe_query_is_flagged_without_inputs() {
        use crate::ast::{Stmt, StringExpr};
        let mut p = Program::new("concrete");
        p.stmts.push(Stmt::Query {
            expr: StringExpr::lit("SELECT 'oops'"),
        });
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].witnesses.is_empty());
    }

    #[test]
    fn empty_query_under_symbolic_condition_is_safe() {
        use crate::ast::{Cond, Stmt, StringExpr};
        // Regression (corpus frontend_fuzz seed 86): querying an
        // uninitialized variable under an input-dependent branch used to
        // produce a spurious finding — the empty query generated no policy
        // constraint at all, so the satisfiable path condition alone
        // counted as exploitable.
        let mut p = Program::new("empty_query");
        p.stmts.push(Stmt::If {
            cond: Cond::PregMatch {
                pattern: "[0-9]".into(),
                subject: StringExpr::input("in0"),
            },
            then: vec![Stmt::Query {
                expr: StringExpr::var("v0"),
            }],
            els: vec![],
        });
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 0, "empty query cannot be unsafe");
        assert_eq!(report.safe_sinks, 1);
    }

    #[test]
    fn concrete_safe_query_is_not_flagged() {
        use crate::ast::{Stmt, StringExpr};
        let mut p = Program::new("concrete_safe");
        p.stmts.push(Stmt::Query {
            expr: StringExpr::lit("SELECT 1"),
        });
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert!(report.findings.is_empty());
        assert_eq!(report.safe_sinks, 1);
    }

    #[test]
    fn stacked_query_policy_is_stricter() {
        let quote = Policy::sql_quote();
        let stacked = Policy::sql_stacked_query();
        assert!(quote.language().contains(b"x'y"));
        assert!(!stacked.language().contains(b"x'y"));
        assert!(stacked.language().contains(b"x'; DROP--"));
    }

    #[test]
    fn multiple_inputs_all_get_witnesses() {
        use crate::ast::{Stmt, StringExpr};
        let mut p = Program::new("two_inputs");
        p.stmts.push(Stmt::Query {
            expr: StringExpr::lit("SELECT * FROM t WHERE a=")
                .concat(StringExpr::input("a"))
                .concat(StringExpr::lit(" AND b="))
                .concat(StringExpr::input("b")),
        });
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        let w = &report.findings[0].witnesses;
        assert_eq!(w.len(), 2);
        // At least one of the two inputs must carry the quote.
        assert!(w.values().any(|v| v.contains(&b'\'')));
    }

    #[test]
    fn finding_languages_enumerate_alternative_exploits() {
        let report = analyze(
            &Program::figure1(),
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        let lang = &report.findings[0].languages["posted_newsid"];
        let filter = Regex::new("[\\d]+$").expect("re");
        // Every enumerated member is itself a working exploit.
        for exploit in dprle_automata::analysis::members(lang).take(10) {
            assert!(filter.is_match(&exploit), "{exploit:?} passes the filter");
            assert!(exploit.contains(&b'\''), "{exploit:?} injects a quote");
        }
        assert_eq!(dprle_automata::analysis::members(lang).take(10).count(), 10);
    }

    #[test]
    fn xss_policy_on_echo_sinks() {
        use crate::ast::{Cond, Stmt, StringExpr};
        use crate::symex::SinkKind;
        // echo "<div>" . $_GET['msg'] . "</div>"; — classic reflected XSS.
        let mut p = Program::new("xss");
        p.stmts.push(Stmt::Echo {
            expr: StringExpr::lit("<div>")
                .concat(StringExpr::input("msg"))
                .concat(StringExpr::lit("</div>")),
        });
        let symex = SymexOptions {
            track_echo: true,
            ..Default::default()
        };
        let report = analyze_sinks(
            &p,
            &Policy::xss_script_tag(),
            &symex,
            &SolveOptions::default(),
            Some(SinkKind::Echo),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        let exploit = &report.findings[0].witnesses["msg"];
        let exploit = String::from_utf8_lossy(exploit);
        assert!(exploit.contains("<script"), "{exploit}");

        // A filter rejecting '<' makes the echo safe.
        let mut safe = Program::new("xss_safe");
        safe.stmts.push(Stmt::If {
            cond: Cond::PregMatch {
                pattern: "<".to_owned(),
                subject: StringExpr::input("msg"),
            },
            then: vec![Stmt::Exit],
            els: vec![],
        });
        safe.stmts.push(Stmt::Echo {
            expr: StringExpr::lit("<div>")
                .concat(StringExpr::input("msg"))
                .concat(StringExpr::lit("</div>")),
        });
        let report = analyze_sinks(
            &safe,
            &Policy::xss_script_tag(),
            &symex,
            &SolveOptions::default(),
            Some(SinkKind::Echo),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 0);
        assert_eq!(report.safe_sinks, 1);
    }

    #[test]
    fn echo_sinks_ignored_by_default() {
        use crate::ast::{Stmt, StringExpr};
        let mut p = Program::new("quiet");
        p.stmts.push(Stmt::Echo {
            expr: StringExpr::input("x"),
        });
        let report = analyze(
            &p,
            &Policy::xss_script_tag(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.total_sinks, 0);
    }

    #[test]
    fn strtolower_filter_is_modeled_exactly() {
        use crate::ast::{Cond, Stmt, StringExpr};
        // if (!preg_match(/^select$/, strtolower($_GET['cmd']))) exit;
        // query("..." . $_GET['cmd'])  — wait: cmd must appear only mapped,
        // so the query also uses strtolower($_GET['cmd']).
        let mut p = Program::new("lower");
        p.stmts.push(Stmt::If {
            cond: Cond::PregMatch {
                pattern: "^[a-z']+$".to_owned(),
                subject: StringExpr::Lower(Box::new(StringExpr::input("cmd"))),
            }
            .negate(),
            then: vec![Stmt::Exit],
            els: vec![],
        });
        p.stmts.push(Stmt::Query {
            expr: StringExpr::lit("EXEC ")
                .concat(StringExpr::Lower(Box::new(StringExpr::input("cmd")))),
        });
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        let finding = &report.findings[0];
        let exploit = finding.witnesses.get("cmd").expect("witness for cmd");
        // Replaying concretely: lowercase(exploit) passes the filter and
        // the query contains a quote.
        let lowered = dprle_automata::ByteMap::to_lowercase().map_bytes(exploit);
        let filter = Regex::new("^[a-z']+$").expect("re");
        assert!(filter.is_match(&lowered), "{lowered:?}");
        assert!(lowered.contains(&b'\''));
        // The exploit language includes every casing.
        let lang = finding.languages.get("cmd").expect("language");
        let w = lang.shortest_member().expect("nonempty");
        assert!(dprle_automata::ByteMap::to_lowercase()
            .map_bytes(&w)
            .contains(&b'\''));
    }

    #[test]
    fn mixed_raw_and_mapped_use_is_an_error() {
        use crate::ast::{Stmt, StringExpr};
        let mut p = Program::new("mixed");
        p.stmts.push(Stmt::Query {
            expr: StringExpr::input("x")
                .concat(StringExpr::Lower(Box::new(StringExpr::input("x")))),
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        let result = try_analyze_reach(&reaches[0], &Policy::sql_quote(), &SolveOptions::default());
        assert!(matches!(result, Err(AnalysisError::MixedMappedUse { .. })));
    }

    #[test]
    fn a_sink_that_cannot_be_constrained_is_not_counted_safe() {
        use crate::php::parse_php;
        // `x = "'"` puts a quote in the query, but the two views of `x`
        // cannot be linked: the analysis must fail, not report SAFE.
        let source = "<?php\n$x = $_GET['x'];\nquery(\"SELECT \" . $x . strtolower($x));\n";
        let program = parse_php("mixed", source).expect("parses");
        let result = analyze_sinks(
            &program,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
            None,
        );
        match result {
            Err(AnalysisError::MixedMappedUse { input }) => assert_eq!(input, "x"),
            other => panic!("expected a mixed-use error, got {other:?}"),
        }
    }

    #[test]
    fn concrete_strtolower_folds() {
        use crate::ast::{Cond, Stmt, StringExpr};
        let mut p = Program::new("fold");
        p.stmts.push(Stmt::Assign {
            var: "a".into(),
            value: StringExpr::Lower(Box::new(StringExpr::lit("ABC"))),
        });
        p.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::var("a"),
                literal: b"abc".to_vec(),
            },
            then: vec![Stmt::Query {
                expr: StringExpr::input("q"),
            }],
            els: vec![],
        });
        let reaches = explore(&p, &SymexOptions::default()).expect("explores");
        assert_eq!(reaches.len(), 1, "concrete fold prunes the else branch");
        assert!(reaches[0].conditions.is_empty());
    }

    #[test]
    fn to_system_counts_constraints() {
        let reaches = explore(&Program::figure1(), &SymexOptions::default()).expect("explores");
        let (sys, vars) = to_system(&reaches[0], &Policy::sql_quote());
        assert_eq!(sys.num_constraints(), 2); // filter condition + policy
        assert_eq!(vars.len(), 1);
    }
}
