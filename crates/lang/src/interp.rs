//! A concrete interpreter for the string IR.
//!
//! Exploit generation is only convincing if the exploit *runs*: this
//! interpreter executes a [`Program`] on concrete request parameters and
//! records every executed `query()` and `echo`. The test suite replays
//! every generated witness through its program and asserts the observed
//! sink value violates the policy — the ground-truth check the paper's
//! "testcase generation" story implies.

use crate::ast::{Cond, Program, Stmt, StringExpr};
use dprle_automata::ByteMap;
use dprle_regex::Regex;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

/// The observable effects of one concrete run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Query strings sent to the database, in order.
    pub queries: Vec<Vec<u8>>,
    /// Echoed output, concatenated in order.
    pub echoes: Vec<Vec<u8>>,
    /// Whether the program ended via `exit`.
    pub exited: bool,
}

impl RunResult {
    /// Whether any executed query contains `byte`.
    pub fn any_query_contains(&self, byte: u8) -> bool {
        self.queries.iter().any(|q| q.contains(&byte))
    }
}

/// Concrete loop-iteration cap: a program spinning past this is reported
/// as an error rather than hanging the test suite.
const MAX_LOOP_ITERATIONS: usize = 100_000;

/// Errors during concrete execution.
#[derive(Clone, Debug)]
pub enum InterpError {
    /// A `preg_match` pattern failed to compile.
    BadPattern {
        /// The offending pattern.
        pattern: String,
        /// The underlying error.
        error: dprle_regex::ParseRegexError,
    },
    /// An opaque condition was reached; concrete execution cannot decide it.
    OpaqueCondition {
        /// The condition's description.
        description: String,
    },
    /// A `while` loop exceeded the iteration cap.
    LoopBound,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::BadPattern { pattern, error } => {
                write!(f, "pattern /{pattern}/ failed to compile: {error}")
            }
            InterpError::OpaqueCondition { description } => {
                write!(f, "cannot concretely evaluate unknown({description})")
            }
            InterpError::LoopBound => write!(f, "loop exceeded the iteration cap"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Executes `program` with the given request parameters (missing
/// parameters read as the empty string, as PHP superglobals do).
///
/// # Errors
///
/// Fails on malformed patterns or when execution reaches an opaque
/// condition (use [`run_with_oracle`] to decide those).
pub fn run(program: &Program, inputs: &HashMap<String, Vec<u8>>) -> Result<RunResult, InterpError> {
    run_with_oracle(program, inputs, &mut |_| None)
}

/// Like [`run`], with an oracle deciding opaque conditions: return
/// `Some(bool)` to choose a branch, `None` to fail on that condition.
pub fn run_with_oracle(
    program: &Program,
    inputs: &HashMap<String, Vec<u8>>,
    oracle: &mut dyn FnMut(&str) -> Option<bool>,
) -> Result<RunResult, InterpError> {
    let mut interp = Interp {
        inputs,
        env: HashMap::new(),
        result: RunResult::default(),
        oracle,
        regexes: HashMap::new(),
    };
    interp.block(&program.stmts)?;
    Ok(interp.result)
}

struct Interp<'a> {
    inputs: &'a HashMap<String, Vec<u8>>,
    env: HashMap<String, Vec<u8>>,
    result: RunResult,
    oracle: &'a mut dyn FnMut(&str) -> Option<bool>,
    /// Each pattern evaluated so far, compiled on its first evaluation.
    regexes: HashMap<&'a str, Regex>,
}

enum Flow {
    Continue,
    Exit,
}

impl<'a> Interp<'a> {
    fn block(&mut self, stmts: &'a [Stmt]) -> Result<Flow, InterpError> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { var, value } => {
                    let v = self.eval(value);
                    self.env.insert(var.clone(), v);
                }
                Stmt::Echo { expr } => {
                    let v = self.eval(expr);
                    self.result.echoes.push(v);
                }
                Stmt::Query { expr } => {
                    let v = self.eval(expr);
                    self.result.queries.push(v);
                }
                Stmt::Exit => {
                    self.result.exited = true;
                    return Ok(Flow::Exit);
                }
                Stmt::If { cond, then, els } => {
                    let taken = if self.cond(cond)? { then } else { els };
                    if let Flow::Exit = self.block(taken)? {
                        return Ok(Flow::Exit);
                    }
                }
                Stmt::While { cond, body } => {
                    let mut iterations = 0usize;
                    while self.cond(cond)? {
                        iterations += 1;
                        if iterations > MAX_LOOP_ITERATIONS {
                            return Err(InterpError::LoopBound);
                        }
                        if let Flow::Exit = self.block(body)? {
                            return Ok(Flow::Exit);
                        }
                    }
                }
            }
        }
        Ok(Flow::Continue)
    }

    fn cond(&mut self, cond: &'a Cond) -> Result<bool, InterpError> {
        match cond {
            Cond::Not(inner) => Ok(!self.cond(inner)?),
            Cond::PregMatch { pattern, subject } => {
                let subject = self.eval(subject);
                let re = match self.regexes.entry(pattern) {
                    Entry::Occupied(compiled) => compiled.into_mut(),
                    Entry::Vacant(slot) => {
                        let re = Regex::new(pattern).map_err(|error| InterpError::BadPattern {
                            pattern: pattern.clone(),
                            error,
                        })?;
                        slot.insert(re)
                    }
                };
                Ok(re.is_match(&subject))
            }
            Cond::EqualsLiteral { subject, literal } => Ok(self.eval(subject) == *literal),
            Cond::Opaque(description) => {
                (self.oracle)(description).ok_or_else(|| InterpError::OpaqueCondition {
                    description: description.clone(),
                })
            }
        }
    }

    fn eval(&self, expr: &StringExpr) -> Vec<u8> {
        match expr {
            StringExpr::Literal(bytes) => bytes.clone(),
            StringExpr::Input(name) => self.inputs.get(name).cloned().unwrap_or_default(),
            StringExpr::Var(name) => self.env.get(name).cloned().unwrap_or_default(),
            StringExpr::Concat(parts) => {
                let mut out = Vec::new();
                for p in parts {
                    out.extend(self.eval(p));
                }
                out
            }
            StringExpr::Lower(inner) => ByteMap::to_lowercase().map_bytes(&self.eval(inner)),
            StringExpr::Upper(inner) => ByteMap::to_uppercase().map_bytes(&self.eval(inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, Policy};
    use crate::symex::SymexOptions;
    use dprle_core::SolveOptions;

    fn inputs(pairs: &[(&str, &[u8])]) -> HashMap<String, Vec<u8>> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect()
    }

    #[test]
    fn figure1_concrete_runs() {
        let p = Program::figure1();
        // Benign input: the query runs with the prefixed value.
        let ok = run(&p, &inputs(&[("posted_newsid", b"42")])).expect("runs");
        assert!(!ok.exited);
        assert_eq!(ok.queries.len(), 1);
        assert_eq!(
            ok.queries[0],
            b"SELECT * FROM news WHERE newsid=nid_42".to_vec()
        );
        // Input failing the filter: rejected before the query.
        let rejected = run(&p, &inputs(&[("posted_newsid", b"abc")])).expect("runs");
        assert!(rejected.exited);
        assert!(rejected.queries.is_empty());
        assert_eq!(rejected.echoes.len(), 1);
    }

    #[test]
    fn generated_exploits_replay_end_to_end() {
        // The decisive check: run the *actual program* on the generated
        // witness and observe the subverted query.
        let p = Program::figure1();
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        let witness = report.findings[0].witnesses["posted_newsid"].clone();
        let result = run(&p, &inputs(&[("posted_newsid", &witness)])).expect("runs");
        assert!(!result.exited, "exploit must survive the filter");
        assert!(result.any_query_contains(b'\''), "query must be subverted");
    }

    #[test]
    fn missing_inputs_read_as_empty() {
        let p = Program::figure1();
        let result = run(&p, &HashMap::new()).expect("runs");
        // Empty string fails /[\d]+$/ → exit.
        assert!(result.exited);
    }

    #[test]
    fn case_functions_evaluate() {
        use crate::ast::Stmt;
        let mut p = Program::new("case");
        p.stmts.push(Stmt::Query {
            expr: StringExpr::Lower(Box::new(StringExpr::input("x")))
                .concat(StringExpr::Upper(Box::new(StringExpr::lit("up")))),
        });
        let result = run(&p, &inputs(&[("x", b"MiXeD")])).expect("runs");
        assert_eq!(result.queries[0], b"mixedUP".to_vec());
    }

    #[test]
    fn opaque_conditions_need_an_oracle() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("opaque");
        p.stmts.push(Stmt::If {
            cond: Cond::Opaque("coin".into()),
            then: vec![Stmt::Echo {
                expr: StringExpr::lit("heads"),
            }],
            els: vec![Stmt::Echo {
                expr: StringExpr::lit("tails"),
            }],
        });
        assert!(matches!(
            run(&p, &HashMap::new()),
            Err(InterpError::OpaqueCondition { .. })
        ));
        let mut take_true = |_: &str| Some(true);
        let result = run_with_oracle(&p, &HashMap::new(), &mut take_true).expect("runs");
        assert_eq!(result.echoes, vec![b"heads".to_vec()]);
    }

    #[test]
    fn equality_conditions_evaluate() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("eq");
        p.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::input("mode"),
                literal: b"admin".to_vec(),
            },
            then: vec![Stmt::Query {
                expr: StringExpr::lit("admin query"),
            }],
            els: vec![Stmt::Query {
                expr: StringExpr::lit("user query"),
            }],
        });
        let admin = run(&p, &inputs(&[("mode", b"admin")])).expect("runs");
        assert_eq!(admin.queries[0], b"admin query".to_vec());
        let user = run(&p, &inputs(&[("mode", b"guest")])).expect("runs");
        assert_eq!(user.queries[0], b"user query".to_vec());
    }

    #[test]
    fn bad_pattern_is_reported_when_first_evaluated() {
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("bad");
        p.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::input("mode"),
                literal: b"check".to_vec(),
            },
            then: vec![Stmt::If {
                cond: Cond::PregMatch {
                    pattern: "(".into(),
                    subject: StringExpr::input("x"),
                },
                then: vec![],
                els: vec![],
            }],
            els: vec![],
        });
        p.stmts.push(Stmt::Query {
            expr: StringExpr::input("x"),
        });
        // Not evaluated: the run completes.
        let skipped = run(&p, &inputs(&[("mode", b"skip")])).expect("runs");
        assert_eq!(skipped.queries.len(), 1);
        assert!(matches!(
            run(&p, &inputs(&[("mode", b"check")])),
            Err(InterpError::BadPattern { .. })
        ));
    }

    #[test]
    fn a_compiled_pattern_matches_each_new_subject() {
        use crate::ast::{Cond, Stmt};
        // A loop that strips one `a` per iteration until none is left.
        let mut p = Program::new("strip");
        p.stmts.push(Stmt::Assign {
            var: "s".into(),
            value: StringExpr::input("x"),
        });
        p.stmts.push(Stmt::While {
            cond: Cond::PregMatch {
                pattern: "a".into(),
                subject: StringExpr::var("s"),
            },
            body: vec![Stmt::If {
                cond: Cond::EqualsLiteral {
                    subject: StringExpr::var("s"),
                    literal: b"aa".to_vec(),
                },
                then: vec![Stmt::Assign {
                    var: "s".into(),
                    value: StringExpr::lit("a"),
                }],
                els: vec![Stmt::Assign {
                    var: "s".into(),
                    value: StringExpr::lit("b"),
                }],
            }],
        });
        p.stmts.push(Stmt::Query {
            expr: StringExpr::var("s"),
        });
        let result = run(&p, &inputs(&[("x", b"aa")])).expect("runs");
        assert_eq!(result.queries, vec![b"b".to_vec()]);
    }
}
