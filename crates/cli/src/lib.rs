//! Text constraint format for the stand-alone `dprle` utility.
//!
//! The paper shipped its decision procedure "as a stand-alone utility in
//! the style of a theorem prover or SAT solver" (§4); this module defines
//! the input language of ours. A file is a sequence of `;`-terminated
//! statements:
//!
//! ```text
//! # The paper's motivating system.
//! var v1;
//! c1 := match(/[\d]+$/);       # regex constant, preg_match semantics
//! c2 := "nid_";                # string-literal constant
//! c3 := match(/'/);            # unsafe queries: contain a quote
//! v1 <= c1;
//! c2 . v1 <= c3;
//! ```
//!
//! * `var n1 n2 …;` declares variables.
//! * `name := "bytes";` declares a literal constant (supports `\n`, `\t`,
//!   `\"`, `\\`, `\xHH` escapes).
//! * `name := /re/;` declares a regex constant with *exact* (full-match)
//!   semantics; `name := match(/re/);` uses search (`preg_match`)
//!   semantics.
//! * `expr <= name;` adds a subset constraint; `expr` is built from
//!   declared names with `.` (concatenation), `|` (union), and
//!   parentheses. It has at most [`MAX_CONCAT_OPERANDS`] operands, and
//!   its parentheses nest at most [`MAX_PAREN_NESTING`] deep.

use dprle_core::{Expr, System, MAX_CONCAT_OPERANDS};
use std::fmt;

pub mod serve;
pub mod smtlib;

/// The deepest the parentheses of one expression may nest. Parsing recurses
/// once per level; an expression nested this deep is read and solved
/// within a `dprle serve` session's 2 MiB stack, even in a debug build,
/// where 800 to 1 600 levels overflow it.
pub const MAX_PAREN_NESTING: usize = 256;

/// A parse error with line information.
#[derive(Clone, Debug)]
pub struct ParseFileError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseFileError {}

/// The result of parsing a constraint file.
#[derive(Debug)]
pub struct ParsedFile {
    /// The constraint system, ready to solve.
    pub system: System,
}

/// Parses the text constraint format into a [`System`].
///
/// # Errors
///
/// Returns a [`ParseFileError`] pointing at the offending line for syntax
/// errors, undeclared names, malformed regexes, or duplicate definitions.
pub fn parse_file(input: &str) -> Result<ParsedFile, ParseFileError> {
    let mut parser = FileParser {
        system: System::new(),
        declared_vars: Vec::new(),
        operands: 0,
        parens: 0,
    };
    // Statements end with ';'. Track line numbers by counting newlines.
    let mut line = 1usize;
    let mut statement = String::new();
    let mut statement_line = 1usize;
    for ch in input.chars() {
        if ch == '\n' {
            line += 1;
        }
        if ch == ';' {
            parser.statement(statement.trim(), statement_line)?;
            statement.clear();
            statement_line = line;
        } else {
            if statement.trim().is_empty() {
                statement_line = line;
            }
            statement.push(ch);
        }
    }
    let tail = strip_comments(&statement);
    if !tail.trim().is_empty() {
        return Err(ParseFileError {
            line: statement_line,
            message: "trailing statement without ';'".to_owned(),
        });
    }
    Ok(ParsedFile {
        system: parser.system,
    })
}

fn strip_comments(s: &str) -> String {
    s.lines()
        .map(|l| l.split('#').next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

struct FileParser {
    system: System,
    declared_vars: Vec<String>,
    /// The operands of the expression being parsed so far.
    operands: usize,
    /// The parentheses open around the current token.
    parens: usize,
}

impl FileParser {
    fn err(&self, line: usize, message: impl Into<String>) -> ParseFileError {
        ParseFileError {
            line,
            message: message.into(),
        }
    }

    fn statement(&mut self, raw: &str, line: usize) -> Result<(), ParseFileError> {
        let text = strip_comments(raw);
        let text = text.trim();
        if text.is_empty() {
            return Ok(());
        }
        if let Some(rest) = text.strip_prefix("var ") {
            for name in rest.split_whitespace() {
                self.check_name(name, line)?;
                self.declared_vars.push(name.to_owned());
                self.system.var(name);
            }
            return Ok(());
        }
        if let Some(idx) = text.find(":=") {
            let name = text[..idx].trim();
            self.check_name(name, line)?;
            if self.declared_vars.iter().any(|v| v == name) {
                return Err(self.err(line, format!("`{name}` is already a variable")));
            }
            let value = text[idx + 2..].trim();
            let machine = self.constant_value(value, line)?;
            self.system.constant(name, machine);
            return Ok(());
        }
        if let Some(idx) = text.find("<=") {
            let lhs = self.expr(text[..idx].trim(), line)?;
            let rhs_name = text[idx + 2..].trim();
            let rhs = self
                .const_id(rhs_name)
                .ok_or_else(|| self.err(line, format!("unknown constant `{rhs_name}`")))?;
            self.system.require(lhs, rhs);
            return Ok(());
        }
        Err(self.err(line, format!("unrecognized statement: `{text}`")))
    }

    fn check_name(&self, name: &str, line: usize) -> Result<(), ParseFileError> {
        let ok = !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            && !name.chars().next().expect("nonempty").is_ascii_digit();
        if ok {
            Ok(())
        } else {
            Err(self.err(line, format!("invalid name `{name}`")))
        }
    }

    fn constant_value(
        &self,
        value: &str,
        line: usize,
    ) -> Result<dprle_automata::Nfa, ParseFileError> {
        if let Some(inner) = value
            .strip_prefix("match(")
            .and_then(|v| v.strip_suffix(')'))
        {
            let pattern = self.regex_body(inner.trim(), line)?;
            let re = dprle_regex::Regex::new(&pattern)
                .map_err(|e| self.err(line, format!("bad regex: {e}")))?;
            return Ok(re.search_language().clone());
        }
        if value.starts_with('/') {
            let pattern = self.regex_body(value, line)?;
            let re = dprle_regex::Regex::new(&pattern)
                .map_err(|e| self.err(line, format!("bad regex: {e}")))?;
            return Ok(re.exact_language().clone());
        }
        if value.starts_with('"') {
            let bytes = self.literal_body(value, line)?;
            return Ok(dprle_automata::Nfa::literal(&bytes));
        }
        Err(self.err(
            line,
            format!("expected \"literal\", /regex/, or match(/regex/), got `{value}`"),
        ))
    }

    fn regex_body(&self, value: &str, line: usize) -> Result<String, ParseFileError> {
        let inner = value
            .strip_prefix('/')
            .and_then(|v| v.strip_suffix('/'))
            .ok_or_else(|| self.err(line, "regex must be delimited by /…/"))?;
        Ok(inner.to_owned())
    }

    fn literal_body(&self, value: &str, line: usize) -> Result<Vec<u8>, ParseFileError> {
        let inner = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| self.err(line, "literal must be delimited by \"…\""))?;
        let mut out = Vec::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                continue;
            }
            match chars.next() {
                Some('n') => out.push(b'\n'),
                Some('t') => out.push(b'\t'),
                Some('r') => out.push(b'\r'),
                Some('"') => out.push(b'"'),
                Some('\\') => out.push(b'\\'),
                Some('x') => {
                    let hi = chars.next().and_then(|c| c.to_digit(16));
                    let lo = chars.next().and_then(|c| c.to_digit(16));
                    match (hi, lo) {
                        (Some(hi), Some(lo)) => out.push((hi * 16 + lo) as u8),
                        _ => return Err(self.err(line, "malformed \\xHH escape")),
                    }
                }
                other => {
                    return Err(self.err(
                        line,
                        format!(
                            "unknown escape `\\{}`",
                            other.map(String::from).unwrap_or_default()
                        ),
                    ))
                }
            }
        }
        Ok(out)
    }

    fn const_id(&self, name: &str) -> Option<dprle_core::ConstId> {
        (0..self.system.num_consts() as u32)
            .map(dprle_core::ConstId)
            .find(|c| self.system.const_name(*c) == name)
    }

    /// Parses `a . b | c . (d . e)` over declared names.
    fn expr(&mut self, text: &str, line: usize) -> Result<Expr, ParseFileError> {
        let tokens = tokenize(text).map_err(|m| self.err(line, m))?;
        let mut pos = 0usize;
        self.operands = 0;
        self.parens = 0;
        let e = self.parse_union(&tokens, &mut pos, line)?;
        if pos != tokens.len() {
            return Err(self.err(line, format!("unexpected `{}`", tokens[pos])));
        }
        Ok(e)
    }

    fn parse_union(
        &mut self,
        tokens: &[String],
        pos: &mut usize,
        line: usize,
    ) -> Result<Expr, ParseFileError> {
        let mut e = self.parse_concat(tokens, pos, line)?;
        while tokens.get(*pos).is_some_and(|t| t == "|") {
            *pos += 1;
            let rhs = self.parse_concat(tokens, pos, line)?;
            e = e.union(rhs);
        }
        Ok(e)
    }

    fn parse_concat(
        &mut self,
        tokens: &[String],
        pos: &mut usize,
        line: usize,
    ) -> Result<Expr, ParseFileError> {
        let mut e = self.parse_atom(tokens, pos, line)?;
        while tokens.get(*pos).is_some_and(|t| t == ".") {
            *pos += 1;
            let rhs = self.parse_atom(tokens, pos, line)?;
            e = e.concat(rhs);
        }
        Ok(e)
    }

    fn parse_atom(
        &mut self,
        tokens: &[String],
        pos: &mut usize,
        line: usize,
    ) -> Result<Expr, ParseFileError> {
        let token = tokens
            .get(*pos)
            .ok_or_else(|| self.err(line, "unexpected end of expression"))?
            .clone();
        *pos += 1;
        if token == "(" {
            if self.parens == MAX_PAREN_NESTING {
                return Err(self.err(
                    line,
                    format!("parentheses nest deeper than {MAX_PAREN_NESTING} levels"),
                ));
            }
            self.parens += 1;
            let e = self.parse_union(tokens, pos, line)?;
            if tokens.get(*pos).is_none_or(|t| t != ")") {
                return Err(self.err(line, "expected `)`"));
            }
            *pos += 1;
            self.parens -= 1;
            return Ok(e);
        }
        if self.operands == MAX_CONCAT_OPERANDS {
            return Err(self.err(
                line,
                format!("more than {MAX_CONCAT_OPERANDS} operands in one concatenation"),
            ));
        }
        self.operands += 1;
        if self.declared_vars.contains(&token) {
            let v = self.system.var(&token);
            return Ok(Expr::Var(v));
        }
        if let Some(c) = self.const_id(&token) {
            return Ok(Expr::Const(c));
        }
        Err(self.err(line, format!("unknown name `{token}`")))
    }
}

fn tokenize(text: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        match c {
            '.' | '|' | '(' | ')' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c if c.is_ascii_alphanumeric() || c == '_' => cur.push(c),
            other => return Err(format!("unexpected character `{other}`")),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprle_core::{solve, SolveOptions};

    /// `a . a . … . x <= c` with `operands` operands, on line 2.
    fn long_concatenation(operands: usize) -> String {
        format!(
            "var x; c := /.*/; a := \"a\";\n{}x <= c;",
            "a . ".repeat(operands - 1)
        )
    }

    /// `x` in `depth` parentheses, on line 2.
    fn deep_parentheses(depth: usize) -> String {
        format!(
            "var x; c := /.*/;\n{}x{} <= c;",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn systems_at_the_limits_solve_on_a_small_stack() {
        for program in [
            long_concatenation(MAX_CONCAT_OPERANDS),
            deep_parentheses(MAX_PAREN_NESTING),
            // A concatenation under every level of parentheses: its
            // operands count once, however they are grouped.
            format!(
                "var x; c := /.*/; a := \"a\";\n{}x{} <= c;",
                "(a . ".repeat(MAX_CONCAT_OPERANDS - 1),
                ")".repeat(MAX_CONCAT_OPERANDS - 1)
            ),
        ] {
            // 2 MiB is a spawned thread's default stack (a `dprle serve`
            // session's).
            std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let system = parse_file(&program).expect("parses").system;
                    assert!(solve(&system, &SolveOptions::default()).is_sat());
                })
                .expect("spawn")
                .join()
                .expect("no stack overflow");
        }
    }

    #[test]
    fn expressions_past_the_limits_are_errors_at_their_line() {
        for (program, message) in [
            (long_concatenation(MAX_CONCAT_OPERANDS + 1), "operands"),
            (long_concatenation(100_000), "operands"),
            (deep_parentheses(MAX_PAREN_NESTING + 1), "nest deeper"),
            (deep_parentheses(100_000), "nest deeper"),
            (
                format!(
                    "var x; c := /.*/; a := \"a\";\n({}) . x <= c;",
                    "a . ".repeat(MAX_CONCAT_OPERANDS - 1) + "a"
                ),
                "operands",
            ),
        ] {
            let e = parse_file(&program).expect_err("past the limit");
            assert_eq!(e.line, 2, "{e}");
            assert!(e.message.contains(message), "{e}");
        }
    }

    const MOTIVATING: &str = r#"
        # The paper's motivating system.
        var v1;
        c1 := match(/[\d]+$/);
        c2 := "nid_";
        c3 := match(/'/);
        v1 <= c1;
        c2 . v1 <= c3;
    "#;

    #[test]
    fn parses_and_solves_the_motivating_file() {
        let parsed = parse_file(MOTIVATING).expect("parses");
        assert_eq!(parsed.system.num_constraints(), 2);
        let solution = solve(&parsed.system, &SolveOptions::default());
        let v1 = parsed.system.var_id("v1").expect("declared");
        let w = solution
            .first()
            .expect("sat")
            .witness(v1)
            .expect("nonempty");
        assert!(w.contains(&b'\''));
    }

    #[test]
    fn literal_escapes() {
        let parsed = parse_file(r#"x := "a\n\t\"\\\x41";"#).expect("parses");
        let c = dprle_core::ConstId(0);
        assert!(parsed.system.const_machine(c).contains(b"a\n\t\"\\A"));
    }

    #[test]
    fn exact_vs_search_regex() {
        let parsed = parse_file("a := /ab/; b := match(/ab/);").expect("parses");
        let exact = parsed.system.const_machine(dprle_core::ConstId(0));
        let search = parsed.system.const_machine(dprle_core::ConstId(1));
        assert!(exact.contains(b"ab") && !exact.contains(b"xaby"));
        assert!(search.contains(b"xaby"));
    }

    #[test]
    fn union_and_parens_in_expressions() {
        let parsed = parse_file("var v w; c := /x*/; (v | w) . v <= c; v <= c;").expect("parses");
        assert_eq!(parsed.system.num_constraints(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_file("var v;\nnope nope;").expect_err("bad statement");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(parse_file("var v; v <= missing;").is_err());
        assert!(parse_file("q <= q;").is_err());
        assert!(parse_file("var v; c := /a/; v . zz <= c;").is_err());
    }

    #[test]
    fn name_clashes_are_rejected() {
        assert!(parse_file("var v; v := \"x\";").is_err());
        assert!(parse_file("var 9bad;").is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse_file("var v; c := /a/; v <= c").is_err());
        assert!(parse_file("x := oops;").is_err());
        assert!(parse_file("x := /bad(/;").is_err());
    }

    #[test]
    fn comments_and_blank_statements_are_ignored() {
        let parsed = parse_file("# header\n;;\nvar v; # trailing\n").expect("parses");
        assert_eq!(parsed.system.num_vars(), 1);
    }
}
