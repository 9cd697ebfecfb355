//! Concrete PHP-like syntax: parser and pretty-printer for the string IR.
//!
//! The paper's data set is PHP source; this module lets the front end
//! consume (a disciplined fragment of) that concrete syntax instead of
//! hand-built ASTs, and lets the corpus generator emit source files. The
//! fragment covers exactly what the IR models:
//!
//! ```php
//! <?php
//! $newsid = $_POST['posted_newsid'];
//! if (!preg_match('/[\d]+$/', $newsid)) {
//!     echo 'Invalid article news ID.';
//!     exit;
//! }
//! $newsid = "nid_" . $newsid;
//! query("SELECT * FROM news WHERE newsid=" . $newsid);
//! ```
//!
//! Statements: assignment, `if`/`else`, `exit;`/`die;`, `query(expr);`,
//! `echo expr;`. Conditions: `preg_match('/re/', expr)`, `expr == 'lit'`,
//! `!cond`, and `unknown(...)` for opaque predicates. Expressions: single-
//! or double-quoted literals, `$var`, `$_GET['k']`/`$_POST['k']`/
//! `$_REQUEST['k']`, and `.`-concatenation.
//!
//! Blocks and case-function calls nest at most [`MAX_NESTING`] deep; a
//! deeper one is an error at its line.

use crate::ast::{Cond, Program, Stmt, StringExpr};
use std::fmt;

/// The deepest that `if`/`else`/`while` blocks and `strtolower`/
/// `strtoupper` calls may nest. Parsing, control-flow graph building,
/// printing and dropping a program all recurse once per level; a program
/// nested this deep is parsed and analyzed within a spawned thread's
/// default 2 MiB stack, even in a debug build, where 300 to 350 levels
/// of `if` overflow it.
pub const MAX_NESTING: usize = 200;

/// A parse error with line information.
#[derive(Clone, Debug)]
pub struct ParsePhpError {
    /// 1-based line number of the offence.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParsePhpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParsePhpError {}

/// Parses PHP-like source into a [`Program`] named `name`.
///
/// # Errors
///
/// Returns a positioned [`ParsePhpError`] for syntax outside the supported
/// fragment.
pub fn parse_php(name: &str, source: &str) -> Result<Program, ParsePhpError> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmts = parser.block_body(/*top_level=*/ true)?;
    parser.expect_eof()?;
    Ok(Program {
        name: name.to_owned(),
        stmts,
    })
}

/// Pretty-prints a [`Program`] as PHP-like source. `parse_php` of the
/// output reproduces the program (round-trip property, tested below).
pub fn print_php(program: &Program) -> String {
    let mut out = String::from("<?php\n");
    print_stmts(&program.stmts, 0, &mut out);
    out
}

fn print_stmts(stmts: &[Stmt], depth: usize, out: &mut String) {
    let pad = "    ".repeat(depth);
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value } => {
                out.push_str(&format!("{pad}${var} = {};\n", print_expr(value)));
            }
            Stmt::Exit => out.push_str(&format!("{pad}exit;\n")),
            Stmt::Query { expr } => {
                out.push_str(&format!("{pad}query({});\n", print_expr(expr)));
            }
            Stmt::Echo { expr } => {
                out.push_str(&format!("{pad}echo {};\n", print_expr(expr)));
            }
            Stmt::While { cond, body } => {
                out.push_str(&format!("{pad}while ({}) {{\n", print_cond(cond)));
                print_stmts(body, depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::If { cond, then, els } => {
                out.push_str(&format!("{pad}if ({}) {{\n", print_cond(cond)));
                print_stmts(then, depth + 1, out);
                if els.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    print_stmts(els, depth + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
        }
    }
}

fn print_expr(e: &StringExpr) -> String {
    match e {
        StringExpr::Literal(bytes) => quote_literal(bytes),
        StringExpr::Input(name) => format!("$_POST['{name}']"),
        StringExpr::Var(name) => format!("${name}"),
        StringExpr::Concat(parts) => parts.iter().map(print_expr).collect::<Vec<_>>().join(" . "),
        StringExpr::Lower(inner) => format!("strtolower({})", print_expr(inner)),
        StringExpr::Upper(inner) => format!("strtoupper({})", print_expr(inner)),
    }
}

fn print_cond(c: &Cond) -> String {
    match c {
        Cond::PregMatch { pattern, subject } => {
            // Escape the delimiter quote (and backslash-before-quote) so
            // the emitted source lexes back to the same pattern.
            let escaped = pattern.replace('\\', "\\\\").replace('\'', "\\'");
            format!("preg_match('/{escaped}/', {})", print_expr(subject))
        }
        Cond::EqualsLiteral { subject, literal } => {
            format!("{} == {}", print_expr(subject), quote_literal(literal))
        }
        Cond::Not(inner) => format!("!{}", print_cond(inner)),
        Cond::Opaque(text) => {
            format!("unknown({})", quote_literal(text.as_bytes()))
        }
    }
}

fn quote_literal(bytes: &[u8]) -> String {
    let mut out = String::from("\"");
    for &b in bytes {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b'$' => out.push_str("\\$"),
            0x20..=0x7e => out.push(b as char),
            _ => out.push_str(&format!("\\x{b:02x}")),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum Token {
    Ident(String),               // preg_match, if, else, exit, query, echo, unknown, die
    Variable(String),            // $name
    Superglobal { key: String }, // $_POST['k'] / $_GET['k'] / $_REQUEST['k']
    Literal(Vec<u8>),
    LParen,
    RParen,
    LBrace,
    RBrace,
    Semi,
    Dot,
    Comma,
    Bang,
    EqEq,
    Assign,
}

struct Spanned {
    token: Token,
    line: usize,
}

fn err(line: usize, message: impl Into<String>) -> ParsePhpError {
    ParsePhpError {
        line,
        message: message.into(),
    }
}

fn lex(source: &str) -> Result<Vec<Spanned>, ParsePhpError> {
    let mut out = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'<' if source[i..].starts_with("<?php") => i += 5,
            b'?' if source[i..].starts_with("?>") => i += 2,
            b'/' if source[i..].starts_with("//") => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if source[i..].starts_with("/*") => {
                let end = source[i..]
                    .find("*/")
                    .ok_or_else(|| err(line, "unterminated /* comment"))?;
                line += source[i..i + end].matches('\n').count();
                i += end + 2;
            }
            b'(' => {
                out.push(Spanned {
                    token: Token::LParen,
                    line,
                });
                i += 1;
            }
            b')' => {
                out.push(Spanned {
                    token: Token::RParen,
                    line,
                });
                i += 1;
            }
            b'{' => {
                out.push(Spanned {
                    token: Token::LBrace,
                    line,
                });
                i += 1;
            }
            b'}' => {
                out.push(Spanned {
                    token: Token::RBrace,
                    line,
                });
                i += 1;
            }
            b';' => {
                out.push(Spanned {
                    token: Token::Semi,
                    line,
                });
                i += 1;
            }
            b'.' => {
                out.push(Spanned {
                    token: Token::Dot,
                    line,
                });
                i += 1;
            }
            b',' => {
                out.push(Spanned {
                    token: Token::Comma,
                    line,
                });
                i += 1;
            }
            b'!' => {
                out.push(Spanned {
                    token: Token::Bang,
                    line,
                });
                i += 1;
            }
            b'=' if source[i..].starts_with("==") => {
                out.push(Spanned {
                    token: Token::EqEq,
                    line,
                });
                i += 2;
            }
            b'=' => {
                out.push(Spanned {
                    token: Token::Assign,
                    line,
                });
                i += 1;
            }
            b'$' => {
                let (token, next) = lex_variable(source, i, line)?;
                out.push(Spanned { token, line });
                i = next;
            }
            b'\'' | b'"' => {
                let (lit, next, newlines) = lex_string(bytes, i, line)?;
                out.push(Spanned {
                    token: Token::Literal(lit),
                    line,
                });
                line += newlines;
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Spanned {
                    token: Token::Ident(source[start..i].to_owned()),
                    line,
                });
            }
            other => {
                return Err(err(
                    line,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        }
    }
    Ok(out)
}

fn lex_variable(source: &str, start: usize, line: usize) -> Result<(Token, usize), ParsePhpError> {
    // start points at '$'.
    for glob in ["$_POST", "$_GET", "$_REQUEST"] {
        if source[start..].starts_with(glob) {
            let rest = &source[start + glob.len()..];
            let rest = rest.trim_start();
            if !rest.starts_with('[') {
                return Err(err(line, format!("{glob} must be indexed with ['key']")));
            }
            // Find ['key'] — a quoted key then ']'.
            let open_quote = rest[1..]
                .trim_start()
                .chars()
                .next()
                .ok_or_else(|| err(line, "unterminated superglobal index"))?;
            if open_quote != '\'' && open_quote != '"' {
                return Err(err(line, "superglobal key must be a quoted string"));
            }
            let after_bracket =
                start + glob.len() + source[start + glob.len()..].find('[').expect("checked") + 1;
            let key_start = after_bracket
                + source[after_bracket..]
                    .find(open_quote)
                    .ok_or_else(|| err(line, "unterminated superglobal key"))?
                + 1;
            let key_len = source[key_start..]
                .find(open_quote)
                .ok_or_else(|| err(line, "unterminated superglobal key"))?;
            let key = source[key_start..key_start + key_len].to_owned();
            let close = key_start
                + key_len
                + 1
                + source[key_start + key_len + 1..]
                    .find(']')
                    .ok_or_else(|| err(line, "missing ] after superglobal key"))?;
            return Ok((Token::Superglobal { key }, close + 1));
        }
    }
    let mut i = start + 1;
    let bytes = source.as_bytes();
    let name_start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
        i += 1;
    }
    if i == name_start {
        return Err(err(line, "`$` must begin a variable name"));
    }
    Ok((Token::Variable(source[name_start..i].to_owned()), i))
}

fn lex_string(
    bytes: &[u8],
    start: usize,
    line: usize,
) -> Result<(Vec<u8>, usize, usize), ParsePhpError> {
    let quote = bytes[start];
    let mut out = Vec::new();
    let mut i = start + 1;
    let mut newlines = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                let esc = bytes[i + 1];
                let decoded = match esc {
                    b'n' => Some(b'\n'),
                    b't' => Some(b'\t'),
                    b'r' => Some(b'\r'),
                    b'\\' => Some(b'\\'),
                    b'$' => Some(b'$'),
                    b'\'' => Some(b'\''),
                    b'"' => Some(b'"'),
                    b'x' if i + 3 < bytes.len() => {
                        let hex = std::str::from_utf8(&bytes[i + 2..i + 4])
                            .ok()
                            .and_then(|s| u8::from_str_radix(s, 16).ok());
                        match hex {
                            Some(b) => {
                                out.push(b);
                                i += 4;
                                continue;
                            }
                            None => None,
                        }
                    }
                    _ => None,
                };
                match decoded {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => {
                        out.push(b'\\');
                        i += 1;
                    }
                }
            }
            b if b == quote => return Ok((out, i + 1, newlines)),
            b'\n' => {
                newlines += 1;
                out.push(b'\n');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Err(err(line, "unterminated string literal"))
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// The blocks and case-function calls open around the current token.
    depth: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, token: &Token, what: &str) -> Result<(), ParsePhpError> {
        if self.peek() == Some(token) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.line(), format!("expected {what}")))
        }
    }

    /// Parses `inner` one nesting level deeper, or fails at `line` past
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        line: usize,
        inner: impl FnOnce(&mut Parser) -> Result<T, ParsePhpError>,
    ) -> Result<T, ParsePhpError> {
        if self.depth == MAX_NESTING {
            return Err(err(
                line,
                format!("blocks and calls nest deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        let out = inner(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn expect_eof(&self) -> Result<(), ParsePhpError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(err(self.line(), "unexpected trailing tokens"))
        }
    }

    /// Parses statements until `}` (or end of input at top level).
    fn block_body(&mut self, top_level: bool) -> Result<Vec<Stmt>, ParsePhpError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None if top_level => return Ok(out),
                None => return Err(err(self.line(), "unexpected end of input, expected `}`")),
                Some(Token::RBrace) if !top_level => return Ok(out),
                _ => out.push(self.statement()?),
            }
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParsePhpError> {
        let line = self.line();
        match self.bump() {
            Some(Token::Variable(name)) => {
                self.expect(&Token::Assign, "`=` after variable")?;
                let value = self.expression()?;
                self.expect(&Token::Semi, "`;` after assignment")?;
                Ok(Stmt::Assign { var: name, value })
            }
            Some(Token::Ident(word)) => match word.as_str() {
                "exit" | "die" => {
                    // Allow `exit;` and `exit();`.
                    if self.peek() == Some(&Token::LParen) {
                        self.pos += 1;
                        self.expect(&Token::RParen, "`)`")?;
                    }
                    self.expect(&Token::Semi, "`;` after exit")?;
                    Ok(Stmt::Exit)
                }
                "query" | "mysql_query" => {
                    self.expect(&Token::LParen, "`(` after query")?;
                    let expr = self.expression()?;
                    self.expect(&Token::RParen, "`)`")?;
                    self.expect(&Token::Semi, "`;` after query(...)")?;
                    Ok(Stmt::Query { expr })
                }
                "echo" | "print" => {
                    let expr = self.expression()?;
                    self.expect(&Token::Semi, "`;` after echo")?;
                    Ok(Stmt::Echo { expr })
                }
                "while" => {
                    self.expect(&Token::LParen, "`(` after while")?;
                    let cond = self.condition()?;
                    self.expect(&Token::RParen, "`)` after condition")?;
                    self.expect(&Token::LBrace, "`{` to open the loop body")?;
                    let body = self.nested(line, |p| p.block_body(false))?;
                    self.expect(&Token::RBrace, "`}`")?;
                    Ok(Stmt::While { cond, body })
                }
                "if" => {
                    self.expect(&Token::LParen, "`(` after if")?;
                    let cond = self.condition()?;
                    self.expect(&Token::RParen, "`)` after condition")?;
                    self.expect(&Token::LBrace, "`{` to open the then-branch")?;
                    let then = self.nested(line, |p| p.block_body(false))?;
                    self.expect(&Token::RBrace, "`}`")?;
                    let els = if self.peek() == Some(&Token::Ident("else".to_owned())) {
                        self.pos += 1;
                        self.expect(&Token::LBrace, "`{` after else")?;
                        let els = self.nested(line, |p| p.block_body(false))?;
                        self.expect(&Token::RBrace, "`}`")?;
                        els
                    } else {
                        Vec::new()
                    };
                    Ok(Stmt::If { cond, then, els })
                }
                other => Err(err(line, format!("unsupported statement `{other}`"))),
            },
            other => Err(err(line, format!("unexpected token {other:?}"))),
        }
    }

    fn condition(&mut self) -> Result<Cond, ParsePhpError> {
        let mut negations = 0usize;
        while self.peek() == Some(&Token::Bang) {
            self.pos += 1;
            negations += 1;
        }
        let cond = self.positive_condition()?;
        Ok(if negations % 2 == 1 {
            cond.negate()
        } else {
            cond
        })
    }

    fn positive_condition(&mut self) -> Result<Cond, ParsePhpError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(Token::Ident(word)) if word == "preg_match" => {
                self.pos += 1;
                self.expect(&Token::LParen, "`(` after preg_match")?;
                let pattern = match self.bump() {
                    Some(Token::Literal(bytes)) => {
                        let text =
                            String::from_utf8(bytes).map_err(|_| err(line, "non-UTF-8 pattern"))?;
                        let inner = text
                            .strip_prefix('/')
                            .and_then(|t| t.rfind('/').map(|i| t[..i].to_owned()))
                            .ok_or_else(|| err(line, "pattern must be '/…/'"))?;
                        inner
                    }
                    _ => return Err(err(line, "preg_match needs a quoted '/pattern/'")),
                };
                self.expect(&Token::Comma, "`,` between pattern and subject")?;
                let subject = self.expression()?;
                self.expect(&Token::RParen, "`)` closing preg_match")?;
                Ok(Cond::PregMatch { pattern, subject })
            }
            Some(Token::Ident(word)) if word == "unknown" => {
                self.pos += 1;
                self.expect(&Token::LParen, "`(` after unknown")?;
                // Swallow an optional quoted description.
                let text = match self.peek() {
                    Some(Token::Literal(bytes)) => {
                        let s = String::from_utf8_lossy(bytes).into_owned();
                        self.pos += 1;
                        s
                    }
                    _ => String::new(),
                };
                self.expect(&Token::RParen, "`)` closing unknown")?;
                Ok(Cond::Opaque(text))
            }
            _ => {
                // expr == 'literal'
                let subject = self.expression()?;
                self.expect(&Token::EqEq, "`==` in condition")?;
                match self.bump() {
                    Some(Token::Literal(literal)) => Ok(Cond::EqualsLiteral { subject, literal }),
                    _ => Err(err(line, "right side of `==` must be a literal")),
                }
            }
        }
    }

    fn expression(&mut self) -> Result<StringExpr, ParsePhpError> {
        let mut expr = self.atom()?;
        while self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let rhs = self.atom()?;
            expr = expr.concat(rhs);
        }
        Ok(expr)
    }

    fn atom(&mut self) -> Result<StringExpr, ParsePhpError> {
        let line = self.line();
        match self.bump() {
            Some(Token::Literal(bytes)) => Ok(StringExpr::Literal(bytes)),
            Some(Token::Variable(name)) => Ok(StringExpr::Var(name)),
            Some(Token::Superglobal { key }) => Ok(StringExpr::Input(key)),
            Some(Token::Ident(word)) if word == "strtolower" || word == "strtoupper" => {
                self.expect(&Token::LParen, "`(` after case function")?;
                let inner = self.nested(line, Parser::expression)?;
                self.expect(&Token::RParen, "`)` closing case function")?;
                Ok(if word == "strtolower" {
                    StringExpr::Lower(Box::new(inner))
                } else {
                    StringExpr::Upper(Box::new(inner))
                })
            }
            other => Err(err(line, format!("expected expression, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE1: &str = r#"<?php
$newsid = $_POST['posted_newsid'];
if (!preg_match('/[\d]+$/', $newsid)) {
    echo 'Invalid article news ID.';
    exit;
}
$newsid = "nid_" . $newsid;
query("SELECT * FROM news WHERE newsid=" . $newsid);
"#;

    #[test]
    fn parses_figure1_source() {
        let p = parse_php("utopia_figure1", FIGURE1).expect("parses");
        assert_eq!(p.stmts.len(), 4);
        assert_eq!(p, Program::figure1());
    }

    #[test]
    fn roundtrip_figure1() {
        let p = Program::figure1();
        let printed = print_php(&p);
        let reparsed = parse_php(&p.name, &printed).expect("round-trips");
        assert_eq!(p, reparsed);
    }

    #[test]
    fn roundtrip_generated_programs() {
        // Every statement/condition constructor the corpus uses survives a
        // print→parse cycle.
        use crate::ast::{Cond, Stmt};
        let mut p = Program::new("mixed");
        p.stmts.push(Stmt::Assign {
            var: "a".into(),
            value: StringExpr::lit("x\"y\\z\n").concat(StringExpr::input("k")),
        });
        p.stmts.push(Stmt::If {
            cond: Cond::EqualsLiteral {
                subject: StringExpr::var("a"),
                literal: b"admin".to_vec(),
            },
            then: vec![Stmt::Exit],
            els: vec![Stmt::Echo {
                expr: StringExpr::lit("no"),
            }],
        });
        p.stmts.push(Stmt::If {
            cond: Cond::Opaque("rand".into()),
            then: vec![Stmt::Query {
                expr: StringExpr::var("a"),
            }],
            els: vec![],
        });
        let reparsed = parse_php("mixed", &print_php(&p)).expect("round-trips");
        assert_eq!(p, reparsed);
    }

    #[test]
    fn superglobal_variants() {
        for glob in ["$_GET['k']", "$_POST['k']", "$_REQUEST[\"k\"]"] {
            let src = format!("<?php\n$x = {glob};\n");
            let p = parse_php("g", &src).expect("parses");
            assert_eq!(
                p.stmts[0],
                Stmt::Assign {
                    var: "x".into(),
                    value: StringExpr::input("k")
                }
            );
        }
    }

    #[test]
    fn comments_are_skipped() {
        let src = "<?php\n// line comment\n# hash comment\n/* block\ncomment */\n$x = 'v';\n";
        let p = parse_php("c", src).expect("parses");
        assert_eq!(p.stmts.len(), 1);
    }

    #[test]
    fn string_escapes_decode() {
        let p = parse_php("e", r#"<?php $x = "a\n\t\"\\\x41\$";"#).expect("parses");
        match &p.stmts[0] {
            Stmt::Assign {
                value: StringExpr::Literal(bytes),
                ..
            } => {
                assert_eq!(bytes, b"a\n\t\"\\A$");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exit_with_parens_and_die() {
        let p = parse_php("x", "<?php exit(); die;").expect("parses");
        assert_eq!(p.stmts, vec![Stmt::Exit, Stmt::Exit]);
    }

    #[test]
    fn mysql_query_alias() {
        let p = parse_php("q", "<?php mysql_query('SELECT 1');").expect("parses");
        assert!(matches!(p.stmts[0], Stmt::Query { .. }));
    }

    #[test]
    fn errors_have_lines() {
        let e = parse_php("bad", "<?php\n$x = ;\n").expect_err("bad expr");
        assert_eq!(e.line, 2);
        assert!(parse_php("bad", "<?php for(;;){}").is_err());
        assert!(parse_php("bad", "<?php $x = 'unterminated").is_err());
        assert!(parse_php("bad", "<?php if (preg_match('nodelim', $x)) {}").is_err());
        assert!(parse_php("bad", "<?php $_POST = 1;").is_err());
    }

    /// `depth` nested filters around a query, each `if` on its own line
    /// from line 3.
    fn nested_filters(depth: usize) -> String {
        format!(
            "<?php\n$x = $_GET['x'];\n{}query(\"SELECT \" . $x);\n{}",
            "if (!preg_match(\"/[0-9]+/\", $x)) {\n".repeat(depth),
            "}\n".repeat(depth)
        )
    }

    #[test]
    fn programs_at_the_nesting_limit_analyze_on_a_small_stack() {
        use crate::analysis::{analyze_sinks, Policy};
        use crate::symex::SymexOptions;
        use dprle_core::SolveOptions;
        let cased = format!(
            "<?php\nquery({}$_GET['x']{});\n",
            "strtolower(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        for source in [nested_filters(MAX_NESTING), cased] {
            // 2 MiB is a spawned thread's default stack.
            std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let program = parse_php("deep", &source).expect("parses");
                    let cfg = crate::Cfg::build(&program);
                    assert!(cfg.num_blocks() > 0);
                    let report = analyze_sinks(
                        &program,
                        &Policy::sql_quote(),
                        &SymexOptions::default(),
                        &SolveOptions::default(),
                        None,
                    )
                    .expect("analyzes");
                    assert_eq!(report.findings.len(), 1);
                    assert!(parse_php("again", &print_php(&program)).is_ok());
                })
                .expect("spawn")
                .join()
                .expect("no stack overflow");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_at_its_line() {
        for depth in [MAX_NESTING + 1, 20_000] {
            let e = parse_php("deep", &nested_filters(depth)).expect_err("too deep");
            assert_eq!(e.line, 3 + MAX_NESTING, "{e}");
            assert!(e.message.contains("nest deeper"), "{e}");
        }
        let cased = format!(
            "<?php\n$x = {}$_GET['x']{};\n",
            "strtoupper(".repeat(MAX_NESTING + 1),
            ")".repeat(MAX_NESTING + 1)
        );
        let e = parse_php("cased", &cased).expect_err("too deep");
        assert_eq!(e.line, 2);
        // Negations are not nesting: any number of them parses.
        let negated = format!("<?php\nif ({}unknown()) {{ exit; }}\n", "!".repeat(100_001));
        let program = parse_php("negated", &negated).expect("parses");
        assert!(matches!(
            &program.stmts[0],
            Stmt::If {
                cond: Cond::Not(_),
                ..
            }
        ));
    }

    #[test]
    fn parsed_source_analyzes_like_builtin_figure1() {
        use crate::analysis::{analyze, Policy};
        use crate::symex::SymexOptions;
        use dprle_core::SolveOptions;
        let p = parse_php("fig1", FIGURE1).expect("parses");
        let report = analyze(
            &p,
            &Policy::sql_quote(),
            &SymexOptions::default(),
            &SolveOptions::default(),
        )
        .expect("analyzes");
        assert_eq!(report.findings.len(), 1);
        let exploit = &report.findings[0].witnesses["posted_newsid"];
        assert!(exploit.contains(&b'\''));
    }
}
