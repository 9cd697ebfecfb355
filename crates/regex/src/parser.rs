//! Recursive-descent parser for the PCRE-style subset.
//!
//! Grammar (standard precedence: alternation < concatenation < repetition):
//!
//! ```text
//! alt    ::= concat ('|' concat)*
//! concat ::= repeat*
//! repeat ::= atom ('*' | '+' | '?' | '{' bounds '}')*
//! atom   ::= '(' alt ')' | '[' class ']' | '.' | '^' | '$' | escape | byte
//! ```
//!
//! Unsupported PCRE constructs (backreferences, lookaround, named groups)
//! are rejected with a positioned error rather than silently misparsed.
//! Lazy quantifiers parse as nested `?` and recognize the same language as
//! their greedy counterparts.
//!
//! Nesting is bounded by [`MAX_NESTING`]: each group and each quantifier
//! stacked on an atom is one level. That bounds the parser's recursion
//! and the depth of every [`Ast`] it returns, which in turn bounds the
//! recursion of compiling and dropping it, so hostile input gets a
//! [`RegexErrorKind::NestingTooDeep`] error, not a stack overflow.
//!
//! Size is bounded by [`MAX_STATES`]: the parser prices each construct in
//! the states [`compile_exact`](crate::compile_exact) will build for it,
//! and stops at the quantifier, alternative or concatenated part that
//! would take the pattern past the budget with
//! [`RegexErrorKind::TooManyStates`]. Bounded repetition multiplies
//! (`a{1,2}` stacked k times compiles to about 10·2^k states), so a short
//! pattern could otherwise build a machine that no solve finishes with.

use crate::ast::{Anchor, Ast};
use crate::error::{ParseRegexError, RegexErrorKind};
use dprle_automata::ByteClass;

/// The deepest nesting [`parse`] accepts, counting each enclosing group and
/// each stacked quantifier (`((a)*)+` nests 4 levels deep). A parsed
/// [`Ast`] is at most about twice as deep: a group may add an alternation
/// and a concatenation node.
pub const MAX_NESTING: u32 = 256;

/// The most states [`parse`] lets a pattern compile to. Each construct is
/// priced at the states its Thompson machine takes in normalized shape
/// (a class 2, a concatenation 3 plus its parts, `e{m,n}` 3 plus `m`
/// copies of `e` plus `n − m` optional ones, …), which is exact for the
/// machines [`compile_exact`](crate::compile_exact) builds and an upper
/// bound on them; [`compile_search`](crate::compile_search) adds at most
/// 8 states of Σ* padding.
///
/// Sized by measurement (release build, 2-vCPU VM): `a{1,2}` stacked 9
/// times prices at 5 112 states and `dprle` solves it as an exact
/// constant in 0.12 s; stacked 10 times it prices at 10 232 and took
/// 0.46 s, and every further level about 4× longer. The largest pattern
/// in the corpus, testdata, examples and benchmarks, `.{0,64}`, prices at
/// 451.
pub const MAX_STATES: u64 = 8192;

/// The price of `e{min,max}` (`max` is `None` for `e{min,}`) around an
/// operand `e` priced at `operand` states, by the rule [`parse`] applies
/// against [`MAX_STATES`]: `min` copies after a normalized ε, then either
/// `max − min` optional copies or one starred: the states
/// [`ops::repeat_range`](dprle_automata::ops::repeat_range) builds around a
/// normalized operand of `operand` states. Saturates rather than
/// overflowing, so hostile bounds price past any budget.
pub fn repeat_states(operand: u64, min: u64, max: Option<u64>) -> u64 {
    let required = min.saturating_mul(operand);
    let rest = match max {
        Some(max) => max
            .saturating_sub(min)
            .saturating_mul(operand.saturating_add(5)),
        None => operand.saturating_add(2),
    };
    required.saturating_add(rest).saturating_add(3)
}

/// Parses a pattern into an [`Ast`].
///
/// # Errors
///
/// Returns [`ParseRegexError`] describing the offending position for
/// malformed or unsupported syntax.
pub fn parse(pattern: &str) -> Result<Ast, ParseRegexError> {
    parse_priced(pattern).map(|(ast, _)| ast)
}

/// [`parse`], plus the states the pattern is priced at (see
/// [`MAX_STATES`]).
pub(crate) fn parse_priced(pattern: &str) -> Result<(Ast, u64), ParseRegexError> {
    let mut p = Parser {
        input: pattern.as_bytes(),
        pos: 0,
        open_groups: 0,
    };
    let (ast, size) = p.alt()?;
    if p.pos != p.input.len() {
        return Err(p.error(RegexErrorKind::UnbalancedParen));
    }
    Ok((ast, size.states))
}

/// What a parse step knows of its `Ast` besides the tree.
#[derive(Clone, Copy)]
struct Size {
    /// The most levels (groups and quantifiers) on any path from it down
    /// to an atom.
    nesting: u32,
    /// Its price in compiled states (see [`MAX_STATES`]).
    states: u64,
}

impl Size {
    /// An atom: a one-edge machine of two states.
    const ATOM: Size = Size {
        nesting: 0,
        states: 2,
    };
    /// The empty pattern: ε, three states once normalized.
    const EMPTY: Size = Size {
        nesting: 0,
        states: 3,
    };
}

/// Each parse step returns its `Ast` with its [`Size`].
type Parsed = Result<(Ast, Size), ParseRegexError>;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Groups open at `pos`: the parser's recursion depth, checked before
    /// recursing into one more.
    open_groups: u32,
}

impl<'a> Parser<'a> {
    fn error(&self, kind: RegexErrorKind) -> ParseRegexError {
        ParseRegexError {
            pos: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alt(&mut self) -> Parsed {
        let (first, mut size) = self.concat()?;
        let mut parts = vec![first];
        // `union_all`: a new start and final around the alternatives.
        let mut states = 2 + size.states;
        while self.eat(b'|') {
            let at = self.pos;
            let (part, s) = self.concat()?;
            parts.push(part);
            size.nesting = size.nesting.max(s.nesting);
            states = self.budget(states + s.states, at)?;
        }
        let ast = if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            size.states = states;
            Ast::Alt(parts)
        };
        Ok((ast, size))
    }

    fn concat(&mut self) -> Parsed {
        let mut parts = Vec::new();
        let mut size = Size::EMPTY;
        // Concatenation starts from a normalized ε and adds each part.
        let mut states = Size::EMPTY.states;
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            let at = self.pos;
            let (part, s) = self.repeat()?;
            parts.push(part);
            size.nesting = size.nesting.max(s.nesting);
            states += s.states;
            // A lone part is the whole concatenation.
            size.states = match parts.len() {
                1 => s.states,
                _ => self.budget(states, at)?,
            };
        }
        let ast = match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        };
        Ok((ast, size))
    }

    /// `states`, or an error at `at` when that is past [`MAX_STATES`].
    fn budget(&self, states: u64, at: usize) -> Result<u64, ParseRegexError> {
        if states > MAX_STATES {
            return Err(ParseRegexError {
                pos: at,
                kind: RegexErrorKind::TooManyStates,
            });
        }
        Ok(states)
    }

    /// One more level over `nesting`, or an error at `pos` past the limit.
    fn nest(&self, nesting: u32) -> Result<u32, ParseRegexError> {
        if nesting >= MAX_NESTING {
            return Err(self.error(RegexErrorKind::NestingTooDeep));
        }
        Ok(nesting + 1)
    }

    fn repeat(&mut self) -> Parsed {
        let (mut ast, mut size) = self.atom()?;
        loop {
            let at = self.pos;
            // The price of the machine each quantifier builds around its
            // operand's `s` states (see `dprle_automata::ops`).
            let s = size.states;
            let states = match self.peek() {
                Some(b'*') => {
                    size.nesting = self.nest(size.nesting)?;
                    self.pos += 1;
                    ast = Ast::Star(Box::new(ast));
                    s + 2
                }
                Some(b'+') => {
                    size.nesting = self.nest(size.nesting)?;
                    self.pos += 1;
                    ast = Ast::Plus(Box::new(ast));
                    2 * s + 2
                }
                Some(b'?') => {
                    // Note: a lazy quantifier such as `a*?` parses as
                    // `(a*)?`, which recognizes the same language as PCRE's
                    // lazy `a*?` — laziness affects match positions only.
                    size.nesting = self.nest(size.nesting)?;
                    self.pos += 1;
                    ast = Ast::Optional(Box::new(ast));
                    s + 5
                }
                Some(b'{') => {
                    // `{` only begins a bound when followed by a digit or
                    // comma; otherwise it is a literal brace (PCRE behavior).
                    match self.input.get(self.pos + 1) {
                        Some(c) if c.is_ascii_digit() || *c == b',' => {
                            size.nesting = self.nest(size.nesting)?;
                            self.pos += 1;
                            let (min, max) = self.bounds()?;
                            ast = Ast::Repeat {
                                inner: Box::new(ast),
                                min,
                                max,
                            };
                            repeat_states(s, u64::from(min), max.map(u64::from))
                        }
                        _ => break,
                    }
                }
                _ => break,
            };
            size.states = self.budget(states, at)?;
        }
        Ok((ast, size))
    }

    fn bounds(&mut self) -> Result<(u32, Option<u32>), ParseRegexError> {
        let min = self.number()?;
        if self.eat(b'}') {
            return Ok((min, Some(min)));
        }
        if !self.eat(b',') {
            return Err(self.error(RegexErrorKind::MalformedBound));
        }
        if self.eat(b'}') {
            return Ok((min, None));
        }
        let max = self.number()?;
        if !self.eat(b'}') {
            return Err(self.error(RegexErrorKind::MalformedBound));
        }
        if max < min {
            return Err(self.error(RegexErrorKind::MalformedBound));
        }
        Ok((min, Some(max)))
    }

    fn number(&mut self) -> Result<u32, ParseRegexError> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(RegexErrorKind::MalformedBound));
        }
        std::str::from_utf8(&self.input[start..self.pos])
            .expect("digits are UTF-8")
            .parse()
            .map_err(|_| self.error(RegexErrorKind::MalformedBound))
    }

    fn atom(&mut self) -> Parsed {
        let ast = match self.bump() {
            Some(b'(') => {
                if self.peek() == Some(b'?') {
                    return Err(self.error(RegexErrorKind::UnsupportedGroup));
                }
                // Checked before recursing: the group's own nesting is at
                // least the number of groups open inside it.
                if self.open_groups >= MAX_NESTING {
                    return Err(ParseRegexError {
                        pos: self.pos - 1,
                        kind: RegexErrorKind::NestingTooDeep,
                    });
                }
                self.open_groups += 1;
                let (inner, size) = self.alt()?;
                if !self.eat(b')') {
                    return Err(self.error(RegexErrorKind::UnbalancedParen));
                }
                self.open_groups -= 1;
                let nesting = self.nest(size.nesting)?;
                return Ok((
                    inner,
                    Size {
                        nesting,
                        states: size.states,
                    },
                ));
            }
            Some(b'[') => self.class()?,
            Some(b'.') => Ast::Class(ByteClass::FULL.difference(&ByteClass::singleton(b'\n'))),
            // Compiling drops an edge anchor (and rejects any other): it
            // costs no more than ε.
            Some(b'^') => return Ok((Ast::Anchor(Anchor::Start), Size::EMPTY)),
            Some(b'$') => return Ok((Ast::Anchor(Anchor::End), Size::EMPTY)),
            Some(b'\\') => Ast::Class(self.escape()?),
            Some(b'*' | b'+' | b'?') => {
                self.pos -= 1;
                return Err(self.error(RegexErrorKind::DanglingQuantifier));
            }
            Some(b) => Ast::byte(b),
            None => return Err(self.error(RegexErrorKind::UnexpectedEnd)),
        };
        Ok((ast, Size::ATOM))
    }

    /// Parses the body of a `[...]` class (the `[` has been consumed).
    fn class(&mut self) -> Result<Ast, ParseRegexError> {
        let negated = self.eat(b'^');
        let mut class = ByteClass::EMPTY;
        let mut first = true;
        loop {
            // POSIX named class, e.g. [[:digit:]].
            if self.peek() == Some(b'[') && self.input.get(self.pos + 1) == Some(&b':') {
                class = class.union(&self.posix_class()?);
                first = false;
                continue;
            }
            let b = match self.bump() {
                None => return Err(self.error(RegexErrorKind::UnbalancedClass)),
                Some(b']') if !first => break,
                Some(b) => b,
            };
            first = false;
            let lo = if b == b'\\' {
                self.escape()?
            } else {
                ByteClass::singleton(b)
            };
            // Range? Only when the left side was a single byte and a `-` is
            // followed by something other than `]`.
            if lo.len() == 1
                && self.peek() == Some(b'-')
                && self.input.get(self.pos + 1) != Some(&b']')
            {
                self.pos += 1; // consume '-'
                let hi_b = match self.bump() {
                    None => return Err(self.error(RegexErrorKind::UnbalancedClass)),
                    Some(b'\\') => {
                        let c = self.escape()?;
                        if c.len() != 1 {
                            return Err(self.error(RegexErrorKind::BadClassRange));
                        }
                        c.min_byte().expect("single byte")
                    }
                    Some(b) => b,
                };
                let lo_b = lo.min_byte().expect("single byte");
                if lo_b > hi_b {
                    return Err(self.error(RegexErrorKind::BadClassRange));
                }
                class = class.union(&ByteClass::range(lo_b, hi_b));
            } else {
                class = class.union(&lo);
            }
        }
        let class = if negated { class.complement() } else { class };
        Ok(Ast::Class(class))
    }

    /// Parses a POSIX named class `[:name:]` (positioned at the opening
    /// `[`), returning its byte set.
    fn posix_class(&mut self) -> Result<ByteClass, ParseRegexError> {
        let start = self.pos;
        self.pos += 2; // consume "[:"
        let name_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        let name = std::str::from_utf8(&self.input[name_start..self.pos])
            .expect("ASCII letters are UTF-8")
            .to_owned();
        if !(self.eat(b':') && self.eat(b']')) {
            self.pos = start;
            return Err(self.error(RegexErrorKind::UnbalancedClass));
        }
        Ok(match name.as_str() {
            "digit" => digit_class(),
            "alpha" => ByteClass::range(b'A', b'Z').union(&ByteClass::range(b'a', b'z')),
            "alnum" => ByteClass::range(b'0', b'9')
                .union(&ByteClass::range(b'A', b'Z'))
                .union(&ByteClass::range(b'a', b'z')),
            "upper" => ByteClass::range(b'A', b'Z'),
            "lower" => ByteClass::range(b'a', b'z'),
            "space" => space_class(),
            "xdigit" => ByteClass::range(b'0', b'9')
                .union(&ByteClass::range(b'A', b'F'))
                .union(&ByteClass::range(b'a', b'f')),
            "punct" => ByteClass::range(b'!', b'/')
                .union(&ByteClass::range(b':', b'@'))
                .union(&ByteClass::range(b'[', b'`'))
                .union(&ByteClass::range(b'{', b'~')),
            "word" => word_class(),
            _ => {
                self.pos = start;
                return Err(self.error(RegexErrorKind::UnbalancedClass));
            }
        })
    }

    /// Parses an escape (the `\` has been consumed) into a byte class.
    fn escape(&mut self) -> Result<ByteClass, ParseRegexError> {
        let b = self
            .bump()
            .ok_or_else(|| self.error(RegexErrorKind::UnexpectedEnd))?;
        Ok(match b {
            b'd' => digit_class(),
            b'D' => digit_class().complement(),
            b'w' => word_class(),
            b'W' => word_class().complement(),
            b's' => space_class(),
            b'S' => space_class().complement(),
            b'n' => ByteClass::singleton(b'\n'),
            b'r' => ByteClass::singleton(b'\r'),
            b't' => ByteClass::singleton(b'\t'),
            b'0' => ByteClass::singleton(0),
            b'x' => {
                let hi = self.hex_digit()?;
                let lo = self.hex_digit()?;
                ByteClass::singleton(hi * 16 + lo)
            }
            b'1'..=b'9' => return Err(self.error(RegexErrorKind::UnsupportedBackreference)),
            // Escaped metacharacters and anything else: the literal byte.
            _ => ByteClass::singleton(b),
        })
    }

    fn hex_digit(&mut self) -> Result<u8, ParseRegexError> {
        let b = self
            .bump()
            .ok_or_else(|| self.error(RegexErrorKind::UnexpectedEnd))?;
        match b {
            b'0'..=b'9' => Ok(b - b'0'),
            b'a'..=b'f' => Ok(b - b'a' + 10),
            b'A'..=b'F' => Ok(b - b'A' + 10),
            _ => Err(self.error(RegexErrorKind::MalformedEscape)),
        }
    }
}

/// The `\d` class.
pub fn digit_class() -> ByteClass {
    ByteClass::range(b'0', b'9')
}

/// The `\w` class (`[0-9A-Za-z_]`).
pub fn word_class() -> ByteClass {
    ByteClass::range(b'0', b'9')
        .union(&ByteClass::range(b'A', b'Z'))
        .union(&ByteClass::range(b'a', b'z'))
        .union(&ByteClass::singleton(b'_'))
}

/// The `\s` class (`[ \t\n\r\x0b\x0c]`).
pub fn space_class() -> ByteClass {
    ByteClass::from_bytes([b' ', b'\t', b'\n', b'\r', 0x0b, 0x0c])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ast {
        parse(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn parses_literals_and_concat() {
        assert_eq!(p("ab"), Ast::Concat(vec![Ast::byte(b'a'), Ast::byte(b'b')]));
        assert_eq!(p(""), Ast::Empty);
        assert_eq!(p("a"), Ast::byte(b'a'));
    }

    #[test]
    fn parses_alternation_precedence() {
        // ab|c == (ab)|(c), not a(b|c).
        match p("ab|c") {
            Ast::Alt(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[1], Ast::byte(b'c'));
            }
            other => panic!("expected alt, got {other:?}"),
        }
    }

    #[test]
    fn parses_quantifiers() {
        assert_eq!(p("a*"), Ast::Star(Box::new(Ast::byte(b'a'))));
        assert_eq!(p("a+"), Ast::Plus(Box::new(Ast::byte(b'a'))));
        assert_eq!(p("a?"), Ast::Optional(Box::new(Ast::byte(b'a'))));
        assert_eq!(
            p("a{2,5}"),
            Ast::Repeat {
                inner: Box::new(Ast::byte(b'a')),
                min: 2,
                max: Some(5)
            }
        );
        assert_eq!(
            p("a{3}"),
            Ast::Repeat {
                inner: Box::new(Ast::byte(b'a')),
                min: 3,
                max: Some(3)
            }
        );
        assert_eq!(
            p("a{2,}"),
            Ast::Repeat {
                inner: Box::new(Ast::byte(b'a')),
                min: 2,
                max: None
            }
        );
    }

    #[test]
    fn literal_brace_is_not_a_bound() {
        assert_eq!(
            p("a{x"),
            Ast::Concat(vec![Ast::byte(b'a'), Ast::byte(b'{'), Ast::byte(b'x')])
        );
    }

    #[test]
    fn parses_classes() {
        assert_eq!(p("[0-9]"), Ast::Class(ByteClass::range(b'0', b'9')));
        assert_eq!(
            p("[abc]"),
            Ast::Class(ByteClass::from_bytes([b'a', b'b', b'c']))
        );
        assert_eq!(p("[\\d]"), Ast::Class(digit_class()));
        // `]` first is a literal.
        assert_eq!(p("[]a]"), Ast::Class(ByteClass::from_bytes([b']', b'a'])));
        // Trailing `-` is a literal.
        assert_eq!(p("[a-]"), Ast::Class(ByteClass::from_bytes([b'a', b'-'])));
    }

    #[test]
    fn parses_posix_classes() {
        assert_eq!(p("[[:digit:]]"), Ast::Class(digit_class()));
        assert_eq!(
            p("[[:digit:]x]"),
            Ast::Class(digit_class().union(&ByteClass::singleton(b'x')))
        );
        match p("[[:alpha:][:digit:]]") {
            Ast::Class(c) => {
                assert!(c.contains(b'q') && c.contains(b'7') && !c.contains(b'_'));
            }
            other => panic!("{other:?}"),
        }
        match p("[^[:space:]]") {
            Ast::Class(c) => {
                assert!(!c.contains(b' ') && c.contains(b'x'));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse("[[:bogus:]]").is_err());
        assert!(parse("[[:digit]]").is_err());
        // A bare "[:" outside a class context is not special: `[` opens a
        // class whose first member may be ':'.
        assert_eq!(p("[:a]"), Ast::Class(ByteClass::from_bytes([b':', b'a'])));
    }

    #[test]
    fn parses_negated_class() {
        match p("[^0-9]") {
            Ast::Class(c) => {
                assert!(!c.contains(b'5'));
                assert!(c.contains(b'a'));
                assert!(c.contains(0xff));
            }
            other => panic!("expected class, got {other:?}"),
        }
    }

    #[test]
    fn parses_escapes() {
        assert_eq!(p("\\d"), Ast::Class(digit_class()));
        assert_eq!(p("\\."), Ast::byte(b'.'));
        assert_eq!(p("\\x41"), Ast::byte(b'A'));
        assert_eq!(p("\\n"), Ast::byte(b'\n'));
        match p("\\w") {
            Ast::Class(c) => assert!(c.contains(b'_') && c.contains(b'Q') && !c.contains(b'-')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_anchors_and_dot() {
        assert_eq!(p("^"), Ast::Anchor(Anchor::Start));
        assert_eq!(p("$"), Ast::Anchor(Anchor::End));
        match p(".") {
            Ast::Class(c) => {
                assert!(c.contains(b'a'));
                assert!(!c.contains(b'\n'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_the_papers_filter() {
        // The (faulty) filter from the paper's Figure 1: /[\d]+$/
        let ast = p("[\\d]+$");
        match ast {
            Ast::Concat(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Ast::Plus(_)));
                assert_eq!(parts[1], Ast::Anchor(Anchor::End));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(parse("(?:ab)").is_err());
        assert!(parse("a\\1").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("a)").is_err());
        assert!(parse("[ab").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("a{3,1}").is_err());
        assert!(parse("[z-a]").is_err());
        assert!(parse("\\x4g").is_err());
    }

    #[test]
    fn error_positions_point_at_offence() {
        let err = parse("ab(?=x)").expect_err("lookahead unsupported");
        assert_eq!(err.pos, 3);
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let groups = |depth: usize| "(".repeat(depth) + "a" + &")".repeat(depth);
        let limit = MAX_NESTING as usize;
        assert_eq!(p(&groups(limit)), Ast::byte(b'a'));
        let err = parse(&groups(limit + 1)).expect_err("one group too deep");
        assert_eq!(err.kind, RegexErrorKind::NestingTooDeep);
        assert_eq!(err.pos, limit, "the first group past the limit");
        // Stacked quantifiers count as levels too, and so do both together.
        assert!(parse(&("a".to_owned() + &"*".repeat(limit))).is_ok());
        let err = parse(&("a".to_owned() + &"?".repeat(limit + 1))).expect_err("too deep");
        assert_eq!(
            (err.kind, err.pos),
            (RegexErrorKind::NestingTooDeep, limit + 1)
        );
        // `(a*)+` is 3 levels deep. (Stacked bounds such as `{1,2}` nest
        // the same way, but 253 of them price far past `MAX_STATES`.)
        let mixed = "(a*)+".to_owned() + &"{0,}".repeat(limit - 3);
        assert!(parse(&mixed).is_ok(), "{mixed}");
        let err = parse(&(mixed + "*")).expect_err("too deep");
        assert_eq!(err.kind, RegexErrorKind::NestingTooDeep);
        // A literal brace is not a quantifier.
        assert!(parse(&("a".to_owned() + &"*".repeat(limit) + "{x")).is_ok());
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // 100 000 levels of either kind, parsed on a 1 MiB stack; and
        // 50 000 shallow groups side by side, which only the state budget
        // stops.
        for (pattern, kind) in [
            (
                "(".repeat(100_000) + "a" + &")".repeat(100_000),
                RegexErrorKind::NestingTooDeep,
            ),
            (
                "a".to_owned() + &"*".repeat(100_000),
                RegexErrorKind::NestingTooDeep,
            ),
            ("(a*)".repeat(50_000), RegexErrorKind::TooManyStates),
        ] {
            let result = std::thread::Builder::new()
                .stack_size(1024 * 1024)
                .spawn(move || parse(&pattern).map(|_| ()))
                .expect("spawn")
                .join()
                .expect("no stack overflow");
            assert_eq!(result.expect_err("rejected").kind, kind);
        }
    }

    #[test]
    fn nested_groups() {
        let ast = p("(a(b|c))*");
        match ast {
            Ast::Star(inner) => match *inner {
                Ast::Concat(ref parts) => assert_eq!(parts.len(), 2),
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
