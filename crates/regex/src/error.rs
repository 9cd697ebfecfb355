//! Error types for regex parsing and compilation.

use std::error::Error;
use std::fmt;

/// What went wrong while parsing a pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegexErrorKind {
    /// The pattern ended in the middle of a construct.
    UnexpectedEnd,
    /// A `(` without matching `)`, or a stray `)`.
    UnbalancedParen,
    /// A `[` without matching `]`.
    UnbalancedClass,
    /// A class range with its endpoints out of order or non-byte endpoints.
    BadClassRange,
    /// A `{n,m}` bound that is malformed or has `m < n`.
    MalformedBound,
    /// A quantifier with nothing to repeat, e.g. a leading `*`.
    DanglingQuantifier,
    /// `(?...)` groups (non-capturing, lookaround, named) are unsupported.
    UnsupportedGroup,
    /// Backreferences (`\1`…`\9`) are not regular and unsupported.
    UnsupportedBackreference,
    /// A malformed escape such as `\xZZ`.
    MalformedEscape,
    /// An anchor (`^`/`$`) in a position the compiler cannot interpret
    /// (e.g. under a star).
    MisplacedAnchor,
    /// Groups and stacked quantifiers nest deeper than
    /// [`MAX_NESTING`](crate::parser::MAX_NESTING) levels.
    NestingTooDeep,
    /// The pattern would compile to more than
    /// [`MAX_STATES`](crate::parser::MAX_STATES) states; the position is
    /// the quantifier, alternative or concatenated part that exceeds them.
    TooManyStates,
}

impl fmt::Display for RegexErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            RegexErrorKind::UnexpectedEnd => "unexpected end of pattern",
            RegexErrorKind::UnbalancedParen => "unbalanced parenthesis",
            RegexErrorKind::UnbalancedClass => "unbalanced character class",
            RegexErrorKind::BadClassRange => "invalid character-class range",
            RegexErrorKind::MalformedBound => "malformed repetition bound",
            RegexErrorKind::DanglingQuantifier => "quantifier with nothing to repeat",
            RegexErrorKind::UnsupportedGroup => "unsupported (?...) group",
            RegexErrorKind::UnsupportedBackreference => "backreferences are not supported",
            RegexErrorKind::MalformedEscape => "malformed escape sequence",
            RegexErrorKind::MisplacedAnchor => "anchor in an uninterpretable position",
            RegexErrorKind::NestingTooDeep => "groups and quantifiers nested too deeply",
            RegexErrorKind::TooManyStates => "pattern compiles to too many states",
        };
        f.write_str(msg)
    }
}

/// A positioned parse or compile error for a regular expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParseRegexError {
    /// Byte offset into the pattern where the error was detected.
    pub pos: usize,
    /// The kind of error.
    pub kind: RegexErrorKind,
}

impl fmt::Display for ParseRegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.kind, self.pos)
    }
}

impl Error for ParseRegexError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_position() {
        let e = ParseRegexError {
            pos: 7,
            kind: RegexErrorKind::UnbalancedParen,
        };
        let s = e.to_string();
        assert!(s.contains("offset 7"), "got {s}");
        assert!(s.contains("parenthesis"), "got {s}");
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: Error>(_: E) {}
        takes_error(ParseRegexError {
            pos: 0,
            kind: RegexErrorKind::UnexpectedEnd,
        });
    }
}
