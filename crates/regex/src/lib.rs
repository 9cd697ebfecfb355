//! # dprle-regex
//!
//! Regular-expression front end for the DPRLE decision procedure: a parser
//! for the PCRE-style subset used by the paper's PHP front end (character
//! classes, escapes like `\d`, anchors, alternation, quantifiers) and a
//! Thompson compiler targeting [`dprle_automata::Nfa`].
//!
//! The convenience type [`Regex`] bundles a pattern with its compiled
//! machines:
//!
//! ```
//! use dprle_regex::Regex;
//!
//! // The faulty input filter from the paper's Figure 1 (missing `^`).
//! let filter = Regex::new("[\\d]+$")?;
//! assert!(filter.is_match(b"42"));                   // intended input
//! assert!(filter.is_match(b"' OR 1=1 ; DROP news --9")); // the exploit!
//! assert!(!filter.is_match(b"no digits at the end"));
//! # Ok::<(), dprle_regex::ParseRegexError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod error;
pub mod from_nfa;
pub mod oracle;
pub mod parser;

pub use ast::{Anchor, Ast};
pub use compile::{compile_exact, compile_search};
pub use error::{ParseRegexError, RegexErrorKind};
pub use from_nfa::{display_lang, display_language, nfa_to_regex};
pub use oracle::oracle_is_full_match;
pub use parser::parse;

use dprle_automata::Nfa;

/// A compiled regular expression with `preg_match` (search) semantics.
///
/// `is_match` answers the same question PHP's `preg_match($re, $s)` does;
/// [`Regex::search_language`] and [`Regex::exact_language`] expose the two
/// language readings as NFAs for use in constraint systems.
#[derive(Clone, Debug)]
pub struct Regex {
    pattern: String,
    search: Nfa,
    exact: Nfa,
}

impl Regex {
    /// Parses and compiles `pattern`.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseRegexError`] for malformed or unsupported syntax,
    /// including anchors in positions the compiler cannot interpret.
    pub fn new(pattern: &str) -> Result<Regex, ParseRegexError> {
        let ast = parse(pattern)?;
        Ok(Regex {
            pattern: pattern.to_owned(),
            search: compile_search(&ast)?,
            exact: compile_exact(&ast)?,
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Whether the pattern matches somewhere in `subject` (PCRE
    /// `preg_match` semantics).
    pub fn is_match(&self, subject: &[u8]) -> bool {
        self.search.contains(subject)
    }

    /// Whether the pattern matches `subject` in full.
    pub fn is_full_match(&self, subject: &[u8]) -> bool {
        self.exact.contains(subject)
    }

    /// The language of subjects in which the pattern matches somewhere.
    pub fn search_language(&self) -> &Nfa {
        &self.search
    }

    /// The language of subjects the pattern matches in full.
    pub fn exact_language(&self) -> &Nfa {
        &self.exact
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "/{}/", self.pattern)
    }
}

impl std::str::FromStr for Regex {
    type Err = ParseRegexError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Regex::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_type_bundles_both_semantics() {
        let re = Regex::new("ab+").expect("compiles");
        assert!(re.is_match(b"xxabbyy"));
        assert!(!re.is_full_match(b"xxabbyy"));
        assert!(re.is_full_match(b"abb"));
        assert_eq!(re.pattern(), "ab+");
        assert_eq!(re.to_string(), "/ab+/");
    }

    #[test]
    fn from_str_parses() {
        let re: Regex = "x|y".parse().expect("parses");
        assert!(re.is_full_match(b"x"));
        assert!("(".parse::<Regex>().is_err());
    }
}
