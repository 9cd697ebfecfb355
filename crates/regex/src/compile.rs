//! Thompson compilation of regex ASTs into NFAs.
//!
//! Two language readings are provided, matching how `preg_match` patterns
//! are consumed by the paper's front end:
//!
//! * [`compile_exact`] — `L(re)`: the strings the pattern matches *in
//!   full*. Anchors are only meaningful at the pattern edges (where they are
//!   redundant) and are rejected elsewhere.
//! * [`compile_search`] — the strings in which the pattern matches
//!   *somewhere*, i.e. PCRE `preg_match` semantics. Top-level edge anchors
//!   control whether Σ* padding is added on each side. This is precisely the
//!   reading under which the paper's Figure 1 bug (a missing `^`) becomes
//!   visible as a larger-than-intended accepted language.

use crate::ast::{Anchor, Ast};
use crate::error::{ParseRegexError, RegexErrorKind};
use dprle_automata::{ops, Nfa};

/// Compiles `ast` with exact (fully anchored) semantics.
///
/// # Errors
///
/// Returns [`RegexErrorKind::MisplacedAnchor`] if an anchor occurs anywhere
/// other than the outermost edges of the pattern.
pub fn compile_exact(ast: &Ast) -> Result<Nfa, ParseRegexError> {
    let (body, _, _) = strip_edge_anchors(ast)?;
    compile_anchor_free(&body)
}

/// Compiles `ast` with search (`preg_match`) semantics: the language of
/// subject strings in which the pattern matches at some position.
///
/// # Errors
///
/// Returns [`RegexErrorKind::MisplacedAnchor`] for anchors that are not at
/// the outermost edges of the pattern.
pub fn compile_search(ast: &Ast) -> Result<Nfa, ParseRegexError> {
    let (body, anchored_start, anchored_end) = strip_edge_anchors(ast)?;
    let mut m = compile_anchor_free(&body)?;
    if !anchored_start {
        m = ops::concat(&Nfa::sigma_star(), &m).nfa;
    }
    if !anchored_end {
        m = ops::concat(&m, &Nfa::sigma_star()).nfa;
    }
    Ok(m)
}

/// Removes a leading `^` and trailing `$` from the top-level concatenation,
/// reporting which were present.
///
/// # Errors
///
/// Any anchor that is *not* in one of those two positions (e.g. under a
/// star, inside an alternative, or in the middle of the pattern) is an
/// error: its language reading would require intersection with position
/// information this compiler does not track.
fn strip_edge_anchors(ast: &Ast) -> Result<(Ast, bool, bool), ParseRegexError> {
    let mut parts: Vec<Ast> = match ast {
        Ast::Concat(parts) => parts.clone(),
        other => vec![other.clone()],
    };
    let mut anchored_start = false;
    let mut anchored_end = false;
    if matches!(parts.first(), Some(Ast::Anchor(Anchor::Start))) {
        anchored_start = true;
        parts.remove(0);
    }
    if matches!(parts.last(), Some(Ast::Anchor(Anchor::End))) {
        anchored_end = true;
        parts.pop();
    }
    let body = match parts.len() {
        0 => Ast::Empty,
        1 => parts.pop().expect("one part"),
        _ => Ast::Concat(parts),
    };
    if body.has_anchor() {
        return Err(ParseRegexError {
            pos: 0,
            kind: RegexErrorKind::MisplacedAnchor,
        });
    }
    Ok((body, anchored_start, anchored_end))
}

fn compile_anchor_free(ast: &Ast) -> Result<Nfa, ParseRegexError> {
    Ok(match ast {
        Ast::Empty => Nfa::epsilon(),
        Ast::Class(c) => Nfa::class(*c),
        Ast::Concat(parts) => {
            let mut m = Nfa::epsilon();
            for p in parts {
                m = ops::concat(&m, &compile_anchor_free(p)?).nfa;
            }
            m
        }
        Ast::Alt(parts) => {
            let machines: Vec<Nfa> = parts
                .iter()
                .map(compile_anchor_free)
                .collect::<Result<_, _>>()?;
            ops::union_all(machines.iter())
        }
        Ast::Star(inner) => ops::star(&compile_anchor_free(inner)?),
        Ast::Plus(inner) => ops::plus(&compile_anchor_free(inner)?),
        Ast::Optional(inner) => ops::optional(&compile_anchor_free(inner)?),
        Ast::Repeat { inner, min, max } => {
            let m = compile_anchor_free(inner)?;
            match max {
                Some(max) => ops::repeat_range(&m, *min as usize, *max as usize),
                None => ops::concat(&ops::repeat_exact(&m, *min as usize), &ops::star(&m)).nfa,
            }
        }
        Ast::Anchor(_) => {
            return Err(ParseRegexError {
                pos: 0,
                kind: RegexErrorKind::MisplacedAnchor,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn exact(pattern: &str) -> Nfa {
        compile_exact(&parse(pattern).expect("parse")).expect("compile")
    }

    fn search(pattern: &str) -> Nfa {
        compile_search(&parse(pattern).expect("parse")).expect("compile")
    }

    #[test]
    fn the_deepest_parsable_patterns_compile_and_drop_on_a_small_stack() {
        use crate::parser::MAX_NESTING;
        let k = MAX_NESTING as usize;
        // Each group adds an alternation and a concatenation node, so this
        // AST is about twice as deep as the nesting limit. 2 MiB is a
        // spawned thread's default stack (a `dprle serve` session's).
        let alternations = "(a|b".repeat(k) + "c" + &")".repeat(k);
        let quantifiers = "a".to_owned() + &"*".repeat(k);
        for pattern in [alternations, quantifiers] {
            std::thread::Builder::new()
                .stack_size(2 * 1024 * 1024)
                .spawn(move || {
                    let ast = parse(&pattern).expect("within the limit");
                    let m = compile_exact(&ast).expect("compile");
                    assert!(!m.is_empty_language());
                    drop(ast);
                })
                .expect("spawn")
                .join()
                .expect("no stack overflow");
        }
    }

    /// The parser's price bounds what compiling builds, exactly on the
    /// stacked repetitions the budget is sized by.
    #[test]
    fn the_parsers_price_bounds_the_compiled_states() {
        use crate::oracle::random_ast;
        use crate::parser::parse_priced;
        let fixed = [
            "",
            "a",
            "ab",
            "a|b|",
            "(ab|c)*d+e?",
            "a{3}",
            "a{0,2}",
            "[ab]{2,}",
            ".{0,64}",
            "^[\\d]+$",
            "(a?b){2}",
            "((a)(b))|c",
            "x{0,}y{1,1}",
        ];
        let patterns = fixed
            .iter()
            .map(|p| p.to_string())
            .chain((0..300).map(|seed| random_ast(seed, 4).to_string()));
        for pattern in patterns {
            let (ast, price) = parse_priced(&pattern).expect("within budget");
            let exact = compile_exact(&ast).expect("compiles").num_states() as u64;
            let search = compile_search(&ast).expect("compiles").num_states() as u64;
            assert!(exact <= price, "{pattern}: {exact} > {price}");
            assert!(
                search <= price + 8,
                "{pattern}: search {search} > {price} + 8"
            );
        }
        for k in 1..=8 {
            let pattern = format!("a{}", "{1,2}".repeat(k));
            let (ast, price) = parse_priced(&pattern).expect("within budget");
            assert_eq!(
                compile_exact(&ast).expect("compiles").num_states() as u64,
                price
            );
        }
    }

    #[test]
    fn patterns_past_the_state_budget_are_rejected_where_they_cross_it() {
        use crate::parser::MAX_STATES;
        // Stacked 9 times it prices at 5 112 states; the tenth `{1,2}`,
        // at offset 1 + 9 · 5, would double that past the budget.
        assert!(parse(&format!("a{}", "{1,2}".repeat(9))).is_ok());
        for k in [10, 24] {
            let err = parse(&format!("a{}", "{1,2}".repeat(k))).expect_err("over budget");
            assert_eq!(err.kind, RegexErrorKind::TooManyStates);
            assert_eq!(err.pos, 46, "{err}");
        }
        // One bound alone, the largest bound there is, an alternation and
        // a long literal.
        let err = parse("(ab){0,5000}").expect_err("over budget");
        assert_eq!((err.kind, err.pos), (RegexErrorKind::TooManyStates, 4));
        let err = parse("(ab){4294967295,}").expect_err("over budget");
        assert_eq!((err.kind, err.pos), (RegexErrorKind::TooManyStates, 4));
        let alternatives = vec!["abcdefgh"; 1000].join("|");
        let err = parse(&alternatives).expect_err("over budget");
        assert_eq!(err.kind, RegexErrorKind::TooManyStates);
        assert_eq!(alternatives.as_bytes()[err.pos - 1], b'|');
        let literal = "a".repeat(MAX_STATES as usize);
        let err = parse(&literal).expect_err("over budget");
        assert_eq!(err.kind, RegexErrorKind::TooManyStates);
        // 3 + 2 · 4094 = 8 191 fits; the byte at offset 4 094 does not.
        assert_eq!(err.pos, 4094);
        assert!(parse(&literal[..4094]).is_ok());
        assert!(err.to_string().contains("too many states"), "{err}");
    }

    #[test]
    fn exact_literal() {
        let m = exact("abc");
        assert!(m.contains(b"abc"));
        assert!(!m.contains(b"xabc"));
        assert!(!m.contains(b"abcx"));
    }

    #[test]
    fn exact_quantifiers() {
        let m = exact("a{2,3}b?");
        assert!(m.contains(b"aa"));
        assert!(m.contains(b"aaab"));
        assert!(!m.contains(b"a"));
        assert!(!m.contains(b"aaaa"));
        let unbounded = exact("a{2,}");
        assert!(unbounded.contains(b"aaaaa"));
        assert!(!unbounded.contains(b"a"));
    }

    #[test]
    fn exact_alternation_and_groups() {
        let m = exact("(ab|cd)+");
        assert!(m.contains(b"ab"));
        assert!(m.contains(b"abcdab"));
        assert!(!m.contains(b"abc"));
    }

    #[test]
    fn search_pads_unanchored_sides() {
        // The paper's faulty filter: /[\d]+$/ — missing ^ means anything may
        // precede the digits. This is the bug the running example exploits.
        let faulty = search("[\\d]+$");
        assert!(faulty.contains(b"123"));
        assert!(faulty.contains(b"'; DROP news --9"));
        assert!(!faulty.contains(b"123x"));
        // The corrected filter /^[\d]+$/ accepts digits only.
        let fixed = search("^[\\d]+$");
        assert!(fixed.contains(b"123"));
        assert!(!fixed.contains(b"'; DROP news --9"));
    }

    #[test]
    fn search_unanchored_is_substring_match() {
        let m = search("needle");
        assert!(m.contains(b"needle"));
        assert!(m.contains(b"hay needle stack"));
        assert!(!m.contains(b"needl"));
    }

    #[test]
    fn search_start_anchor_only() {
        let m = search("^ab");
        assert!(m.contains(b"ab"));
        assert!(m.contains(b"abXYZ"));
        assert!(!m.contains(b"Xab"));
    }

    #[test]
    fn misplaced_anchor_is_rejected() {
        let ast = parse("a$b").expect("parses");
        assert!(compile_exact(&ast).is_err());
        assert!(compile_search(&ast).is_err());
        let under_star = parse("(^a)*").expect("parses");
        assert!(compile_search(&under_star).is_err());
    }

    #[test]
    fn edge_anchors_are_redundant_for_exact() {
        let plain = exact("ab");
        let anchored = exact("^ab$");
        for w in [&b"ab"[..], b"a", b"abc", b""] {
            assert_eq!(plain.contains(w), anchored.contains(w));
        }
    }

    #[test]
    fn empty_pattern_search_is_sigma_star() {
        let m = search("");
        assert!(m.contains(b""));
        assert!(m.contains(b"anything"));
    }

    #[test]
    fn dot_excludes_newline() {
        let m = exact(".+");
        assert!(m.contains(b"ab"));
        assert!(!m.contains(b"a\nb"));
    }
}
