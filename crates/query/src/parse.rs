//! Datalog-style concrete syntax for conjunctive queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query  := atom ':-' item (',' item)*
//! item   := atom | comparison
//! atom   := name '(' term (',' term)* ')' | name '(' ')'
//! term   := VARIABLE | constant
//! comparison := term op term        op ∈ { =, !=, <, <=, >, >= }
//! ```
//!
//! A variable starts with an uppercase letter or `_`; anything else is a
//! constant (`42`, `4.5`, `true`, `'quoted string'`, `bareword`). Relation
//! names may be dotted (`Berkeley.course`), which is how the PDMS qualifies
//! relations with their peer.

use crate::ast::{Atom, CmpOp, Comparison, ConjunctiveQuery, Term};
use revere_storage::Value;

/// Error produced by [`parse_query`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { message: message.into() })
}

/// Parse a conjunctive query such as
/// `q(X, T) :- Berkeley.course(X, T, S), S > 100, T != 'staff'`.
pub fn parse_query(src: &str) -> Result<ConjunctiveQuery, ParseError> {
    let Some((head_src, body_src)) = src.split_once(":-") else {
        return err(format!("missing ':-' in {src:?}"));
    };
    let head = parse_atom(head_src.trim())?;
    let mut body = Vec::new();
    let mut comparisons = Vec::new();
    for item in split_top_level(body_src) {
        let item = item.trim();
        if item.is_empty() {
            return err("empty body item");
        }
        // An atom contains '(' before any comparison operator.
        let paren = item.find('(');
        let op_pos = find_cmp_op(item);
        match (paren, op_pos) {
            (Some(p), Some((o, _, _))) if p < o => body.push(parse_atom(item)?),
            (Some(_), None) => body.push(parse_atom(item)?),
            (_, Some((pos, op, oplen))) => {
                let left = parse_term(item[..pos].trim())?;
                let right = parse_term(item[pos + oplen..].trim())?;
                comparisons.push(Comparison { left, op, right });
            }
            _ => return err(format!("cannot parse body item {item:?}")),
        }
    }
    if body.is_empty() {
        return err("query body has no relational atom");
    }
    let q = ConjunctiveQuery { head, body, comparisons };
    if !q.is_safe() {
        return err(format!("unsafe query (head/comparison variable not bound in body): {q}"));
    }
    Ok(q)
}

/// Split on commas that are not inside parentheses or quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut in_quote = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '\'' => in_quote = !in_quote,
            '(' if !in_quote => depth += 1,
            ')' if !in_quote => depth = depth.saturating_sub(1),
            ',' if !in_quote && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Locate the first comparison operator outside quotes. Returns
/// `(byte_pos, op, op_len)`.
fn find_cmp_op(s: &str) -> Option<(usize, CmpOp, usize)> {
    let bytes = s.as_bytes();
    let mut in_quote = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\'' {
            in_quote = !in_quote;
            i += 1;
            continue;
        }
        if in_quote {
            i += 1;
            continue;
        }
        // Match on bytes: a `&str` slice at `i + 2` can split a
        // multi-byte character.
        match bytes.get(i..i + 2) {
            Some(b"!=") => return Some((i, CmpOp::Ne, 2)),
            Some(b"<=") => return Some((i, CmpOp::Le, 2)),
            Some(b">=") => return Some((i, CmpOp::Ge, 2)),
            _ => {}
        }
        match c {
            b'=' => return Some((i, CmpOp::Eq, 1)),
            b'<' => return Some((i, CmpOp::Lt, 1)),
            b'>' => return Some((i, CmpOp::Gt, 1)),
            _ => {}
        }
        i += 1;
    }
    None
}

fn parse_atom(src: &str) -> Result<Atom, ParseError> {
    let Some(open) = src.find('(') else {
        return err(format!("atom {src:?} missing '('"));
    };
    if !src.ends_with(')') {
        return err(format!("atom {src:?} missing ')'"));
    }
    let name = src[..open].trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | '-'))
    {
        return err(format!("bad relation name {name:?}"));
    }
    let inner = &src[open + 1..src.len() - 1];
    let mut terms = Vec::new();
    if !inner.trim().is_empty() {
        for t in split_top_level(inner) {
            terms.push(parse_term(t.trim())?);
        }
    }
    Ok(Atom::new(name, terms))
}

fn parse_term(src: &str) -> Result<Term, ParseError> {
    if src.is_empty() {
        return err("empty term");
    }
    let first = src.chars().next().expect("non-empty");
    if (first.is_uppercase() || first == '_')
        && src.chars().all(|c| c.is_alphanumeric() || c == '_')
    {
        return Ok(Term::Var(src.to_string()));
    }
    Ok(Term::Const(Value::parse(src)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_query() {
        let q = parse_query("q(X, Y) :- r(X, Z), s(Z, Y)").unwrap();
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.head_vars(), vec!["X", "Y"]);
    }

    #[test]
    fn parses_constants_and_comparisons() {
        let q = parse_query("q(X) :- course(X, T, S), T = 'ancient history', S >= 10").unwrap();
        assert_eq!(q.comparisons.len(), 2);
        assert_eq!(
            q.comparisons[0].right,
            Term::Const(Value::str("ancient history"))
        );
        assert_eq!(q.comparisons[1].op, CmpOp::Ge);
    }

    #[test]
    fn quoted_commas_do_not_split() {
        let q = parse_query("q(X) :- r(X, 'a, b')").unwrap();
        assert_eq!(q.body[0].terms.len(), 2);
    }

    #[test]
    fn dotted_relation_names() {
        let q = parse_query("q(X) :- Berkeley.course(X, T)").unwrap();
        assert_eq!(q.body[0].relation, "Berkeley.course");
    }

    #[test]
    fn constants_in_atom_positions() {
        let q = parse_query("q(X) :- r(X, 42, 'lit', bare)").unwrap();
        assert_eq!(q.body[0].terms[1], Term::Const(Value::Int(42)));
        assert_eq!(q.body[0].terms[3], Term::Const(Value::str("bare")));
    }

    #[test]
    fn underscore_and_uppercase_are_vars() {
        let q = parse_query("q(X) :- r(X, _ignore, Title2)").unwrap();
        assert_eq!(q.body[0].vars().len(), 3);
    }

    #[test]
    fn rejects_unsafe() {
        assert!(parse_query("q(Z) :- r(X)").is_err());
        assert!(parse_query("q(X) :- r(X), Y > 3").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("no arrow here").is_err());
        assert!(parse_query("q(X) :- ").is_err());
        assert!(parse_query("q(X) :- r(X,)").is_err());
        assert!(parse_query("q(X :- r(X)").is_err());
    }

    #[test]
    fn non_ascii_input_never_panics() {
        for src in ["q(X) :- ér(X)", "q(X) :- r😀(X)", "q(X) :- r(X) é"] {
            let _ = parse_query(src);
        }
        let _ = crate::glav::GlavMapping::parse(
            "m",
            "B",
            "M",
            "m(T) :- B.cé(T) ==> m(T) :- M.o(T)",
        );
    }

    #[test]
    fn nullary_atoms() {
        let q = parse_query("q() :- fact()").unwrap();
        assert!(q.head.terms.is_empty());
    }
}
