//! Recursive-descent parser for the textual RPQ syntax.
//!
//! Grammar (whitespace between tokens is ignored):
//!
//! ```text
//! expr    := union
//! union   := concat ('|' concat)*
//! concat  := postfix (('/' | '.') postfix)*
//! postfix := atom suffix*
//! suffix  := '*' | '+' | '?' | '{' INT (',' INT?)? '}'
//! atom    := '(' expr? ')'            ; "()" is ε
//!          | '^' IDENT                ; backwards step  ^knows
//!          | IDENT '-'?               ; forwards step, "-" suffix = backwards
//! IDENT   := [A-Za-z_][A-Za-z0-9_]*
//! ```

use crate::ast::{Expr, ParsedExpr};
use crate::error::ParseError;

/// Parses the textual RPQ syntax into a [`ParsedExpr`].
pub fn parse(input: &str) -> Result<ParsedExpr, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if p.at_end() {
        return Err(p.error("empty query"));
    }
    let expr = p.parse_union()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error(format!(
            "unexpected trailing input starting with `{}`",
            p.peek_char().unwrap_or(' ')
        )));
    }
    Ok(expr)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_char(&self) -> Option<char> {
        self.peek().map(char::from)
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> bool {
        if self.peek() == Some(expected) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_union(&mut self) -> Result<ParsedExpr, ParseError> {
        let first = self.parse_concat()?;
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(b'|') {
                parts.push(self.parse_concat()?);
            } else {
                break;
            }
        }
        Ok(if parts.is_empty() {
            first
        } else {
            parts.insert(0, first);
            Expr::Union(parts)
        })
    }

    fn parse_concat(&mut self) -> Result<ParsedExpr, ParseError> {
        let first = self.parse_postfix()?;
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            if self.eat(b'/') || self.eat(b'.') {
                parts.push(self.parse_postfix()?);
            } else {
                break;
            }
        }
        Ok(if parts.is_empty() {
            first
        } else {
            parts.insert(0, first);
            Expr::Concat(parts)
        })
    }

    fn parse_postfix(&mut self) -> Result<ParsedExpr, ParseError> {
        let mut expr = self.parse_atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'*') => {
                    self.bump();
                    expr = Expr::Repeat {
                        inner: Box::new(expr),
                        min: 0,
                        max: None,
                    };
                }
                Some(b'+') => {
                    self.bump();
                    expr = Expr::Repeat {
                        inner: Box::new(expr),
                        min: 1,
                        max: None,
                    };
                }
                Some(b'?') => {
                    self.bump();
                    expr = Expr::Repeat {
                        inner: Box::new(expr),
                        min: 0,
                        max: Some(1),
                    };
                }
                Some(b'{') => {
                    self.bump();
                    let (min, max) = self.parse_bounds()?;
                    expr = Expr::Repeat {
                        inner: Box::new(expr),
                        min,
                        max,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_bounds(&mut self) -> Result<(u32, Option<u32>), ParseError> {
        self.skip_ws();
        let min = self.parse_int()?;
        self.skip_ws();
        let max = if self.eat(b',') {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                None
            } else {
                Some(self.parse_int()?)
            }
        } else {
            Some(min)
        };
        self.skip_ws();
        if !self.eat(b'}') {
            return Err(self.error("expected `}` to close repetition bounds"));
        }
        Ok((min, max))
    }

    fn parse_int(&mut self) -> Result<u32, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        self.bytes[start..self.pos]
            .iter()
            .try_fold(0u32, |value, &digit| {
                value.checked_mul(10)?.checked_add(u32::from(digit - b'0'))
            })
            .ok_or_else(|| self.error("repetition bound is too large"))
    }

    fn parse_atom(&mut self) -> Result<ParsedExpr, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.bump();
                self.skip_ws();
                if self.eat(b')') {
                    return Ok(Expr::Epsilon);
                }
                let inner = self.parse_union()?;
                self.skip_ws();
                if !self.eat(b')') {
                    return Err(self.error("expected `)`"));
                }
                Ok(inner)
            }
            Some(b'^') => {
                self.bump();
                self.skip_ws();
                let label = self.parse_ident()?;
                Ok(Expr::Step {
                    label,
                    backward: true,
                })
            }
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                let label = self.parse_ident()?;
                let backward = self.eat(b'-');
                Ok(Expr::Step { label, backward })
            }
            Some(other) => Err(self.error(format!("unexpected character `{}`", char::from(other)))),
            None => Err(self.error("unexpected end of query")),
        }
    }

    fn parse_ident(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => {
                self.pos += 1;
            }
            _ => return Err(self.error("expected an edge label")),
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_') {
            self.pos += 1;
        }
        // Identifier bytes are ASCII, so each is one `char`.
        Ok(self.bytes[start..self.pos]
            .iter()
            .map(|&b| char::from(b))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(label: &str) -> ParsedExpr {
        Expr::Step {
            label: label.to_owned(),
            backward: false,
        }
    }

    fn back(label: &str) -> ParsedExpr {
        Expr::Step {
            label: label.to_owned(),
            backward: true,
        }
    }

    #[test]
    fn single_label() {
        assert_eq!(parse("knows").unwrap(), step("knows"));
        assert_eq!(parse("  knows  ").unwrap(), step("knows"));
    }

    #[test]
    fn backward_labels_both_syntaxes() {
        assert_eq!(parse("worksFor-").unwrap(), back("worksFor"));
        assert_eq!(parse("^worksFor").unwrap(), back("worksFor"));
    }

    #[test]
    fn concatenation_with_slash_and_dot() {
        let expected = Expr::Concat(vec![step("a"), step("b"), step("c")]);
        assert_eq!(parse("a/b/c").unwrap(), expected);
        assert_eq!(parse("a.b.c").unwrap(), expected);
        assert_eq!(parse("a / b . c").unwrap(), expected);
    }

    #[test]
    fn union_binds_looser_than_concat() {
        let expected = Expr::Union(vec![Expr::Concat(vec![step("a"), step("b")]), step("c")]);
        assert_eq!(parse("a/b|c").unwrap(), expected);
    }

    #[test]
    fn parentheses_group() {
        let expected = Expr::Concat(vec![step("a"), Expr::Union(vec![step("b"), step("c")])]);
        assert_eq!(parse("a/(b|c)").unwrap(), expected);
    }

    #[test]
    fn epsilon_is_empty_parens() {
        assert_eq!(parse("()").unwrap(), Expr::Epsilon);
        assert_eq!(
            parse("a|()").unwrap(),
            Expr::Union(vec![step("a"), Expr::Epsilon])
        );
    }

    #[test]
    fn bounded_repetition_forms() {
        assert_eq!(
            parse("a{2,4}").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 2,
                max: Some(4),
            }
        );
        assert_eq!(
            parse("a{3}").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 3,
                max: Some(3),
            }
        );
        assert_eq!(
            parse("a{2,}").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 2,
                max: None,
            }
        );
    }

    #[test]
    fn kleene_sugar() {
        assert_eq!(
            parse("a*").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 0,
                max: None,
            }
        );
        assert_eq!(
            parse("a+").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 1,
                max: None,
            }
        );
        assert_eq!(
            parse("a?").unwrap(),
            Expr::Repeat {
                inner: Box::new(step("a")),
                min: 0,
                max: Some(1),
            }
        );
    }

    #[test]
    fn repetition_applies_to_group() {
        let expected = Expr::Repeat {
            inner: Box::new(Expr::Concat(vec![step("knows"), step("worksFor")])),
            min: 2,
            max: Some(4),
        };
        assert_eq!(parse("(knows/worksFor){2,4}").unwrap(), expected);
    }

    #[test]
    fn paper_example_query_parses() {
        // R = k ∘ (k ∘ w)^{2,4} ∘ w from Section 4 of the paper.
        let q = parse("knows/(knows/worksFor){2,4}/worksFor").unwrap();
        match q {
            Expr::Concat(parts) => {
                assert_eq!(parts.len(), 3);
                assert!(matches!(
                    parts[1],
                    Expr::Repeat {
                        min: 2,
                        max: Some(4),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nested_repetition() {
        let q = parse("(a{1,2}/b){2}").unwrap();
        assert!(q.has_recursion());
        assert_eq!(q.size(), 5);
    }

    #[test]
    fn error_cases_report_position() {
        for bad in [
            "", "   ", "a/", "a|", "(a", "a)", "a{2", "a{}", "a{,3}", "/a", "a b", "123", "a--",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.position <= bad.len(),
                "position out of range for {bad:?}"
            );
        }
    }

    #[test]
    fn underscores_and_digits_in_labels() {
        assert_eq!(parse("works_for2").unwrap(), step("works_for2"));
    }
}
