//! Line lexer for the fdb language.
//!
//! Every token carries its byte-offset [`Span`] within the line, so
//! parse errors and `fdb-check` diagnostics can point at `line:col`
//! instead of just naming the line. Tokens borrow their text from the
//! line; only a string literal with a `\` escape owns its unescaped text.

use std::borrow::Cow;

use fdb_types::{FdbError, Result, Span};

/// One lexical token, borrowing its text from the lexed line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier or keyword (`teach`, `INSERT`, `many-many`, `85`).
    Ident(&'a str),
    /// Double-quoted string literal (quotes stripped, `\"` unescaped).
    Str(Cow<'a, str>),
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `;`.
    Semi,
    /// `:`.
    Colon,
    /// `->`.
    Arrow,
    /// `=`.
    Equals,
    /// `^-1`.
    Inverse,
}

/// A token plus the byte range it occupies in the source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok<'a> {
    /// The token.
    pub token: Token<'a>,
    /// Its byte span within the lexed line.
    pub span: Span,
}

/// An upper bound on the number of tokens in `line`, so the token vector
/// is allocated once. Call a byte a *break* unless it is an ASCII
/// alphanumeric, `_`, `#` or `.`. Tokens are disjoint, so at most one per
/// break byte contains a break; a token without one is an identifier that
/// runs to the end of its maximal run of non-break bytes, so there is at
/// most one per run, and there are at most `breaks + 1` runs.
fn max_tokens(line: &str) -> usize {
    let breaks = line
        .bytes()
        .filter(|b| !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'#' | b'.')))
        .count();
    2 * breaks + 1
}

/// Lexes one statement line. Comments (`--` to end of line) are dropped.
pub fn lex(line: &str, line_no: u32) -> Result<Vec<Tok<'_>>> {
    let mut out = Vec::with_capacity(max_tokens(line));
    let mut chars = line.char_indices().peekable();
    let mut push = |token, start: usize, end: usize| {
        out.push(Tok {
            token,
            span: Span::new(line_no, start as u32, end as u32),
        });
    };
    while let Some(&(i, c)) = chars.peek() {
        match c {
            '-' if line[i..].starts_with("--") => break, // comment
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                push(Token::LParen, i, i + 1);
            }
            ')' => {
                chars.next();
                push(Token::RParen, i, i + 1);
            }
            '[' => {
                chars.next();
                push(Token::LBracket, i, i + 1);
            }
            ']' => {
                chars.next();
                push(Token::RBracket, i, i + 1);
            }
            ',' => {
                chars.next();
                push(Token::Comma, i, i + 1);
            }
            ';' => {
                chars.next();
                push(Token::Semi, i, i + 1);
            }
            ':' => {
                chars.next();
                push(Token::Colon, i, i + 1);
            }
            '=' => {
                chars.next();
                push(Token::Equals, i, i + 1);
            }
            '^' => {
                if line[i..].starts_with("^-1") {
                    chars.next();
                    chars.next();
                    chars.next();
                    push(Token::Inverse, i, i + 3);
                } else {
                    return Err(FdbError::Parse {
                        line: line_no,
                        message: format!("col {}: expected `^-1`", i + 1),
                    });
                }
            }
            '-' if line[i..].starts_with("->") => {
                chars.next();
                chars.next();
                push(Token::Arrow, i, i + 2);
            }
            '"' => {
                chars.next();
                // The literal borrows the line up to its first escape;
                // from there on it owns its unescaped text.
                let body = i + 1;
                let mut owned: Option<String> = None;
                let mut closed = false;
                let mut end = body;
                while let Some((j, c)) = chars.next() {
                    end = j + c.len_utf8();
                    match c {
                        '"' => {
                            closed = true;
                            break;
                        }
                        '\\' => {
                            let s = owned.get_or_insert_with(|| line[body..j].to_owned());
                            if let Some((k, e)) = chars.next() {
                                end = k + e.len_utf8();
                                s.push(e);
                            }
                        }
                        c => {
                            if let Some(s) = &mut owned {
                                s.push(c);
                            }
                        }
                    }
                }
                if !closed {
                    return Err(FdbError::Parse {
                        line: line_no,
                        message: format!("col {}: unterminated string literal", i + 1),
                    });
                }
                let text = match owned {
                    Some(s) => Cow::Owned(s),
                    None => Cow::Borrowed(&line[body..end - 1]),
                };
                push(Token::Str(text), i, end);
            }
            c if c.is_alphanumeric() || c == '_' || c == '#' || c == '.' || c == '-' => {
                // Identifiers may contain `-` (functionality names like
                // many-one) but `-` only continues an ident, it cannot
                // start one unless followed by an alphanumeric (handled by
                // the `->` case above firing first).
                let start = i;
                let mut end = i;
                while let Some(&(j, d)) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '#' || d == '.' || d == '-' {
                        // Stop identifiers before `->`.
                        if d == '-' && line[j..].starts_with("->") {
                            break;
                        }
                        if d == '-' && line[j..].starts_with("--") {
                            break;
                        }
                        end = j + d.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                push(Token::Ident(&line[start..end]), start, end);
            }
            other => {
                return Err(FdbError::Parse {
                    line: line_no,
                    message: format!("col {}: unexpected character {other:?}", i + 1),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::Token::*;
    use super::*;

    fn tokens(line: &str) -> Vec<Token<'_>> {
        lex(line, 1).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_declare_statement() {
        let toks = tokens("DECLARE grade: [student; course] -> letter_grade (many-one)");
        assert_eq!(
            toks,
            vec![
                Ident("DECLARE"),
                Ident("grade"),
                Colon,
                LBracket,
                Ident("student"),
                Semi,
                Ident("course"),
                RBracket,
                Arrow,
                Ident("letter_grade"),
                LParen,
                Ident("many-one"),
                RParen,
            ]
        );
    }

    #[test]
    fn lexes_inverse_and_composition() {
        let toks = tokens("DERIVE lecturer_of = class_list^-1 o teach^-1");
        assert_eq!(
            toks,
            vec![
                Ident("DERIVE"),
                Ident("lecturer_of"),
                Equals,
                Ident("class_list"),
                Inverse,
                Ident("o"),
                Ident("teach"),
                Inverse,
            ]
        );
    }

    #[test]
    fn comments_are_dropped() {
        assert_eq!(tokens("STATS -- how bad is it?"), vec![Ident("STATS")]);
        assert!(lex("-- whole line comment", 1).unwrap().is_empty());
    }

    #[test]
    fn string_literals() {
        let toks = tokens(r#"INSERT teach("Dr. Euclid", math)"#);
        assert_eq!(toks[2], LParen);
        assert_eq!(toks[3], Str("Dr. Euclid".into()));
        // Without an escape the literal borrows the line…
        assert!(matches!(&toks[3], Str(Cow::Borrowed(_))));
        // …and with one it owns its unescaped text.
        let toks = lex(r#"INSERT teach("say \"hi\"", "a\\b")"#, 1).unwrap();
        assert_eq!(toks[3].token, Str(r#"say "hi""#.into()));
        assert!(matches!(&toks[3].token, Str(Cow::Owned(_))));
        assert_eq!(toks[3].span, Span::new(1, 13, 25));
        assert_eq!(toks[5].token, Str(r"a\b".into()));
        assert!(matches!(
            lex(r#"INSERT teach("oops, math)"#, 3),
            Err(FdbError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn numeric_atoms_lex_as_idents() {
        let toks = tokens("INSERT cutoff(85, A)");
        assert_eq!(toks[3], Ident("85"));
    }

    #[test]
    fn unexpected_character_errors() {
        let err = lex("QUERY f(x) @", 2).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"), "got: {text}");
        assert!(text.contains("col 12"), "got: {text}");
    }

    #[test]
    fn spans_are_byte_offsets() {
        let toks = lex("INSERT teach(euclid, math)", 4).unwrap();
        // INSERT occupies [0, 6), teach [7, 12), euclid [13, 19).
        assert_eq!(toks[0].span, Span::new(4, 0, 6));
        assert_eq!(toks[1].span, Span::new(4, 7, 12));
        assert_eq!(toks[3].span, Span::new(4, 13, 19));
        // Columns are 1-based.
        assert_eq!(toks[1].span.col(), 8);
        // A string literal's span covers the quotes.
        let toks = lex(r#"SAVE "a b.json""#, 1).unwrap();
        assert_eq!(toks[1].span, Span::new(1, 5, 15));
    }

    #[test]
    fn multibyte_identifiers_span_correctly() {
        let toks = lex("QUERY später(x)", 1).unwrap();
        assert_eq!(toks[1].token, Ident("später"));
        // "später" is 7 bytes (ä is 2), starting at byte 6.
        assert_eq!(toks[1].span, Span::new(1, 6, 13));
    }
}
