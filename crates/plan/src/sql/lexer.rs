//! SQL tokenizer.

use super::SqlError;

/// A token with its byte position (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Keyword (uppercased) or identifier (original case).
    Word(String),
    /// Integer literal.
    Number(i64),
    /// `'...'` string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Prepared-statement placeholder: `?` (positional, `None`) or `$n`
    /// (1-based explicit index, `Some(n)`).
    Param(Option<usize>),
    /// Punctuation / operator.
    Symbol(Sym),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sym {
    LParen,
    RParen,
    Comma,
    Dot,
    Star,
    Slash,
    Plus,
    Minus,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// SQL keywords (matched case-insensitively; everything else is an
/// identifier).
const KEYWORDS: [&str; 33] = [
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "BY",
    "AND",
    "OR",
    "NOT",
    "AS",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "LIKE",
    "IN",
    "BETWEEN",
    "CASE",
    "WHEN",
    "THEN",
    "ELSE",
    "EXPLAIN",
    "ANALYZE",
    "VERIFY",
    "ORDER",
    "LIMIT",
    "OVER",
    "PARTITION",
    "ROWS",
    "PRECEDING",
    "ASC",
    "DESC",
    "ROW_NUMBER",
    "RANK",
];

/// `END` is also a keyword but handled with the CASE machinery.
pub(crate) fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word) || word == "END"
}

pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let pos = i;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let raw = &input[start..i];
            let upper = raw.to_ascii_uppercase();
            out.push(Token {
                kind: TokenKind::Word(if is_keyword(&upper) {
                    upper
                } else {
                    raw.to_string()
                }),
                pos,
            });
        } else if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let value: i64 = input[start..i].parse().map_err(|_| {
                SqlError::at(pos, format!("number out of range: {}", &input[start..i]))
            })?;
            out.push(Token {
                kind: TokenKind::Number(value),
                pos,
            });
        } else if c == '?' {
            i += 1;
            out.push(Token {
                kind: TokenKind::Param(None),
                pos,
            });
        } else if c == '$' {
            let start = i + 1;
            i = start;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            if i == start {
                return Err(SqlError::at(
                    pos,
                    "expected a digit after $ (placeholders are $1, $2, ...)",
                ));
            }
            let n: usize = input[start..i].parse().map_err(|_| {
                let index = &input[start..i];
                SqlError::at(pos, format!("placeholder index out of range: ${index}"))
            })?;
            if n == 0 {
                return Err(SqlError::at(pos, "placeholder indexes start at $1"));
            }
            out.push(Token {
                kind: TokenKind::Param(Some(n)),
                pos,
            });
        } else if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= bytes.len() {
                    return Err(SqlError::at(pos, "unterminated string literal"));
                }
                if bytes[i] == b'\'' {
                    if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(bytes[i] as char);
                i += 1;
            }
            out.push(Token {
                kind: TokenKind::Str(s),
                pos,
            });
        } else {
            let sym = match c {
                '(' => Sym::LParen,
                ')' => Sym::RParen,
                ',' => Sym::Comma,
                '.' => Sym::Dot,
                '*' => Sym::Star,
                '/' => Sym::Slash,
                '+' => Sym::Plus,
                '-' => Sym::Minus,
                '=' => Sym::Eq,
                ';' => {
                    i += 1;
                    continue; // trailing semicolons are allowed and ignored
                }
                '<' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        i += 1;
                        Sym::Le
                    } else if bytes.get(i + 1) == Some(&b'>') {
                        i += 1;
                        Sym::Ne
                    } else {
                        Sym::Lt
                    }
                }
                '>' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        i += 1;
                        Sym::Ge
                    } else {
                        Sym::Gt
                    }
                }
                '!' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        i += 1;
                        Sym::Ne
                    } else {
                        return Err(SqlError::at(pos, "expected != after !"));
                    }
                }
                other => return Err(SqlError::at(pos, format!("unexpected character {other:?}"))),
            };
            i += 1;
            out.push(Token {
                kind: TokenKind::Symbol(sym),
                pos,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn words_numbers_symbols() {
        assert_eq!(
            kinds("select Sum(a) from R where x <= 13"),
            vec![
                TokenKind::Word("SELECT".into()),
                TokenKind::Word("SUM".into()),
                TokenKind::Symbol(Sym::LParen),
                TokenKind::Word("a".into()),
                TokenKind::Symbol(Sym::RParen),
                TokenKind::Word("FROM".into()),
                TokenKind::Word("R".into()),
                TokenKind::Word("WHERE".into()),
                TokenKind::Word("x".into()),
                TokenKind::Symbol(Sym::Le),
                TokenKind::Number(13),
            ]
        );
    }

    #[test]
    fn identifiers_keep_case_keywords_uppercase() {
        assert_eq!(
            kinds("SELECT r_A FROM t"),
            vec![
                TokenKind::Word("SELECT".into()),
                TokenKind::Word("r_A".into()),
                TokenKind::Word("FROM".into()),
                TokenKind::Word("t".into()),
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            kinds("'PROMO%' 'it''s'"),
            vec![
                TokenKind::Str("PROMO%".into()),
                TokenKind::Str("it's".into()),
            ]
        );
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("a <> b != c >= 1 <= 2"),
            vec![
                TokenKind::Word("a".into()),
                TokenKind::Symbol(Sym::Ne),
                TokenKind::Word("b".into()),
                TokenKind::Symbol(Sym::Ne),
                TokenKind::Word("c".into()),
                TokenKind::Symbol(Sym::Ge),
                TokenKind::Number(1),
                TokenKind::Symbol(Sym::Le),
                TokenKind::Number(2),
            ]
        );
    }

    #[test]
    fn errors_carry_positions() {
        let err = tokenize("select #").unwrap_err();
        assert_eq!(err.position, 7);
    }

    #[test]
    fn placeholders() {
        assert_eq!(
            kinds("where x < ? and y = $2"),
            vec![
                TokenKind::Word("WHERE".into()),
                TokenKind::Word("x".into()),
                TokenKind::Symbol(Sym::Lt),
                TokenKind::Param(None),
                TokenKind::Word("AND".into()),
                TokenKind::Word("y".into()),
                TokenKind::Symbol(Sym::Eq),
                TokenKind::Param(Some(2)),
            ]
        );
        assert!(tokenize("$").is_err());
        assert!(tokenize("$x").is_err());
        assert!(tokenize("$0").is_err());
    }

    #[test]
    fn semicolons_ignored() {
        assert_eq!(kinds("a;"), vec![TokenKind::Word("a".into())]);
    }
}
