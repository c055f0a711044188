//! SQL lexer for the Sia subset.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (identifiers keep their original case; keywords
    /// are recognized case-insensitively by the parser). May be qualified
    /// (`t.c`).
    Ident(String),
    /// Integer literal: its magnitude, at most 2⁶³ (`-9223372036854775808`
    /// is `i64::MIN`); a sign is a [`Token::Minus`] of its own.
    Int(u64),
    /// Floating-point literal.
    Double(f64),
    /// Single-quoted string literal (quotes stripped).
    Str(String),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => f.write_str(s),
            Token::Int(v) => write!(f, "{v}"),
            Token::Double(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Star => f.write_str("*"),
            Token::Slash => f.write_str("/"),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Comma => f.write_str(","),
            Token::Semi => f.write_str(";"),
            Token::Lt => f.write_str("<"),
            Token::Le => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::Ge => f.write_str(">="),
            Token::Eq => f.write_str("="),
            Token::Ne => f.write_str("<>"),
        }
    }
}

/// Tokenize a SQL string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '+' => {
                out.push(Token::Plus);
                i += 1;
            }
            '-' => {
                out.push(Token::Minus);
                i += 1;
            }
            '*' => {
                out.push(Token::Star);
                i += 1;
            }
            '/' => {
                out.push(Token::Slash);
                i += 1;
            }
            '(' => {
                out.push(Token::LParen);
                i += 1;
            }
            ')' => {
                out.push(Token::RParen);
                i += 1;
            }
            ',' => {
                out.push(Token::Comma);
                i += 1;
            }
            ';' => {
                out.push(Token::Semi);
                i += 1;
            }
            '=' => {
                out.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Le);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    out.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ge);
                    i += 2;
                } else {
                    out.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(format!("unexpected character '!' at byte {i}"));
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err("unterminated string literal".to_string());
                }
                out.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                let is_float = i + 1 < bytes.len()
                    && bytes[i] == b'.'
                    && (bytes[i + 1] as char).is_ascii_digit();
                if is_float {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                    let text = &input[start..i];
                    let v: f64 = text
                        .parse()
                        .map_err(|_| format!("invalid numeric literal {text:?}"))?;
                    out.push(Token::Double(v));
                } else {
                    let text = &input[start..i];
                    let v = text
                        .parse()
                        .ok()
                        .filter(|&v| v <= i64::MIN.unsigned_abs())
                        .ok_or_else(|| format!("integer literal out of range: {text:?}"))?;
                    out.push(Token::Int(v));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' || ch == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(input[start..i].to_string()));
            }
            other => return Err(format!("unexpected character {other:?} at byte {i}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_tokens() {
        let toks = tokenize("SELECT * FROM t WHERE a <= 10 AND b <> 2.5;").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("SELECT".into()),
                Token::Star,
                Token::Ident("FROM".into()),
                Token::Ident("t".into()),
                Token::Ident("WHERE".into()),
                Token::Ident("a".into()),
                Token::Le,
                Token::Int(10),
                Token::Ident("AND".into()),
                Token::Ident("b".into()),
                Token::Ne,
                Token::Double(2.5),
                Token::Semi,
            ]
        );
    }

    #[test]
    fn qualified_identifiers() {
        let toks = tokenize("lineitem.l_shipdate").unwrap();
        assert_eq!(toks, vec![Token::Ident("lineitem.l_shipdate".into())]);
    }

    #[test]
    fn string_literals_and_comments() {
        let toks = tokenize("a < '1993-06-01' -- trailing comment\n AND b != 1").unwrap();
        assert_eq!(toks[2], Token::Str("1993-06-01".into()));
        assert_eq!(toks[4], Token::Ident("b".into()));
        assert_eq!(toks[5], Token::Ne);
    }

    #[test]
    fn operators() {
        let toks = tokenize("< <= > >= = <> != + - * /").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
            ]
        );
    }

    #[test]
    fn errors() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a ? b").is_err());
        assert!(tokenize("99999999999999999999").is_err());
        assert!(tokenize("9223372036854775809").is_err());
        // i64::MIN's magnitude; the parser accepts it only negated.
        assert_eq!(
            tokenize("9223372036854775808").unwrap(),
            vec![Token::Int(1 << 63)]
        );
    }

    #[test]
    fn negative_number_is_minus_then_int() {
        let toks = tokenize("-5").unwrap();
        assert_eq!(toks, vec![Token::Minus, Token::Int(5)]);
    }

    #[test]
    fn token_display_roundtrip() {
        let src = "SELECT * FROM t WHERE a <= 10";
        let toks = tokenize(src).unwrap();
        let rendered: Vec<String> = toks.iter().map(|t| t.to_string()).collect();
        assert_eq!(rendered.join(" "), src);
    }
}
