//! Recursive-descent parser for the Sia SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query   := SELECT (* | ident (, ident)*) FROM ident (, ident)* [WHERE pred] [;]
//! pred    := and_p (OR and_p)*
//! and_p   := not_p (AND not_p)*
//! not_p   := NOT not_p | ( pred ) | expr CP expr | TRUE | FALSE
//! expr    := term ((+|-) term)*
//! term    := factor ((*|/) factor)*
//! factor  := ( expr ) | - factor | ident | int | double
//!          | 'date-string' | DATE 'date-string' | INTERVAL 'n' DAY
//! CP      := < | <= | > | >= | = | <> | !=
//! ```
//!
//! The one ambiguity — `(` starting either a parenthesized predicate or a
//! parenthesized arithmetic operand — is resolved by backtracking: we try
//! the predicate reading first and fall back to the comparison reading.

use crate::ast::{Query, SelectList};
use crate::token::{tokenize, Token};
use sia_expr::{CmpOp, Date, Expr, Pred};

/// Parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Parser {
            tokens: tokenize(input).map_err(ParseError)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError(format!(
                "expected {kw}, found {}",
                self.describe_next()
            )))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError(format!(
                "expected {t}, found {}",
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            Some(t) => format!("{t}"),
            None => "end of input".to_string(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError(format!(
                "expected identifier, found {}",
                other.map_or("end of input".to_string(), |t| t.to_string())
            ))),
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let select = if self.eat(&Token::Star) {
            SelectList::Star
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            SelectList::Columns(cols)
        };
        self.expect_keyword("FROM")?;
        let mut tables = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            tables.push(self.ident()?);
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.pred()?)
        } else {
            None
        };
        self.eat(&Token::Semi);
        if let Some(t) = self.peek() {
            return Err(ParseError(format!("unexpected trailing token {t}")));
        }
        Ok(Query {
            select,
            tables,
            predicate,
        })
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        let mut acc = self.and_pred()?;
        while self.eat_keyword("OR") {
            acc = acc.or(self.and_pred()?);
        }
        Ok(acc)
    }

    fn and_pred(&mut self) -> Result<Pred, ParseError> {
        let mut acc = self.not_pred()?;
        while self.eat_keyword("AND") {
            acc = acc.and(self.not_pred()?);
        }
        Ok(acc)
    }

    fn not_pred(&mut self) -> Result<Pred, ParseError> {
        if self.eat_keyword("NOT") {
            return Ok(self.not_pred()?.not());
        }
        if self.eat_keyword("TRUE") {
            return Ok(Pred::true_());
        }
        if self.eat_keyword("FALSE") {
            return Ok(Pred::false_());
        }
        if self.peek() == Some(&Token::LParen) {
            // Could be "(pred)" or "(expr) CP expr": try the predicate
            // reading, but only commit if no comparison/arith operator
            // follows the closing paren.
            let save = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.pred() {
                if self.eat(&Token::RParen) && !self.next_starts_binary_tail() {
                    return Ok(inner);
                }
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        let op = self.cmp_op()?;
        let rhs = self.expr()?;
        Ok(lhs.cmp(op, rhs))
    }

    /// True if the next token would extend a parenthesized expression
    /// (i.e. the paren we just closed was an arithmetic operand).
    fn next_starts_binary_tail(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Token::Plus
                    | Token::Minus
                    | Token::Star
                    | Token::Slash
                    | Token::Lt
                    | Token::Le
                    | Token::Gt
                    | Token::Ge
                    | Token::Eq
                    | Token::Ne
            )
        )
    }

    fn cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let op = match self.peek() {
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            _ => {
                return Err(ParseError(format!(
                    "expected comparison operator, found {}",
                    self.describe_next()
                )))
            }
        };
        self.pos += 1;
        Ok(op)
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.term()?;
        loop {
            if self.eat(&Token::Plus) {
                acc = acc.add(self.term()?);
            } else if self.eat(&Token::Minus) {
                acc = acc.sub(self.term()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.factor()?;
        loop {
            if self.eat(&Token::Star) {
                acc = acc.mul(self.factor()?);
            } else if self.eat(&Token::Slash) {
                acc = acc.div(self.factor()?);
            } else {
                return Ok(acc);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::LParen) {
            let e = self.expr()?;
            self.expect(&Token::RParen)?;
            return Ok(e);
        }
        if self.eat(&Token::Minus) {
            // A negated literal may have i64::MIN's magnitude, 2⁶³.
            if let Some(&Token::Int(m)) = self.peek() {
                self.pos += 1;
                return 0i64
                    .checked_sub_unsigned(m)
                    .map(Expr::Int)
                    .ok_or_else(|| out_of_range(m));
            }
            return Ok(match self.factor()? {
                Expr::Int(v) => Expr::Int(v.checked_neg().ok_or_else(|| out_of_range(v))?),
                Expr::Double(v) => Expr::Double(-v),
                other => Expr::int(0).sub(other),
            });
        }
        match self.next() {
            Some(Token::Int(m)) => Ok(Expr::Int(int_literal(m)?)),
            Some(Token::Double(v)) => Ok(Expr::Double(v)),
            Some(Token::Str(s)) => {
                // A bare string literal must be a date (the only string-typed
                // constant the Sia predicate language admits).
                let d = Date::parse(&s).map_err(ParseError)?;
                Ok(Expr::Date(d))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("DATE") => match self.next() {
                Some(Token::Str(lit)) => Ok(Expr::Date(Date::parse(&lit).map_err(ParseError)?)),
                other => Err(ParseError(format!(
                    "expected date string after DATE, found {}",
                    other.map_or("end of input".into(), |t| t.to_string())
                ))),
            },
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("INTERVAL") => {
                let days: i64 = match self.next() {
                    Some(Token::Str(lit)) => lit
                        .trim()
                        .parse()
                        .map_err(|_| ParseError(format!("invalid interval {lit:?}")))?,
                    Some(Token::Int(m)) => int_literal(m)?,
                    other => {
                        return Err(ParseError(format!(
                            "expected interval value, found {}",
                            other.map_or("end of input".into(), |t| t.to_string())
                        )))
                    }
                };
                self.expect_keyword("DAY")?;
                Ok(Expr::Int(days))
            }
            Some(Token::Ident(s)) => Ok(Expr::Column(s)),
            other => Err(ParseError(format!(
                "expected expression, found {}",
                other.map_or("end of input".into(), |t| t.to_string())
            ))),
        }
    }
}

fn out_of_range(v: impl std::fmt::Display) -> ParseError {
    ParseError(format!("integer literal out of range: \"{v}\""))
}

/// An unsigned literal's value: its magnitude must fit an `i64`.
fn int_literal(m: u64) -> Result<i64, ParseError> {
    i64::try_from(m).map_err(|_| out_of_range(m))
}

/// Parse a full query.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    Parser::new(input)?.query()
}

/// Parse a standalone predicate (the payload of a WHERE clause).
pub fn parse_predicate(input: &str) -> Result<Pred, ParseError> {
    let mut p = Parser::new(input)?;
    let pred = p.pred()?;
    if let Some(t) = p.peek() {
        return Err(ParseError(format!("unexpected trailing token {t}")));
    }
    Ok(pred)
}

/// Parse a standalone arithmetic expression.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(ParseError(format!("unexpected trailing token {t}")));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_query() {
        let q =
            parse_query("SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey;").unwrap();
        assert_eq!(q.tables, vec!["lineitem", "orders"]);
        assert_eq!(q.select, SelectList::Star);
        assert_eq!(q.predicate.unwrap().to_string(), "o_orderkey = l_orderkey");
    }

    #[test]
    fn parse_column_list() {
        let q = parse_query("select a, b from t").unwrap();
        assert_eq!(q.select, SelectList::Columns(vec!["a".into(), "b".into()]));
        assert!(q.predicate.is_none());
    }

    #[test]
    fn parse_motivating_query() {
        let q = parse_query(
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey \
             AND l_shipdate - o_orderdate < 20 AND o_orderdate < '1993-06-01' \
             AND l_commitdate - l_shipdate < l_shipdate - o_orderdate + 10",
        )
        .unwrap();
        let p = q.predicate.unwrap();
        assert_eq!(p.conjuncts().len(), 4);
        assert!(p.columns().contains(&"l_commitdate".to_string()));
    }

    #[test]
    fn precedence_arith_over_cmp_over_and_over_or() {
        let p = parse_predicate("a + 2 * b < 10 AND c > 1 OR d = 2").unwrap();
        assert_eq!(p.to_string(), "a + 2 * b < 10 AND c > 1 OR d = 2");
        match &p {
            Pred::Or(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected Or at top, got {other}"),
        }
    }

    #[test]
    fn parenthesized_predicates() {
        let p = parse_predicate("(a < 1 OR b < 2) AND c < 3").unwrap();
        assert_eq!(p.to_string(), "(a < 1 OR b < 2) AND c < 3");
    }

    #[test]
    fn parenthesized_expression_lhs() {
        let p = parse_predicate("(a + 1) > 2").unwrap();
        assert_eq!(p.to_string(), "a + 1 > 2");
        let p2 = parse_predicate("(a) * 2 < b").unwrap();
        assert_eq!(p2.to_string(), "a * 2 < b");
        // nested: paren-pred containing paren-expr
        let p3 = parse_predicate("((a + 1) > 2 AND b < 1) OR c = 0").unwrap();
        assert_eq!(p3.to_string(), "a + 1 > 2 AND b < 1 OR c = 0");
    }

    #[test]
    fn not_and_literals() {
        let p = parse_predicate("NOT (a < 1) AND TRUE").unwrap();
        assert_eq!(p.to_string(), "NOT (a < 1)");
        let p2 = parse_predicate("NOT a < 1").unwrap();
        assert_eq!(p2.to_string(), "NOT (a < 1)");
        assert!(parse_predicate("FALSE").unwrap().is_false());
    }

    #[test]
    fn date_and_interval_literals() {
        let p = parse_predicate("o_orderdate < DATE '1993-06-01'").unwrap();
        assert_eq!(p.to_string(), "o_orderdate < DATE '1993-06-01'");
        let p2 = parse_predicate("l_shipdate - o_orderdate < INTERVAL '20' DAY").unwrap();
        assert_eq!(p2.to_string(), "l_shipdate - o_orderdate < 20");
        let p3 = parse_predicate("d < '1993-06-01'").unwrap();
        assert_eq!(p3.to_string(), "d < DATE '1993-06-01'");
    }

    #[test]
    fn unary_minus() {
        let e = parse_expr("-5 + a").unwrap();
        assert_eq!(e.to_string(), "-5 + a");
        let e2 = parse_expr("-a").unwrap();
        assert_eq!(e2.to_string(), "0 - a");
        let e3 = parse_expr("- (a + b)").unwrap();
        assert_eq!(e3.to_string(), "0 - (a + b)");
    }

    #[test]
    fn division_and_multiplication() {
        let e = parse_expr("a * b / 2").unwrap();
        assert_eq!(e.to_string(), "a * b / 2");
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT FROM t").is_err());
        assert!(parse_query("SELECT * FROM").is_err());
        assert!(parse_predicate("a <").is_err());
        assert!(parse_predicate("a < 1 extra").is_err());
        assert!(parse_predicate("a").is_err());
        assert!(parse_predicate("d < 'not-a-date'").is_err());
        assert!(parse_query("SELECT * FROM t WHERE a < 1 garbage").is_err());
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse_query("Select * From t Where a < 1 And b > 2 Or Not c = 3").unwrap();
        assert_eq!(
            q.predicate.unwrap().to_string(),
            "a < 1 AND b > 2 OR NOT (c = 3)"
        );
    }

    #[test]
    fn roundtrip_display_parse() {
        let inputs = [
            "SELECT * FROM lineitem, orders WHERE o_orderkey = l_orderkey AND l_shipdate - o_orderdate < 20",
            "SELECT a FROM t WHERE (a < 1 OR b < 2) AND c < 3",
            "SELECT * FROM t WHERE a * 2 + b / 3 >= 10",
        ];
        for src in inputs {
            let q = parse_query(src).unwrap();
            let q2 = parse_query(&q.to_string()).unwrap();
            assert_eq!(q, q2, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn printed_predicates_reparse_at_the_i64_extremes() {
        use sia_expr::{col, lit};
        let (min, max) = (lit(i64::MIN), lit(i64::MAX));
        for p in [
            col("a").ge(min.clone()),
            col("a").le(max.clone()),
            col("a").sub(min.clone()).lt(max.clone().mul(col("b"))),
            min.clone().mul(col("a")).add(col("b")).ne_(lit(3)),
            col("a").eq_(min.clone()).not().or(col("b").gt(max)),
            min.sub(col("a")).le(lit(0)),
        ] {
            assert_eq!(parse_predicate(&p.to_string()).unwrap(), p, "{p}");
        }
        // 2⁶³ fits only negated.
        for bare in [
            "a >= 9223372036854775808",
            "a >= -(9223372036854775808)",
            "a >= -(-9223372036854775808)",
            "a >= 9223372036854775809",
        ] {
            let err = parse_predicate(bare).unwrap_err();
            assert!(err.0.contains("out of range"), "{bare}: {err}");
        }
    }
}
