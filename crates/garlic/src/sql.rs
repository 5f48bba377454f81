//! A small SQL-ish surface syntax (extension; §6 notes queries "could
//! possibly be written in an SQL-like form [CB74, DD94], as is done in
//! \[WHTB98\]").
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query  := SELECT TOP <int> WHERE expr
//!           [USING ident] [WEIGHTS <num> (',' <num>)*]
//! expr   := conj (OR conj)*
//! conj   := unit (AND unit)*
//! unit   := NOT unit | '(' expr ')' | atom
//! atom   := ident '=' '<text>'      -- crisp equality
//!         | ident '~' '<text>'      -- similarity ("close to")
//! ```
//!
//! `USING <name>` replaces the top-level conjunction's scoring
//! function (`min`, `product`, `lukasiewicz`, `mean`, `geomean`) — the
//! paper's observation that systems may let users pick among "a fixed
//! set of legal (i.e., monotone) scoring functions" (§4.2). `WEIGHTS`
//! applies the Fagin–Wimmers weighting to the top-level conjunction,
//! with the (possibly `USING`-chosen) rule as the underlying `f` — the
//! slider semantics of §5. AND binds tighter than OR; default
//! combination semantics are the standard fuzzy rules (min/max/1−x).

use std::fmt;
use std::sync::Arc;

use fmdb_core::query::{Query, ScoringHandle, Target};
use fmdb_core::scoring::means::{ArithmeticMean, GeometricMean};
use fmdb_core::scoring::tnorms::{Lukasiewicz, Min, Product};
use fmdb_core::weights::{Weighting, WeightingError};

/// Parse errors with byte positions.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Unexpected end of input.
    UnexpectedEnd,
    /// Unexpected token.
    Unexpected {
        /// What was found.
        found: String,
        /// What was expected.
        expected: &'static str,
    },
    /// TOP count was not a positive integer.
    BadTopCount(String),
    /// Weight list invalid.
    BadWeights(WeightingError),
    /// WEIGHTS given but the expression is not a flat conjunction.
    WeightsNeedFlatConjunction,
    /// USING named an unknown scoring function.
    UnknownScoring(String),
    /// USING applies to conjunctions only.
    UsingNeedsConjunction,
    /// WEIGHTS arity differs from conjunct count.
    WeightArity {
        /// Number of conjuncts.
        conjuncts: usize,
        /// Number of weights.
        weights: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnexpectedEnd => write!(f, "unexpected end of query"),
            ParseError::Unexpected { found, expected } => {
                write!(f, "expected {expected}, found '{found}'")
            }
            ParseError::BadTopCount(s) => write!(f, "bad TOP count '{s}'"),
            ParseError::BadWeights(e) => write!(f, "bad weights: {e}"),
            ParseError::WeightsNeedFlatConjunction => {
                write!(f, "WEIGHTS requires a flat AND of atoms")
            }
            ParseError::UnknownScoring(name) => {
                write!(
                    f,
                    "unknown scoring function '{name}' (try min/product/lukasiewicz/mean/geomean)"
                )
            }
            ParseError::UsingNeedsConjunction => {
                write!(f, "USING applies to a top-level conjunction")
            }
            ParseError::WeightArity { conjuncts, weights } => {
                write!(f, "{conjuncts} conjuncts but {weights} weights")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed statement: the query AST plus the requested k.
#[derive(Debug)]
pub struct Statement {
    /// Number of answers requested.
    pub k: usize,
    /// The query.
    pub query: Query,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Text(String),
    Number(String),
    Eq,
    Tilde,
    LParen,
    RParen,
    Comma,
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '=' => {
                chars.next();
                out.push(Token::Eq);
            }
            '~' => {
                chars.next();
                out.push(Token::Tilde);
            }
            '(' => {
                chars.next();
                out.push(Token::LParen);
            }
            ')' => {
                chars.next();
                out.push(Token::RParen);
            }
            ',' => {
                chars.next();
                out.push(Token::Comma);
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(ParseError::UnexpectedEnd),
                    }
                }
                out.push(Token::Text(s));
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Number(s));
            }
            c if c.is_alphanumeric() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(s));
            }
            other => {
                return Err(ParseError::Unexpected {
                    found: other.to_string(),
                    expected: "a token",
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token, ParseError> {
        let t = self.tokens.get(self.pos).ok_or(ParseError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(t)
    }

    fn keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next()? {
            Token::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(ParseError::Unexpected {
                found: format!("{other:?}"),
                expected: "keyword",
            }),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expr(&mut self) -> Result<Query, ParseError> {
        let mut parts = vec![self.conj()?];
        while self.at_keyword("OR") {
            self.pos += 1;
            parts.push(self.conj()?);
        }
        Ok(if parts.len() == 1 {
            #[expect(
                clippy::expect_used,
                reason = "guarded by the len() == 1 check on the previous line"
            )]
            parts.pop().expect("non-empty")
        } else {
            Query::or(parts)
        })
    }

    fn conj(&mut self) -> Result<Query, ParseError> {
        let mut parts = vec![self.unit()?];
        while self.at_keyword("AND") {
            self.pos += 1;
            parts.push(self.unit()?);
        }
        Ok(if parts.len() == 1 {
            #[expect(
                clippy::expect_used,
                reason = "guarded by the len() == 1 check on the previous line"
            )]
            parts.pop().expect("non-empty")
        } else {
            Query::and(parts)
        })
    }

    fn unit(&mut self) -> Result<Query, ParseError> {
        if self.at_keyword("NOT") {
            self.pos += 1;
            return Ok(Query::not(self.unit()?));
        }
        if matches!(self.peek(), Some(Token::LParen)) {
            self.pos += 1;
            let inner = self.expr()?;
            match self.next()? {
                Token::RParen => return Ok(inner),
                other => {
                    return Err(ParseError::Unexpected {
                        found: format!("{other:?}"),
                        expected: "')'",
                    })
                }
            }
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Query, ParseError> {
        let attr = match self.next()? {
            Token::Ident(s) => s.clone(),
            other => {
                return Err(ParseError::Unexpected {
                    found: format!("{other:?}"),
                    expected: "an attribute name",
                })
            }
        };
        let crisp = match self.next()? {
            Token::Eq => true,
            Token::Tilde => false,
            other => {
                return Err(ParseError::Unexpected {
                    found: format!("{other:?}"),
                    expected: "'=' or '~'",
                })
            }
        };
        let value = match self.next()? {
            Token::Text(s) => s.clone(),
            Token::Number(s) => s.clone(),
            other => {
                return Err(ParseError::Unexpected {
                    found: format!("{other:?}"),
                    expected: "a quoted value",
                })
            }
        };
        let target = if crisp {
            if let Ok(i) = value.parse::<i64>() {
                Target::Int(i)
            } else {
                Target::Text(value)
            }
        } else {
            Target::Similar(value)
        };
        Ok(Query::atomic(attr, target))
    }
}

/// Parses a statement.
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    let mut p = Parser {
        tokens: tokenize(input)?,
        pos: 0,
    };
    p.keyword("SELECT")?;
    p.keyword("TOP")?;
    let k = match p.next()? {
        Token::Number(s) => s
            .parse::<usize>()
            .ok()
            .filter(|&k| k > 0)
            .ok_or_else(|| ParseError::BadTopCount(s.clone()))?,
        other => {
            return Err(ParseError::Unexpected {
                found: format!("{other:?}"),
                expected: "a count after TOP",
            })
        }
    };
    p.keyword("WHERE")?;
    let mut query = p.expr()?;

    // USING <scoring>: swap the top-level conjunction's rule.
    let mut using: Option<ScoringHandle> = None;
    if p.at_keyword("USING") {
        p.pos += 1;
        let name = match p.next()? {
            Token::Ident(s) => s.clone(),
            other => {
                return Err(ParseError::Unexpected {
                    found: format!("{other:?}"),
                    expected: "a scoring function name",
                })
            }
        };
        let handle: ScoringHandle = match name.to_ascii_lowercase().as_str() {
            "min" => Arc::new(Min),
            "product" => Arc::new(Product),
            "lukasiewicz" => Arc::new(Lukasiewicz),
            "mean" | "average" => Arc::new(ArithmeticMean),
            "geomean" => Arc::new(GeometricMean),
            _ => return Err(ParseError::UnknownScoring(name)),
        };
        match query {
            Query::And { children, .. } => {
                query = Query::and_with(children, handle.clone());
            }
            Query::Atomic(_) => {} // a single atom's grade is the grade
            _ => return Err(ParseError::UsingNeedsConjunction),
        }
        using = Some(handle);
    }

    let query = if p.at_keyword("WEIGHTS") {
        p.pos += 1;
        let mut weights = Vec::new();
        loop {
            match p.next()? {
                Token::Number(s) => weights.push(
                    s.parse::<f64>()
                        .map_err(|_| ParseError::BadTopCount(s.clone()))?,
                ),
                other => {
                    return Err(ParseError::Unexpected {
                        found: format!("{other:?}"),
                        expected: "a weight",
                    })
                }
            }
            if matches!(p.peek(), Some(Token::Comma)) {
                p.pos += 1;
            } else {
                break;
            }
        }
        let theta = Weighting::from_ratios(&weights).map_err(ParseError::BadWeights)?;
        let children = match query {
            Query::And { children, .. }
                if children.iter().all(|c| matches!(c, Query::Atomic(_))) =>
            {
                children
            }
            q @ Query::Atomic(_) => vec![q],
            _ => return Err(ParseError::WeightsNeedFlatConjunction),
        };
        if children.len() != theta.arity() {
            return Err(ParseError::WeightArity {
                conjuncts: children.len(),
                weights: theta.arity(),
            });
        }
        let rule: ScoringHandle = using.unwrap_or_else(|| Arc::new(Min));
        #[expect(
            clippy::expect_used,
            reason = "theta length was validated against children two lines up"
        )]
        Query::weighted(children, rule, theta).expect("arity checked just above")
    } else {
        query
    };

    if let Some(extra) = p.peek() {
        return Err(ParseError::Unexpected {
            found: format!("{extra:?}"),
            expected: "end of query",
        });
    }
    Ok(Statement { k, query })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_beatles_query() {
        let s = parse("SELECT TOP 10 WHERE Artist='Beatles' AND AlbumColor~'red'").unwrap();
        assert_eq!(s.k, 10);
        let text = s.query.to_string();
        assert!(text.contains("Artist='Beatles'"), "{text}");
        assert!(
            text.contains("AlbumColor=~'red'") || text.contains("~'red'"),
            "{text}"
        );
    }

    #[test]
    fn parses_disjunction_and_precedence() {
        let s = parse("SELECT TOP 3 WHERE Color~'red' AND Shape~'round' OR Color~'blue'").unwrap();
        // AND binds tighter: OR(AND(color,shape), blue).
        match &s.query {
            Query::Or { children, .. } => {
                assert_eq!(children.len(), 2);
                assert!(matches!(children[0], Query::And { .. }));
                assert!(matches!(children[1], Query::Atomic(_)));
            }
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn parses_not_and_parens() {
        let s = parse("SELECT TOP 1 WHERE NOT (Color~'red' OR Color~'blue')").unwrap();
        assert!(matches!(s.query, Query::Not(_)));
    }

    #[test]
    fn parses_weights() {
        let s = parse("SELECT TOP 5 WHERE Color~'red' AND Shape~'round' WEIGHTS 2, 1").unwrap();
        match &s.query {
            Query::Weighted { weighting, .. } => {
                assert!((weighting.weights()[0] - 2.0 / 3.0).abs() < 1e-12);
            }
            other => panic!("expected Weighted, got {other}"),
        }
    }

    #[test]
    fn parses_using_clause() {
        let s = parse("SELECT TOP 4 WHERE Color~'red' AND Shape~'round' USING product").unwrap();
        match &s.query {
            Query::And { scoring, .. } => assert_eq!(scoring.name(), "product"),
            other => panic!("expected And, got {other}"),
        }
        // USING feeds the weighted rule too.
        let s = parse("SELECT TOP 4 WHERE Color~'red' AND Shape~'round' USING mean WEIGHTS 2, 1")
            .unwrap();
        match &s.query {
            Query::Weighted { scoring, .. } => assert_eq!(scoring.name(), "arith-mean"),
            other => panic!("expected Weighted, got {other}"),
        }
        assert!(matches!(
            parse("SELECT TOP 4 WHERE Color~'red' AND Shape~'round' USING cubist"),
            Err(ParseError::UnknownScoring(_))
        ));
        assert!(matches!(
            parse("SELECT TOP 4 WHERE Color~'red' OR Shape~'round' USING product"),
            Err(ParseError::UsingNeedsConjunction)
        ));
    }

    #[test]
    fn parses_integer_crisp_targets() {
        let s = parse("SELECT TOP 2 WHERE Year=1969").unwrap();
        match &s.query {
            Query::Atomic(a) => assert_eq!(a.target, Target::Int(1969)),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn weight_errors() {
        assert!(matches!(
            parse("SELECT TOP 5 WHERE Color~'red' AND Shape~'round' WEIGHTS 1"),
            Err(ParseError::WeightArity {
                conjuncts: 2,
                weights: 1
            })
        ));
        assert!(matches!(
            parse("SELECT TOP 5 WHERE NOT Color~'red' WEIGHTS 1"),
            Err(ParseError::WeightsNeedFlatConjunction)
        ));
    }

    #[test]
    fn syntax_errors() {
        assert!(parse("SELECT TOP 0 WHERE Color~'red'").is_err());
        assert!(parse("SELECT TOP x WHERE Color~'red'").is_err());
        assert!(parse("SELECT TOP 5 WHERE Color 'red'").is_err());
        assert!(parse("SELECT TOP 5 WHERE Color~'red").is_err()); // unterminated
        assert!(parse("SELECT TOP 5 WHERE Color~'red' garbage='x'").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select top 2 where Color~'red' and Shape~'round'").is_ok());
    }
}
