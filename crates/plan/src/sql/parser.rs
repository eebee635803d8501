//! Recursive-descent grammar: tokens → the [`Query`] / [`SelectItem`] /
//! [`PExpr`] tree. What the tree means is [`super::bind`]'s business.

use super::lexer::{tokenize, Sym, Token, TokenKind};
use super::SqlError;
use crate::expr::CmpOp;
use crate::logical::{SortKey, WindowFunc};
use crate::AggFunc;

/// How a query asked to be explained rather than executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// `EXPLAIN ...`: plan only ([`crate::Engine::explain`]).
    Plan,
    /// `EXPLAIN ANALYZE ...`: plan plus execution metrics
    /// ([`crate::Engine::explain_analyze`]).
    Analyze,
    /// `EXPLAIN VERIFY ...`: plan plus a full static-verification pass
    /// ([`crate::Engine::explain_verify`]).
    Verify,
    /// `EXPLAIN CODE ...`: plan plus each stage's loop as C-like code
    /// ([`crate::Engine::explain_code`]).
    Code,
}

/// One placeholder occurrence in the SQL text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot {
    /// 0-based parameter ordinal the slot binds to (`?` placeholders are
    /// numbered left to right; `$n` maps to ordinal `n - 1`).
    pub index: usize,
    /// Byte offset of the placeholder in the SQL text.
    pub position: usize,
}

/// One statement as the grammar reads it, before binding.
pub(super) struct Statement {
    pub(super) explain: Option<ExplainMode>,
    pub(super) query: Query,
    /// Placeholder occurrences in appearance order.
    pub(super) param_slots: Vec<ParamSlot>,
}

/// Parse a SQL string into its syntax tree. See the module docs for the
/// supported grammar.
pub(super) fn parse_statement(input: &str) -> Result<Statement, SqlError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        cursor: 0,
        params: Vec::new(),
        anon_params: 0,
        numbered_params: false,
    };
    let explain = if p.eat_keyword("EXPLAIN") {
        if p.eat_keyword("ANALYZE") {
            Some(ExplainMode::Analyze)
        } else if p.eat_keyword("VERIFY") {
            Some(ExplainMode::Verify)
        } else if p.eat_word_ci("CODE") {
            Some(ExplainMode::Code)
        } else {
            Some(ExplainMode::Plan)
        }
    } else {
        None
    };
    let query = p.parse_query()?;
    p.expect_end()?;
    check_param_contiguity(&p.params)?;
    Ok(Statement {
        explain,
        query,
        param_slots: p.params,
    })
}

/// Every ordinal below the highest must be referenced by some slot:
/// `$1, $3` without a `$2` would make a 3-value bind silently drop one.
fn check_param_contiguity(slots: &[ParamSlot]) -> Result<(), SqlError> {
    let Some(max) = slots.iter().map(|s| s.index).max() else {
        return Ok(());
    };
    for ordinal in 0..=max {
        if !slots.iter().any(|s| s.index == ordinal) {
            return Err(SqlError::at(
                slots.last().map(|s| s.position).unwrap_or(0),
                format!(
                    "placeholder ${} is never used (placeholders must be contiguous)",
                    ordinal + 1
                ),
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Parsed (pre-binding) representation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(super) enum PExpr {
    Col {
        table: Option<String>,
        name: String,
    },
    Lit(i64),
    Str(String),
    Param(usize),
    Cmp(CmpOp, Box<PExpr>, Box<PExpr>),
    Add(Box<PExpr>, Box<PExpr>),
    Sub(Box<PExpr>, Box<PExpr>),
    Mul(Box<PExpr>, Box<PExpr>),
    Div(Box<PExpr>, Box<PExpr>),
    Neg(Box<PExpr>),
    And(Box<PExpr>, Box<PExpr>),
    Or(Box<PExpr>, Box<PExpr>),
    Not(Box<PExpr>),
    Like {
        col: Box<PExpr>,
        pattern: String,
    },
    InList {
        col: Box<PExpr>,
        values: Vec<String>,
    },
    Case {
        when: Box<PExpr>,
        then: Box<PExpr>,
        otherwise: Box<PExpr>,
    },
}

#[derive(Debug, Clone)]
pub(super) enum SelectItem {
    /// Bare column (must match the GROUP BY key; an optional qualifier is
    /// accepted and dropped — the binder resolves by name).
    Key { name: String },
    /// Aggregate with optional alias.
    Agg {
        func: AggFunc,
        expr: Option<PExpr>, // None for count(*)
        alias: Option<String>,
        pos: usize,
    },
    /// Window function with its OVER clause and optional alias.
    Window {
        func: WindowFunc,
        expr: Option<PExpr>, // Some only for SUM
        alias: Option<String>,
        over: OverSpec,
        pos: usize,
    },
}

/// A parsed `OVER (...)` clause (qualifiers are stripped: window queries
/// are single-table).
#[derive(Debug, Clone, PartialEq)]
pub(super) struct OverSpec {
    pub(super) partition_by: Option<String>,
    pub(super) order_by: Vec<SortKey>,
    pub(super) rows_preceding: Option<i64>,
}

#[derive(Debug, Clone)]
pub(super) struct Query {
    pub(super) items: Vec<SelectItem>,
    pub(super) tables: Vec<String>,
    pub(super) predicate: Option<PExpr>,
    pub(super) group_by: Option<(Option<String>, String)>,
    /// Result-level `ORDER BY` keys, naming output columns.
    pub(super) order_by: Vec<SortKey>,
    /// Result-level `LIMIT`.
    pub(super) limit: Option<i64>,
    pub(super) pos: usize,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    tokens: Vec<Token>,
    cursor: usize,
    /// Placeholder occurrences in appearance order.
    params: Vec<ParamSlot>,
    /// How many anonymous `?` placeholders have been numbered so far.
    anon_params: usize,
    /// `true` once a `$n` placeholder has been seen (styles cannot mix).
    numbered_params: bool,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.cursor).map(|t| &t.kind)
    }

    fn pos(&self) -> usize {
        self.tokens
            .get(self.cursor)
            .map(|t| t.pos)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.pos + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.cursor).map(|t| t.kind.clone());
        self.cursor += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, SqlError> {
        Err(SqlError::at(self.pos(), message))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(TokenKind::Word(w)) if w == kw) {
            self.cursor += 1;
            true
        } else {
            false
        }
    }

    /// Consume the word `w` in any case: a word that is no keyword, so
    /// it stays free as an identifier everywhere else.
    fn eat_word_ci(&mut self, w: &str) -> bool {
        let hit = matches!(self.peek(), Some(TokenKind::Word(x)) if x.eq_ignore_ascii_case(w));
        self.cursor += hit as usize;
        hit
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected {kw}"))
        }
    }

    fn eat_symbol(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(TokenKind::Symbol(s)) if *s == sym) {
            self.cursor += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: Sym) -> Result<(), SqlError> {
        if self.eat_symbol(sym) {
            Ok(())
        } else {
            self.err(format!("expected {sym:?}"))
        }
    }

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match self.peek() {
            Some(TokenKind::Word(w)) if !super::lexer::is_keyword(w) => {
                let w = w.clone();
                self.cursor += 1;
                Ok(w)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn expect_end(&self) -> Result<(), SqlError> {
        if self.cursor == self.tokens.len() {
            Ok(())
        } else {
            self.err("unexpected trailing input")
        }
    }

    fn parse_query(&mut self) -> Result<Query, SqlError> {
        let pos = self.pos();
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat_symbol(Sym::Comma) {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let mut tables = vec![self.expect_ident()?];
        while self.eat_symbol(Sym::Comma) {
            tables.push(self.expect_ident()?);
        }
        let predicate = if self.eat_keyword("WHERE") {
            Some(self.parse_or()?)
        } else {
            None
        };
        let group_by = if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            Some(self.parse_qualified()?)
        } else {
            None
        };
        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            self.parse_sort_keys()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Some(TokenKind::Number(n)) => Some(n),
                _ => return self.err("LIMIT requires an integer literal"),
            }
        } else {
            None
        };
        Ok(Query {
            items,
            tables,
            predicate,
            group_by,
            order_by,
            limit,
            pos,
        })
    }

    /// `col [ASC|DESC] [, ...]` — shared by result-level and window
    /// `ORDER BY` clauses (qualifiers accepted and stripped).
    fn parse_sort_keys(&mut self) -> Result<Vec<SortKey>, SqlError> {
        let mut keys = Vec::new();
        loop {
            let (_, column) = self.parse_qualified()?;
            let desc = if self.eat_keyword("DESC") {
                true
            } else {
                self.eat_keyword("ASC");
                false
            };
            keys.push(SortKey { column, desc });
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(keys)
    }

    /// The parenthesized window specification after `OVER`.
    fn parse_over(&mut self) -> Result<OverSpec, SqlError> {
        self.expect_symbol(Sym::LParen)?;
        let partition_by = if self.eat_keyword("PARTITION") {
            self.expect_keyword("BY")?;
            let (_, c) = self.parse_qualified()?;
            Some(c)
        } else {
            None
        };
        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            self.parse_sort_keys()?
        } else {
            Vec::new()
        };
        let rows_preceding = if self.eat_keyword("ROWS") {
            let k = match self.bump() {
                Some(TokenKind::Number(n)) => n,
                _ => return self.err("ROWS frame requires an integer row count"),
            };
            self.expect_keyword("PRECEDING")?;
            Some(k)
        } else {
            None
        };
        self.expect_symbol(Sym::RParen)?;
        Ok(OverSpec {
            partition_by,
            order_by,
            rows_preceding,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        let pos = self.pos();
        // Window-only functions: ROW_NUMBER() / RANK() require OVER.
        let wfunc = match self.peek() {
            Some(TokenKind::Word(w)) => match w.as_str() {
                "ROW_NUMBER" => Some(WindowFunc::RowNumber),
                "RANK" => Some(WindowFunc::Rank),
                _ => None,
            },
            _ => None,
        };
        if let Some(wf) = wfunc {
            self.cursor += 1;
            self.expect_symbol(Sym::LParen)?;
            self.expect_symbol(Sym::RParen)?;
            self.expect_keyword("OVER")?;
            let over = self.parse_over()?;
            return Ok(SelectItem::Window {
                func: wf,
                expr: None,
                alias: self.parse_alias()?,
                over,
                pos,
            });
        }
        let func = match self.peek() {
            Some(TokenKind::Word(w)) => match w.as_str() {
                "SUM" => Some(AggFunc::Sum),
                "COUNT" => Some(AggFunc::Count),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            },
            _ => None,
        };
        if let Some(func) = func {
            self.cursor += 1;
            self.expect_symbol(Sym::LParen)?;
            let expr = if func == AggFunc::Count && self.eat_symbol(Sym::Star) {
                None
            } else {
                Some(self.parse_add()?)
            };
            self.expect_symbol(Sym::RParen)?;
            // `SUM(e) OVER (...)` / `COUNT(*) OVER (...)` are window
            // functions, not aggregates.
            if self.eat_keyword("OVER") {
                let wf = match func {
                    AggFunc::Sum => WindowFunc::Sum,
                    AggFunc::Count => WindowFunc::Count,
                    AggFunc::Min | AggFunc::Max => {
                        return self.err("MIN/MAX are not supported as window functions")
                    }
                };
                if wf == WindowFunc::Sum && expr.is_none() {
                    return self.err("SUM window function requires an argument");
                }
                let over = self.parse_over()?;
                return Ok(SelectItem::Window {
                    func: wf,
                    // COUNT counts frame rows; any argument is ignored.
                    expr: if wf == WindowFunc::Sum { expr } else { None },
                    alias: self.parse_alias()?,
                    over,
                    pos,
                });
            }
            Ok(SelectItem::Agg {
                func,
                expr,
                alias: self.parse_alias()?,
                pos,
            })
        } else {
            let (_, name) = self.parse_qualified()?;
            Ok(SelectItem::Key { name })
        }
    }

    /// `[AS name]` after an aggregate or window item.
    fn parse_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_keyword("AS") {
            self.expect_ident().map(Some)
        } else {
            Ok(None)
        }
    }

    /// A column, `name` or `table.name`; a word before `(` calls a function
    /// the grammar lacks (known ones are parsed first), reported at it.
    fn parse_qualified(&mut self) -> Result<(Option<String>, String), SqlError> {
        let (pos, first) = (self.pos(), self.expect_ident()?);
        if self.peek() == Some(&TokenKind::Symbol(Sym::LParen)) {
            return Err(SqlError::at(pos, format!("unknown function {first}")));
        }
        if self.eat_symbol(Sym::Dot) {
            let second = self.expect_ident()?;
            Ok((Some(first), second))
        } else {
            Ok((None, first))
        }
    }

    fn parse_or(&mut self) -> Result<PExpr, SqlError> {
        let mut lhs = self.parse_and()?;
        while self.eat_keyword("OR") {
            let rhs = self.parse_and()?;
            lhs = PExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<PExpr, SqlError> {
        let mut lhs = self.parse_not()?;
        while self.eat_keyword("AND") {
            let rhs = self.parse_not()?;
            lhs = PExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<PExpr, SqlError> {
        if self.eat_keyword("NOT") {
            Ok(PExpr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_cmp()
        }
    }

    fn parse_cmp(&mut self) -> Result<PExpr, SqlError> {
        let lhs = self.parse_add()?;
        // Optional postfix predicate forms.
        let negated = {
            // `x NOT LIKE ...` / `x NOT IN ...` / `x NOT BETWEEN ...`
            let save = self.cursor;
            if self.eat_keyword("NOT") {
                if matches!(self.peek(), Some(TokenKind::Word(w)) if w == "LIKE" || w == "IN" || w == "BETWEEN")
                {
                    true
                } else {
                    self.cursor = save;
                    false
                }
            } else {
                false
            }
        };
        let base = if self.eat_keyword("LIKE") {
            let pattern = match self.bump() {
                Some(TokenKind::Str(s)) => s,
                _ => return self.err("LIKE requires a string literal"),
            };
            PExpr::Like {
                col: Box::new(lhs),
                pattern,
            }
        } else if self.eat_keyword("IN") {
            self.expect_symbol(Sym::LParen)?;
            let mut values = Vec::new();
            loop {
                match self.bump() {
                    Some(TokenKind::Str(s)) => values.push(s),
                    _ => return self.err("IN list requires string literals"),
                }
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            PExpr::InList {
                col: Box::new(lhs),
                values,
            }
        } else if self.eat_keyword("BETWEEN") {
            let lo = self.parse_add()?;
            self.expect_keyword("AND")?;
            let hi = self.parse_add()?;
            PExpr::And(
                Box::new(PExpr::Cmp(CmpOp::Ge, Box::new(lhs.clone()), Box::new(lo))),
                Box::new(PExpr::Cmp(CmpOp::Le, Box::new(lhs), Box::new(hi))),
            )
        } else {
            let op = match self.peek() {
                Some(TokenKind::Symbol(Sym::Lt)) => Some(CmpOp::Lt),
                Some(TokenKind::Symbol(Sym::Le)) => Some(CmpOp::Le),
                Some(TokenKind::Symbol(Sym::Gt)) => Some(CmpOp::Gt),
                Some(TokenKind::Symbol(Sym::Ge)) => Some(CmpOp::Ge),
                Some(TokenKind::Symbol(Sym::Eq)) => Some(CmpOp::Eq),
                Some(TokenKind::Symbol(Sym::Ne)) => Some(CmpOp::Ne),
                _ => None,
            };
            match op {
                Some(op) => {
                    self.cursor += 1;
                    let rhs = self.parse_add()?;
                    PExpr::Cmp(op, Box::new(lhs), Box::new(rhs))
                }
                None => {
                    if negated {
                        return self.err("NOT must precede LIKE/IN/BETWEEN here");
                    }
                    return Ok(lhs);
                }
            }
        };
        Ok(if negated {
            PExpr::Not(Box::new(base))
        } else {
            base
        })
    }

    fn parse_add(&mut self) -> Result<PExpr, SqlError> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.eat_symbol(Sym::Plus) {
                lhs = PExpr::Add(Box::new(lhs), Box::new(self.parse_mul()?));
            } else if self.eat_symbol(Sym::Minus) {
                lhs = PExpr::Sub(Box::new(lhs), Box::new(self.parse_mul()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<PExpr, SqlError> {
        let mut lhs = self.parse_unary()?;
        loop {
            if self.eat_symbol(Sym::Star) {
                lhs = PExpr::Mul(Box::new(lhs), Box::new(self.parse_unary()?));
            } else if self.eat_symbol(Sym::Slash) {
                lhs = PExpr::Div(Box::new(lhs), Box::new(self.parse_unary()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<PExpr, SqlError> {
        if self.eat_symbol(Sym::Minus) {
            Ok(PExpr::Neg(Box::new(self.parse_unary()?)))
        } else {
            self.parse_primary()
        }
    }

    fn parse_primary(&mut self) -> Result<PExpr, SqlError> {
        match self.peek().cloned() {
            Some(TokenKind::Number(n)) => {
                self.cursor += 1;
                Ok(PExpr::Lit(n))
            }
            Some(TokenKind::Str(s)) => {
                self.cursor += 1;
                Ok(PExpr::Str(s))
            }
            Some(TokenKind::Param(explicit)) => {
                let position = self.pos();
                self.cursor += 1;
                let mixed = || {
                    SqlError::at(
                        position,
                        "cannot mix ? and $n placeholders in one statement",
                    )
                };
                let index = match explicit {
                    None => {
                        if self.numbered_params {
                            return Err(mixed());
                        }
                        self.anon_params += 1;
                        self.anon_params - 1
                    }
                    Some(n) => {
                        if self.anon_params > 0 {
                            return Err(mixed());
                        }
                        self.numbered_params = true;
                        n - 1
                    }
                };
                self.params.push(ParamSlot { index, position });
                Ok(PExpr::Param(index))
            }
            Some(TokenKind::Symbol(Sym::LParen)) => {
                self.cursor += 1;
                let inner = self.parse_or()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(inner)
            }
            Some(TokenKind::Word(w)) if w == "CASE" => {
                self.cursor += 1;
                self.expect_keyword("WHEN")?;
                let when = self.parse_or()?;
                self.expect_keyword("THEN")?;
                let then = self.parse_or()?;
                self.expect_keyword("ELSE")?;
                let otherwise = self.parse_or()?;
                if !self.eat_keyword("END") {
                    return self.err("expected END to close CASE");
                }
                Ok(PExpr::Case {
                    when: Box::new(when),
                    then: Box::new(then),
                    otherwise: Box::new(otherwise),
                })
            }
            Some(TokenKind::Word(w)) if !super::lexer::is_keyword(&w) => {
                let (table, name) = self.parse_qualified()?;
                Ok(PExpr::Col { table, name })
            }
            _ => self.err("expected expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse;

    /// A call of a function the grammar lacks fails at the function's name
    /// and says which it is, wherever a column could stand.
    #[test]
    fn an_unknown_function_is_named_at_its_position() {
        for (sql, name) in [
            (
                "select l_returnflag, sum(l_quantity) as sum_qty, avg(l_quantity) as avg_qty \
                 from lineitem where l_shipdate <= 10000 group by l_returnflag",
                "avg",
            ),
            ("select sum(abs(x)) as s from t", "abs"),
            ("select sum(x) as s from t where lower(y) < 3", "lower"),
        ] {
            let err = parse(sql).expect_err("an unknown function fails");
            assert_eq!(err.position, sql.find(name).expect("named"), "{sql}: {err}");
            assert!(
                err.message.contains(&format!("unknown function {name}")),
                "{sql}: {err}"
            );
        }
    }
}
