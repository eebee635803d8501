//! A SQL frontend for the supported plan shapes.
//!
//! Parses the dialect the paper's queries are written in — single-table
//! aggregation and FK joins with predicates on either side — into a
//! [`crate::LogicalPlan`]. `parser.rs` is grammar (tokens → syntax tree),
//! `bind.rs` meaning (syntax tree → plan); [`parse`] is the two in a row:
//!
//! ```
//! use swole_plan::sql::parse;
//!
//! let parsed = parse(
//!     "select r_c, sum(r_a * r_b) as s, count(*) as n \
//!      from R where r_x < 13 and r_y = 1 group by r_c",
//! ).unwrap();
//! assert_eq!(parsed.plan.base_table(), "R");
//! ```
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! stmt    := [EXPLAIN [ANALYZE | VERIFY | CODE]] query
//! query   := SELECT items FROM table (',' table)* [WHERE conj] [GROUP BY col]
//!            [ORDER BY sort] [LIMIT n]
//! items   := item (',' item)*
//! item    := col | SUM(expr) | COUNT(*) | MIN(expr) | MAX(expr) [AS name]
//!          | wfn OVER over [AS name]
//! wfn     := ROW_NUMBER() | RANK() | SUM(expr) | COUNT(*)
//! over    := '(' [PARTITION BY col] [ORDER BY sort] [ROWS n PRECEDING] ')'
//! sort    := col [ASC | DESC] (',' col [ASC | DESC])*
//! conj    := pred (AND pred)*
//! pred    := expr with comparisons, OR, NOT, BETWEEN, LIKE, IN (...),
//!            CASE WHEN ... THEN ... ELSE ... END, arithmetic, parentheses
//! ```
//!
//! Window functions are single-table only and every window item in a query
//! must share one `OVER` clause (one sort, one frame). A select list of
//! bare columns with no aggregates and no `GROUP BY` binds as a plain
//! projection. Result-level `ORDER BY` names output columns and breaks
//! ties by pre-sort position, so results stay deterministic.
//!
//! Predicates may contain placeholders — anonymous `?` (numbered left to
//! right) or explicit `$1`, `$2`, ... (1-based; the two styles cannot mix,
//! and ordinals must be contiguous). A query with placeholders cannot be
//! executed directly; hand it to [`crate::Engine::prepare_sql`] and bind
//! values through [`crate::PreparedStatement::bind`]. Each occurrence is
//! recorded in [`ParsedQuery::param_slots`].
//!
//! A FROM list is a join graph. Its edges are the WHERE conjuncts of the form
//! `child.fk = parent.rowid` (`rowid` is each table's implicit dense primary
//! key); the fact is the one table that is nobody's build side; every other
//! conjunct must qualify its columns with exactly one table, whose filter it
//! joins. The plan is a semijoin tree grown from the fact, a table's edges
//! ordered by parent name, so conjunct order cannot change the plan (or its
//! cache key). One table is the zero-edge graph — its WHERE binds whole,
//! qualifiers ignored — and two tables the one-edge graph, where `GROUP BY
//! fk` selects the groupjoin shape; over any join a qualified `GROUP BY` key
//! must name the fact table.
//!
//! An `EXPLAIN [ANALYZE | VERIFY | CODE]` prefix does not change the bound
//! plan; it sets [`ParsedQuery::explain`] so the caller can route the plan
//! to [`crate::Engine::explain`], [`crate::Engine::explain_analyze`],
//! [`crate::Engine::explain_verify`] or [`crate::Engine::explain_code`]
//! instead of executing it.

mod bind;
mod lexer;
mod parser;

pub use parser::{ExplainMode, ParamSlot};

use crate::LogicalPlan;
use std::fmt;

/// A successfully parsed query.
#[derive(Debug, Clone)]
pub struct ParsedQuery {
    /// The bound logical plan (feed it to [`crate::Engine::query`], or to
    /// [`crate::Engine::prepare`] when it has placeholders).
    pub plan: LogicalPlan,
    /// `Some` when the query was prefixed with `EXPLAIN [ANALYZE | VERIFY |
    /// CODE]`.
    pub explain: Option<ExplainMode>,
    /// Placeholder occurrences in appearance order; empty for a fully
    /// literal query. The number of distinct `index` values is the
    /// statement's parameter count.
    pub param_slots: Vec<ParamSlot>,
}

/// Parse a SQL string into a logical plan: the grammar reads it, the binder
/// says what it means. See the module docs for the supported grammar.
pub fn parse(input: &str) -> Result<ParsedQuery, SqlError> {
    let stmt = parser::parse_statement(input)?;
    Ok(ParsedQuery {
        plan: bind::bind(stmt.query)?,
        explain: stmt.explain,
        param_slots: stmt.param_slots,
    })
}

/// SQL front-end errors, with the offending position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub position: usize,
}

impl SqlError {
    fn at(position: usize, message: impl Into<String>) -> SqlError {
        SqlError {
            message: message.into(),
            position,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for SqlError {}
