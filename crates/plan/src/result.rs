//! Query results: what a statement hands back. See [`QueryResult`].

use std::sync::Arc;

use crate::error::PlanError;
use crate::metrics::QueryMetrics;
use crate::value::Value;
use swole_storage::{Date, Decimal};

/// A materialized query result: named columns, row-major `i64` values.
///
/// Group-by results are sorted by the group key; dictionary-encoded group
/// keys come back as codes. A scalar aggregation always yields exactly one
/// row; with zero qualifying rows, sums and counts are 0 and min/max are 0.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows, each with one value per column.
    pub rows: Vec<Vec<i64>>,
    /// Metrics snapshot from the execution that produced this result;
    /// `None` when the session ran with [`crate::MetricsLevel::Off`].
    pub(crate) metrics: Option<QueryMetrics>,
    /// Dictionary for the group-key column (column 0) when it was
    /// dictionary-encoded; lets [`QueryResult::col_str`] decode codes back
    /// to strings.
    pub(crate) key_dict: Option<Arc<Vec<String>>>,
}

/// Equality compares the *data* (columns and rows) only — two identical
/// results are equal even if one carries metrics and the other does not,
/// so engine-vs-interpreter cross-checks keep working at any level.
impl PartialEq for QueryResult {
    fn eq(&self, other: &QueryResult) -> bool {
        self.columns == other.columns && self.rows == other.rows
    }
}

impl Eq for QueryResult {}

impl QueryResult {
    /// Build a bare result from columns and rows (no metrics, no key
    /// dictionary) — for tests and external harnesses that need a
    /// comparison baseline.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<i64>>) -> QueryResult {
        QueryResult {
            columns,
            rows,
            metrics: None,
            key_dict: None,
        }
    }

    /// The single value of a one-row result column.
    ///
    /// Errors with [`PlanError::NotScalar`] when the result has more or
    /// fewer than one row, and [`PlanError::UnknownResultColumn`] when no
    /// column has that name.
    pub fn try_scalar(&self, column: &str) -> Result<i64, PlanError> {
        if self.rows.len() != 1 {
            return Err(PlanError::NotScalar {
                rows: self.rows.len(),
            });
        }
        let i = self.column_index(column)?;
        self.rows[0]
            .get(i)
            .copied()
            .ok_or(PlanError::IndexOutOfRange {
                axis: "column",
                index: i,
                len: self.rows[0].len(),
            })
    }

    /// The metrics snapshot recorded while producing this result, when the
    /// session (or `EXPLAIN ANALYZE`) executed with
    /// [`crate::MetricsLevel::Counters`] or higher.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        self.metrics.as_ref()
    }

    /// All values of a named column, top to bottom. Rows are stored
    /// row-major, so this materializes an owned `Vec`. `None` when no
    /// column has that name.
    pub fn col(&self, column: &str) -> Option<Vec<i64>> {
        let i = self.column_index(column).ok()?;
        Some(self.rows.iter().map(|r| r[i]).collect())
    }

    /// Index of a named column in every row.
    pub fn column_index(&self, column: &str) -> Result<usize, PlanError> {
        self.columns
            .iter()
            .position(|c| c == column)
            .ok_or_else(|| PlanError::UnknownResultColumn(column.to_string()))
    }

    /// A named column decoded as fixed-point decimals (the raw `i64`
    /// values reinterpreted at the storage scale). `None` when no column
    /// has that name.
    pub fn col_decimal(&self, column: &str) -> Option<Vec<Decimal>> {
        let vals = self.col(column)?;
        Some(vals.into_iter().map(Decimal::from_raw).collect())
    }

    /// A named column decoded as calendar dates (the raw `i64` values
    /// reinterpreted as day numbers). `None` when no column has that name.
    pub fn col_date(&self, column: &str) -> Option<Vec<Date>> {
        let vals = self.col(column)?;
        Some(vals.into_iter().map(|v| Date(v as i32)).collect())
    }

    /// A dictionary-encoded column decoded to strings. Only the group-key
    /// column of a group-by over a dictionary column carries its
    /// dictionary; every other column errors with
    /// [`PlanError::InvalidExpr`].
    pub fn col_str(&self, column: &str) -> Result<Vec<String>, PlanError> {
        let i = self.column_index(column)?;
        if i != 0 {
            return Err(PlanError::InvalidExpr(format!(
                "column {column} is an aggregate, not a dictionary-encoded key"
            )));
        }
        let dict = self.key_dict.as_ref().ok_or_else(|| {
            PlanError::InvalidExpr(format!(
                "column {column} is not dictionary-encoded (no dictionary to decode through)"
            ))
        })?;
        self.rows
            .iter()
            .map(|r| {
                dict.get(r[i] as usize).cloned().ok_or_else(|| {
                    PlanError::InvalidExpr(format!(
                        "code {} out of range for the dictionary of {column}",
                        r[i]
                    ))
                })
            })
            .collect()
    }

    /// The single value of a one-row result column, typed: a dictionary
    /// decoded group key comes back as [`Value::Str`], everything else as
    /// [`Value::Int`] (decimals and dates are raw `i64` at this level —
    /// use [`QueryResult::col_decimal`] / [`QueryResult::col_date`] when
    /// the query semantics are known).
    pub fn try_scalar_value(&self, column: &str) -> Result<Value, PlanError> {
        let raw = self.try_scalar(column)?;
        let i = self.column_index(column)?;
        if i == 0 {
            if let Some(dict) = self.key_dict.as_ref() {
                if let Some(s) = dict.get(raw as usize) {
                    return Ok(Value::Str(s.clone()));
                }
            }
        }
        Ok(Value::Int(raw))
    }

    /// The value at (`row`, `col`) by position, typed like
    /// [`QueryResult::try_scalar_value`]. Out-of-range indices are typed
    /// [`PlanError::IndexOutOfRange`] errors, never panics — callers
    /// walking results positionally (the conformance harness, cursors) can
    /// probe past the edge safely.
    pub fn value(&self, row: usize, col: usize) -> Result<Value, PlanError> {
        let r = self.rows.get(row).ok_or(PlanError::IndexOutOfRange {
            axis: "row",
            index: row,
            len: self.rows.len(),
        })?;
        let raw = *r.get(col).ok_or(PlanError::IndexOutOfRange {
            axis: "column",
            index: col,
            len: r.len(),
        })?;
        if col == 0 {
            if let Some(dict) = self.key_dict.as_ref() {
                if let Some(s) = dict.get(raw as usize) {
                    return Ok(Value::Str(s.clone()));
                }
            }
        }
        Ok(Value::Int(raw))
    }
}
