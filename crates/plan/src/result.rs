//! Query results: what a statement hands back. See [`QueryResult`] and
//! [`Rows`].

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

use crate::error::PlanError;
use crate::metrics::QueryMetrics;
use crate::value::Value;
use swole_storage::{Date, Decimal};

/// A materialized query result: named columns, row-major `i64` values in
/// one buffer ([`Rows`]).
///
/// Group-by results are sorted by the group key; dictionary-encoded group
/// keys come back as codes. A scalar aggregation always yields exactly one
/// row; with zero qualifying rows, sums and counts are 0 and min/max are 0.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows, each with one value per column.
    pub rows: Rows,
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
    pub fn new(columns: Vec<String>, rows: impl Into<Rows>) -> QueryResult {
        QueryResult {
            columns,
            rows: rows.into(),
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

/// A result's rows: `len` rows of `width` values each, row-major in one
/// buffer. A result is written once, in order, and then read row by row,
/// so it is one allocation however many rows it has — not one per row.
///
/// It reads like the `Vec<Vec<i64>>` it replaces: `rows[r][c]`, `iter()`
/// over `&[i64]` rows, equality with `Vec<Vec<i64>>` either way round, and
/// a `Debug` that prints the same text.
#[derive(Clone, Default)]
pub struct Rows {
    values: Vec<i64>,
    width: usize,
    len: usize,
}

impl Rows {
    /// No rows yet, `rows` of `width` values reserved.
    pub fn with_capacity(width: usize, rows: usize) -> Rows {
        Rows::from_values(width, Vec::with_capacity(width.saturating_mul(rows)))
    }

    /// Rows of `width` from their values, row-major. Panics unless
    /// `values` holds a whole number of rows (none at width 0).
    pub fn from_values(width: usize, values: Vec<i64>) -> Rows {
        let len = match width {
            0 => 0,
            w => values.len() / w,
        };
        assert_eq!(
            len * width,
            values.len(),
            "{} values are not rows of {width}",
            values.len()
        );
        Rows { values, width, len }
    }

    /// Append one row; panics unless it has [`Rows::width`] values.
    pub fn push(&mut self, row: &[i64]) {
        assert_eq!(row.len(), self.width, "a row of {} values", self.width);
        self.values.extend_from_slice(row);
        self.len += 1;
    }

    /// Append the row `key` followed by `rest`.
    pub(crate) fn push_keyed(&mut self, key: i64, rest: &[i64]) {
        assert_eq!(1 + rest.len(), self.width, "a row of {} values", self.width);
        self.values.push(key);
        self.values.extend_from_slice(rest);
        self.len += 1;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Values per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r`, or `None` past the last row.
    pub fn get(&self, r: usize) -> Option<&[i64]> {
        (r < self.len).then(|| &self.values[r * self.width..][..self.width])
    }

    /// The rows, first to last.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rows: self,
            at: 0..self.len,
        }
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.len = self.len.min(n);
        self.values.truncate(self.len * self.width);
    }

    /// Sort lexicographically, as `Vec<Vec<i64>>::sort` does.
    pub fn sort(&mut self) {
        self.sort_by(<[i64]>::cmp);
    }

    /// Sort stably by `cmp`: a permutation of row numbers is sorted, then
    /// the rows follow it in place, so the sort holds 4 B per row beside
    /// the rows (the permutation, and the stable sort's scratch of at most
    /// as many row numbers), not a second copy of them.
    pub fn sort_by(&mut self, mut cmp: impl FnMut(&[i64], &[i64]) -> Ordering) {
        let n = u32::try_from(self.len).expect("a result of at most 2^32 rows");
        let mut perm: Vec<u32> = (0..n).collect();
        perm.sort_by(|&a, &b| cmp(&self[a as usize], &self[b as usize]));
        self.permute(perm);
    }

    /// Reorder in place so that row `i` is the old row `perm[i]`, one
    /// cycle of the permutation at a time through a single row of scratch;
    /// `perm` marks the rows already placed (as fixed points).
    fn permute(&mut self, mut perm: Vec<u32>) {
        let w = self.width;
        let mut held = vec![0; w];
        for start in 0..perm.len() {
            if perm[start] as usize == start {
                continue;
            }
            held.copy_from_slice(&self[start]);
            let mut dst = start;
            loop {
                let src = perm[dst] as usize;
                perm[dst] = dst as u32;
                if src == start {
                    self.values[dst * w..][..w].copy_from_slice(&held);
                    break;
                }
                self.values.copy_within(src * w..(src + 1) * w, dst * w);
                dst = src;
            }
        }
    }

    /// The rows `order` names, in that order, as new rows.
    pub(crate) fn gather(&self, order: &[u32]) -> Rows {
        let mut out = Rows::with_capacity(self.width, order.len());
        for &r in order {
            out.push(&self[r as usize]);
        }
        out
    }

    /// A copy as one vector per row.
    pub fn to_vecs(&self) -> Vec<Vec<i64>> {
        self.iter().map(<[i64]>::to_vec).collect()
    }
}

impl Index<usize> for Rows {
    type Output = [i64];

    fn index(&self, r: usize) -> &[i64] {
        assert!(r < self.len, "row {r} of {} rows", self.len);
        &self.values[r * self.width..][..self.width]
    }
}

/// The rows of a [`Rows`], as slices; see [`Rows::iter`].
#[derive(Clone)]
pub struct Iter<'a> {
    rows: &'a Rows,
    at: Range<usize>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a [i64];

    fn next(&mut self) -> Option<&'a [i64]> {
        let rows = self.rows;
        self.at.next().map(|r| &rows[r])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a [i64];
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Panics on rows of unequal length.
impl From<Vec<Vec<i64>>> for Rows {
    fn from(rows: Vec<Vec<i64>>) -> Rows {
        let width = rows.first().map_or(0, Vec::len);
        let mut out = Rows::with_capacity(width, rows.len());
        for row in &rows {
            out.push(row);
        }
        out
    }
}

/// The same text as the `Vec<Vec<i64>>` of the same rows.
impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Row by row, as `Vec<Vec<i64>>` compares: any two empty results are
/// equal, whatever their width.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len
            && (self.len == 0 || (self.width == other.width && self.values == other.values))
    }
}

impl Eq for Rows {}

impl PartialEq<Vec<Vec<i64>>> for Rows {
    fn eq(&self, other: &Vec<Vec<i64>>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl PartialEq<Rows> for Vec<Vec<i64>> {
    fn eq(&self, other: &Rows) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of `width` values from a small LCG, values in `0..range` so
    /// that equal rows and equal prefixes occur.
    fn random_rows(seed: u64, n: usize, width: usize, range: u64) -> Vec<Vec<i64>> {
        let mut s = seed;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % range) as i64 - 1
        };
        (0..n)
            .map(|_| (0..width).map(|_| next()).collect())
            .collect()
    }

    #[test]
    fn debug_prints_what_nested_vectors_print() {
        let shapes = [
            vec![],
            vec![vec![]],
            vec![vec![], vec![]],
            vec![vec![7]],
            vec![vec![0, -10], vec![1, i64::MAX], vec![i64::MIN, 3]],
        ];
        for want in shapes {
            let rows = Rows::from(want.clone());
            assert_eq!(format!("{rows:?}"), format!("{want:?}"));
            assert_eq!(format!("{rows:#?}"), format!("{want:#?}"));
            // What a soak log records for a successful statement.
            let res = QueryResult::new(vec!["a".into()], want.clone());
            assert_eq!(format!("ok: {:?}", res.rows), format!("ok: {want:?}"));
        }
    }

    #[test]
    fn equality_holds_both_ways_against_nested_vectors() {
        let want = vec![vec![1, 2], vec![3, 4]];
        let rows = Rows::from(want.clone());
        assert_eq!(rows, want);
        assert_eq!(want, rows);
        assert_eq!(rows, Rows::from_values(2, vec![1, 2, 3, 4]));
        for other in [
            vec![vec![1, 2]],
            vec![vec![1, 2], vec![3, 5]],
            vec![vec![1], vec![2], vec![3], vec![4]],
        ] {
            assert_ne!(rows, other);
            assert_ne!(other, rows);
            assert_ne!(rows, Rows::from(other));
        }
        let ragged = vec![vec![1, 2, 3], vec![4]];
        assert_ne!(rows, ragged);
        assert_ne!(ragged, rows);
        assert_ne!(rows, Rows::from_values(1, vec![1, 2, 3, 4]));
    }

    #[test]
    fn sort_agrees_with_nested_vector_sort() {
        for (seed, n, width) in [(1, 0, 2), (2, 1, 3), (3, 500, 1), (4, 500, 2), (5, 2000, 4)] {
            let mut want = random_rows(seed, n, width, 4);
            let mut rows = Rows::from(want.clone());
            want.sort();
            rows.sort();
            assert_eq!(rows, want, "seed {seed}");
            // A stable sort by one column keeps ties in their old order.
            let mut want = random_rows(seed, n, width, 4);
            let mut rows = Rows::from(want.clone());
            want.sort_by(|a, b| b[0].cmp(&a[0]));
            rows.sort_by(|a, b| b[0].cmp(&a[0]));
            assert_eq!(rows, want, "seed {seed}, by column 0");
        }
    }

    #[test]
    fn zero_rows_keep_their_width() {
        let mut rows = Rows::with_capacity(3, 0);
        assert!(rows.is_empty());
        assert_eq!((rows.len(), rows.width()), (0, 3));
        assert_eq!(rows.iter().count(), 0);
        assert_eq!(rows.get(0), None);
        assert_eq!(format!("{rows:?}"), "[]");
        assert_eq!(rows, Vec::<Vec<i64>>::new());
        assert_eq!(rows, Rows::default());
        rows.sort();
        rows.truncate(2);
        assert!(rows.to_vecs().is_empty());
        rows.push(&[1, 2, 3]);
        assert_eq!(rows, vec![vec![1, 2, 3]]);
        let res = QueryResult::new(
            vec!["a".into(), "b".into(), "c".into()],
            Rows::with_capacity(3, 0),
        );
        assert_eq!(res.col("b"), Some(vec![]));
        assert!(matches!(
            res.try_scalar("a"),
            Err(PlanError::NotScalar { rows: 0 })
        ));
    }

    #[test]
    fn rows_index_iterate_and_build_a_result() {
        let want = vec![vec![0, 10, 1], vec![1, 80, 3], vec![2, -5, 1]];
        let res = QueryResult::new(vec!["k".into(), "s".into(), "n".into()], want.clone());
        let rows = &res.rows;
        assert_eq!((rows.len(), rows.width()), (3, 3));
        assert_eq!(rows[1], [1, 80, 3]);
        assert_eq!(rows[2][1], -5);
        assert_eq!(rows.get(3), None);
        assert!(rows.iter().eq(want.iter().map(Vec::as_slice)));
        assert_eq!(rows.iter().len(), 3);
        let mut seen = 0;
        for (row, want) in rows.into_iter().zip(&want) {
            assert_eq!(row, want.as_slice());
            seen += 1;
        }
        assert_eq!(seen, 3);
        assert_eq!(rows.to_vecs(), want);
        assert_eq!(res.col("s"), Some(vec![10, 80, -5]));
        assert!(matches!(res.value(1, 2), Ok(Value::Int(3))));
        assert!(res.value(3, 0).is_err());
        assert_eq!(rows.gather(&[2, 0]), vec![vec![2, -5, 1], vec![0, 10, 1]]);
        let mut cut = rows.clone();
        cut.truncate(1);
        assert_eq!(cut, vec![vec![0, 10, 1]]);
    }

    #[test]
    #[should_panic(expected = "row 2 of 2 rows")]
    fn indexing_past_the_last_row_panics_even_at_width_zero() {
        let rows = Rows::from(vec![vec![], vec![]]);
        let _ = &rows[2];
    }
}
