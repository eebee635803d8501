//! Named collections of equal-length columns.

use crate::column::ColumnData;

/// A named, column-oriented table.
///
/// The generic engine (`swole-plan`) addresses columns by name; the
/// hand-coded query implementations borrow typed slices directly.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<(String, ColumnData)>,
    len: usize,
    generation: u64,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>) -> Table {
        Table {
            name: name.into(),
            columns: Vec::new(),
            len: 0,
            generation: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Data generation counter: 0 for a freshly built table, bumped by the
    /// catalog every time a load replaces this table's contents. Plan caches
    /// compare generations to detect that a cached plan was costed against
    /// stale data.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overwrite the generation counter (catalog reload bookkeeping).
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Add a column, stored null-suppressed: `I16`/`I32`/`I64` data is
    /// narrowed to the smallest of `I8`/`I16`/`I32`/`I64` that holds its
    /// [min, max], so the stored type may be narrower than the one passed in.
    /// `I8`, `U32` and `Dict` are stored as given. This is the only way a
    /// column enters a table. Panics if its length disagrees with existing
    /// columns or if the name is already taken.
    pub fn add_column(&mut self, name: impl Into<String>, data: ColumnData) -> &mut Self {
        let name = name.into();
        assert!(
            self.column(&name).is_none(),
            "duplicate column name: {name}"
        );
        if self.columns.is_empty() {
            self.len = data.len();
        } else {
            assert_eq!(
                data.len(),
                self.len,
                "column {name} length mismatch in table {}",
                self.name
            );
        }
        self.columns.push((name, data.narrowed()));
        self
    }

    /// Builder-style [`Table::add_column`].
    pub fn with_column(mut self, name: impl Into<String>, data: ColumnData) -> Self {
        self.add_column(name, data);
        self
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Look up a column by name, panicking with a useful message otherwise.
    pub fn column_required(&self, name: &str) -> &ColumnData {
        self.column(name).unwrap_or_else(|| {
            panic!(
                "table {} has no column {name} (has: {:?})",
                self.name,
                self.column_names().collect::<Vec<_>>()
            )
        })
    }

    /// Position of a column in insertion order, for callers that resolve a
    /// name once and then address the column with [`Table::column_at`].
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// The column at `index` (insertion order). Panics when out of range.
    pub fn column_at(&self, index: usize) -> &ColumnData {
        &self.columns[index].1
    }

    /// Iterate over column names in insertion order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Total payload bytes across all columns.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let t = Table::new("r")
            .with_column("a", ColumnData::I32(vec![1, 2, i32::MAX]))
            .with_column("b", ColumnData::I8(vec![4, 5, 6]));
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column("a").unwrap().get_i64(2), i32::MAX as i64);
        assert!(t.column("zzz").is_none());
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.column_at(1).get_i64(0), 4);
        assert_eq!(t.column_index("zzz"), None);
        assert_eq!(t.column_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(t.size_bytes(), 12 + 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        Table::new("r")
            .with_column("a", ColumnData::I32(vec![1]))
            .with_column("b", ColumnData::I32(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_name_panics() {
        Table::new("r")
            .with_column("a", ColumnData::I32(vec![1]))
            .with_column("a", ColumnData::I32(vec![2]));
    }

    #[test]
    #[should_panic(expected = "has no column")]
    fn required_column_panics_with_context() {
        Table::new("r").column_required("missing");
    }
}
