//! Typed in-memory columns.

use crate::dict::DictColumn;

/// Physical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 8-bit signed integer.
    I8,
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer (also used for fixed-point decimals).
    I64,
    /// 32-bit unsigned integer (row ids, dictionary codes, foreign keys).
    U32,
    /// Dictionary-encoded string.
    Dict,
}

impl DataType {
    /// Width of one value in bytes (dictionary codes count as 4).
    pub fn width(self) -> usize {
        match self {
            DataType::I8 => 1,
            DataType::I16 => 2,
            DataType::I32 | DataType::U32 | DataType::Dict => 4,
            DataType::I64 => 8,
        }
    }
}

/// A single column of values.
///
/// Narrow integer variants exist because the paper stores low-cardinality
/// integer columns null-suppressed (§ IV: "null suppression for
/// low-cardinality integer columns"). A table stores every signed integer
/// column that way: [`crate::Table::add_column`] narrows it to the smallest
/// width that holds its values, so a column built as `I32` may be read back
/// as `I8`. There is no other way into a table.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 8-bit signed integers.
    I8(Vec<i8>),
    /// 16-bit signed integers.
    I16(Vec<i16>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit unsigned integers.
    U32(Vec<u32>),
    /// Dictionary-encoded strings.
    Dict(DictColumn),
}

impl ColumnData {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I8(v) => v.len(),
            ColumnData::I16(v) => v.len(),
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::Dict(d) => d.len(),
        }
    }

    /// `true` if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical type of the column.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::I8(_) => DataType::I8,
            ColumnData::I16(_) => DataType::I16,
            ColumnData::I32(_) => DataType::I32,
            ColumnData::I64(_) => DataType::I64,
            ColumnData::U32(_) => DataType::U32,
            ColumnData::Dict(_) => DataType::Dict,
        }
    }

    /// Bytes occupied by the value payload (used by the cost model to decide
    /// whether a working set fits in cache).
    pub fn size_bytes(&self) -> usize {
        self.len() * self.data_type().width()
    }

    /// Value at row `i` widened to `i64`. Dictionary columns return the code.
    ///
    /// This is the slow row-at-a-time accessor used by the reference
    /// interpreter and by tests; kernels borrow the typed slices instead.
    pub fn get_i64(&self, i: usize) -> i64 {
        match self {
            ColumnData::I8(v) => v[i] as i64,
            ColumnData::I16(v) => v[i] as i64,
            ColumnData::I32(v) => v[i] as i64,
            ColumnData::I64(v) => v[i],
            ColumnData::U32(v) => v[i] as i64,
            ColumnData::Dict(d) => d.code(i) as i64,
        }
    }

    /// Borrow as `&[i8]`, if that is the physical type.
    pub fn as_i8(&self) -> Option<&[i8]> {
        match self {
            ColumnData::I8(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i16]`, if that is the physical type.
    pub fn as_i16(&self) -> Option<&[i16]> {
        match self {
            ColumnData::I16(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i32]`, if that is the physical type.
    pub fn as_i32(&self) -> Option<&[i32]> {
        match self {
            ColumnData::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[i64]`, if that is the physical type.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            ColumnData::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[u32]`, if that is the physical type.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            ColumnData::U32(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow the dictionary column, if that is the physical type.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            ColumnData::Dict(d) => Some(d),
            _ => None,
        }
    }

    /// Null-suppress a signed integer column into the narrowest of
    /// `I8`/`I16`/`I32`/`I64` that holds its whole [min, max] (an empty
    /// column becomes `I8`). `U32` (row positions, foreign keys) and `Dict`
    /// pass through unchanged. [`crate::Table::add_column`] is its only
    /// caller: every column is narrowed once, as it enters a table.
    ///
    /// The paper (§ IV) stores low-cardinality integer columns this way;
    /// narrower values mean more values per cache line, which directly feeds
    /// the `read_seq` term of the cost models.
    pub(crate) fn narrowed(self) -> ColumnData {
        fn narrow<T: Copy + Into<i64>>(v: Vec<T>) -> ColumnData
        where
            ColumnData: From<Vec<T>>,
        {
            // Folding from (0, 0) widens the range towards 0, which every
            // signed width holds, so it picks the same width as the bare
            // [min, max] and sends an empty column to `I8`.
            let (lo, hi) = v.iter().fold((0, 0), |(lo, hi): (i64, i64), &x| {
                (lo.min(x.into()), hi.max(x.into()))
            });
            let fits = |min: i64, max: i64| lo >= min && hi <= max;
            let width = std::mem::size_of::<T>();
            if fits(i8::MIN.into(), i8::MAX.into()) {
                ColumnData::I8(v.into_iter().map(|x| x.into() as i8).collect())
            } else if width > 2 && fits(i16::MIN.into(), i16::MAX.into()) {
                ColumnData::I16(v.into_iter().map(|x| x.into() as i16).collect())
            } else if width > 4 && fits(i32::MIN.into(), i32::MAX.into()) {
                ColumnData::I32(v.into_iter().map(|x| x.into() as i32).collect())
            } else {
                ColumnData::from(v)
            }
        }
        match self {
            ColumnData::I16(v) => narrow(v),
            ColumnData::I32(v) => narrow(v),
            ColumnData::I64(v) => narrow(v),
            other => other,
        }
    }

    /// Materialize every value widened to `i64` (used by the reference
    /// interpreter; not a hot path).
    pub fn to_i64_vec(&self) -> Vec<i64> {
        (0..self.len()).map(|i| self.get_i64(i)).collect()
    }
}

impl From<Vec<i8>> for ColumnData {
    fn from(v: Vec<i8>) -> Self {
        ColumnData::I8(v)
    }
}
impl From<Vec<i16>> for ColumnData {
    fn from(v: Vec<i16>) -> Self {
        ColumnData::I16(v)
    }
}
impl From<Vec<i32>> for ColumnData {
    fn from(v: Vec<i32>) -> Self {
        ColumnData::I32(v)
    }
}
impl From<Vec<i64>> for ColumnData {
    fn from(v: Vec<i64>) -> Self {
        ColumnData::I64(v)
    }
}
impl From<Vec<u32>> for ColumnData {
    fn from(v: Vec<u32>) -> Self {
        ColumnData::U32(v)
    }
}
impl From<DictColumn> for ColumnData {
    fn from(d: DictColumn) -> Self {
        ColumnData::Dict(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `data` as a table stores it.
    fn stored(data: ColumnData) -> ColumnData {
        crate::Table::new("t")
            .with_column("c", data)
            .column_at(0)
            .clone()
    }

    #[test]
    fn compress_picks_narrowest_width() {
        let cases: [(i64, i64, DataType); 13] = [
            (i8::MIN.into(), i8::MAX.into(), DataType::I8),
            (i8::MIN as i64 - 1, 0, DataType::I16),
            (0, i8::MAX as i64 + 1, DataType::I16),
            (i16::MIN.into(), i16::MAX.into(), DataType::I16),
            (i16::MIN as i64 - 1, 0, DataType::I32),
            (0, i16::MAX as i64 + 1, DataType::I32),
            (i32::MIN.into(), i32::MAX.into(), DataType::I32),
            (i32::MIN as i64 - 1, 0, DataType::I64),
            (0, i32::MAX as i64 + 1, DataType::I64),
            (i64::MIN, i64::MAX, DataType::I64),
            (i64::MIN, i64::MIN, DataType::I64),
            (200, 300, DataType::I16),
            (-3, -1, DataType::I8),
        ];
        for (lo, hi, want) in cases {
            let col = stored(ColumnData::I64(vec![hi, lo, hi]));
            assert_eq!(col.data_type(), want, "[{lo}, {hi}]");
            assert_eq!(col.to_i64_vec(), vec![hi, lo, hi], "[{lo}, {hi}]");
        }
    }

    #[test]
    fn every_signed_width_enters_at_the_narrowest() {
        assert_eq!(stored(ColumnData::I8(vec![-1])).data_type(), DataType::I8);
        assert_eq!(stored(ColumnData::I16(vec![-1])).data_type(), DataType::I8);
        assert_eq!(
            stored(ColumnData::I16(vec![i16::MAX])).data_type(),
            DataType::I16
        );
        assert_eq!(stored(ColumnData::I32(vec![50])).data_type(), DataType::I8);
        assert_eq!(
            stored(ColumnData::I32(vec![-129])).data_type(),
            DataType::I16
        );
        assert_eq!(
            stored(ColumnData::I32(vec![i32::MIN])).data_type(),
            DataType::I32
        );
    }

    #[test]
    fn positions_and_dictionaries_pass_through() {
        let fk = ColumnData::U32(vec![0, 1, 2]);
        assert_eq!(stored(fk.clone()), fk);
        let dict = ColumnData::Dict(DictColumn::encode(&["a", "b", "a"]));
        assert_eq!(stored(dict.clone()), dict);
    }

    #[test]
    fn compress_round_trips_values() {
        let vals = vec![-5, 0, 7, 127, -128];
        let col = stored(ColumnData::I64(vals.clone()));
        assert_eq!(col.data_type(), DataType::I8);
        assert_eq!(col.to_i64_vec(), vals);
    }

    #[test]
    fn compress_empty_is_i8() {
        for empty in [
            ColumnData::I16(vec![]),
            ColumnData::I32(vec![]),
            ColumnData::I64(vec![]),
        ] {
            let col = stored(empty);
            assert_eq!(col.data_type(), DataType::I8);
            assert!(col.is_empty());
        }
        assert_eq!(stored(ColumnData::U32(vec![])).data_type(), DataType::U32);
    }

    #[test]
    fn get_i64_widens_every_type() {
        assert_eq!(ColumnData::I8(vec![-1]).get_i64(0), -1);
        assert_eq!(ColumnData::I16(vec![-300]).get_i64(0), -300);
        assert_eq!(ColumnData::I32(vec![1 << 20]).get_i64(0), 1 << 20);
        assert_eq!(ColumnData::I64(vec![1 << 40]).get_i64(0), 1 << 40);
        assert_eq!(ColumnData::U32(vec![u32::MAX]).get_i64(0), u32::MAX as i64);
    }

    #[test]
    fn size_bytes_accounts_for_width() {
        assert_eq!(ColumnData::I8(vec![0; 10]).size_bytes(), 10);
        assert_eq!(ColumnData::I64(vec![0; 10]).size_bytes(), 80);
        assert_eq!(ColumnData::U32(vec![0; 10]).size_bytes(), 40);
    }

    #[test]
    fn typed_borrows_match_variant() {
        let c = ColumnData::I32(vec![1, 2]);
        assert!(c.as_i32().is_some());
        assert!(c.as_i64().is_none());
        assert!(c.as_i8().is_none());
        assert!(c.as_dict().is_none());
    }
}
