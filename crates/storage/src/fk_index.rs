//! The hand-coded pipelines' foreign-key (positional) index.

/// A foreign-key index mapping each child row to the **position** of its
/// parent row, as an owned copy of the child's FK column.
///
/// The paper (§ III-D): "Positional bitmaps exploit the referential integrity
/// constraint of foreign keys, which is typically enforced by building an
/// index to check the corresponding primary key. Thus, since these indexes
/// are necessary, our technique does not incur any additional overhead."
///
/// The engine needs no such copy: with dense parent keys the child's `U32`
/// FK column already holds every position, so a foreign key registered in
/// the engine's catalog *is* that column, validated once — and "no
/// additional overhead" holds literally. This type is the hand-coded
/// yardstick's (`swole-micro`) stand-in for the index.
///
/// On the probe side of a bitmap semijoin, `positions[i]` gives the bit
/// offset to test for child row `i` — a purely positional lookup, no hashing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FkIndex {
    positions: Vec<u32>,
    parent_len: usize,
}

impl FkIndex {
    /// The parent primary key is dense `0..parent_len`, so the FK values
    /// *are* the positions. All generated tables in this repo use dense
    /// surrogate keys.
    pub fn from_dense(fk_positions: Vec<u32>, parent_len: usize) -> FkIndex {
        debug_assert!(fk_positions.iter().all(|&p| (p as usize) < parent_len));
        FkIndex {
            positions: fk_positions,
            parent_len,
        }
    }

    /// The whole position array (what probe kernels scan).
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Number of child rows.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` if there are no child rows.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Number of parent rows (the domain of positions, i.e. the required
    /// positional-bitmap length).
    pub fn parent_len(&self) -> usize {
        self.parent_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_fast_path() {
        let idx = FkIndex::from_dense(vec![0, 2, 1], 3);
        assert_eq!(idx.positions(), &[0, 2, 1]);
        assert_eq!((idx.len(), idx.parent_len()), (3, 3));
    }
}
