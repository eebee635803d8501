//! The contract the two group-table representations share.

use crate::agg_table::{AggTable, HtCounters, MergeOp};

/// A table from `i64` group keys to `n_aggs` `i64` aggregate slots, as the
/// group-by, groupjoin and eager-aggregation loops use one: find-or-insert
/// hands out a state offset, updates index the flat state array with it.
///
/// Two representations implement it — the open-addressing [`AggTable`] and
/// the [`crate::DenseAggTable`] for key domains known exactly — with one
/// contract: [`crate::NULL_KEY`] maps to a throwaway entry that `len` and
/// `iter` exclude, valid flags tell real updates from masked ones, additive
/// updates and merges are one wrapping add each, and merging is commutative
/// and associative. The kernels are generic over it, so a
/// pipeline is compiled once per representation and the per-lane loop never
/// asks which one it has.
///
/// An **upsert** is [`GroupTable::entry`], the adds, then one of
/// [`GroupTable::set_valid`] / [`GroupTable::or_valid`]: the valid update is
/// what makes the key an entry of the table (a representation may record
/// presence there rather than in `entry`), and a loop tells the table once
/// per tile how many upserts it issued ([`GroupTable::note_probes`]).
pub trait GroupTable {
    /// Find or insert `key`, returning its state offset.
    fn entry(&mut self, key: i64) -> usize;
    /// Wrapping-add `v` to aggregate slot `agg` of the entry at `offset`.
    fn add(&mut self, offset: usize, agg: usize, v: i64);
    /// Mark the entry at `offset` valid.
    fn set_valid(&mut self, offset: usize);
    /// OR `flag` (0 or 1) into the valid flag of the entry at `offset`.
    fn or_valid(&mut self, offset: usize, flag: u8);
    /// Count `n` [`GroupTable::entry`] calls in [`HtCounters::probes`]. A
    /// table whose `entry` counts for itself ignores it.
    fn note_probes(&mut self, n: usize);
    /// The valid flag of the entry at `offset`.
    fn is_valid(&self, offset: usize) -> bool;
    /// The flat state array, indexed by offsets from [`GroupTable::entry`].
    fn states_mut(&mut self) -> &mut [i64];
    /// Delete `key`, returning `true` if it was present.
    fn delete(&mut self, key: i64) -> bool;
    /// Fold another partial table of the same layout into this one, slot
    /// `i` combining under `ops[i]`.
    fn merge_from(&mut self, other: &Self, ops: &[MergeOp]);
    /// Live real entries as `(key, state, valid)`.
    fn iter(&self) -> impl Iterator<Item = (i64, &[i64], bool)>;
    /// Number of distinct real keys stored.
    fn len(&self) -> usize;
    /// `true` if no real keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Payload size in bytes.
    fn size_bytes(&self) -> usize;
    /// Lifetime access counters.
    fn counters(&self) -> HtCounters;
}

impl GroupTable for AggTable {
    #[inline(always)]
    fn entry(&mut self, key: i64) -> usize {
        AggTable::entry(self, key)
    }
    #[inline(always)]
    fn add(&mut self, offset: usize, agg: usize, v: i64) {
        AggTable::add(self, offset, agg, v);
    }
    #[inline(always)]
    fn set_valid(&mut self, offset: usize) {
        AggTable::set_valid(self, offset);
    }
    #[inline(always)]
    fn or_valid(&mut self, offset: usize, flag: u8) {
        AggTable::or_valid(self, offset, flag);
    }
    /// [`AggTable::entry`] has the counters' cache line in hand anyway.
    #[inline(always)]
    fn note_probes(&mut self, _n: usize) {}
    #[inline(always)]
    fn is_valid(&self, offset: usize) -> bool {
        AggTable::is_valid(self, offset)
    }
    #[inline(always)]
    fn states_mut(&mut self) -> &mut [i64] {
        AggTable::states_mut(self)
    }
    fn delete(&mut self, key: i64) -> bool {
        AggTable::delete(self, key)
    }
    fn merge_from(&mut self, other: &AggTable, ops: &[MergeOp]) {
        AggTable::merge_from(self, other, ops);
    }
    fn iter(&self) -> impl Iterator<Item = (i64, &[i64], bool)> {
        AggTable::iter(self)
    }
    fn len(&self) -> usize {
        AggTable::len(self)
    }
    fn size_bytes(&self) -> usize {
        AggTable::size_bytes(self)
    }
    fn counters(&self) -> HtCounters {
        AggTable::counters(self)
    }
}
