//! Group-by aggregation hash table.

// Open-addressing invariant: every probe index is produced by
// `slot_for` (high bits of the hash shifted down to the power-of-two
// capacity) or by `& (capacity - 1)` wrap-around, so slot indexing is
// in-bounds by construction and probe arithmetic is bounded by the
// capacity (dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::hash::{hash_i64, slot_for};

/// The key that key masking (§ III-B) stores for filtered tuples.
///
/// It is an ordinary hashable key — the throwaway is a *normal entry in the
/// hash table* (§ III-B: "maps to the throwaway entry in the hash table"),
/// so routing a masked tuple to it takes the same branch-free probe as any
/// other key and the entry stays cached because it is touched constantly.
/// [`AggTable::iter`] and [`AggTable::len`] exclude it; read its state with
/// [`AggTable::null_state`].
pub const NULL_KEY: i64 = i64::MIN + 1;

/// Sentinel marking an empty slot. Real group keys may not take this value
/// (or [`NULL_KEY`] / [`TOMBSTONE`]); all workloads in this repo use small
/// non-negative keys, and [`AggTable::entry`] debug-asserts it.
const EMPTY: i64 = i64::MIN;

/// Sentinel marking a deleted slot under [`DeletePolicy::Tombstone`].
const TOMBSTONE: i64 = i64::MIN + 2;

/// How one aggregate slot combines across two partial tables in
/// [`AggTable::merge_from`].
///
/// Sum and count states merge by addition; min/max states merge by the
/// matching comparison. All three are commutative and associative over
/// `i64`, which is what makes morsel-parallel aggregation deterministic:
/// the merged table is identical no matter how rows were partitioned
/// across threads or in which order partials merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// `state += other` (sum and count aggregates).
    Add,
    /// `state = state.min(other)`.
    Min,
    /// `state = state.max(other)`.
    Max,
}

/// Lifetime access counters for a hash table, read via
/// [`AggTable::counters`] (or `KeySet::counters`).
///
/// Counting happens on the mutation path only (`entry`, `insert`, `grow`),
/// as plain `u64` adds on cache lines the probe loop already owns — cheap
/// enough to stay always-on. `probes` and `inserts` are properties of the
/// update stream, but `probe_steps`, `resizes`, and `bytes_allocated`
/// depend on insertion *order* and table occupancy, so for thread-local
/// tables they vary with how rows were partitioned across workers: the
/// metrics layer reports them as indicative, not deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtCounters {
    /// Find-or-insert operations issued.
    pub probes: u64,
    /// Extra slots walked past the home slot (linear-probe collisions).
    pub probe_steps: u64,
    /// Keys newly inserted (first touch of a distinct key).
    pub inserts: u64,
    /// Capacity doublings.
    pub resizes: u64,
    /// Cumulative bytes allocated, including the initial arrays and every
    /// regrow (old arrays are freed, so this is traffic, not residency).
    pub bytes_allocated: u64,
}

impl HtCounters {
    /// Fold another table's counters into this one (summing per-worker
    /// partial tables for reporting).
    pub fn merge(&mut self, other: &HtCounters) {
        self.probes += other.probes;
        self.probe_steps += other.probe_steps;
        self.inserts += other.inserts;
        self.resizes += other.resizes;
        self.bytes_allocated += other.bytes_allocated;
    }
}

/// How [`AggTable::delete`] removes entries.
///
/// Eager aggregation (§ III-E) deletes every key filtered by the join; the
/// two classic linear-probing deletion strategies trade probe-sequence
/// health against deletion cost. `ablations` benches both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletePolicy {
    /// Shift the following probe-sequence entries backwards. Slightly more
    /// work per delete, but keeps probe sequences short forever.
    #[default]
    BackwardShift,
    /// Mark the slot with a tombstone. O(1) delete, but lookups must skip
    /// tombstones until the next rehash.
    Tombstone,
}

/// An open-addressing hash table from `i64` group keys to fixed-width
/// aggregate state (`n_aggs` `i64` slots per key).
///
/// Layout: parallel `keys` / `valid` arrays of `capacity` slots plus a flat
/// `states` array of `(capacity + 1) * n_aggs` values. State offset 0 is the
/// **throwaway entry** for [`NULL_KEY`]; slot `s` owns offset
/// `(s + 1) * n_aggs`. [`AggTable::entry`] hands out state offsets so the hot
/// update loop is `states[off + k] += v` with no further indirection.
#[derive(Debug, Clone)]
pub struct AggTable {
    keys: Vec<i64>,
    states: Vec<i64>,
    valid: Vec<u8>,
    n_aggs: usize,
    cap_log2: u32,
    len: usize,
    tombstones: usize,
    policy: DeletePolicy,
    /// Sticky flag set when any additive update or merge wrapped around
    /// `i64` — see [`AggTable::overflow_detected`].
    overflowed: bool,
    counters: HtCounters,
}

impl AggTable {
    /// Create a table with room for roughly `expected_keys` distinct keys
    /// before the first grow, each carrying `n_aggs` aggregate values.
    pub fn with_capacity(n_aggs: usize, expected_keys: usize) -> AggTable {
        assert!(n_aggs > 0, "need at least one aggregate slot");
        let cap = AggTable::initial_capacity(expected_keys);
        let mut t = AggTable {
            keys: vec![EMPTY; cap],
            states: vec![0; (cap + 1) * n_aggs],
            valid: vec![0; cap],
            n_aggs,
            cap_log2: cap.trailing_zeros(),
            len: 0,
            tombstones: 0,
            policy: DeletePolicy::default(),
            overflowed: false,
            counters: HtCounters::default(),
        };
        t.counters.bytes_allocated = t.size_bytes() as u64;
        t
    }

    /// Slots a table (or a [`crate::KeySet`]) expecting `expected_keys`
    /// starts with: a power of two sized for a max load factor of 50% so
    /// probe sequences stay short even with uniform (worst-case, per the
    /// paper) keys. Saturating, like the two formulas below, so the
    /// verifier's bounds pass can evaluate them at any row count.
    pub fn initial_capacity(expected_keys: usize) -> usize {
        expected_keys
            .max(4)
            .saturating_mul(2)
            .checked_next_power_of_two()
            .unwrap_or(usize::MAX)
    }

    /// Distinct keys a grouped aggregation's table is sized for before any
    /// row is seen: half of the `fk_parent_rows` positions when the key is a
    /// foreign key into a table of that many rows (a groupjoin, sized as if
    /// half the parents qualify), a small constant for any other key. The
    /// executor's initial allocation and the verifier's bounds pass both
    /// start from this.
    pub fn expected_group_keys(fk_parent_rows: Option<usize>) -> usize {
        match fk_parent_rows {
            Some(rows) => (rows / 2).max(16),
            None => 64,
        }
    }

    /// Upper bound on the slots of a table that started at `cap0` once
    /// `keys` distinct keys are in it: it doubles whenever
    /// `(len + 1) * 2 > cap`, so the occupants (plus the throwaway entry)
    /// force the first power of two at or above `2 * keys + 2`, and it never
    /// shrinks below `cap0`.
    pub fn grown_capacity(cap0: usize, keys: usize) -> usize {
        cap0.max(
            keys.saturating_mul(2)
                .saturating_add(2)
                .checked_next_power_of_two()
                .unwrap_or(usize::MAX),
        )
    }

    /// [`AggTable::size_bytes`] of a table with `capacity` slots and
    /// `n_aggs` aggregate values per key.
    pub fn bytes_for(capacity: usize, n_aggs: usize) -> usize {
        capacity
            .saturating_mul(8)
            .saturating_add(
                capacity
                    .saturating_add(1)
                    .saturating_mul(n_aggs)
                    .saturating_mul(8),
            )
            .saturating_add(capacity)
    }

    /// Upper bound on [`AggTable::size_bytes`] of a grouped aggregation's
    /// table that started out sized as the executor sizes it
    /// (`fk_parent_rows` as in [`AggTable::expected_group_keys`]) once `keys`
    /// distinct keys are in it. The verifier's bounds pass charges this; the
    /// planner compares the dense array against it.
    pub fn grown_bytes(fk_parent_rows: Option<usize>, keys: usize, n_aggs: usize) -> usize {
        let cap0 = AggTable::initial_capacity(AggTable::expected_group_keys(fk_parent_rows));
        AggTable::bytes_for(AggTable::grown_capacity(cap0, keys), n_aggs)
    }

    /// Select the deletion strategy (defaults to backward shift).
    pub fn with_delete_policy(mut self, policy: DeletePolicy) -> AggTable {
        self.policy = policy;
        self
    }

    /// Number of distinct real keys currently stored (the throwaway entry is
    /// never counted).
    pub fn len(&self) -> usize {
        self.len - self.find(NULL_KEY).is_some() as usize
    }

    /// `true` if no real keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        1 << self.cap_log2
    }

    /// Aggregate slots per key.
    pub fn n_aggs(&self) -> usize {
        self.n_aggs
    }

    /// Approximate payload size in bytes — what the cost model compares
    /// against cache sizes to price `ht_lookup`.
    pub fn size_bytes(&self) -> usize {
        AggTable::bytes_for(self.capacity(), self.n_aggs)
    }

    /// Find or insert `key`, returning its state offset into
    /// [`AggTable::states`]. [`NULL_KEY`] maps to the throwaway entry.
    ///
    /// Offsets are invalidated by any subsequent insert (the table may grow);
    /// the kernels never hold offsets across inserts.
    #[inline]
    pub fn entry(&mut self, key: i64) -> usize {
        debug_assert!(key != EMPTY && key != TOMBSTONE, "reserved key value");
        if (self.len + self.tombstones + 1) * 2 > self.capacity() {
            self.grow();
        }
        let mask = self.capacity() - 1;
        let mut slot = slot_for(hash_i64(key), self.cap_log2);
        let mut first_tombstone = usize::MAX;
        self.counters.probes += 1;
        loop {
            let k = self.keys[slot];
            if k == key {
                return (slot + 1) * self.n_aggs;
            }
            if k == EMPTY {
                let dest = if first_tombstone != usize::MAX {
                    self.tombstones -= 1;
                    first_tombstone
                } else {
                    slot
                };
                self.keys[dest] = key;
                self.len += 1;
                self.counters.inserts += 1;
                let off = (dest + 1) * self.n_aggs;
                self.states[off..off + self.n_aggs].fill(0);
                self.valid[dest] = 0;
                return off;
            }
            if k == TOMBSTONE && first_tombstone == usize::MAX {
                first_tombstone = slot;
            }
            slot = (slot + 1) & mask;
            self.counters.probe_steps += 1;
        }
    }

    /// Find `key` without inserting. Returns its state offset, or `None`.
    #[inline]
    pub fn find(&self, key: i64) -> Option<usize> {
        let mask = self.capacity() - 1;
        let mut slot = slot_for(hash_i64(key), self.cap_log2);
        loop {
            let k = self.keys[slot];
            if k == key {
                return Some((slot + 1) * self.n_aggs);
            }
            if k == EMPTY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Mutable access to the flat state array (hot update loops index it
    /// directly with offsets from [`AggTable::entry`]).
    #[inline(always)]
    pub fn states_mut(&mut self) -> &mut [i64] {
        &mut self.states
    }

    /// Shared access to the flat state array.
    #[inline(always)]
    pub fn states(&self) -> &[i64] {
        &self.states
    }

    /// Add `v` to aggregate slot `agg` of the entry at `offset`.
    ///
    /// Uses explicit wrapping arithmetic — identical semantics in debug and
    /// release builds — and records wraparound in a sticky flag readable
    /// via [`AggTable::overflow_detected`]. Callers decide whether a
    /// detected overflow is real or wasted-work noise (masked strategies
    /// aggregate filtered tuples too) and typically re-run data-centric.
    #[inline(always)]
    pub fn add(&mut self, offset: usize, agg: usize, v: i64) {
        debug_assert!(agg < self.n_aggs);
        let (sum, wrapped) = self.states[offset + agg].overflowing_add(v);
        self.states[offset + agg] = sum;
        self.overflowed |= wrapped;
    }

    /// [`AggTable::add`] without the sticky flag, for an accumulator a
    /// bounds certificate proved cannot leave `i64`. Still an explicit
    /// wrapping add: a wrong proof gives a wrong sum, never a panic.
    #[inline(always)]
    pub fn add_proven(&mut self, offset: usize, agg: usize, v: i64) {
        debug_assert!(agg < self.n_aggs);
        self.states[offset + agg] = self.states[offset + agg].wrapping_add(v);
    }

    /// `true` if any [`AggTable::add`] or [`AggTable::merge_from`] addition
    /// has wrapped around `i64` since the table was created (the flag also
    /// propagates from merged-in partials).
    #[inline]
    pub fn overflow_detected(&self) -> bool {
        self.overflowed
    }

    /// OR `flag` (0 or 1) into the valid bit of the entry at `offset`.
    ///
    /// Value masking bookkeeping (§ III-B): every tuple — masked or not —
    /// touches its real group entry, so a flag distinguishes entries that
    /// only ever received masked (zero) updates from real groups whose
    /// aggregate happens to be zero. (The throwaway entry's flag is
    /// irrelevant: [`AggTable::iter`] always excludes it.)
    #[inline(always)]
    pub fn or_valid(&mut self, offset: usize, flag: u8) {
        self.valid[offset / self.n_aggs - 1] |= flag;
    }

    /// Mark the entry at `offset` valid unconditionally (used by strategies
    /// that only touch entries for qualifying tuples).
    #[inline(always)]
    pub fn set_valid(&mut self, offset: usize) {
        self.valid[offset / self.n_aggs - 1] = 1;
    }

    /// Read the valid flag of the entry at `offset` (the throwaway entry is
    /// never valid).
    #[inline(always)]
    pub fn is_valid(&self, offset: usize) -> bool {
        self.valid[offset / self.n_aggs - 1] != 0
    }

    /// Delete `key`, returning `true` if it was present. [`NULL_KEY`] clears
    /// the throwaway state instead.
    pub fn delete(&mut self, key: i64) -> bool {
        let mask = self.capacity() - 1;
        let mut slot = slot_for(hash_i64(key), self.cap_log2);
        loop {
            let k = self.keys[slot];
            if k == key {
                match self.policy {
                    DeletePolicy::Tombstone => {
                        self.keys[slot] = TOMBSTONE;
                        self.tombstones += 1;
                    }
                    DeletePolicy::BackwardShift => self.backward_shift(slot),
                }
                self.len -= 1;
                return true;
            }
            if k == EMPTY {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Backward-shift deletion: walk the cluster after `hole`, moving back
    /// any entry whose home slot means it is reachable through `hole`.
    fn backward_shift(&mut self, mut hole: usize) {
        let mask = self.capacity() - 1;
        self.keys[hole] = EMPTY;
        let mut probe = (hole + 1) & mask;
        loop {
            let k = self.keys[probe];
            if k == EMPTY {
                return;
            }
            if k != TOMBSTONE {
                let home = slot_for(hash_i64(k), self.cap_log2);
                // `probe` is reachable from `home`; if `hole` lies on the
                // cyclic path home..=probe the entry must move back into it.
                let dist_hole = hole.wrapping_sub(home) & mask;
                let dist_probe = probe.wrapping_sub(home) & mask;
                if dist_hole <= dist_probe {
                    self.keys[hole] = k;
                    self.valid[hole] = self.valid[probe];
                    let (src, dst) = ((probe + 1) * self.n_aggs, (hole + 1) * self.n_aggs);
                    for a in 0..self.n_aggs {
                        self.states[dst + a] = self.states[src + a];
                    }
                    self.keys[probe] = EMPTY;
                    hole = probe;
                }
            }
            probe = (probe + 1) & mask;
        }
    }

    /// Lifetime access counters (probes, collisions, inserts, regrows,
    /// allocation traffic). See [`HtCounters`] for which fields are
    /// partition-order-dependent.
    pub fn counters(&self) -> HtCounters {
        self.counters
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_states = std::mem::take(&mut self.states);
        let old_valid = std::mem::take(&mut self.valid);
        self.cap_log2 += 1;
        let cap = 1 << self.cap_log2;
        self.keys = vec![EMPTY; cap];
        self.states = vec![0; (cap + 1) * self.n_aggs];
        self.valid = vec![0; cap];
        self.len = 0;
        self.tombstones = 0;
        self.counters.resizes += 1;
        self.counters.bytes_allocated += self.size_bytes() as u64;
        let mask = cap - 1;
        for (slot, &k) in old_keys.iter().enumerate() {
            if k == EMPTY || k == TOMBSTONE {
                continue;
            }
            let mut s = slot_for(hash_i64(k), self.cap_log2);
            while self.keys[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.keys[s] = k;
            self.valid[s] = old_valid[slot];
            let (src, dst) = ((slot + 1) * self.n_aggs, (s + 1) * self.n_aggs);
            self.states[dst..dst + self.n_aggs]
                .copy_from_slice(&old_states[src..src + self.n_aggs]);
            self.len += 1;
        }
    }

    /// Iterate over live real entries as `(key, state, valid)`. The
    /// throwaway entry is excluded; use [`AggTable::null_state`] for it.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &[i64], bool)> {
        self.keys.iter().enumerate().filter_map(move |(slot, &k)| {
            if k == EMPTY || k == TOMBSTONE || k == NULL_KEY {
                None
            } else {
                let off = (slot + 1) * self.n_aggs;
                Some((
                    k,
                    &self.states[off..off + self.n_aggs],
                    self.valid[slot] != 0,
                ))
            }
        })
    }

    /// Merge another partial table into this one, slot `i` combining under
    /// `ops[i]` — the reduction step of morsel-parallel aggregation, where
    /// each worker fills a thread-local table and the partials fold into
    /// one.
    ///
    /// Keys absent from `self` are inserted with `other`'s state and valid
    /// flag. Keys present in both combine per op; valid flags OR. Min/max
    /// slots consult the valid flags (an entry that only ever received
    /// masked updates has no real min/max yet), so merging is safe even for
    /// tables built by masking strategies. The throwaway entry's state
    /// always merges additively — only masked (zero-add) updates ever land
    /// there.
    ///
    /// The result is bit-identical regardless of how rows were partitioned
    /// into partials or the order partials merge, because every op is
    /// commutative and associative over `i64`.
    pub fn merge_from(&mut self, other: &AggTable, ops: &[MergeOp]) {
        assert_eq!(self.n_aggs, other.n_aggs, "incompatible layouts");
        assert_eq!(ops.len(), self.n_aggs, "one MergeOp per aggregate slot");
        self.overflowed |= other.overflowed;
        for (slot, &k) in other.keys.iter().enumerate() {
            if k == EMPTY || k == TOMBSTONE {
                continue;
            }
            let src = (slot + 1) * other.n_aggs;
            if k == NULL_KEY {
                let dst = self.entry(NULL_KEY);
                for i in 0..self.n_aggs {
                    let (sum, wrapped) =
                        self.states[dst + i].overflowing_add(other.states[src + i]);
                    self.states[dst + i] = sum;
                    self.overflowed |= wrapped;
                }
                continue;
            }
            let other_valid = other.valid[slot];
            let existed = self.find(k).is_some();
            let dst = self.entry(k);
            if !existed {
                for i in 0..self.n_aggs {
                    self.states[dst + i] = other.states[src + i];
                }
                self.or_valid(dst, other_valid);
                continue;
            }
            let self_valid = self.is_valid(dst);
            let mut wrapped_any = false;
            for (i, op) in ops.iter().enumerate() {
                let theirs = other.states[src + i];
                let s = &mut self.states[dst + i];
                match op {
                    MergeOp::Add => {
                        let (sum, wrapped) = (*s).overflowing_add(theirs);
                        *s = sum;
                        wrapped_any |= wrapped;
                    }
                    MergeOp::Min | MergeOp::Max => {
                        // A min/max state is only meaningful once its entry
                        // has seen a real (unmasked) update.
                        if other_valid != 0 {
                            *s = if !self_valid {
                                theirs
                            } else if *op == MergeOp::Min {
                                (*s).min(theirs)
                            } else {
                                (*s).max(theirs)
                            };
                        }
                    }
                }
            }
            self.overflowed |= wrapped_any;
            self.or_valid(dst, other_valid);
        }
    }

    /// The throwaway entry's accumulated state (all zeros if no masked
    /// tuple ever landed there — state offset 0 is never written, so it
    /// doubles as the zero default).
    pub fn null_state(&self) -> &[i64] {
        match self.find(NULL_KEY) {
            Some(off) => &self.states[off..off + self.n_aggs],
            None => &self.states[..self.n_aggs],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_update_lookup() {
        let mut t = AggTable::with_capacity(2, 4);
        let off = t.entry(7);
        t.add(off, 0, 10);
        t.add(off, 1, 1);
        let off = t.entry(7);
        t.add(off, 0, 5);
        t.add(off, 1, 1);
        assert_eq!(t.len(), 1);
        let found = t.find(7).unwrap();
        assert_eq!(&t.states()[found..found + 2], &[15, 2]);
        assert!(t.find(8).is_none());
    }

    #[test]
    fn null_key_routes_to_throwaway() {
        let mut t = AggTable::with_capacity(1, 4);
        let off = t.entry(NULL_KEY);
        t.add(off, 0, 99);
        let off2 = t.entry(NULL_KEY);
        assert_eq!(off, off2, "one throwaway entry");
        assert_eq!(t.null_state(), &[99]);
        assert_eq!(t.len(), 0, "throwaway is not a real entry");
        assert_eq!(t.iter().count(), 0);
        // Without any masked tuples, the throwaway state reads as zeros.
        let empty = AggTable::with_capacity(2, 4);
        assert_eq!(empty.null_state(), &[0, 0]);
    }

    #[test]
    fn growth_stays_under_grown_capacity_bound() {
        // The bound must dominate the *final* table size after any number
        // of doubling grows, including the throwaway NULL entry.
        for n_aggs in [1usize, 3] {
            for expected in [4usize, 64] {
                for keys in [1usize, 10, 100, 500, 3000] {
                    let mut t = AggTable::with_capacity(n_aggs, expected);
                    for k in 0..keys {
                        let off = t.entry(k as i64);
                        t.add(off, 0, 1);
                    }
                    let cap0 = AggTable::initial_capacity(expected);
                    let bound = AggTable::bytes_for(AggTable::grown_capacity(cap0, keys), n_aggs);
                    assert!(
                        t.size_bytes() <= bound,
                        "grown table {} B exceeds bound {bound} B \
                         (expected={expected}, keys={keys}, n_aggs={n_aggs})",
                        t.size_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn growth_preserves_everything() {
        let mut t = AggTable::with_capacity(1, 4);
        let null_off = t.entry(NULL_KEY);
        t.add(null_off, 0, -7);
        for k in 0..1000 {
            let off = t.entry(k);
            t.add(off, 0, k * 2);
            t.set_valid(off);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity() >= 2000);
        for k in 0..1000 {
            let off = t.find(k).unwrap();
            assert_eq!(t.states()[off], k * 2);
        }
        assert_eq!(t.null_state(), &[-7]);
        assert!(t.iter().all(|(_, _, v)| v));
    }

    #[test]
    fn valid_flag_bookkeeping() {
        let mut t = AggTable::with_capacity(1, 8);
        let a = t.entry(1);
        t.or_valid(a, 0); // masked update only
        let b = t.entry(2);
        t.or_valid(b, 1); // real update
        let flags: HashMap<i64, bool> = t.iter().map(|(k, _, v)| (k, v)).collect();
        assert!(!flags[&1]);
        assert!(flags[&2]);
    }

    #[test]
    fn delete_backward_shift_keeps_probes_working() {
        let mut t = AggTable::with_capacity(1, 64);
        for k in 0..50 {
            let off = t.entry(k);
            t.add(off, 0, k + 100);
        }
        for k in (0..50).step_by(2) {
            assert!(t.delete(k));
            assert!(!t.delete(k), "double delete must report absence");
        }
        assert_eq!(t.len(), 25);
        for k in 0..50 {
            if k % 2 == 0 {
                assert!(t.find(k).is_none(), "key {k} should be gone");
            } else {
                let off = t.find(k).expect("odd key must survive");
                assert_eq!(t.states()[off], k + 100);
            }
        }
    }

    #[test]
    fn delete_tombstone_keeps_probes_working() {
        let mut t = AggTable::with_capacity(1, 64).with_delete_policy(DeletePolicy::Tombstone);
        for k in 0..50 {
            let off = t.entry(k);
            t.add(off, 0, k);
        }
        for k in 25..50 {
            assert!(t.delete(k));
        }
        for k in 0..25 {
            assert!(t.find(k).is_some());
        }
        for k in 25..50 {
            assert!(t.find(k).is_none());
        }
        // Re-insert reuses tombstones with fresh state.
        let off = t.entry(30);
        assert_eq!(t.states()[off], 0);
        assert_eq!(t.len(), 26);
    }

    #[test]
    fn delete_null_key_clears_throwaway() {
        let mut t = AggTable::with_capacity(1, 4);
        let off = t.entry(NULL_KEY);
        t.add(off, 0, 5);
        assert_eq!(t.null_state(), &[5]);
        assert!(t.delete(NULL_KEY));
        assert!(!t.delete(NULL_KEY));
        assert_eq!(t.null_state(), &[0]);
    }

    #[test]
    fn matches_std_hashmap_under_mixed_ops() {
        // Deterministic pseudo-random op sequence cross-checked against
        // HashMap<i64, i64>.
        let mut t = AggTable::with_capacity(1, 4);
        let mut reference: HashMap<i64, i64> = HashMap::new();
        let mut state = 0x12345678u64;
        // Miri runs this cross-check at a reduced op count (it interprets
        // every memory access; the full count takes minutes there).
        let ops = if cfg!(miri) { 500 } else { 20_000 };
        for _ in 0..ops {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((state >> 33) % 257) as i64;
            let op = (state >> 20) % 3;
            match op {
                0 | 1 => {
                    let off = t.entry(key);
                    t.add(off, 0, 1);
                    *reference.entry(key).or_insert(0) += 1;
                }
                _ => {
                    let was = t.delete(key);
                    assert_eq!(was, reference.remove(&key).is_some());
                }
            }
        }
        assert_eq!(t.len(), reference.len());
        let got: HashMap<i64, i64> = t.iter().map(|(k, s, _)| (k, s[0])).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn agg_table_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<AggTable>();
    }

    #[test]
    fn merge_from_disjoint_and_overlapping() {
        let mut a = AggTable::with_capacity(2, 4);
        let mut b = AggTable::with_capacity(2, 4);
        for (t, keys) in [(&mut a, [1i64, 2, 3]), (&mut b, [3, 4, 5])] {
            for k in keys {
                let off = t.entry(k);
                t.add(off, 0, k * 10);
                t.add(off, 1, 1);
                t.set_valid(off);
            }
        }
        a.merge_from(&b, &[MergeOp::Add, MergeOp::Add]);
        assert_eq!(a.len(), 5);
        for k in [1i64, 2, 4, 5] {
            let off = a.find(k).unwrap();
            assert_eq!(&a.states()[off..off + 2], &[k * 10, 1]);
        }
        let off = a.find(3).unwrap();
        assert_eq!(&a.states()[off..off + 2], &[60, 2], "overlap adds");
    }

    #[test]
    fn merge_from_min_max_respects_valid_flags() {
        // a: key 1 valid with min=5/max=5; key 2 present but never really
        // updated (masked only).
        let mut a = AggTable::with_capacity(2, 4);
        let off = a.entry(1);
        a.states_mut()[off] = 5;
        a.states_mut()[off + 1] = 5;
        a.set_valid(off);
        let off = a.entry(2);
        a.or_valid(off, 0);
        // b: both keys valid.
        let mut b = AggTable::with_capacity(2, 4);
        for (k, v) in [(1i64, 9i64), (2, 7)] {
            let off = b.entry(k);
            b.states_mut()[off] = v;
            b.states_mut()[off + 1] = v;
            b.set_valid(off);
        }
        a.merge_from(&b, &[MergeOp::Min, MergeOp::Max]);
        let off = a.find(1).unwrap();
        assert_eq!(a.states()[off], 5, "min(5, 9)");
        assert_eq!(a.states()[off + 1], 9, "max(5, 9)");
        let off = a.find(2).unwrap();
        assert_eq!(
            &a.states()[off..off + 2],
            &[7, 7],
            "invalid self state is replaced, not combined"
        );
        assert!(a.is_valid(off));
    }

    #[test]
    fn merge_from_combines_throwaway_states() {
        let mut a = AggTable::with_capacity(1, 4);
        let off = a.entry(NULL_KEY);
        a.add(off, 0, 3);
        let mut b = AggTable::with_capacity(1, 4);
        let off = b.entry(NULL_KEY);
        b.add(off, 0, 4);
        a.merge_from(&b, &[MergeOp::Add]);
        assert_eq!(a.null_state(), &[7]);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn merge_from_equals_sequential_insertion() {
        // Partition a deterministic pseudo-random update stream across 4
        // partial tables; merging them must equal inserting sequentially.
        let mut sequential = AggTable::with_capacity(2, 4);
        let mut partials: Vec<AggTable> = (0..4).map(|_| AggTable::with_capacity(2, 4)).collect();
        let mut state = 0xDEADBEEFu64;
        let ops = if cfg!(miri) { 400 } else { 10_000 };
        for i in 0..ops {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = ((state >> 33) % 199) as i64;
            let v = ((state >> 13) % 1000) as i64 - 500;
            for t in [&mut sequential, &mut partials[i % 4]] {
                let off = t.entry(key);
                t.add(off, 0, v);
                let fresh = !t.is_valid(off);
                let s = &mut t.states_mut()[off + 1];
                *s = if fresh { v } else { (*s).min(v) };
                t.set_valid(off);
            }
        }
        let mut merged = AggTable::with_capacity(2, 4);
        for p in &partials {
            merged.merge_from(p, &[MergeOp::Add, MergeOp::Min]);
        }
        assert_eq!(merged.len(), sequential.len());
        let mut got: Vec<(i64, Vec<i64>)> =
            merged.iter().map(|(k, s, _)| (k, s.to_vec())).collect();
        let mut want: Vec<(i64, Vec<i64>)> =
            sequential.iter().map(|(k, s, _)| (k, s.to_vec())).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn overflow_is_detected_and_sticky() {
        let mut t = AggTable::with_capacity(1, 4);
        let off = t.entry(1);
        t.add(off, 0, i64::MAX);
        assert!(!t.overflow_detected());
        t.add(off, 0, 1);
        assert!(t.overflow_detected(), "wraparound must set the flag");
        assert_eq!(t.states()[off], i64::MIN, "wrapping semantics");
        // The flag propagates into tables the partial is merged into.
        let mut dst = AggTable::with_capacity(1, 4);
        dst.merge_from(&t, &[MergeOp::Add]);
        assert!(dst.overflow_detected());
        // A merge whose addition itself wraps is also detected.
        let mut a = AggTable::with_capacity(1, 4);
        let off = a.entry(9);
        a.add(off, 0, i64::MAX);
        let b = a.clone();
        assert!(!a.overflow_detected());
        a.merge_from(&b, &[MergeOp::Add]);
        assert!(a.overflow_detected());
    }

    #[test]
    fn size_bytes_grows_with_capacity() {
        let small = AggTable::with_capacity(1, 4).size_bytes();
        let large = AggTable::with_capacity(1, 4096).size_bytes();
        assert!(large > small * 100);
    }
}
