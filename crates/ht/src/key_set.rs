//! Hash set of join keys.

// Open-addressing invariant: every probe index is produced by
// `slot_for` (high bits of the hash shifted down to the power-of-two
// capacity) or by `& (capacity - 1)` wrap-around, so slot indexing is
// in-bounds by construction and probe arithmetic is bounded by the
// capacity (dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::agg_table::AggTable;
use crate::hash::{hash_i64, slot_for};

/// An open-addressing set of `i64` keys.
///
/// This is the data structure the **baseline** (data-centric / hybrid)
/// semijoin implementations build and probe; the SWOLE positional bitmap
/// (§ III-D) replaces it for FK semijoins. Keeping it minimal and fast keeps
/// the comparison honest.
#[derive(Debug, Clone)]
pub struct KeySet {
    keys: Vec<i64>,
    cap_log2: u32,
    len: usize,
}

const EMPTY: i64 = i64::MIN;

impl KeySet {
    /// Create a set expecting roughly `expected_keys` inserts.
    pub fn with_capacity(expected_keys: usize) -> KeySet {
        let cap = AggTable::initial_capacity(expected_keys);
        KeySet {
            keys: vec![EMPTY; cap],
            cap_log2: cap.trailing_zeros(),
            len: 0,
        }
    }

    /// The set a semijoin build over `build_rows` positions starts from:
    /// sized as if half of them qualify.
    pub fn for_build(build_rows: usize) -> KeySet {
        KeySet::with_capacity(KeySet::build_expected_keys(build_rows))
    }

    fn build_expected_keys(build_rows: usize) -> usize {
        (build_rows / 2).saturating_add(4)
    }

    /// Upper bound on [`KeySet::size_bytes`] of a [`KeySet::for_build`] set
    /// once up to every one of the `build_rows` positions is in it.
    pub fn build_bytes_bound(build_rows: usize) -> usize {
        let cap0 = AggTable::initial_capacity(KeySet::build_expected_keys(build_rows));
        AggTable::grown_capacity(cap0, build_rows).saturating_mul(8)
    }

    /// Insert `key`; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, key: i64) -> bool {
        debug_assert!(key != EMPTY, "reserved key value");
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut slot = slot_for(hash_i64(key), self.cap_log2);
        loop {
            let k = self.keys[slot];
            if k == key {
                return false;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.len += 1;
                return true;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Membership test — the per-probe-tuple operation of a hash semijoin.
    #[inline]
    pub fn contains(&self, key: i64) -> bool {
        let mask = self.keys.len() - 1;
        let mut slot = slot_for(hash_i64(key), self.cap_log2);
        loop {
            let k = self.keys[slot];
            if k == key {
                return true;
            }
            if k == EMPTY {
                return false;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::take(&mut self.keys);
        self.cap_log2 += 1;
        self.keys = vec![EMPTY; 1 << self.cap_log2];
        self.len = 0;
        for k in old {
            if k != EMPTY {
                self.insert(k);
            }
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate payload bytes (for the cost model).
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = KeySet::with_capacity(4);
        assert!(s.insert(10));
        assert!(!s.insert(10));
        assert!(s.insert(-3));
        assert!(s.contains(10));
        assert!(s.contains(-3));
        assert!(!s.contains(11));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn growth_retains_members() {
        let n = if cfg!(miri) { 300i64 } else { 5000i64 };
        let mut s = KeySet::with_capacity(2);
        for k in 0..n {
            s.insert(k * 3);
        }
        assert_eq!(s.len(), n as usize);
        for k in 0..n {
            assert!(s.contains(k * 3));
            assert!(!s.contains(k * 3 + 1));
        }
    }

    #[test]
    fn build_growth_stays_under_bound() {
        for n in [0usize, 5, 100, 1000, 5000] {
            let mut ks = KeySet::for_build(n);
            for k in 0..n {
                ks.insert(k as i64);
            }
            let bound = KeySet::build_bytes_bound(n);
            assert!(
                ks.size_bytes() <= bound,
                "key set {} B exceeds bound {bound} B at n={n}",
                ks.size_bytes()
            );
        }
    }

    #[test]
    fn empty_set() {
        let s = KeySet::with_capacity(8);
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }
}
