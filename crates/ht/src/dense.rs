//! Dense-array group table for key domains known exactly.

// Indexing invariant: `states` and `flags` both hold `(slots + 1) * n_aggs`
// elements. Every offset this table hands out is `slot * n_aggs` with
// `slot <= slots` — `offset_of` asserts the key is inside `[min, max]` (or
// is `NULL_KEY`, slot 0) before computing it, so neither the `+ 1` nor the
// product can overflow — and callers add an `agg < n_aggs` to it, so
// `offset + agg` stays below the length. An offset from
// anywhere else still hits the slices' own bounds checks: there is no
// `unsafe` here, an out-of-domain key panics, it never reads or writes
// out of range.
#![allow(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

use crate::agg_table::{HtCounters, MergeOp, NULL_KEY};
use crate::group_table::GroupTable;

/// Flag bit: the entry received a real (unmasked) update.
const VALID: u8 = 1;
/// Flag bit: an upsert reached the key (what a slot holding the key is to
/// the hash table). Written by the valid update every upsert ends with, so
/// `entry` itself stores nothing.
const PRESENT: u8 = 2;

/// A [`GroupTable`] over the contiguous key domain `[min, max]`: the state
/// of key `k` lives at offset `(k - min + 1) * n_aggs` of one flat array, so
/// find-or-insert is a subtraction — no hash, no probe sequence, no growth.
/// Offset 0 is the **throwaway entry** for [`NULL_KEY`], as in
/// [`crate::AggTable`], and every other part of that table's contract holds
/// too: valid flags, deletion, commutative wrapping merges, `len` / `iter`
/// over real keys only — `iter` in key order.
///
/// The flags are indexed by state offset (one byte per state word, the
/// first of each entry used) so that the per-lane flag update needs no
/// division by `n_aggs`.
///
/// The upsert is **lean**: [`GroupTable::entry`] is offset arithmetic and
/// nothing else, presence is recorded by the valid update that follows the
/// adds (a plain store for [`GroupTable::set_valid`]), and the probes are
/// counted once per tile by the loop that issued them
/// ([`GroupTable::note_probes`]) — per lane, the table costs its caller the
/// adds the lane is for and one flag byte.
///
/// "Fine-Tuning Data Structures for Analytical Query Processing" shows this
/// dictionary choice dominating group-by and groupjoin loops; the planner
/// picks it when the catalog gives the key domain exactly (FK positions,
/// dictionary codes, fresh integer min/max) and the array is no larger than
/// the hash table it replaces.
#[derive(Debug, Clone)]
pub struct DenseAggTable {
    min: i64,
    /// Keys in the domain: `max - min + 1`.
    slots: usize,
    n_aggs: usize,
    states: Vec<i64>,
    flags: Vec<u8>,
    /// `probes` (as the upsert loops report them) and `bytes_allocated` as
    /// they stand; `inserts` holds only the keys since deleted —
    /// [`GroupTable::counters`] adds the present ones, so the find-or-insert
    /// path keeps no running count at all.
    counters: HtCounters,
}

impl DenseAggTable {
    /// Keys in `[min, max]`, or `None` when the domain is empty, reaches
    /// down to the reserved key values, or does not fit a `usize`.
    pub fn slots_for(min: i64, max: i64) -> Option<usize> {
        if min <= NULL_KEY || max < min {
            return None;
        }
        usize::try_from(max.checked_sub(min)?).ok()?.checked_add(1)
    }

    /// [`GroupTable::size_bytes`] of a table over `slots` keys with `n_aggs`
    /// aggregate values per key: state words plus one flag byte each, for
    /// the keys and the throwaway entry. Saturating, so the verifier's
    /// bounds pass can evaluate it for any domain.
    pub fn bytes_for(slots: usize, n_aggs: usize) -> usize {
        slots
            .saturating_add(1)
            .saturating_mul(n_aggs)
            .saturating_mul(9)
    }

    /// A zeroed table over `[min, max]` with `n_aggs` values per key.
    /// Panics when [`DenseAggTable::slots_for`] rejects the domain.
    pub fn new(n_aggs: usize, min: i64, max: i64) -> DenseAggTable {
        assert!(n_aggs > 0, "need at least one aggregate slot");
        let slots = DenseAggTable::slots_for(min, max)
            .unwrap_or_else(|| panic!("[{min}, {max}] is not a dense key domain"));
        let words = (slots + 1) * n_aggs;
        let mut t = DenseAggTable {
            min,
            slots,
            n_aggs,
            states: vec![0; words],
            flags: vec![0; words],
            counters: HtCounters::default(),
        };
        t.counters.bytes_allocated = t.size_bytes() as u64;
        t
    }

    /// State offset of `key`. One never-taken branch — the domain assertion
    /// — and arithmetic: key masking's coin-flip [`NULL_KEY`] lanes must not
    /// become a branch the predictor loses half the time, so the throwaway
    /// is folded in with a mask and the check is a single compare.
    #[inline(always)]
    fn offset_of(&self, key: i64) -> usize {
        // All ones for a real key, zero for the throwaway.
        let keep = u64::from(key == NULL_KEY).wrapping_sub(1);
        // The distance above `min`, modulo 2^64: below `slots` exactly for
        // the keys of the domain (a key under `min` wraps to at least
        // `2^63 - min`, which no domain starting at `min` reaches).
        let d = (key.wrapping_sub(self.min) as u64) & keep;
        assert!(d < self.slots as u64, "key outside the dense domain");
        ((d + 1) & keep) as usize * self.n_aggs
    }

    /// State offset of `key` if it is present.
    fn find(&self, key: i64) -> Option<usize> {
        let in_domain = (key.wrapping_sub(self.min) as u64) < self.slots as u64;
        if key != NULL_KEY && !in_domain {
            return None;
        }
        let off = self.offset_of(key);
        (self.flags[off] != 0).then_some(off)
    }

    /// The throwaway entry's accumulated state.
    pub fn null_state(&self) -> &[i64] {
        &self.states[..self.n_aggs]
    }

    /// Entries present, the throwaway included when `from_slot` is 0.
    fn present(&self, from_slot: usize) -> usize {
        let flags = self.flags.iter().step_by(self.n_aggs);
        flags.skip(from_slot).filter(|&&f| f != 0).count()
    }
}

impl GroupTable for DenseAggTable {
    /// Offset arithmetic only. Anything that asks whether the key was new
    /// (a running `len`, an insert counter) or touches a second cache line
    /// per lane (a presence flag, a probe count) costs the upsert loops
    /// more than the hashing this table exists to save: presence rides on
    /// the valid update, probes are reported per tile, the rest is counted
    /// on demand.
    #[inline(always)]
    fn entry(&mut self, key: i64) -> usize {
        self.offset_of(key)
    }

    #[inline(always)]
    fn add(&mut self, offset: usize, agg: usize, v: i64) {
        debug_assert!(agg < self.n_aggs);
        self.states[offset + agg] = self.states[offset + agg].wrapping_add(v);
    }

    #[inline(always)]
    fn set_valid(&mut self, offset: usize) {
        self.flags[offset] = PRESENT | VALID;
    }

    #[inline(always)]
    fn or_valid(&mut self, offset: usize, flag: u8) {
        self.flags[offset] |= PRESENT | (flag & VALID);
    }

    #[inline(always)]
    fn note_probes(&mut self, n: usize) {
        self.counters.probes += n as u64;
    }

    #[inline(always)]
    fn is_valid(&self, offset: usize) -> bool {
        self.flags[offset] & VALID != 0
    }

    #[inline(always)]
    fn states_mut(&mut self) -> &mut [i64] {
        &mut self.states
    }

    fn delete(&mut self, key: i64) -> bool {
        let Some(off) = self.find(key) else {
            return false;
        };
        self.states[off..off + self.n_aggs].fill(0);
        self.flags[off] = 0;
        self.counters.inserts += 1;
        true
    }

    /// Element-wise: entries absent here are copied, entries present in
    /// both combine per op exactly as [`crate::AggTable::merge_from`] does
    /// (min/max consult the valid flags, the throwaway always adds).
    fn merge_from(&mut self, other: &DenseAggTable, ops: &[MergeOp]) {
        assert_eq!(
            (self.min, self.slots, self.n_aggs),
            (other.min, other.slots, other.n_aggs),
            "incompatible layouts"
        );
        assert_eq!(ops.len(), self.n_aggs, "one MergeOp per aggregate slot");
        let n = self.n_aggs;
        for off in (0..self.flags.len()).step_by(n) {
            let theirs = other.flags[off];
            if theirs == 0 {
                continue;
            }
            let mine = self.flags[off];
            self.flags[off] = mine | theirs;
            if mine == 0 {
                self.states[off..off + n].copy_from_slice(&other.states[off..off + n]);
                continue;
            }
            for (i, op) in ops.iter().enumerate() {
                let v = other.states[off + i];
                let s = &mut self.states[off + i];
                match op {
                    MergeOp::Min | MergeOp::Max if off != 0 => {
                        // A min/max state is only meaningful once its entry
                        // has seen a real (unmasked) update.
                        if theirs & VALID != 0 {
                            *s = if mine & VALID == 0 {
                                v
                            } else if *op == MergeOp::Min {
                                (*s).min(v)
                            } else {
                                (*s).max(v)
                            };
                        }
                    }
                    _ => *s = (*s).wrapping_add(v),
                }
            }
        }
    }

    fn iter(&self) -> impl Iterator<Item = (i64, &[i64], bool)> {
        let n = self.n_aggs;
        (n..self.flags.len())
            .step_by(n)
            .enumerate()
            .filter_map(move |(i, off)| {
                let f = self.flags[off];
                // `i < slots`, so the key is inside the domain: no overflow.
                (f != 0).then(|| {
                    let state = &self.states[off..off + n];
                    (self.min + i as i64, state, f & VALID != 0)
                })
            })
    }

    /// A scan of the flags, not a stored count (see `entry`).
    fn len(&self) -> usize {
        self.present(1)
    }

    fn size_bytes(&self) -> usize {
        DenseAggTable::bytes_for(self.slots, self.n_aggs)
    }

    fn counters(&self) -> HtCounters {
        HtCounters {
            inserts: self.counters.inserts + self.present(0) as u64,
            ..self.counters
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggTable;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A whole upsert with nothing to add, as the loops issue one.
    fn upsert(t: &mut DenseAggTable, key: i64) -> usize {
        let off = t.entry(key);
        t.set_valid(off);
        t.note_probes(1);
        off
    }

    #[test]
    fn offsets_follow_the_documented_layout() {
        let mut t = DenseAggTable::new(3, -5, 4);
        assert_eq!(upsert(&mut t, NULL_KEY), 0, "offset 0 is the throwaway");
        assert_eq!(upsert(&mut t, -5), 3, "(key - min + 1) * n_aggs");
        assert_eq!(upsert(&mut t, 4), 30, "key == max is the last entry");
        assert_eq!(t.len(), 2, "the throwaway is not a real entry");
        assert_eq!(t.size_bytes(), DenseAggTable::bytes_for(10, 3));
        assert_eq!(t.counters().bytes_allocated, t.size_bytes() as u64);
        assert_eq!(t.counters().probes, 3);
        assert_eq!(
            t.counters().inserts,
            3,
            "the throwaway counts, as in the hash table"
        );
        assert!(t.delete(4));
        upsert(&mut t, 4);
        upsert(&mut t, 4);
        assert_eq!(t.counters().inserts, 4, "lifetime inserts survive deletion");
        assert_eq!(t.len(), 2);
        assert_eq!((t.counters().probe_steps, t.counters().resizes), (0, 0));
        // The lean contract: `entry` alone is arithmetic — the key becomes an
        // entry with the valid update, the probe is counted when reported.
        let before = t.counters();
        assert_eq!(t.entry(0), 18);
        assert_eq!((t.len(), t.counters()), (2, before));
        t.or_valid(18, 0);
        assert_eq!(t.len(), 3, "a masked update still inserts its key");
        assert!(!t.is_valid(18));
    }

    #[test]
    fn iter_is_in_key_order_and_skips_absent_and_throwaway() {
        let mut t = DenseAggTable::new(1, 10, 20);
        for k in [17, 11, NULL_KEY, 20] {
            let off = t.entry(k);
            t.add(off, 0, k.max(0));
            t.or_valid(off, (k != 11) as u8);
        }
        let got: Vec<_> = t.iter().map(|(k, s, v)| (k, s[0], v)).collect();
        assert_eq!(got, vec![(11, 11, false), (17, 17, true), (20, 20, true)]);
        assert_eq!(t.null_state(), &[0]);
    }

    #[test]
    fn delete_clears_state_flag_and_throwaway() {
        let mut t = DenseAggTable::new(2, 0, 0);
        let off = t.entry(0);
        t.add(off, 1, 9);
        t.set_valid(off);
        assert!(t.delete(0));
        assert!(!t.delete(0), "double delete reports absence");
        assert!(!t.delete(1), "outside the domain is absent, not a panic");
        assert!(t.is_empty());
        let off = t.entry(0);
        assert_eq!(&t.states_mut()[off..off + 2], &[0, 0], "re-insert is fresh");
        assert!(!t.is_valid(off));
        let off = t.entry(NULL_KEY);
        t.add(off, 0, 5);
        t.or_valid(off, 0);
        assert_eq!(t.null_state(), &[5, 0]);
        assert!(t.delete(NULL_KEY));
        assert!(!t.delete(NULL_KEY));
        assert_eq!(t.null_state(), &[0, 0]);
    }

    #[test]
    fn domains_at_the_ends_of_i64() {
        let mut top = DenseAggTable::new(1, i64::MAX - 2, i64::MAX);
        let off = top.entry(i64::MAX);
        top.set_valid(off);
        assert_eq!(off, 3);
        let keys: Vec<i64> = top.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![i64::MAX]);
        assert!(!top.delete(i64::MIN), "far below the domain is just absent");
        let mut bottom = DenseAggTable::new(1, NULL_KEY + 1, NULL_KEY + 2);
        assert_eq!(upsert(&mut bottom, NULL_KEY), 0);
        assert_eq!(upsert(&mut bottom, NULL_KEY + 1), 1);
        assert!(!bottom.delete(i64::MAX));
        assert_eq!(bottom.len(), 1);
    }

    #[test]
    fn rejected_domains() {
        assert_eq!(DenseAggTable::slots_for(3, 3), Some(1));
        assert_eq!(DenseAggTable::slots_for(-2, 2), Some(5));
        assert_eq!(DenseAggTable::slots_for(4, 3), None, "empty");
        assert_eq!(DenseAggTable::slots_for(NULL_KEY, 0), None, "reserved keys");
        assert_eq!(DenseAggTable::slots_for(i64::MIN + 2, i64::MAX), None);
        assert_eq!(DenseAggTable::bytes_for(usize::MAX, 2), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "key outside the dense domain")]
    fn a_key_below_the_domain_panics_instead_of_aliasing_the_throwaway() {
        DenseAggTable::new(1, 10, 20).entry(9);
    }

    #[test]
    #[should_panic(expected = "key outside the dense domain")]
    fn a_key_above_the_domain_panics() {
        DenseAggTable::new(1, 10, 20).entry(21);
    }

    /// One step of the differential below.
    #[derive(Clone, Copy)]
    enum Step {
        /// `entry`, `add` to slot 0, min into slot 1, then the valid update.
        Update {
            key: i64,
            v: i64,
            valid: Option<u8>,
        },
        Delete(i64),
    }

    /// Run `steps`, reporting the probes once per "tile" of 16 steps as the
    /// upsert loops do. Returns the `entry` calls issued.
    fn drive<T: GroupTable>(t: &mut T, steps: &[Step]) -> u64 {
        let mut probes = 0;
        for tile in steps.chunks(16) {
            let upserts = tile.iter().filter(|s| matches!(s, Step::Update { .. }));
            t.note_probes(upserts.count());
            probes += drive_tile(t, tile);
        }
        probes
    }

    fn drive_tile<T: GroupTable>(t: &mut T, steps: &[Step]) -> u64 {
        let mut probes = 0;
        for &s in steps {
            match s {
                Step::Update { key, v, valid } => {
                    probes += 1;
                    let off = t.entry(key);
                    t.add(off, 0, v);
                    if key != NULL_KEY && valid != Some(0) {
                        let fresh = !t.is_valid(off);
                        let s = &mut t.states_mut()[off + 1];
                        *s = if fresh { v } else { (*s).min(v) };
                    }
                    match valid {
                        Some(flag) => t.or_valid(off, flag),
                        None => t.set_valid(off),
                    }
                }
                Step::Delete(key) => {
                    t.delete(key);
                }
            }
        }
        probes
    }

    /// `iter` (sorted) and `len`.
    type Snapshot = (Vec<(i64, Vec<i64>, bool)>, usize);

    fn snapshot<T: GroupTable>(t: &T) -> Snapshot {
        let mut rows: Vec<_> = t.iter().map(|(k, s, v)| (k, s.to_vec(), v)).collect();
        rows.sort();
        (rows, t.len())
    }

    /// Both representations, driven by the same random `entry` / `add` /
    /// `set_valid` / `or_valid` / `delete` sequences on four partial tables
    /// that are then merged, agree on `iter` and `len` — wrapped sums
    /// included — and the lean path reports the counters the table
    /// that counted per lane did: one probe per `entry`, the hash table's
    /// lifetime inserts, its own bytes, nothing else.
    #[test]
    fn dense_and_hash_agree_under_random_operations() {
        const OPS: [MergeOp; 2] = [MergeOp::Add, MergeOp::Min];
        // Negative min, min != 0, a single-key domain.
        let domains = [(-7i64, 12i64), (1000, 1063), (5, 5), (0, 300)];
        let cases = if cfg!(miri) { 4 } else { 64 };
        for seed in 0..cases {
            let mut rng = SmallRng::seed_from_u64(0xD15E + seed);
            let (min, max) = domains[seed as usize % domains.len()];
            let key = |rng: &mut SmallRng| match rng.gen_range(0..10u32) {
                0 => NULL_KEY,
                1 => max,
                _ => rng.gen_range(min..=max),
            };
            let value = |rng: &mut SmallRng| match rng.gen_range(0..40u32) {
                // Adds and merges that wrap.
                0 => i64::MAX,
                1 => i64::MIN,
                _ => rng.gen_range(-1000i64..1000),
            };
            let partials: Vec<Vec<Step>> = (0..4)
                .map(|_| {
                    (0..rng.gen_range(0..if cfg!(miri) { 40 } else { 400 }))
                        .map(|_| match rng.gen_range(0..8u32) {
                            0 => Step::Delete(key(&mut rng)),
                            1..=3 => Step::Update {
                                key: key(&mut rng),
                                v: value(&mut rng),
                                valid: Some(rng.gen_range(0..2u8)),
                            },
                            _ => Step::Update {
                                key: key(&mut rng),
                                v: value(&mut rng),
                                valid: None,
                            },
                        })
                        .collect()
                })
                .collect();
            let mut hash = AggTable::with_capacity(2, 4);
            let mut dense = DenseAggTable::new(2, min, max);
            for steps in &partials {
                let mut h = AggTable::with_capacity(2, 4);
                let mut d = DenseAggTable::new(2, min, max);
                let probes = drive(&mut h, steps);
                assert_eq!(drive(&mut d, steps), probes);
                assert_eq!(snapshot(&h), snapshot(&d), "seed {seed}: partial");
                assert_eq!(h.null_state(), d.null_state(), "seed {seed}");
                let reported = HtCounters {
                    probes,
                    inserts: h.counters().inserts,
                    bytes_allocated: d.size_bytes() as u64,
                    ..HtCounters::default()
                };
                assert_eq!(h.counters().probes, probes, "seed {seed}");
                assert_eq!(d.counters(), reported, "seed {seed}: counters");
                hash.merge_from(&h, &OPS);
                dense.merge_from(&d, &OPS);
            }
            assert_eq!(snapshot(&hash), snapshot(&dense), "seed {seed}: merged");
            assert_eq!(hash.null_state(), dense.null_state(), "seed {seed}");
            // Deleting after the merge, as eager aggregation does.
            let doomed: Vec<i64> = (min..=max).filter(|k| k % 3 == 0).collect();
            for &k in &doomed {
                assert_eq!(hash.delete(k), dense.delete(k), "seed {seed} key {k}");
            }
            assert_eq!(snapshot(&hash), snapshot(&dense), "seed {seed}: deleted");
        }
    }

    #[test]
    fn merges_wrap() {
        let mut a = DenseAggTable::new(1, 0, 3);
        let off = a.entry(2);
        a.add(off, 0, i64::MAX);
        a.set_valid(off);
        let b = a.clone();
        a.merge_from(&b, &[MergeOp::Add]);
        assert_eq!(collect(&a), vec![(2, -2)], "i64::MAX + i64::MAX");
        let mut c = DenseAggTable::new(1, 0, 3);
        c.merge_from(&a, &[MergeOp::Add]);
        assert_eq!(collect(&c), collect(&a), "an absent entry is copied");
    }

    fn collect(t: &DenseAggTable) -> Vec<(i64, i64)> {
        t.iter().map(|(k, s, _)| (k, s[0])).collect()
    }
}
