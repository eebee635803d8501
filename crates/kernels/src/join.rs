//! Join, semijoin, groupjoin and eager-aggregation kernels
//! (paper §§ III-D, III-E).
//!
//! The baselines build/probe hash structures ([`swole_ht::KeySet`],
//! [`swole_ht::AggTable`]); the SWOLE variants replace them with
//! **positional bitmaps** probed through the foreign-key index, or reverse
//! build and probe sides entirely with **eager aggregation**.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd), and accumulators are the paper's 64-bit adds, each
// one explicit wrapping add (dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

use crate::agg::{fold, BinOp, Wrapping};
use std::marker::PhantomData;

use crate::groupby::{upsert, Fused, Lanes};
use crate::AsI64;
use swole_bitmap::PositionalBitmap;
use swole_ht::{AggTable, GroupTable, KeySet};

/// Build the baseline semijoin structure: a key set containing every
/// build-side key whose row satisfies `pred` (data-centric form — branch per
/// tuple).
#[inline]
#[allow(clippy::needless_range_loop)] // indexed loop mirrors the paper's C form
pub fn build_keyset_datacentric<K: AsI64>(keys: &[K], pred: impl Fn(usize) -> bool) -> KeySet {
    let mut set = KeySet::with_capacity(keys.len() / 2 + 4);
    for j in 0..keys.len() {
        if pred(j) {
            set.insert(keys[j].widen());
        }
    }
    set
}

/// Build the baseline semijoin key set through a selection vector (hybrid
/// form).
#[inline]
pub fn build_keyset_gather<K: AsI64>(keys: &[K], idx: &[u32], set: &mut KeySet) {
    for &j in idx {
        set.insert(keys[j as usize].widen());
    }
}

/// Probe-side sum for the baseline hash semijoin, data-centric form:
/// `if pred(j) && set.contains(fk[j]) { sum += a OP b }`.
#[inline]
pub fn semijoin_sum_hash_datacentric<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    fk: &[K],
    a: &[A],
    b: &[B],
    pred: impl Fn(usize) -> bool,
    set: &KeySet,
) -> i64 {
    assert_eq!(fk.len(), a.len());
    assert_eq!(fk.len(), b.len());
    let mut sum = 0i64;
    for j in 0..fk.len() {
        if pred(j) && set.contains(fk[j].widen()) {
            sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()));
        }
    }
    sum
}

/// Probe-side sum for the baseline hash semijoin, hybrid form: lookups only
/// for rows in the selection vector.
#[inline]
pub fn semijoin_sum_hash_gather<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    fk: &[K],
    a: &[A],
    b: &[B],
    idx: &[u32],
    set: &KeySet,
) -> i64 {
    assert_eq!(fk.len(), a.len());
    assert_eq!(fk.len(), b.len());
    let mut sum = 0i64;
    for &j in idx {
        let j = j as usize;
        if set.contains(fk[j].widen()) {
            sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()));
        }
    }
    sum
}

/// **Bitmap semijoin probe, fully masked** (§ III-D): for every probe tuple,
/// fetch the build-side bit positionally via the FK index and combine it
/// with the probe-side predicate mask — all accesses sequential or into the
/// cache-resident bitmap:
/// `sum += (a OP b) * (cmp[j] & bitmap[fk_pos[j]])`. [`fold`]'s wrapping
/// `Masked` instance with the bitmap as its membership.
#[inline]
pub fn semijoin_sum_bitmap_masked<A: AsI64, B: AsI64, O: BinOp>(
    fk_pos: &[u32],
    a: &[A],
    b: &[B],
    cmp: &[u8],
    bitmap: &PositionalBitmap,
) -> i64 {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    fold::<_, _, Wrapping, false>(Lanes::Masked(cmp), (fk_pos, bitmap), &inputs).value
}

/// Bitmap semijoin probe through a selection vector: used when the
/// probe-side predicate is selective enough that the value-masking cost
/// model prefers early filtering of the probe side. [`fold`]'s wrapping
/// `Selected` instance with the bitmap as its membership.
#[inline]
pub fn semijoin_sum_bitmap_gather<A: AsI64, B: AsI64, O: BinOp>(
    fk_pos: &[u32],
    a: &[A],
    b: &[B],
    idx: &[u32],
    bitmap: &PositionalBitmap,
) -> i64 {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    fold::<_, _, Wrapping, false>(Lanes::Selected(idx), (fk_pos, bitmap), &inputs).value
}

/// Baseline groupjoin probe (§ III-E, "original version"): the hash table
/// was built from qualifying build-side keys with zeroed states; every probe
/// tuple looks up its FK and, on a match, updates the aggregate.
#[inline]
pub fn groupjoin_probe<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    fk: &[K],
    a: &[A],
    b: &[B],
    ht: &mut AggTable,
) {
    assert_eq!(fk.len(), a.len());
    assert_eq!(fk.len(), b.len());
    for j in 0..fk.len() {
        if let Some(off) = ht.find(fk[j].widen()) {
            ht.add(off, 0, O::apply(a[j].widen(), b[j].widen()));
            ht.set_valid(off);
        }
    }
}

/// **Eager aggregation**, build phase (§ III-E): unconditionally aggregate
/// *every* probe-side tuple grouped by its join/group key — sequential reads
/// of all inputs, wasted work for keys later discarded.
#[inline]
pub fn eager_aggregate<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    fk: &[K],
    a: &[A],
    b: &[B],
    ht: &mut impl GroupTable,
) {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    upsert(fk, Lanes::Every, &inputs, 0, ht);
}

/// **Eager aggregation**, deletion phase: scan the former build side and
/// delete every key whose (inverted) predicate marks it non-qualifying —
/// "note that the predicate has been inverted in the rewritten version to
/// perform the deletion".
#[inline]
pub fn delete_nonqualifying<K: AsI64>(pk: &[K], inverted_cmp: &[u8], ht: &mut AggTable) {
    assert_eq!(pk.len(), inverted_cmp.len());
    for j in 0..pk.len() {
        if inverted_cmp[j] != 0 {
            ht.delete(pk[j].widen());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::Mul;
    use crate::groupby::collect_groups;
    use crate::{predicate, selvec};
    use std::collections::BTreeMap;

    struct Data {
        s_x: Vec<i32>,
        r_fk: Vec<u32>,
        r_x: Vec<i32>,
        r_a: Vec<i32>,
        r_b: Vec<i32>,
    }

    fn mk_data(n_r: usize, n_s: usize) -> Data {
        let mut state = 5u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        Data {
            s_x: (0..n_s).map(|_| next(100) as i32).collect(),
            r_fk: (0..n_r).map(|_| next(n_s as u64) as u32).collect(),
            r_x: (0..n_r).map(|_| next(100) as i32).collect(),
            r_a: (0..n_r).map(|_| next(10) as i32 + 1).collect(),
            r_b: (0..n_r).map(|_| next(10) as i32 + 1).collect(),
        }
    }

    /// Reference semijoin aggregate: sum(a*b) over R rows whose FK's S row
    /// passes the S predicate and which pass the R predicate.
    fn reference_semijoin(d: &Data, sel_r: i32, sel_s: i32) -> i64 {
        (0..d.r_fk.len())
            .filter(|&j| d.r_x[j] < sel_r && d.s_x[d.r_fk[j] as usize] < sel_s)
            .map(|j| d.r_a[j] as i64 * d.r_b[j] as i64)
            .sum()
    }

    #[test]
    fn hash_and_bitmap_semijoins_agree() {
        let d = mk_data(4000, 100);
        for (sel_r, sel_s) in [(10, 90), (90, 10), (50, 50), (0, 100), (100, 0)] {
            let expected = reference_semijoin(&d, sel_r, sel_s);

            // Baseline: data-centric hash semijoin. S keys are positions.
            let s_keys: Vec<u32> = (0..d.s_x.len() as u32).collect();
            let set = build_keyset_datacentric(&s_keys, |j| d.s_x[j] < sel_s);
            let dc = semijoin_sum_hash_datacentric::<_, _, _, Mul>(
                &d.r_fk,
                &d.r_a,
                &d.r_b,
                |j| d.r_x[j] < sel_r,
                &set,
            );
            assert_eq!(dc, expected, "dc {sel_r}/{sel_s}");

            // Baseline: hybrid with selection vectors on both sides.
            let mut cmp_s = vec![0u8; d.s_x.len()];
            predicate::cmp_lt(&d.s_x, sel_s, &mut cmp_s);
            let mut idx_s = vec![0u32; d.s_x.len()];
            let k = selvec::fill_nobranch(&cmp_s, 0, &mut idx_s);
            let mut set = KeySet::with_capacity(k);
            build_keyset_gather(&s_keys, &idx_s[..k], &mut set);
            let mut cmp_r = vec![0u8; d.r_x.len()];
            predicate::cmp_lt(&d.r_x, sel_r, &mut cmp_r);
            let mut idx_r = vec![0u32; d.r_x.len()];
            let k = selvec::fill_nobranch(&cmp_r, 0, &mut idx_r);
            let hy = semijoin_sum_hash_gather::<_, _, _, Mul>(
                &d.r_fk,
                &d.r_a,
                &d.r_b,
                &idx_r[..k],
                &set,
            );
            assert_eq!(hy, expected, "hybrid {sel_r}/{sel_s}");

            // SWOLE: positional bitmap, masked probe.
            let bm = PositionalBitmap::from_predicate_bytes(&cmp_s);
            let masked =
                semijoin_sum_bitmap_masked::<_, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &cmp_r, &bm);
            assert_eq!(masked, expected, "bitmap-masked {sel_r}/{sel_s}");

            // SWOLE: positional bitmap, selection-vector probe.
            let gathered =
                semijoin_sum_bitmap_gather::<_, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &idx_r[..k], &bm);
            assert_eq!(gathered, expected, "bitmap-gather {sel_r}/{sel_s}");
        }
    }

    /// Every `i64` sum wraps, so that builds with and without overflow
    /// checks agree bit for bit: the hash baselines, the bitmap probes and
    /// the masked and gathered sums alike.
    #[test]
    fn sum_kernels_wrap_instead_of_panicking() {
        let (fk, a, one, cmp, idx) = ([0u32, 0], [i64::MAX, 1], [1i64, 1], [1u8, 1], [0u32, 1]);
        let bm = PositionalBitmap::from_predicate_bytes(&[1]);
        let set = build_keyset_datacentric(&[0u32], |_| true);
        let sums = [
            semijoin_sum_hash_datacentric::<_, _, _, Mul>(&fk, &a, &one, |_| true, &set),
            semijoin_sum_hash_gather::<_, _, _, Mul>(&fk, &a, &one, &idx, &set),
            semijoin_sum_bitmap_masked::<_, _, Mul>(&fk, &a, &one, &cmp, &bm),
            semijoin_sum_bitmap_gather::<_, _, Mul>(&fk, &a, &one, &idx, &bm),
            crate::agg::sum_op_masked::<_, _, Mul>(&a, &one, &cmp),
            crate::agg::sum_op_gather::<_, _, Mul>(&a, &one, &idx),
        ];
        assert_eq!(sums, [i64::MIN; 6]);
    }

    /// Reference groupjoin: sum(a*b) per fk whose S row passes the pred.
    fn reference_groupjoin(d: &Data, sel_s: i32) -> Vec<(i64, i64)> {
        let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
        for j in 0..d.r_fk.len() {
            if d.s_x[d.r_fk[j] as usize] < sel_s {
                *groups.entry(d.r_fk[j] as i64).or_insert(0) += d.r_a[j] as i64 * d.r_b[j] as i64;
            }
        }
        groups.into_iter().collect()
    }

    #[test]
    fn groupjoin_and_eager_aggregation_agree() {
        let d = mk_data(4000, 64);
        for sel_s in [0, 25, 50, 100] {
            let expected = reference_groupjoin(&d, sel_s);

            // Baseline groupjoin: build from qualifying S keys, probe R.
            let mut ht = AggTable::with_capacity(1, 64);
            for (pk, &sx) in d.s_x.iter().enumerate() {
                if sx < sel_s {
                    ht.entry(pk as i64);
                }
            }
            groupjoin_probe::<_, _, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &mut ht);
            assert_eq!(collect_groups(&ht), expected, "groupjoin sel={sel_s}");

            // SWOLE eager aggregation: aggregate all of R, then delete
            // non-qualifying S keys with the inverted predicate.
            let mut ht = AggTable::with_capacity(1, 64);
            eager_aggregate::<_, _, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &mut ht);
            let mut inv = vec![0u8; d.s_x.len()];
            predicate::cmp_ge(&d.s_x, sel_s, &mut inv); // inverted: s_x >= sel
            let s_keys: Vec<u32> = (0..d.s_x.len() as u32).collect();
            delete_nonqualifying(&s_keys, &inv, &mut ht);
            assert_eq!(collect_groups(&ht), expected, "eager sel={sel_s}");

            // The same on the dense table over the FK domain.
            let mut ht = swole_ht::DenseAggTable::new(1, 0, d.s_x.len() as i64 - 1);
            eager_aggregate::<_, _, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &mut ht);
            for (pk, &gone) in inv.iter().enumerate() {
                if gone != 0 {
                    ht.delete(pk as i64);
                }
            }
            assert_eq!(collect_groups(&ht), expected, "dense eager sel={sel_s}");
        }
    }

    #[test]
    fn eager_aggregation_handles_fk_gaps() {
        // Keys present in S but never referenced by R must not appear;
        // deletion of an absent key is a no-op.
        let d = Data {
            s_x: vec![0, 99, 0, 99],
            r_fk: vec![0, 0, 1],
            r_x: vec![0; 3],
            r_a: vec![2, 3, 4],
            r_b: vec![1, 1, 1],
        };
        let mut ht = AggTable::with_capacity(1, 8);
        eager_aggregate::<_, _, _, Mul>(&d.r_fk, &d.r_a, &d.r_b, &mut ht);
        let mut inv = vec![0u8; 4];
        predicate::cmp_ge(&d.s_x, 50, &mut inv);
        let s_keys: Vec<u32> = (0..4).collect();
        delete_nonqualifying(&s_keys, &inv, &mut ht);
        // Only fk=0 survives (s_x[1]=99 deletes key 1; keys 2,3 never in ht).
        assert_eq!(collect_groups(&ht), vec![(0, 5)]);
    }
}
