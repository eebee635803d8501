//! Join, semijoin, groupjoin and eager-aggregation kernels
//! (paper §§ III-D, III-E).
//!
//! The baselines build/probe hash structures ([`swole_ht::KeySet`],
//! [`swole_ht::AggTable`]); the SWOLE variants replace them with
//! **positional bitmaps** probed through the foreign-key index, or reverse
//! build and probe sides entirely with **eager aggregation**.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd) and accumulators follow the paper's convention of
// unchecked 64-bit adds (overflow is detected once per tile by the
// engine, not per lane; dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

use crate::agg::BinOp;
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
            sum += O::apply(a[j].widen(), b[j].widen());
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
            sum += O::apply(a[j].widen(), b[j].widen());
        }
    }
    sum
}

/// **Bitmap semijoin probe, fully masked** (§ III-D): for every probe tuple,
/// fetch the build-side bit positionally via the FK index and combine it
/// with the probe-side predicate mask — all accesses sequential or into the
/// cache-resident bitmap:
/// `sum += (a OP b) * (cmp[j] & bitmap[fk_pos[j]])`.
#[inline]
pub fn semijoin_sum_bitmap_masked<A: AsI64, B: AsI64, O: BinOp>(
    fk_pos: &[u32],
    a: &[A],
    b: &[B],
    cmp: &[u8],
    bitmap: &PositionalBitmap,
) -> i64 {
    assert_eq!(fk_pos.len(), a.len());
    assert_eq!(fk_pos.len(), b.len());
    assert_eq!(fk_pos.len(), cmp.len());
    let mut sum = 0i64;
    for j in 0..fk_pos.len() {
        let bit = bitmap.get_bit(fk_pos[j] as usize) as i64;
        sum += O::apply(a[j].widen(), b[j].widen()) * (cmp[j] as i64 & bit);
    }
    sum
}

/// The fully masked bitmap probe for a `sum(a OP b)` beside any number of
/// `count(*)`s — and for a lone sum whose accumulator nothing proved: the
/// loop of [`semijoin_sum_bitmap_masked`] that also counts the lanes it
/// keeps. Per lane `bit = cmp[j] & bitmap[fk_pos[j]]`, `count += bit`,
/// `sum += (a OP b) * bit`; returns `(sum, count, overflow)`.
///
/// `CHECKED` reports what [`crate::agg::sum_op_masked_checked`] reports over
/// the folded mask: an operator application that wrapped on a qualifying
/// lane, or a running sum that wrapped. A wrap on a masked-out lane is
/// wasted work and cannot affect the result, so it is ignored. Unchecked,
/// the sum wraps and `overflow` is `false`.
#[inline]
pub fn semijoin_sum_count_bitmap_masked<A: AsI64, B: AsI64, O: BinOp, const CHECKED: bool>(
    fk_pos: &[u32],
    a: &[A],
    b: &[B],
    cmp: &[u8],
    bitmap: &PositionalBitmap,
) -> (i64, usize, bool) {
    assert_eq!(fk_pos.len(), a.len());
    assert_eq!(fk_pos.len(), b.len());
    assert_eq!(fk_pos.len(), cmp.len());
    let (mut sum, mut count, mut overflow) = (0i64, 0u64, false);
    for j in 0..fk_pos.len() {
        let bit = cmp[j] as u64 & bitmap.get_bit(fk_pos[j] as usize);
        count += bit;
        if CHECKED {
            let (v, op_wrapped) = O::apply_checked(a[j].widen(), b[j].widen());
            let (s, sum_wrapped) = sum.overflowing_add(v * bit as i64);
            sum = s;
            overflow |= (op_wrapped & (bit != 0)) | sum_wrapped;
        } else {
            sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()) * bit as i64);
        }
    }
    (sum, count as usize, overflow)
}

/// [`semijoin_sum_count_bitmap_masked`] with no sum: the lanes a fully
/// masked probe keeps, for a list of `count(*)`s only.
#[inline]
pub fn semijoin_count_bitmap_masked(
    fk_pos: &[u32],
    cmp: &[u8],
    bitmap: &PositionalBitmap,
) -> usize {
    assert_eq!(fk_pos.len(), cmp.len());
    let mut count = 0u64;
    for (&pos, &c) in fk_pos.iter().zip(cmp) {
        count += c as u64 & bitmap.get_bit(pos as usize);
    }
    count as usize
}

/// Bitmap semijoin probe through a selection vector: used when the
/// probe-side predicate is selective enough that the value-masking cost
/// model prefers early filtering of the probe side.
#[inline]
pub fn semijoin_sum_bitmap_gather<A: AsI64, B: AsI64, O: BinOp>(
    fk_pos: &[u32],
    a: &[A],
    b: &[B],
    idx: &[u32],
    bitmap: &PositionalBitmap,
) -> i64 {
    assert_eq!(fk_pos.len(), a.len());
    assert_eq!(fk_pos.len(), b.len());
    let mut sum = 0i64;
    for &j in idx {
        let j = j as usize;
        let bit = bitmap.get_bit(fk_pos[j] as usize) as i64;
        sum += O::apply(a[j].widen(), b[j].widen()) * bit;
    }
    sum
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
    upsert::<_, _, _, false>(fk, Lanes::Every, &inputs, 0, ht);
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

    /// The fully masked probe the data-centric way: branch per lane on the
    /// predicate and the parent's bit, and accumulate over the qualifying
    /// lanes only, checking every add — `(sum, count, overflow)`.
    fn reference_probe<A: AsI64, B: AsI64, O: BinOp>(
        fk: &[u32],
        a: &[A],
        b: &[B],
        cmp: &[u8],
        bm: &PositionalBitmap,
    ) -> (i64, usize, bool) {
        let (mut sum, mut count, mut overflow) = (0i64, 0, false);
        for j in 0..fk.len() {
            if cmp[j] != 0 && bm.get_bit(fk[j] as usize) != 0 {
                let (v, op_wrapped) = O::apply_checked(a[j].widen(), b[j].widen());
                let (s, sum_wrapped) = sum.overflowing_add(v);
                sum = s;
                count += 1;
                overflow |= op_wrapped | sum_wrapped;
            }
        }
        (sum, count, overflow)
    }

    /// Both forms of the sum-and-count probe, and the count-only one,
    /// against [`reference_probe`]; the lone-sum kernel too where nothing
    /// wraps.
    fn check_probe<A: AsI64, B: AsI64, O: BinOp>(
        label: &str,
        fk: &[u32],
        a: &[A],
        b: &[B],
        cmp: &[u8],
        bm: &PositionalBitmap,
    ) {
        let label = format!("{label} {}", O::NAME);
        let want = reference_probe::<_, _, O>(fk, a, b, cmp, bm);
        let checked = semijoin_sum_count_bitmap_masked::<_, _, O, true>(fk, a, b, cmp, bm);
        assert_eq!(checked, want, "checked, {label}");
        let unchecked = semijoin_sum_count_bitmap_masked::<_, _, O, false>(fk, a, b, cmp, bm);
        assert_eq!(unchecked, (want.0, want.1, false), "unchecked, {label}");
        assert_eq!(semijoin_count_bitmap_masked(fk, cmp, bm), want.1, "{label}");
        if !want.2 {
            let sum = semijoin_sum_bitmap_masked::<_, _, O>(fk, a, b, cmp, bm);
            assert_eq!(sum, want.0, "lone sum, {label}");
        }
    }

    /// Random FK, predicate and bitmap streams at every density, narrow and
    /// wide operands (the wide ones wrap on some lanes and in the running
    /// sum), `*` and `/`.
    #[test]
    fn sum_count_probe_matches_datacentric() {
        use crate::agg::Div;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let cases = if cfg!(miri) { 4 } else { 48 };
        for seed in 0..cases {
            let mut rng = SmallRng::seed_from_u64(0x5e31 + seed);
            let (n, n_s) = (rng.gen_range(0..3 * crate::TILE), rng.gen_range(1..500u32));
            let densities = [0.0, 0.05, 0.5, 0.95, 1.0];
            let mut bytes = |len: usize| {
                let p = densities[rng.gen_range(0..densities.len())];
                (0..len).map(|_| rng.gen_bool(p) as u8).collect::<Vec<u8>>()
            };
            let (cmp, parent) = (bytes(n), bytes(n_s as usize));
            let bm = PositionalBitmap::from_predicate_bytes(&parent);
            let fk: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n_s)).collect();
            let narrow: Vec<i32> = (0..n).map(|_| rng.gen_range(-1000..1000)).collect();
            let divisor: Vec<i8> = (0..n)
                .map(|_| [-3, -1, 1, 2, 7][rng.gen_range(0..5usize)])
                .collect();
            let limit = i64::MAX >> rng.gen_range(0..16u32);
            let wide: Vec<i64> = (0..n).map(|_| rng.gen_range(-limit..limit)).collect();
            let label = format!("seed {seed}, {n} lanes");
            check_probe::<_, _, Mul>(&label, &fk, &narrow, &divisor, &cmp, &bm);
            check_probe::<_, _, Div>(&label, &fk, &narrow, &divisor, &cmp, &bm);
            check_probe::<_, _, Mul>(&label, &fk, &wide, &narrow, &cmp, &bm);
            check_probe::<_, _, Div>(&label, &fk, &wide, &divisor, &cmp, &bm);
        }
    }

    /// The checked probe reports what `agg::sum_op_masked_checked` reports
    /// over the folded mask (see `masked_checked_agrees_and_detects_overflow`).
    #[test]
    fn sum_count_probe_detects_overflow_on_qualifying_lanes_only() {
        use crate::agg::Div;
        let bm = PositionalBitmap::from_predicate_bytes(&[1, 0]);
        let (big, two, one) = ([i64::MAX, 1, i64::MAX], [2i64, 1, 2], [1i64; 3]);
        let mul = |fk: &[u32], b: &[i64], cmp: &[u8]| {
            semijoin_sum_count_bitmap_masked::<_, _, Mul, true>(fk, &big, b, cmp, &bm)
        };
        // A product that wraps on a qualifying lane is detected...
        assert!(mul(&[0, 0, 1], &two, &[1, 1, 0]).2);
        // ...one the predicate or the parent's bit masks out is not...
        assert_eq!(mul(&[0, 0, 1], &two, &[0, 1, 1]), (1, 1, false));
        // ...and neither is a running sum that wraps missed.
        assert_eq!(mul(&[0, 0, 0], &one, &[1, 1, 0]), (i64::MIN, 2, true));
        // Unchecked: the same wrapped sum, nothing reported.
        let unchecked = semijoin_sum_count_bitmap_masked::<_, _, Mul, false>(
            &[0, 0, 0],
            &big,
            &one,
            &[1, 1, 0],
            &bm,
        );
        assert_eq!(unchecked, (i64::MIN, 2, false));
        // `i64::MIN / -1` wraps too.
        let (min, minus_one) = ([i64::MIN], [-1i64]);
        let div = |cmp: &[u8]| {
            semijoin_sum_count_bitmap_masked::<_, _, Div, true>(&[0], &min, &minus_one, cmp, &bm)
        };
        assert_eq!(div(&[1]), (i64::MIN, 1, true));
        assert_eq!(div(&[0]), (0, 0, false));
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
