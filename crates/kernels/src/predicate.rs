//! Prepass predicate-evaluation kernels.
//!
//! These are the "first inner loop" of the hybrid / ROF / SWOLE strategies
//! (Fig. 1): evaluate a predicate over a tile and store the 0/1 result in a
//! `cmp` byte array. Removing the control dependency lets the compiler SIMD-
//! vectorize the comparison, which is the hybrid strategy's prepass
//! technique. Conjunctions multiply/AND masks; disjunctions OR them.

/// `out[j] = (data[j] < lit)` over one tile.
#[inline]
pub fn cmp_lt<T: Copy + PartialOrd>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d < lit) as u8;
    }
}

/// `out[j] = (data[j] <= lit)` over one tile.
#[inline]
pub fn cmp_le<T: Copy + PartialOrd>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d <= lit) as u8;
    }
}

/// `out[j] = (data[j] > lit)` over one tile.
#[inline]
pub fn cmp_gt<T: Copy + PartialOrd>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d > lit) as u8;
    }
}

/// `out[j] = (data[j] >= lit)` over one tile.
#[inline]
pub fn cmp_ge<T: Copy + PartialOrd>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d >= lit) as u8;
    }
}

/// `out[j] = (data[j] == lit)` over one tile.
#[inline]
pub fn cmp_eq<T: Copy + PartialEq>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d == lit) as u8;
    }
}

/// `out[j] = (data[j] != lit)` over one tile.
#[inline]
pub fn cmp_ne<T: Copy + PartialEq>(data: &[T], lit: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d != lit) as u8;
    }
}

/// `out[j] = (lo <= data[j] && data[j] <= hi)` over one tile (SQL `BETWEEN`).
#[inline]
pub fn cmp_between<T: Copy + PartialOrd>(data: &[T], lo: T, hi: T, out: &mut [u8]) {
    assert_eq!(data.len(), out.len());
    for (o, &d) in out.iter_mut().zip(data) {
        *o = (d >= lo && d <= hi) as u8;
    }
}

/// `out[j] = (a[j] < b[j])` — column-vs-column comparison (e.g. Q4's
/// `l_commitdate < l_receiptdate`).
#[inline]
pub fn cmp_lt_cols<T: Copy + PartialOrd>(a: &[T], b: &[T], out: &mut [u8]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    for ((o, &av), &bv) in out.iter_mut().zip(a).zip(b) {
        *o = (av < bv) as u8;
    }
}

/// `acc[j] &= other[j]` — conjoin a second predicate's mask.
#[inline]
pub fn and_into(acc: &mut [u8], other: &[u8]) {
    assert_eq!(acc.len(), other.len());
    for (a, &o) in acc.iter_mut().zip(other) {
        *a &= o;
    }
}

/// `out[j] = table[codes[j]]` — membership of dictionary codes in a
/// precomputed match table.
///
/// String predicates (LIKE, IN over strings) are evaluated once per
/// dictionary entry into `table`; the per-row loop is then this sequential
/// integer lookup into a tiny cached table.
#[inline]
pub fn in_code_table(codes: &[u32], table: &[bool], out: &mut [u8]) {
    assert_eq!(codes.len(), out.len());
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = table[c as usize] as u8;
    }
}

/// Count set entries in a mask (selectivity observation, feeds the cost
/// model's adaptive decisions, and `count(*)` under value masking).
///
/// A byte-lane sum: mask entries are 0 or 1 — every producer in this module
/// writes a `bool as u8` — so 255 of them add up inside a `u8` lane, and the
/// lanes widen to `usize` once per block instead of once per entry.
#[inline]
pub fn mask_count(cmp: &[u8]) -> usize {
    debug_assert!(cmp.iter().all(|&c| c <= 1), "a mask holds 0 / 1");
    cmp.chunks(LANE_ROUNDS * LANES)
        .map(|block| {
            let mut lanes = [0u8; LANES];
            let rounds = block.chunks_exact(LANES);
            let tail = rounds.remainder();
            for round in rounds {
                for (lane, &c) in lanes.iter_mut().zip(round) {
                    // At most `LANE_ROUNDS` ones reach a lane: no wrap.
                    *lane = lane.wrapping_add(c);
                }
            }
            lanes.iter().chain(tail).map(|&c| c as usize).sum::<usize>()
        })
        .sum()
}

/// Byte lanes of [`mask_count`]: two 16-byte vectors.
const LANES: usize = 32;
/// Rounds of [`LANES`] ones a `u8` lane holds before it would wrap.
const LANE_ROUNDS: usize = u8::MAX as usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_comparisons_agree_with_scalar() {
        let data: Vec<i32> = vec![-3, 0, 5, 13, 13, 20];
        let mut out = vec![0u8; data.len()];
        cmp_lt(&data, 13, &mut out);
        assert_eq!(out, [1, 1, 1, 0, 0, 0]);
        cmp_le(&data, 13, &mut out);
        assert_eq!(out, [1, 1, 1, 1, 1, 0]);
        cmp_gt(&data, 0, &mut out);
        assert_eq!(out, [0, 0, 1, 1, 1, 1]);
        cmp_ge(&data, 0, &mut out);
        assert_eq!(out, [0, 1, 1, 1, 1, 1]);
        cmp_eq(&data, 13, &mut out);
        assert_eq!(out, [0, 0, 0, 1, 1, 0]);
        cmp_ne(&data, 13, &mut out);
        assert_eq!(out, [1, 1, 1, 0, 0, 1]);
        cmp_between(&data, 0, 13, &mut out);
        assert_eq!(out, [0, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn boolean_combinators() {
        let mut acc = vec![1u8, 1, 0, 0];
        and_into(&mut acc, &[1, 0, 1, 0]);
        assert_eq!(acc, [1, 0, 0, 0]);
    }

    #[test]
    fn dict_membership() {
        let codes = vec![0u32, 2, 1, 2];
        let table = vec![true, false, true];
        let mut out = vec![0u8; 4];
        in_code_table(&codes, &table, &mut out);
        assert_eq!(out, [1, 1, 0, 1]);
    }

    #[test]
    fn mask_count_counts() {
        assert_eq!(mask_count(&[1, 0, 1, 1, 0]), 3);
        assert_eq!(mask_count(&[]), 0);
    }

    fn naive_count(cmp: &[u8]) -> usize {
        cmp.iter().map(|&c| c as usize).sum()
    }

    /// All ones around every boundary of the byte-lane sum: a lane's width,
    /// the block at which a lane would wrap, and a whole morsel.
    #[test]
    fn mask_count_never_wraps_a_lane() {
        let block = LANE_ROUNDS * LANES;
        let lens = [0, 1, 31, 32, 33, block - 1, block, block + 1, 64 * 1024];
        for len in lens {
            assert_eq!(mask_count(&vec![1u8; len]), len, "len={len}");
        }
    }

    #[test]
    fn mask_count_matches_the_naive_sum_on_random_masks() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..48u64 {
            let mut rng = SmallRng::seed_from_u64(0xC0 + seed);
            let len = rng.gen_range(0usize..3 * LANE_ROUNDS * LANES);
            let density = f64::from(rng.gen_range(0u32..=100)) / 100.0;
            let mask: Vec<u8> = (0..len).map(|_| rng.gen_bool(density) as u8).collect();
            assert_eq!(
                mask_count(&mask),
                naive_count(&mask),
                "seed={seed} len={len}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn length_mismatch_is_a_bug() {
        let mut out = vec![0u8; 3];
        cmp_lt(&[1, 2], 5, &mut out);
    }
}
