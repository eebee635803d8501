//! Scalar-aggregation kernels (no group-by key).
//!
//! Realises the strategies of Fig. 1 and the SWOLE rewrites of Figs. 3 and 5
//! for queries shaped like `select sum(a OP b) from R where <pred>`:
//!
//! * data-centric — one loop, branch per tuple (`s_trav_cr` access pattern);
//! * hybrid — aggregate through a selection vector (conditional reads);
//! * **value masking** (§ III-A) — aggregate every tuple sequentially and
//!   multiply by the 0/1 predicate result;
//! * **access merging** (§ III-C) — fuse the predicate result into the value
//!   of the shared attribute so it is read once.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd) and accumulators follow the paper's convention of
// unchecked 64-bit adds (overflow is detected once per tile by the
// engine, not per lane; dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

use crate::{AsI64, TILE};

/// A binary arithmetic operator applied inside an aggregate expression
/// (the `[OP]` substitution parameter of microbenchmark Q1).
///
/// All arithmetic is explicitly wrapping, so debug and release builds (and
/// builds with `-C overflow-checks=on`) compute bit-identical results;
/// [`BinOp::apply_checked`] additionally reports wraparound for the
/// overflow-detecting kernel variants.
pub trait BinOp {
    /// Apply the operator to widened operands (wrapping on overflow).
    fn apply(a: i64, b: i64) -> i64;
    /// Apply the operator, reporting whether the result wrapped.
    fn apply_checked(a: i64, b: i64) -> (i64, bool);
    /// Apply the operator in `i32` lanes (wrapping), for inputs proven to fit.
    fn apply_i32(a: i32, b: i32) -> i32;
    /// Name used by codegen / reporting.
    const NAME: &'static str;
    /// `true` if the operation is expensive enough to be compute-bound
    /// (drives the `comp` term of the cost models).
    const COMPUTE_BOUND: bool;
}

/// Multiplication — the memory-bound configuration (Fig. 8a).
pub struct Mul;
impl BinOp for Mul {
    #[inline(always)]
    fn apply(a: i64, b: i64) -> i64 {
        a.wrapping_mul(b)
    }
    #[inline(always)]
    fn apply_checked(a: i64, b: i64) -> (i64, bool) {
        a.overflowing_mul(b)
    }
    #[inline(always)]
    fn apply_i32(a: i32, b: i32) -> i32 {
        a.wrapping_mul(b)
    }
    const NAME: &'static str = "*";
    const COMPUTE_BOUND: bool = false;
}

/// Division — the compute-bound configuration (Fig. 8b).
///
/// Callers must guarantee non-zero divisors: masked strategies evaluate the
/// division for *every* tuple (that is the point of the pullup) and only
/// mask the result. Division by zero still panics — in the engine that
/// panic is contained by the worker isolation domain and triggers the
/// data-centric retry.
pub struct Div;
impl BinOp for Div {
    #[inline(always)]
    fn apply(a: i64, b: i64) -> i64 {
        a.wrapping_div(b)
    }
    #[inline(always)]
    fn apply_checked(a: i64, b: i64) -> (i64, bool) {
        a.overflowing_div(b)
    }
    #[inline(always)]
    fn apply_i32(a: i32, b: i32) -> i32 {
        a.wrapping_div(b)
    }
    const NAME: &'static str = "/";
    const COMPUTE_BOUND: bool = true;
}

/// Data-centric aggregation: branch per tuple, conditional access of the
/// aggregation inputs (the `if (x[i] < 13) sum += a[i]` loop of Fig. 1).
#[inline]
pub fn sum_op_datacentric<A: AsI64, B: AsI64, O: BinOp>(
    a: &[A],
    b: &[B],
    pred: impl Fn(usize) -> bool,
) -> i64 {
    assert_eq!(a.len(), b.len());
    let mut sum = 0i64;
    for j in 0..a.len() {
        if pred(j) {
            sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()));
        }
    }
    sum
}

/// Hybrid aggregation: gather the aggregation inputs through a selection
/// vector of global row ids (the third inner loop of Fig. 1's hybrid
/// fragment) — a conditional-read access pattern.
#[inline]
pub fn sum_op_gather<A: AsI64, B: AsI64, O: BinOp>(a: &[A], b: &[B], idx: &[u32]) -> i64 {
    assert_eq!(a.len(), b.len());
    let mut sum = 0i64;
    for &j in idx {
        let j = j as usize;
        sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()));
    }
    sum
}

/// Hybrid gather with overflow detection: identical accumulation to
/// [`sum_op_gather`], but reports whether any gathered tuple's operator
/// application, or the running sum, wrapped around `i64`.
#[inline]
pub fn sum_op_gather_checked<A: AsI64, B: AsI64, O: BinOp>(
    a: &[A],
    b: &[B],
    idx: &[u32],
) -> (i64, bool) {
    assert_eq!(a.len(), b.len());
    let mut sum = 0i64;
    let mut overflow = false;
    for &j in idx {
        let j = j as usize;
        let (v, op_wrapped) = O::apply_checked(a[j].widen(), b[j].widen());
        let (s, sum_wrapped) = sum.overflowing_add(v);
        sum = s;
        overflow |= op_wrapped | sum_wrapped;
    }
    (sum, overflow)
}

/// **Value masking** (Fig. 3): unconditionally read the aggregation inputs
/// sequentially and multiply the result by the 0/1 predicate outcome —
/// `sum += (a[i+j] OP b[i+j]) * cmp[j]`.
#[inline]
pub fn sum_op_masked<A: AsI64, B: AsI64, O: BinOp>(a: &[A], b: &[B], cmp: &[u8]) -> i64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), cmp.len());
    let mut sum = 0i64;
    for j in 0..a.len() {
        // The 0/1 mask product cannot overflow; the op and the running sum
        // wrap explicitly.
        sum = sum.wrapping_add(O::apply(a[j].widen(), b[j].widen()) * cmp[j] as i64);
    }
    sum
}

/// Value masking with overflow detection: identical accumulation to
/// [`sum_op_masked`], but reports whether any *qualifying* tuple's operator
/// application, or the running sum, wrapped around `i64`. Wraparound in
/// masked-out (wasted-work) tuples is ignored — it cannot affect the
/// result.
#[inline]
pub fn sum_op_masked_checked<A: AsI64, B: AsI64, O: BinOp>(
    a: &[A],
    b: &[B],
    cmp: &[u8],
) -> (i64, bool) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), cmp.len());
    let mut sum = 0i64;
    let mut overflow = false;
    for j in 0..a.len() {
        let (v, op_wrapped) = O::apply_checked(a[j].widen(), b[j].widen());
        let (s, sum_wrapped) = sum.overflowing_add(v * cmp[j] as i64);
        sum = s;
        overflow |= (op_wrapped & (cmp[j] != 0)) | sum_wrapped;
    }
    (sum, overflow)
}

/// **Access merging**, first loop (Fig. 5 bottom): fuse the predicate result
/// into the shared attribute's value — `tmp[j] = x[j] * cmp[j]`, the mask
/// computed by the prepass over every conjunct — so the second loop reads
/// the attribute and the predicate as one operand.
#[inline]
pub fn mask_values<T: AsI64>(x: &[T], cmp: &[u8], tmp: &mut [i64]) {
    assert_eq!(x.len(), cmp.len());
    assert_eq!(x.len(), tmp.len());
    for ((t, &v), &c) in tmp.iter_mut().zip(x).zip(cmp) {
        *t = v.widen() * c as i64;
    }
}

/// Access merging, second loop: `sum += a[j] * tmp[j]` (Fig. 5 bottom).
#[inline]
pub fn sum_product_tmp<A: AsI64>(a: &[A], tmp: &[i64]) -> i64 {
    assert_eq!(a.len(), tmp.len());
    let mut sum = 0i64;
    for (&av, &t) in a.iter().zip(tmp) {
        sum = sum.wrapping_add(av.widen().wrapping_mul(t));
    }
    sum
}

/// Access merging when **both** aggregate inputs are the predicate attribute
/// (microbenchmark Q3's `sum(r_x * r_x)` configuration): `sum += tmp[j] *
/// tmp[j]`, valid because `tmp = x * cmp` and `cmp² = cmp`.
#[inline]
pub fn sum_square_tmp(tmp: &[i64]) -> i64 {
    let mut sum = 0i64;
    for &t in tmp {
        sum = sum.wrapping_add(t.wrapping_mul(t));
    }
    sum
}

/// `Σ f(a[j], b[j], −cmp[j])` over lanes narrowed to `i32` (exact, by the
/// caller's proof), one `i32` partial per [`TILE`] lanes widened once.
#[inline(always)]
fn sum_i32_tiles<A: AsI64, B: AsI64>(
    a: &[A],
    b: &[B],
    cmp: &[u8],
    f: impl Fn(i32, i32, i32) -> i32,
) -> i64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), cmp.len());
    let tiles = a.chunks(TILE).zip(b.chunks(TILE)).zip(cmp.chunks(TILE));
    tiles.fold(0i64, |sum, ((a, b), cmp)| {
        let lanes = a.iter().zip(b).zip(cmp);
        let part = lanes.fold(0i32, |p, ((&x, &y), &c)| {
            p.wrapping_add(f(x.widen() as i32, y.widen() as i32, -i32::from(c)))
        });
        sum.wrapping_add(i64::from(part))
    })
}

/// **Value masking in `i32` lanes**, `part += (a OP b) & −cmp`: for inputs
/// whose every operand, `a OP b` and tile sum the caller has proven to fit
/// an `i32` (the bounds certificate's `i32` tile verdict). Without packed
/// 64-bit multiplies the `i64` form is compute-bound; this one streams.
#[inline]
pub fn sum_op_masked_i32<A: AsI64, B: AsI64, O: BinOp>(a: &[A], b: &[B], cmp: &[u8]) -> i64 {
    sum_i32_tiles(a, b, cmp, |a, b, keep| O::apply_i32(a, b) & keep)
}

/// **Access merging in `i32` lanes**, one loop: `part += (x & −cmp) · y`
/// (`y = x` for `sum(x * x)`), under [`sum_op_masked_i32`]'s proof.
#[inline]
pub fn sum_merged_i32<X: AsI64, Y: AsI64>(x: &[X], y: &[Y], cmp: &[u8]) -> i64 {
    sum_i32_tiles(x, y, cmp, |x, y, keep| (x & keep).wrapping_mul(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{predicate, selvec, tiles};

    fn reference<O: BinOp>(x: &[i32], lit: i32, a: &[i32], b: &[i32]) -> i64 {
        (0..x.len())
            .filter(|&j| x[j] < lit)
            .map(|j| O::apply(a[j] as i64, b[j] as i64))
            .sum()
    }

    fn mk_data(n: usize) -> (Vec<i32>, Vec<i32>, Vec<i32>) {
        let mut state = 7u64;
        let mut next = move |m: i64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i64 % m) as i32
        };
        let x: Vec<i32> = (0..n).map(|_| next(100)).collect();
        let a: Vec<i32> = (0..n).map(|_| next(50) + 1).collect();
        let b: Vec<i32> = (0..n).map(|_| next(50) + 1).collect();
        (x, a, b)
    }

    /// Access merging's first loop for `x < lit`, as the served path runs
    /// it: the prepass mask, then [`mask_values`].
    fn merged_lt(x: &[i32], lit: i32) -> Vec<i64> {
        let mut cmp = vec![0u8; x.len()];
        predicate::cmp_lt(x, lit, &mut cmp);
        let mut tmp = vec![0i64; x.len()];
        mask_values(x, &cmp, &mut tmp);
        tmp
    }

    #[test]
    fn all_strategies_agree_mul() {
        let (x, a, b) = mk_data(3000);
        let lit = 37;
        let expected = reference::<Mul>(&x, lit, &a, &b);

        // data-centric
        let dc = sum_op_datacentric::<_, _, Mul>(&a, &b, |j| x[j] < lit);
        assert_eq!(dc, expected);

        // hybrid: tiled prepass + selvec + gather
        let mut hybrid = 0i64;
        let mut cmp = [0u8; crate::TILE];
        let mut idx = [0u32; crate::TILE];
        for (start, len) in tiles(x.len()) {
            predicate::cmp_lt(&x[start..start + len], lit, &mut cmp[..len]);
            let k = selvec::fill_nobranch(&cmp[..len], start as u32, &mut idx[..len]);
            hybrid += sum_op_gather::<_, _, Mul>(&a, &b, &idx[..k]);
        }
        assert_eq!(hybrid, expected);

        // value masking
        let mut vm = 0i64;
        for (start, len) in tiles(x.len()) {
            predicate::cmp_lt(&x[start..start + len], lit, &mut cmp[..len]);
            vm += sum_op_masked::<_, _, Mul>(
                &a[start..start + len],
                &b[start..start + len],
                &cmp[..len],
            );
        }
        assert_eq!(vm, expected);
    }

    #[test]
    fn all_strategies_agree_div() {
        let (x, a, b) = mk_data(2000);
        let lit = 80;
        let expected = reference::<Div>(&x, lit, &a, &b);
        let dc = sum_op_datacentric::<_, _, Div>(&a, &b, |j| x[j] < lit);
        assert_eq!(dc, expected);
        let mut cmp = vec![0u8; x.len()];
        predicate::cmp_lt(&x, lit, &mut cmp);
        let vm = sum_op_masked::<_, _, Div>(&a, &b, &cmp);
        assert_eq!(vm, expected);
    }

    #[test]
    fn access_merging_agrees_one_shared_attr() {
        // sum(x * a) where x < lit: merged tmp = x * cmp; sum += a * tmp.
        let (x, a, _) = mk_data(2000);
        let lit = 55;
        let expected: i64 = (0..x.len())
            .filter(|&j| x[j] < lit)
            .map(|j| x[j] as i64 * a[j] as i64)
            .sum();
        let tmp = merged_lt(&x, lit);
        assert_eq!(sum_product_tmp(&a, &tmp), expected);
    }

    #[test]
    fn access_merging_agrees_both_shared() {
        // sum(x * x) where x < lit.
        let (x, _, _) = mk_data(2000);
        let lit = 55;
        let expected: i64 = (0..x.len())
            .filter(|&j| x[j] < lit)
            .map(|j| x[j] as i64 * x[j] as i64)
            .sum();
        let tmp = merged_lt(&x, lit);
        assert_eq!(sum_square_tmp(&tmp), expected);
    }

    #[test]
    fn mask_values_matches_merge_for_single_conjunct() {
        let (x, _, _) = mk_data(500);
        let merged: Vec<i64> = x.iter().map(|&v| v as i64 * (v < 20) as i64).collect();
        assert_eq!(merged_lt(&x, 20), merged);
    }

    #[test]
    fn masked_checked_agrees_and_detects_overflow() {
        // Agrees with the unchecked kernel when nothing overflows.
        let (x, a, b) = mk_data(1000);
        let mut cmp = vec![0u8; x.len()];
        predicate::cmp_lt(&x, 42, &mut cmp);
        let (sum, ovf) = sum_op_masked_checked::<_, _, Mul>(&a, &b, &cmp);
        assert!(!ovf);
        assert_eq!(sum, sum_op_masked::<_, _, Mul>(&a, &b, &cmp));
        // Overflow in a qualifying tuple is detected...
        let big = [i64::MAX, 1];
        let two = [2i64, 1];
        let (_, ovf) = sum_op_masked_checked::<_, _, Mul>(&big, &two, &[1, 1]);
        assert!(ovf);
        // ...but wasted-work overflow in a masked-out tuple is not.
        let (sum, ovf) = sum_op_masked_checked::<_, _, Mul>(&big, &two, &[0, 1]);
        assert!(!ovf);
        assert_eq!(sum, 1);
    }

    #[test]
    fn gather_checked_agrees_and_detects_overflow() {
        let (x, a, b) = mk_data(1000);
        let mut cmp = vec![0u8; x.len()];
        predicate::cmp_lt(&x, 42, &mut cmp);
        let mut idx = vec![0u32; x.len()];
        let k = selvec::fill_nobranch(&cmp, 0, &mut idx);
        let (sum, ovf) = sum_op_gather_checked::<_, _, Mul>(&a, &b, &idx[..k]);
        assert!(!ovf);
        assert_eq!(sum, sum_op_gather::<_, _, Mul>(&a, &b, &idx[..k]));
        // A wrapping product in a gathered tuple is detected...
        let big = [i64::MAX, 1];
        let two = [2i64, 1];
        assert!(sum_op_gather_checked::<_, _, Mul>(&big, &two, &[0, 1]).1);
        // ...one the selection vector skips is not...
        assert_eq!(
            sum_op_gather_checked::<_, _, Mul>(&big, &two, &[1]),
            (1, false)
        );
        // ...and neither is a wrapping running sum missed.
        let one = [1i64, 1];
        assert!(sum_op_gather_checked::<_, _, Mul>(&[i64::MAX, 1], &one, &[0, 1]).1);
    }

    /// The `i32` lane forms against the data-centric loop at every length of
    /// a tile and across tiles, with lanes of every width — an `i64`
    /// register's included — negative operands and never-zero divisors, at
    /// magnitudes up to the proof's limit: `TILE · 1448² ≤ i32::MAX`.
    #[test]
    fn i32_lanes_match_the_datacentric_reference() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const M: i64 = 1448;
        assert!(TILE as i64 * M * M <= i64::from(i32::MAX));
        let mut rng = SmallRng::seed_from_u64(0x132);
        let n = 2 * TILE + 5;
        let mut lanes = |lo: i64, hi: i64| -> Vec<i64> {
            let nonzero = |v: i64| if v == 0 { 1 } else { v };
            (0..n).map(|_| nonzero(rng.gen_range(lo..=hi))).collect()
        };
        let i8s: Vec<i8> = lanes(-128, 127).iter().map(|&v| v as i8).collect();
        let i16s: Vec<i16> = lanes(-M, M).iter().map(|&v| v as i16).collect();
        let i32s: Vec<i32> = lanes(-M, M).iter().map(|&v| v as i32).collect();
        let u32s: Vec<u32> = lanes(1, M).iter().map(|&v| v as u32).collect();
        let i64s = lanes(-M, M);
        let cmp: Vec<u8> = lanes(0, 3).iter().map(|&v| (v & 1) as u8).collect();
        fn check<A: AsI64, B: AsI64>(a: &[A], b: &[B], cmp: &[u8]) {
            for len in (0..=TILE).chain([a.len()]) {
                let (a, b, cmp) = (&a[..len], &b[..len], &cmp[..len]);
                let want = |op| match op {
                    '*' => sum_op_datacentric::<_, _, Mul>(a, b, |j| cmp[j] != 0),
                    _ => sum_op_datacentric::<_, _, Div>(a, b, |j| cmp[j] != 0),
                };
                assert_eq!(
                    sum_op_masked_i32::<_, _, Mul>(a, b, cmp),
                    want('*'),
                    "{len}"
                );
                assert_eq!(
                    sum_op_masked_i32::<_, _, Div>(a, b, cmp),
                    want('/'),
                    "{len}"
                );
                assert_eq!(sum_merged_i32(a, b, cmp), want('*'), "merged {len}");
            }
        }
        check(&i8s, &i16s, &cmp);
        check(&i16s, &i32s, &cmp);
        check(&i32s, &u32s, &cmp);
        check(&u32s, &i64s, &cmp);
        check(&i64s, &i8s, &cmp);
        check(&i32s, &i32s, &cmp);
        // A whole tile at the limit, both signs, every lane kept.
        let ones = [1u8; TILE];
        for (x, y) in [(M, M), (-M, M)] {
            let (x, y) = ([x; TILE], [y; TILE]);
            let want = sum_op_datacentric::<_, _, Mul>(&x, &y, |_| true);
            assert_eq!(want.abs(), TILE as i64 * M * M);
            assert_eq!(sum_op_masked_i32::<_, _, Mul>(&x, &y, &ones), want);
            assert_eq!(sum_merged_i32(&x, &y, &ones), want);
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(sum_op_masked::<i32, i32, Mul>(&[], &[], &[]), 0);
        assert_eq!(sum_op_gather::<i32, i32, Mul>(&[], &[], &[]), 0);
        assert_eq!(sum_op_datacentric::<i32, i32, Mul>(&[], &[], |_| true), 0);
    }

    #[test]
    fn selectivity_extremes() {
        let (x, a, b) = mk_data(1000);
        let mut cmp = vec![0u8; x.len()];
        predicate::cmp_lt(&x, 0, &mut cmp); // selects nothing
        assert_eq!(sum_op_masked::<_, _, Mul>(&a, &b, &cmp), 0);
        predicate::cmp_lt(&x, 100, &mut cmp); // selects everything
        let all: i64 = a
            .iter()
            .zip(&b)
            .map(|(&av, &bv)| av as i64 * bv as i64)
            .sum();
        assert_eq!(sum_op_masked::<_, _, Mul>(&a, &b, &cmp), all);
    }
}
