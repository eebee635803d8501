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
//!
//! Past the baseline, these and the positional-bitmap probe (§ III-D) are
//! one loop, [`fold`], the scalar counterpart of [`crate::groupby::upsert`]:
//! generic over its lanes (a mask or a selection vector), its membership
//! ([`Member`]: none, or an edge's bitmap), its inputs ([`Fold`]), whether
//! it counts the lanes it keeps, and the width its sums take ([`Mode`]).
//! The named kernels (`sum_op_masked`, `sum_op_gather`, the `join` bitmap
//! probes) are its `i64` instances; the two-loop access merging below
//! ([`mask_values`] + [`sum_product_tmp`]) stays as the yardstick's form.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd), and every sum is one explicit wrapping add: `+` mod
// 2^64 does not depend on the order of the addends or on how partials
// split, so the wasted work a pullup adds on a dropped lane (`v · 0`) can
// never change a result, and nothing needs to detect a wrap.
#![allow(clippy::arithmetic_side_effects)]

use std::marker::PhantomData;

use crate::groupby::{Fused, Lanes};
use crate::{AsI64, TILE};
use swole_bitmap::PositionalBitmap;

/// A binary arithmetic operator applied inside an aggregate expression
/// (the `[OP]` substitution parameter of microbenchmark Q1).
///
/// All arithmetic is explicitly wrapping, so debug and release builds (and
/// builds with `-C overflow-checks=on`) compute bit-identical results.
pub trait BinOp {
    /// Apply the operator to widened operands (wrapping on overflow).
    fn apply(a: i64, b: i64) -> i64;
    /// Apply the operator in `i32` lanes (wrapping), for inputs proven to fit.
    fn apply_i32(a: i32, b: i32) -> i32;
    /// Name used in reporting.
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
/// fragment) — a conditional-read access pattern. [`fold`]'s wrapping
/// `Selected` instance.
#[inline]
pub fn sum_op_gather<A: AsI64, B: AsI64, O: BinOp>(a: &[A], b: &[B], idx: &[u32]) -> i64 {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    fold::<_, _, Wrapping, false>(Lanes::Selected(idx), (), &inputs).value
}

/// **Value masking** (Fig. 3): unconditionally read the aggregation inputs
/// sequentially and multiply the result by the 0/1 predicate outcome —
/// `sum += (a[i+j] OP b[i+j]) * cmp[j]`. [`fold`]'s wrapping `Masked`
/// instance.
#[inline]
pub fn sum_op_masked<A: AsI64, B: AsI64, O: BinOp>(a: &[A], b: &[B], cmp: &[u8]) -> i64 {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    fold::<_, _, Wrapping, false>(Lanes::Masked(cmp), (), &inputs).value
}

/// The running state of a [`fold`]: the `i64` sum (or `min` / `max`) and
/// the `i32` partial of the [`I32Tile`] mode.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    sum: i64,
    part: i32,
}

/// The width a [`fold`]'s sums take: how a kept lane's `a OP b` joins the
/// sum. `keep` is 1 for a kept lane and 0 for one the mask or the
/// membership dropped, whose value is wasted work (§ III-A).
pub trait Mode {
    /// The most lanes one call may fold.
    const LANES: usize = usize::MAX;
    /// Add `(a OP b) · keep` to `acc`.
    fn add<O: BinOp>(acc: &mut Acc, a: impl AsI64, b: impl AsI64, keep: u8);
}

/// One wrapping add in `i64`: the engine's and the yardstick's sum. A wrap
/// on a dropped lane adds `v · 0`, so it cannot reach the result.
#[derive(Debug)]
pub struct Wrapping;

impl Mode for Wrapping {
    #[inline(always)]
    fn add<O: BinOp>(acc: &mut Acc, a: impl AsI64, b: impl AsI64, keep: u8) {
        acc.sum = acc
            .sum
            .wrapping_add(O::apply(a.widen(), b.widen()) * keep as i64);
    }
}

/// `part += (a OP b) & −keep` in `i32` lanes, widened once per call, which
/// holds at most one [`TILE`]: for inputs whose every operand, `a OP b` and
/// tile sum the caller has proven to fit an `i32` (the bounds certificate's
/// `i32` tile verdict). Without packed 64-bit multiplies the `i64` form is
/// compute-bound; this one streams.
#[derive(Debug)]
pub struct I32Tile;

impl Mode for I32Tile {
    const LANES: usize = TILE;
    #[inline(always)]
    fn add<O: BinOp>(acc: &mut Acc, a: impl AsI64, b: impl AsI64, keep: u8) {
        let v = O::apply_i32(a.widen() as i32, b.widen() as i32);
        acc.part = acc.part.wrapping_add(v & -i32::from(keep));
    }
}

/// What a [`fold`] folds per kept lane.
pub trait Fold {
    /// The value of a fold that keeps no lane.
    fn identity(&self) -> i64 {
        0
    }
    /// The lanes every input holds, if it has any.
    fn lanes(&self) -> Option<usize> {
        None
    }
    /// Assert that every input holds `n` lanes.
    fn check(&self, _n: usize) {}
    /// Fold lane `j` into `acc` (`keep`: 1 or 0) under the mode `M`.
    fn lane<M: Mode>(&self, _acc: &mut Acc, _j: usize, _keep: u8) {}
}

/// No input: a pass that only counts the lanes it keeps.
impl Fold for () {}

/// One `sum(a OP b)` over two slices at native width.
impl<A: AsI64, B: AsI64, O: BinOp> Fold for Fused<'_, A, B, O> {
    #[inline(always)]
    fn lanes(&self) -> Option<usize> {
        Some(self.0.len())
    }
    #[inline(always)]
    fn check(&self, n: usize) {
        assert_eq!((self.0.len(), self.1.len()), (n, n));
    }
    #[inline(always)]
    fn lane<M: Mode>(&self, acc: &mut Acc, j: usize, keep: u8) {
        M::add::<O>(acc, self.0[j], self.1[j], keep);
    }
}

/// `min` (`MAX` false) or `max` over a value register; no mode applies.
#[derive(Debug)]
pub struct Extreme<'a, const MAX: bool>(pub &'a [i64]);

impl<const MAX: bool> Fold for Extreme<'_, MAX> {
    fn identity(&self) -> i64 {
        [i64::MAX, i64::MIN][MAX as usize]
    }
    #[inline(always)]
    fn lanes(&self) -> Option<usize> {
        Some(self.0.len())
    }
    #[inline(always)]
    fn check(&self, n: usize) {
        assert_eq!(self.0.len(), n);
    }
    #[inline(always)]
    fn lane<M: Mode>(&self, acc: &mut Acc, j: usize, keep: u8) {
        let v = self.0[j];
        if keep != 0 {
            acc.sum = if MAX { acc.sum.max(v) } else { acc.sum.min(v) };
        }
    }
}

/// Which lanes of a [`fold`] belong to the result besides those its
/// [`Lanes`] keep: all of them (`()`), or those whose bit is set in one
/// edge's positional bitmap at the lane's FK position (§ III-D).
pub trait Member {
    /// Assert that the membership holds `n` lanes.
    fn check(&self, _n: usize) {}
    /// Lane `j`'s keep, given the keep `c` its lanes gave it.
    fn keep(&self, j: usize, c: u8) -> u8;
}

impl Member for () {
    #[inline(always)]
    fn keep(&self, _j: usize, c: u8) -> u8 {
        // The mask byte itself, not ANDed with a constant 1: the masked
        // instances stay the value-masking loop of Fig. 3.
        c
    }
}

impl Member for (&[u32], &PositionalBitmap) {
    #[inline(always)]
    fn check(&self, n: usize) {
        assert_eq!(self.0.len(), n);
    }
    #[inline(always)]
    fn keep(&self, j: usize, c: u8) -> u8 {
        c & self.1.get_bit(self.0[j] as usize) as u8
    }
}

/// What a [`fold`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Folded {
    /// The sum, `min` or `max` over the kept lanes (the identity if none).
    pub value: i64,
    /// The lanes kept, if the fold counted them (`COUNT`), else 0.
    pub count: usize,
}

/// **The scalar aggregation loop** — value masking (`Lanes::Masked`), the
/// hybrid gather (`Lanes::Selected`), the positional-bitmap probe (with a
/// [`Member`]) and access merging (the masked [`Fused`] instance over the
/// predicate's column) are its instances: each lane the `lanes` and the
/// `member` keep folds its `inputs` under the mode `M`, and
/// `COUNT` counts the kept lanes in the same pass. A mask's lanes are the
/// inputs' lanes; `idx` indexes them (tile-local offsets, or global row ids
/// into whole columns).
#[inline]
pub fn fold<I: Fold, R: Member, M: Mode, const COUNT: bool>(
    lanes: Lanes<'_>,
    member: R,
    inputs: &I,
) -> Folded {
    let mut acc = Acc {
        sum: inputs.identity(),
        part: 0,
    };
    let mut count = 0u64;
    let mut lane = |j: usize, c: u8| {
        let keep = member.keep(j, c);
        if COUNT {
            count += keep as u64;
        }
        inputs.lane::<M>(&mut acc, j, keep);
    };
    match lanes {
        Lanes::Masked(cmp) => {
            let n = cmp.len();
            assert!(n <= M::LANES);
            inputs.check(n);
            member.check(n);
            for (j, &c) in cmp.iter().enumerate() {
                lane(j, c);
            }
        }
        Lanes::Selected(idx) => {
            assert!(idx.len() <= M::LANES);
            // Equal lengths let one bounds check per lane cover every slice.
            if let Some(n) = inputs.lanes() {
                inputs.check(n);
                member.check(n);
            }
            for &j in idx {
                lane(j as usize, 1);
            }
        }
        Lanes::Every => unreachable!("a scalar fold keeps lanes by a mask or a selection"),
    }
    Folded {
        value: acc.sum.wrapping_add(i64::from(acc.part)),
        count: count as usize,
    }
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

    /// Converts a column to a narrower operand type (every value fits).
    fn narrow<T: TryFrom<i64>>(v: &[i64]) -> Vec<T>
    where
        T::Error: std::fmt::Debug,
    {
        v.iter().map(|&x| T::try_from(x).unwrap()).collect()
    }

    /// Run `$body` with `$c` bound to `$v` converted to operand type `$k`
    /// of i8 / i16 / i32 / u32 / i64 (u32 takes absolute values).
    macro_rules! with_type {
        ($k:expr, $v:expr, |$c:ident| $body:expr) => {{
            let v: &[i64] = $v;
            match $k % 5 {
                0 => {
                    let $c: Vec<i8> = narrow(v);
                    $body
                }
                1 => {
                    let $c: Vec<i16> = narrow(v);
                    $body
                }
                2 => {
                    let $c: Vec<i32> = narrow(v);
                    $body
                }
                3 => {
                    let abs: Vec<i64> = v.iter().map(|x| x.abs()).collect();
                    let $c: Vec<u32> = narrow(&abs);
                    $body
                }
                _ => {
                    let $c: Vec<i64> = v.to_vec();
                    $body
                }
            }
        }};
    }

    /// One tile of random lanes: a filter mask at one of five densities,
    /// the selection vector it compacts to, an edge's bitmap and FK
    /// positions, narrow values (negative ones included), never-zero
    /// divisors, never-zero values up to the `i32` proof's limit
    /// (`TILE · 1448² ≤ i32::MAX`) and wide values whose products and sums
    /// wrap.
    struct Case {
        cmp: Vec<u8>,
        idx: Vec<u32>,
        fk: Vec<u32>,
        bitmap: PositionalBitmap,
        vals: Vec<i64>,
        nonzero: Vec<i64>,
        limit: Vec<i64>,
        wide: Vec<i64>,
    }

    impl Case {
        fn new(n: usize) -> Case {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(0xF01D + n as u64);
            let densities = [0.0, 0.05, 0.5, 0.95, 1.0];
            let mut bytes = |len: usize| {
                let p = densities[rng.gen_range(0..densities.len())];
                (0..len).map(|_| rng.gen_bool(p) as u8).collect::<Vec<u8>>()
            };
            let (cmp, parent) = (bytes(n), bytes(n % 499 + 1));
            let mut idx = vec![0u32; n];
            let k = selvec::fill_nobranch(&cmp, 0, &mut idx);
            idx.truncate(k);
            let limit = i64::MAX >> rng.gen_range(0..16u32);
            Case {
                cmp,
                idx,
                fk: (0..n)
                    .map(|_| rng.gen_range(0..parent.len() as u32))
                    .collect(),
                bitmap: PositionalBitmap::from_predicate_bytes(&parent),
                vals: (0..n).map(|_| rng.gen_range(-100..100)).collect(),
                nonzero: (0..n)
                    .map(|_| [-1i64, 1][rng.gen_range(0..2usize)] * rng.gen_range(1..100i64))
                    .collect(),
                limit: (0..n)
                    .map(|_| [-1i64, 1][rng.gen_range(0..2usize)] * rng.gen_range(1..=1448i64))
                    .collect(),
                wide: (0..n).map(|_| rng.gen_range(-limit..=limit)).collect(),
            }
        }
    }

    /// What every instance of one input over one set of kept lanes must
    /// return: the wrapping sum (or the `min` / `max`) and the lanes kept.
    #[derive(Debug, Clone, Copy)]
    struct Want {
        value: i64,
        count: usize,
    }

    /// `sum(a OP b)` over the lanes `keep` keeps: `sum_op_datacentric`'s
    /// sum.
    fn kept_sum<A: AsI64, B: AsI64, O: BinOp>(
        a: &[A],
        b: &[B],
        keep: &dyn Fn(usize) -> bool,
    ) -> Want {
        Want {
            value: sum_op_datacentric::<_, _, O>(a, b, keep),
            count: (0..a.len()).filter(|&j| keep(j)).count(),
        }
    }

    /// `inputs` through both modes — `i32` lanes only where `narrow` says
    /// the proof holds — with `COUNT` off and on, against `want`.
    fn check_modes<I: Fold, R: Member + Copy>(
        lanes: Lanes<'_>,
        member: R,
        inputs: &I,
        want: Want,
        narrow: bool,
        label: &str,
    ) {
        let folded = |count| Folded {
            value: want.value,
            count,
        };
        let n = want.count;
        let f = fold::<_, _, Wrapping, false>(lanes, member, inputs);
        assert_eq!(f, folded(0), "{label}, i64");
        let f = fold::<_, _, Wrapping, true>(lanes, member, inputs);
        assert_eq!(f, folded(n), "{label}, i64 counting");
        if narrow {
            let f = fold::<_, _, I32Tile, false>(lanes, member, inputs);
            assert_eq!(f, folded(0), "{label}, i32");
            let f = fold::<_, _, I32Tile, true>(lanes, member, inputs);
            assert_eq!(f, folded(n), "{label}, i32 counting");
        }
    }

    /// [`check_modes`] behind both lane kinds, with no membership and with
    /// the case's bitmap; `want` gives the result over the lanes kept.
    fn check_all<I: Fold>(
        case: &Case,
        inputs: &I,
        want: impl Fn(&dyn Fn(usize) -> bool) -> Want,
        narrow: bool,
        label: &str,
    ) {
        let bit = |j: usize| case.bitmap.get_bit(case.fk[j] as usize) != 0;
        for bitmap in [false, true] {
            let want = want(&|j| case.cmp[j] != 0 && (!bitmap || bit(j)));
            let lanes = [
                (Lanes::Masked(&case.cmp), "masked"),
                (Lanes::Selected(&case.idx), "selected"),
            ];
            for (lanes, name) in lanes {
                let label = format!("n={} {label}, {name}, bitmap {bitmap}", case.cmp.len());
                match bitmap {
                    false => check_modes(lanes, (), inputs, want, narrow, &label),
                    true => {
                        let member = (&case.fk[..], &case.bitmap);
                        check_modes(lanes, member, inputs, want, narrow, &label);
                    }
                }
            }
        }
    }

    /// The scalar fold against the data-centric reference at every tile
    /// length 0..=TILE: masked and selected lanes × no membership and a
    /// bitmap × `sum(a * b)` and `sum(a / b)` over i8 / i16 / i32 / u32 /
    /// i64 operands (the pair rotates with the length; negative values,
    /// never-zero divisors) and over wide `i64` values that wrap, a
    /// count-only pass, `min` and `max` — × `i64` lanes and, where its
    /// proof holds, `i32` lanes × `COUNT` off and on. A wrap on a lane the
    /// mask or the bit dropped never reaches the sum.
    #[test]
    fn fold_matches_datacentric_at_every_tile_length() {
        let step = if cfg!(miri) { 127 } else { 1 };
        for n in (0..=TILE).step_by(step) {
            let case = Case::new(n);
            let (ta, tb) = (n % 5, n / 5 % 5);
            with_type!(ta, &case.vals, |a| with_type!(tb, &case.nonzero, |b| {
                let (a, b) = (&a[..], &b[..]);
                let mul = Fused::<_, _, Mul>(a, b, PhantomData);
                check_all(&case, &mul, |k| kept_sum::<_, _, Mul>(a, b, k), true, "a*b");
                let div = Fused::<_, _, Div>(a, b, PhantomData);
                check_all(&case, &div, |k| kept_sum::<_, _, Div>(a, b, k), true, "a/b");
            }));
            // Up to the `i32` proof's limit, an `i16` by an `i32` or `i64`.
            let (x, y) = (narrow::<i16>(&case.limit), &case.limit[..]);
            let y32 = narrow::<i32>(y);
            let mul = Fused::<_, _, Mul>(&x[..], &y32[..], PhantomData);
            check_all(
                &case,
                &mul,
                |k| kept_sum::<_, _, Mul>(&x, &y32, k),
                true,
                "limit*y",
            );
            let div = Fused::<_, _, Div>(y, &x[..], PhantomData);
            check_all(
                &case,
                &div,
                |k| kept_sum::<_, _, Div>(y, &x, k),
                true,
                "limit/y",
            );
            let (w, b) = (&case.wide[..], &case.nonzero[..]);
            let mul = Fused::<_, _, Mul>(w, b, PhantomData);
            check_all(
                &case,
                &mul,
                |k| kept_sum::<_, _, Mul>(w, b, k),
                false,
                "wide*b",
            );
            let div = Fused::<_, _, Div>(w, b, PhantomData);
            check_all(
                &case,
                &div,
                |k| kept_sum::<_, _, Div>(w, b, k),
                false,
                "wide/b",
            );
            let kept = |k: &dyn Fn(usize) -> bool| (0..n).filter(|&j| k(j)).collect::<Vec<_>>();
            let count = |k: &dyn Fn(usize) -> bool| Want {
                value: 0,
                count: kept(k).len(),
            };
            check_all(&case, &(), count, true, "count");
            let min = |k: &dyn Fn(usize) -> bool| Want {
                value: kept(k)
                    .iter()
                    .map(|&j| case.vals[j])
                    .min()
                    .unwrap_or(i64::MAX),
                ..count(k)
            };
            check_all(&case, &Extreme::<false>(&case.vals), min, true, "min");
            let max = |k: &dyn Fn(usize) -> bool| Want {
                value: kept(k)
                    .iter()
                    .map(|&j| case.vals[j])
                    .max()
                    .unwrap_or(i64::MIN),
                ..count(k)
            };
            check_all(&case, &Extreme::<true>(&case.vals), max, true, "max");
        }
        // A whole tile at the `i32` proof's limit, `TILE · 1448² ≤
        // i32::MAX`, both signs, every lane kept.
        const M: i64 = 1448;
        assert!(TILE as i64 * M * M <= i64::from(i32::MAX));
        let ones = [1u8; TILE];
        for (x, y) in [(M, M), (-M, M)] {
            let (x, y) = ([x; TILE], [y; TILE]);
            let want = sum_op_datacentric::<_, _, Mul>(&x, &y, |_| true);
            assert_eq!(want.abs(), TILE as i64 * M * M);
            let inputs = Fused::<_, _, Mul>(&x, &y, PhantomData);
            let f = fold::<_, _, I32Tile, false>(Lanes::Masked(&ones), (), &inputs);
            assert_eq!(f.value, want);
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
