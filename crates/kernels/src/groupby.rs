//! Group-by aggregation kernels (paper § III-B, Fig. 4).
//!
//! For queries shaped like
//! `select c, sum(a OP b) from R where <pred> group by c`:
//!
//! * data-centric / hybrid — filter first, then a hash-table lookup per
//!   qualifying tuple (conditional reads of `c`, `a`, `b`);
//! * **value masking** (Fig. 4 top) — unconditionally look up every tuple's
//!   real key and add the masked value, with valid-flag bookkeeping;
//! * **key masking** (Fig. 4 bottom) — mask the *key* to [`NULL_KEY`] so
//!   filtered tuples hit the single throwaway entry (cached when the
//!   predicate often fails), and the value needs no masking.
//!
//! Past the baseline, these and eager aggregation (§ III-E) are one loop,
//! [`upsert`], varied along one axis: which lanes upsert and with what mask
//! ([`Lanes`]). What it adds is the second axis ([`Inputs`]): one fused
//! `a OP b` over native-width column slices ([`Fused`]), `N` value slices
//! (`count(*)` a slice of ones), or a list with `min` / `max` ([`Folds`]).
//! The paper's named kernels are its instances.
//!
//! The loop is generic over the [`GroupTable`] it upserts into — the hash
//! [`swole_ht::AggTable`] or the dense array — so no lane asks which it
//! has. Every add is one wrapping add (identical results in debug and
//! release). Masked strategies aggregate filtered tuples too — value
//! masking adds `v · 0`, key masking adds to the throwaway entry — and
//! neither can change a group's sum mod 2^64.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd), and accumulators are the paper's 64-bit adds, each
// one explicit wrapping add (dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

use std::marker::PhantomData;

use crate::agg::BinOp;
use crate::AsI64;
use swole_ht::{GroupTable, MergeOp, NULL_KEY};

/// Data-centric group-by: branch per tuple, lookup only for qualifying rows.
#[inline]
pub fn groupby_datacentric<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    keys: &[K],
    a: &[A],
    b: &[B],
    pred: impl Fn(usize) -> bool,
    ht: &mut impl GroupTable,
) {
    assert_eq!(keys.len(), a.len());
    assert_eq!(keys.len(), b.len());
    let mut probes = 0;
    for j in 0..keys.len() {
        if pred(j) {
            let off = ht.entry(keys[j].widen());
            ht.add(off, 0, O::apply(a[j].widen(), b[j].widen()));
            ht.set_valid(off);
            probes += 1;
        }
    }
    ht.note_probes(probes);
}

/// Which lanes of the key slice upsert, and under what mask.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'a> {
    /// Every lane: eager aggregation by FK, key masking by masked key.
    Every,
    /// Every lane, values times `cmp`, valid flag ORed with it: value masking.
    Masked(&'a [u8]),
    /// The lanes `idx` selects: the hybrid gather and the groupjoin.
    Selected(&'a [u32]),
}

/// What one upsert folds into the aggregate slots `first..` of its entry.
pub trait Inputs<T: GroupTable> {
    /// Assert that every input holds the key slice's `n` lanes.
    fn check(&self, n: usize);
    /// Fold lane `j`, each value times `c` (value masking's mask, else 1),
    /// into the entry at `off` before its valid update.
    fn upsert(&self, ht: &mut T, off: usize, first: usize, j: usize, c: i64);
}

/// One `sum(a OP b)` over two column slices at native width.
#[derive(Debug)]
pub struct Fused<'a, A, B, O>(pub &'a [A], pub &'a [B], pub PhantomData<O>);

impl<T: GroupTable, A: AsI64, B: AsI64, O: BinOp> Inputs<T> for Fused<'_, A, B, O> {
    #[inline(always)]
    fn check(&self, n: usize) {
        assert_eq!((self.0.len(), self.1.len()), (n, n));
    }
    #[inline(always)]
    fn upsert(&self, ht: &mut T, off: usize, first: usize, j: usize, c: i64) {
        let (a, b) = O::operands(self.0[j], self.1[j]);
        let v = O::apply(a, b);
        ht.add(off, first, v * c);
    }
}

/// `N` sums, one slice each: unrolled into the lane body, not walked in it.
/// A longer list is several calls with successive `first`s.
impl<T: GroupTable, V: AsI64, const N: usize> Inputs<T> for [&[V]; N] {
    #[inline(always)]
    fn check(&self, n: usize) {
        self.iter().for_each(|input| assert_eq!(input.len(), n));
    }
    #[inline(always)]
    fn upsert(&self, ht: &mut T, off: usize, first: usize, j: usize, c: i64) {
        for (i, input) in self.iter().enumerate() {
            // c is 0/1, so the product cannot overflow.
            ht.add(off, first + i, input[j].widen() * c);
        }
    }
}

/// A [`Folds`] slot: its combine and its column (`None`: a 1 per lane).
pub type Slot = (MergeOp, Option<usize>);

/// A list with `min` / `max`, slot `first + i` combining the column
/// `slots[i]` names under its op, in one pass that matches per slot. A
/// `min` / `max` takes its entry's first real value as is — the entry is
/// fresh while its valid flag is clear — so the list cannot be split into
/// passes: the first would set the flag the others read.
#[derive(Debug)]
pub struct Folds<'a, C>(pub &'a [Slot], pub &'a [C]);

impl<T: GroupTable, C: AsRef<[i64]>> Inputs<T> for Folds<'_, C> {
    fn check(&self, n: usize) {
        let inputs = self.0.iter().filter_map(|s| s.1);
        inputs.for_each(|col| assert!(self.1[col].as_ref().len() >= n));
    }
    #[inline(always)]
    fn upsert(&self, ht: &mut T, off: usize, first: usize, j: usize, c: i64) {
        // The valid flags are an array of their own: only a list that
        // folds reads one per lane.
        let fresh = !ht.is_valid(off);
        for (i, &(op, input)) in self.0.iter().enumerate() {
            let v = input.map_or(1, |col| self.1[col].as_ref()[j]);
            if op == MergeOp::Add {
                ht.add(off, first + i, v * c);
            } else if c != 0 {
                let state = &mut ht.states_mut()[off + first + i];
                *state = match op {
                    _ if fresh => v,
                    MergeOp::Min => (*state).min(v),
                    _ => (*state).max(v),
                };
            }
        }
    }
}

/// The grouped upsert loop: each of `lanes` finds or inserts its key,
/// folds its `inputs` into slots `first..` of the entry and updates the
/// valid flag. `keys` and every input hold the same lanes: a tile's, or
/// whole columns that global row ids select from.
#[inline]
#[allow(clippy::needless_range_loop)] // indexed over lengths asserted equal
pub fn upsert<K: AsI64, T: GroupTable, I: Inputs<T>>(
    keys: &[K],
    lanes: Lanes<'_>,
    inputs: &I,
    first: usize,
    ht: &mut T,
) {
    let n = keys.len();
    inputs.check(n);
    match lanes {
        Lanes::Every => {
            ht.note_probes(n);
            for j in 0..n {
                let off = ht.entry(keys[j].widen());
                inputs.upsert(ht, off, first, j, 1);
                ht.set_valid(off);
            }
        }
        Lanes::Masked(cmp) => {
            assert_eq!(cmp.len(), n);
            ht.note_probes(n);
            for j in 0..n {
                let off = ht.entry(keys[j].widen());
                inputs.upsert(ht, off, first, j, cmp[j] as i64);
                ht.or_valid(off, cmp[j]);
            }
        }
        Lanes::Selected(idx) => {
            ht.note_probes(idx.len());
            for &j in idx {
                let j = j as usize;
                let off = ht.entry(keys[j].widen());
                inputs.upsert(ht, off, first, j, 1);
                ht.set_valid(off);
            }
        }
    }
}

/// Hybrid group-by: lookups driven by a selection vector of row ids into
/// `keys`, `a` and `b`.
#[inline]
pub fn groupby_gather<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    keys: &[K],
    a: &[A],
    b: &[B],
    idx: &[u32],
    ht: &mut impl GroupTable,
) {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    upsert(keys, Lanes::Selected(idx), &inputs, 0, ht);
}

/// **Value masking** group-by (Fig. 4 top): every tuple — qualifying or not
/// — looks up its *real* key sequentially; the added value is masked to 0
/// and the valid flag records whether any real update happened.
#[inline]
pub fn groupby_value_masked<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    keys: &[K],
    a: &[A],
    b: &[B],
    cmp: &[u8],
    ht: &mut impl GroupTable,
) {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    upsert(keys, Lanes::Masked(cmp), &inputs, 0, ht);
}

/// **Key masking**, first loop (Fig. 4 bottom): store the real key where the
/// predicate passed and [`NULL_KEY`] otherwise — a sequential, branch-free
/// write of the masked key vector (`(key & m) | (NULL_KEY & !m)` with an
/// all-ones/all-zeros mask, so selectivity cannot cause mispredictions).
#[inline]
pub fn mask_keys<K: AsI64>(keys: &[K], cmp: &[u8], out: &mut [i64]) {
    assert_eq!(keys.len(), cmp.len());
    assert_eq!(keys.len(), out.len());
    for ((o, &k), &c) in out.iter_mut().zip(keys).zip(cmp) {
        let m = -((c & 1) as i64); // 0 or -1
        *o = (k.widen() & m) | (NULL_KEY & !m);
    }
}

/// **Key masking**, second loop (Fig. 4 bottom): aggregate *every* tuple —
/// masked keys land on the throwaway entry, so the value is **not** masked
/// and no valid-flag bookkeeping is needed.
#[inline]
pub fn groupby_key_masked<A: AsI64, B: AsI64, O: BinOp>(
    masked_keys: &[i64],
    a: &[A],
    b: &[B],
    ht: &mut impl GroupTable,
) {
    let inputs = Fused::<_, _, O>(a, b, PhantomData);
    upsert(masked_keys, Lanes::Every, &inputs, 0, ht);
}

/// Collect a finished group-by table into sorted `(key, sum)` rows,
/// honouring the valid flags (so value masking's bookkeeping excludes
/// entries that only ever received masked updates) and excluding the
/// throwaway entry.
pub fn collect_groups(ht: &impl GroupTable) -> Vec<(i64, i64)> {
    let mut rows: Vec<(i64, i64)> = ht
        .iter()
        .filter(|&(_, _, valid)| valid)
        .map(|(k, state, _)| (k, state[0]))
        .collect();
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Div, Mul};
    use crate::{predicate, selvec, tiles, TILE};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use swole_ht::{AggTable, DenseAggTable};

    fn mk_data(n: usize, key_card: i32) -> (Vec<i32>, Vec<i32>, Vec<i32>, Vec<i32>) {
        let mut state = 42u64;
        let mut next = move |m: i32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % m as u64) as i32
        };
        let c: Vec<i32> = (0..n).map(|_| next(key_card)).collect();
        let x: Vec<i32> = (0..n).map(|_| next(100)).collect();
        let a: Vec<i32> = (0..n).map(|_| next(20) + 1).collect();
        let b: Vec<i32> = (0..n).map(|_| next(20) + 1).collect();
        (c, x, a, b)
    }

    fn reference(c: &[i32], x: &[i32], a: &[i32], b: &[i32], lit: i32) -> Vec<(i64, i64)> {
        let mut groups: BTreeMap<i64, i64> = BTreeMap::new();
        for j in 0..c.len() {
            if x[j] < lit {
                *groups.entry(c[j] as i64).or_insert(0) += a[j] as i64 * b[j] as i64;
            }
        }
        groups.into_iter().collect()
    }

    #[test]
    fn all_four_strategies_agree() {
        for key_card in [3i32, 64, 1000] {
            for lit in [0i32, 13, 50, 100] {
                let (c, x, a, b) = mk_data(5000, key_card);
                let expected = reference(&c, &x, &a, &b, lit);

                // data-centric
                let mut ht = AggTable::with_capacity(1, 64);
                groupby_datacentric::<_, _, _, Mul>(&c, &a, &b, |j| x[j] < lit, &mut ht);
                assert_eq!(
                    collect_groups(&ht),
                    expected,
                    "dc card={key_card} lit={lit}"
                );

                // hybrid
                let mut ht = AggTable::with_capacity(1, 64);
                let mut cmp = [0u8; TILE];
                let mut idx = [0u32; TILE];
                for (s, l) in tiles(c.len()) {
                    predicate::cmp_lt(&x[s..s + l], lit, &mut cmp[..l]);
                    let k = selvec::fill_nobranch(&cmp[..l], s as u32, &mut idx[..l]);
                    groupby_gather::<_, _, _, Mul>(&c, &a, &b, &idx[..k], &mut ht);
                }
                assert_eq!(
                    collect_groups(&ht),
                    expected,
                    "hy card={key_card} lit={lit}"
                );

                // value masking
                let mut ht = AggTable::with_capacity(1, 64);
                for (s, l) in tiles(c.len()) {
                    predicate::cmp_lt(&x[s..s + l], lit, &mut cmp[..l]);
                    groupby_value_masked::<_, _, _, Mul>(
                        &c[s..s + l],
                        &a[s..s + l],
                        &b[s..s + l],
                        &cmp[..l],
                        &mut ht,
                    );
                }
                assert_eq!(
                    collect_groups(&ht),
                    expected,
                    "vm card={key_card} lit={lit}"
                );

                // key masking
                let mut ht = AggTable::with_capacity(1, 64);
                let mut mk = [0i64; TILE];
                for (s, l) in tiles(c.len()) {
                    predicate::cmp_lt(&x[s..s + l], lit, &mut cmp[..l]);
                    mask_keys(&c[s..s + l], &cmp[..l], &mut mk[..l]);
                    groupby_key_masked::<_, _, Mul>(&mk[..l], &a[s..s + l], &b[s..s + l], &mut ht);
                }
                assert_eq!(
                    collect_groups(&ht),
                    expected,
                    "km card={key_card} lit={lit}"
                );
            }
        }
    }

    /// The same kernels over the dense table give the same groups: they
    /// are generic over the representation.
    #[test]
    fn strategies_agree_on_the_dense_table() {
        let key_card = 1000;
        let (c, x, a, b) = mk_data(5000, key_card);
        let dense = || DenseAggTable::new(1, 0, key_card as i64 - 1);
        let mut cmp = [0u8; TILE];
        let mut idx = [0u32; TILE];
        let mut mk = [0i64; TILE];
        for lit in [0i32, 50, 100] {
            let expected = reference(&c, &x, &a, &b, lit);
            let (mut hy, mut vm, mut km) = (dense(), dense(), dense());
            for (s, l) in tiles(c.len()) {
                predicate::cmp_lt(&x[s..s + l], lit, &mut cmp[..l]);
                let k = selvec::fill_nobranch(&cmp[..l], s as u32, &mut idx[..l]);
                groupby_gather::<_, _, _, Mul>(&c, &a, &b, &idx[..k], &mut hy);
                let (cs, as_, bs) = (&c[s..s + l], &a[s..s + l], &b[s..s + l]);
                groupby_value_masked::<_, _, _, Mul>(cs, as_, bs, &cmp[..l], &mut vm);
                mask_keys(cs, &cmp[..l], &mut mk[..l]);
                groupby_key_masked::<_, _, Mul>(&mk[..l], as_, bs, &mut km);
            }
            for (name, ht) in [("hy", &hy), ("vm", &vm), ("km", &km)] {
                assert_eq!(collect_groups(ht), expected, "{name} lit={lit}");
            }
        }
    }

    /// Sorted `(key, state)` rows of the valid entries, all aggregate slots.
    fn collect_states(ht: &impl GroupTable) -> Vec<(i64, Vec<i64>)> {
        let valid = ht.iter().filter(|&(_, _, valid)| valid);
        let mut rows: Vec<_> = valid.map(|(k, state, _)| (k, state.to_vec())).collect();
        rows.sort_unstable();
        rows
    }

    /// One tile of random data: keys in `0..card`, a filter mask and the
    /// selection vector it compacts to, and `i64` columns (negative values
    /// included; `nonzero` has no zero, for divisors).
    struct Case {
        n: usize,
        card: u32,
        keys: Vec<u32>,
        cmp: Vec<u8>,
        idx: Vec<u32>,
        vals: Vec<i64>,
        nonzero: Vec<i64>,
    }

    impl Case {
        fn new(n: usize) -> Case {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let card = [1, 3, 64, 1000][n / 4 % 4];
            let lit = [0, 1, 50, 99, 100][rng.gen_range(0..5usize)];
            let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..card)).collect();
            let cmp: Vec<u8> = (0..n)
                .map(|_| (rng.gen_range(0..100) < lit) as u8)
                .collect();
            let mut idx = vec![0u32; n];
            let k = selvec::fill_nobranch(&cmp, 0, &mut idx);
            idx.truncate(k);
            let vals = (0..n).map(|_| rng.gen_range(-100..100)).collect();
            let nonzero = (0..n)
                .map(|_| [-1i64, 1][rng.gen_range(0..2usize)] * rng.gen_range(1..100i64))
                .collect();
            Case {
                n,
                card,
                keys,
                cmp,
                idx,
                vals,
                nonzero,
            }
        }

        /// The keys with the lanes the filter rejects sent to the throwaway.
        fn masked_keys(&self) -> Vec<i64> {
            let mut mk = vec![0i64; self.n];
            mask_keys(&self.keys, &self.cmp, &mut mk);
            mk
        }

        /// The groups `groupby_datacentric` builds over the rows the filter
        /// keeps (`every`: all rows) for each of `sums` — a `sum(col * 1)`
        /// — written to slot `first + i` of `first + sums.len()`.
        fn reference(&self, every: bool, first: usize, sums: &[&[i64]]) -> Vec<(i64, Vec<i64>)> {
            let ones = vec![1i64; self.n];
            let mut want: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for (i, col) in sums.iter().enumerate() {
                let mut ht = AggTable::with_capacity(1, 64);
                let pred = |j: usize| every || self.cmp[j] != 0;
                groupby_datacentric::<_, _, _, Mul>(&self.keys, col, &ones, pred, &mut ht);
                for (k, sum) in collect_groups(&ht) {
                    let width = first + sums.len();
                    want.entry(k).or_insert_with(|| vec![0; width])[first + i] = sum;
                }
            }
            Vec::from_iter(want)
        }
    }

    /// Run `inputs` through every lane kind of the family — the hybrid
    /// gather, value masking, key masking and eager aggregation — into
    /// copies of `table`, and compare each copy's valid groups with
    /// `filtered` (the first three) or `every_row` (eager) and its probe
    /// count with the upserts issued.
    fn check_lanes<T: GroupTable + Clone, I: Inputs<T>>(
        case: &Case,
        inputs: &I,
        first: usize,
        table: &T,
        want: [&[(i64, Vec<i64>)]; 2],
        label: &str,
    ) {
        let (keys, mk) = (&case.keys[..], case.masked_keys());
        let mut tables = [(); 4].map(|_| table.clone());
        let [hy, vm, km, ea] = &mut tables;
        upsert(keys, Lanes::Selected(&case.idx), inputs, first, hy);
        upsert(keys, Lanes::Masked(&case.cmp), inputs, first, vm);
        upsert(&mk, Lanes::Every, inputs, first, km);
        upsert(keys, Lanes::Every, inputs, first, ea);
        let probes = [case.idx.len(), case.n, case.n, case.n];
        let names = ["gather", "value masked", "key masked", "eager"];
        for (i, ht) in tables.iter().enumerate() {
            let label = format!("{}, {label}", names[i]);
            assert_eq!(collect_states(ht), want[i / 3], "{label}");
            assert_eq!(ht.counters().probes, probes[i] as u64, "{label}");
        }
    }

    /// [`check_lanes`] over `width` slots from `first`, on the table the
    /// length picks.
    fn check_family<I: Inputs<DenseAggTable> + Inputs<AggTable>>(
        case: &Case,
        inputs: &I,
        (first, width): (usize, usize),
        want: [&[(i64, Vec<i64>)]; 2],
        label: &str,
    ) {
        let dense = DenseAggTable::new(first + width, 0, case.card as i64 - 1);
        let hash = AggTable::with_capacity(first + width, 8);
        match case.n % 2 {
            0 => check_lanes(case, inputs, first, &dense, want, label),
            _ => check_lanes(case, inputs, first, &hash, want, label),
        }
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

    /// `sum(a OP b)` as the fused input, `a` and `b` of the operand types
    /// `ta` / `tb`: against `groupby_datacentric` with the same operator.
    fn fused_case<A: AsI64, B: AsI64, O: BinOp>(case: &Case, a: &[A], b: &[B], label: &str) {
        let reference = |every: bool| {
            let mut ht = AggTable::with_capacity(1, 64);
            let pred = |j: usize| every || case.cmp[j] != 0;
            groupby_datacentric::<_, _, _, O>(&case.keys, a, b, pred, &mut ht);
            collect_states(&ht)
        };
        let (filtered, every_row) = (reference(false), reference(true));
        let inputs = Fused::<_, _, O>(a, b, PhantomData);
        check_family(case, &inputs, (0, 1), [&filtered, &every_row], label);
    }

    /// The upsert family against the data-centric reference at every tile
    /// length 0..=TILE: each lane kind × inputs of every kind — `sum(a *
    /// b)` and `sum(a / b)` over i8 / i16 / i32 / u32 / i64 operands (the
    /// pair varies with the length; divisors never zero), the one-slice
    /// `sum(a)` at every native width, 1–4 value slices with counts among
    /// them written from a later slot, and a list with `min` / `max` folds
    /// — × both tables, rotating with the length.
    #[test]
    fn the_family_matches_datacentric_at_every_tile_length() {
        let step = if cfg!(miri) { 127 } else { 1 };
        for n in (0..=TILE).step_by(step) {
            let case = Case::new(n);
            let (ta, tb) = (n % 5, n / 5 % 5);
            with_type!(ta, &case.vals, |a| with_type!(tb, &case.nonzero, |b| {
                fused_case::<_, _, Mul>(&case, &a, &b, &format!("n={n} a*b"));
                fused_case::<_, _, Div>(&case, &a, &b, &format!("n={n} a/b"));
            }));

            // The one-slice input, `sum(a)` at native width: every width.
            for t in 0..5 {
                with_type!(t, &case.vals, |a| {
                    let wide: Vec<i64> = a.iter().map(|v| v.widen()).collect();
                    let want = [false, true].map(|every| case.reference(every, 0, &[&wide]));
                    let label = format!("n={n} a, type {t}");
                    check_family(&case, &[&a[..]], (0, 1), [&want[0], &want[1]], &label);
                });
            }

            // Value slices: a sum column, then a count (ones), alternating.
            let ones = vec![1i64; n];
            let cols = [&case.vals[..], &ones, &case.nonzero, &ones];
            let first = n % 3;
            macro_rules! slices {
                ($($n:literal),*) => {$({
                    let inputs: [&[i64]; $n] = std::array::from_fn(|i| cols[i]);
                    let want = [false, true].map(|every| case.reference(every, first, &inputs));
                    let label = format!("n={n} N={}", $n);
                    check_family(&case, &inputs, (first, $n), [&want[0], &want[1]], &label);
                })*};
            }
            slices!(1, 2, 3, 4);

            // A folding list: min, sum, max, count over the two columns.
            let fold_cols = [&case.vals[..], &case.nonzero[..]];
            let slots = [
                (MergeOp::Min, Some(0)),
                (MergeOp::Add, Some(1)),
                (MergeOp::Max, Some(1)),
                (MergeOp::Add, None),
            ];
            let reference = |every: bool| {
                let mut want: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
                for j in (0..n).filter(|&j| every || case.cmp[j] != 0) {
                    let (v, w) = (case.vals[j], case.nonzero[j]);
                    let state = want.entry(case.keys[j] as i64).or_insert_with(|| {
                        let mut fresh = vec![0; first + slots.len()];
                        (fresh[first], fresh[first + 2]) = (v, w);
                        fresh
                    });
                    state[first] = state[first].min(v);
                    state[first + 1] += w;
                    state[first + 2] = state[first + 2].max(w);
                    state[first + 3] += 1;
                }
                Vec::from_iter(want)
            };
            let folds = Folds(&slots, &fold_cols);
            let want = [false, true].map(reference);
            let label = format!("n={n} folds");
            check_family(&case, &folds, (first, 4), [&want[0], &want[1]], &label);
        }
    }

    #[test]
    fn value_masking_excludes_never_valid_groups() {
        // Group 9 never passes the predicate; VM touches its entry with
        // masked updates only, so the valid flag must keep it out.
        let c = vec![9i32, 9, 1, 1];
        let x = vec![99i32, 99, 0, 0];
        let a = vec![1i32; 4];
        let b = vec![1i32; 4];
        let mut cmp = vec![0u8; 4];
        predicate::cmp_lt(&x, 50, &mut cmp);
        let mut ht = AggTable::with_capacity(1, 8);
        groupby_value_masked::<_, _, _, Mul>(&c, &a, &b, &cmp, &mut ht);
        assert_eq!(collect_groups(&ht), vec![(1, 2)]);
    }

    #[test]
    fn key_masking_routes_filtered_to_throwaway() {
        let c = vec![5i32, 6, 5];
        let cmp = vec![1u8, 0, 1];
        let a = vec![10i32, 10, 10];
        let b = vec![1i32, 1, 1];
        let mut mk = vec![0i64; 3];
        mask_keys(&c, &cmp, &mut mk);
        assert_eq!(mk, vec![5, NULL_KEY, 5]);
        let mut ht = AggTable::with_capacity(1, 8);
        groupby_key_masked::<_, _, Mul>(&mk, &a, &b, &mut ht);
        assert_eq!(collect_groups(&ht), vec![(5, 20)]);
        // The filtered tuple's (unmasked) value landed on the throwaway.
        assert_eq!(ht.null_state(), &[10]);
    }
}
