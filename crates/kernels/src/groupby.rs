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
//! The kernels are generic over the [`GroupTable`] they upsert into — the
//! hash [`swole_ht::AggTable`] or the dense array — so each is compiled once
//! per representation and no lane asks which it has. All accumulation goes
//! through [`GroupTable::add`], which uses explicit wrapping arithmetic
//! (identical results in debug and release) and records wraparound in the
//! table's sticky overflow flag ([`GroupTable::overflow_detected`]); the
//! operator applications themselves
//! wrap via [`BinOp::apply`]. Masked strategies aggregate filtered tuples
//! too, so a detected overflow may be wasted-work noise — callers decide
//! whether to re-run data-centric.
//!
//! Each strategy also has an **aggregate-list form** (`*_n`): `N` inputs —
//! one slice per `sum`, a slice of ones for `count(*)` — added to the
//! aggregate slots `first..first + N` of each lane's entry. `N` is a const,
//! so the aggregate list is unrolled into the loop body rather than walked
//! inside it, and `PROVEN` picks [`GroupTable::add_proven`] over
//! [`GroupTable::add`] at compile time for accumulators a bounds
//! certificate proved: per lane, such a loop computes an offset and
//! performs its adds. A list longer than the arity a caller instantiates
//! is several calls with successive `first`s.

// Tile-loop kernels: index arithmetic is bounded by slice lengths
// (debug_assert'd) and accumulators follow the paper's convention of
// unchecked 64-bit adds (overflow is detected once per tile by the
// engine, not per lane; dev/test profiles carry overflow checks).
#![allow(clippy::arithmetic_side_effects)]

use crate::agg::BinOp;
use crate::AsI64;
use swole_ht::{GroupTable, NULL_KEY};

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

/// Hybrid group-by: lookups driven by a selection vector of global row ids.
#[inline]
pub fn groupby_gather<K: AsI64, A: AsI64, B: AsI64, O: BinOp>(
    keys: &[K],
    a: &[A],
    b: &[B],
    idx: &[u32],
    ht: &mut impl GroupTable,
) {
    assert_eq!(keys.len(), a.len());
    assert_eq!(keys.len(), b.len());
    ht.note_probes(idx.len());
    for &j in idx {
        let j = j as usize;
        let off = ht.entry(keys[j].widen());
        ht.add(off, 0, O::apply(a[j].widen(), b[j].widen()));
        ht.set_valid(off);
    }
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
    assert_eq!(keys.len(), a.len());
    assert_eq!(keys.len(), b.len());
    assert_eq!(keys.len(), cmp.len());
    ht.note_probes(keys.len());
    for j in 0..keys.len() {
        let off = ht.entry(keys[j].widen());
        ht.add(off, 0, O::apply(a[j].widen(), b[j].widen()) * cmp[j] as i64);
        ht.or_valid(off, cmp[j]);
    }
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
    assert_eq!(masked_keys.len(), a.len());
    assert_eq!(masked_keys.len(), b.len());
    ht.note_probes(masked_keys.len());
    for j in 0..masked_keys.len() {
        let off = ht.entry(masked_keys[j]);
        ht.add(off, 0, O::apply(a[j].widen(), b[j].widen()));
        ht.set_valid(off);
    }
}

/// Add `f(inputs[i][j])` to aggregate slot `first + i` of the entry at
/// `off`, for each of the `N` inputs: the unrolled body of every `*_n`
/// kernel (here and in [`crate::join`]).
#[inline(always)]
pub(crate) fn add_lane<V: AsI64, const N: usize, const PROVEN: bool>(
    ht: &mut impl GroupTable,
    off: usize,
    first: usize,
    inputs: &[&[V]; N],
    j: usize,
    f: impl Fn(i64) -> i64,
) {
    for (i, input) in inputs.iter().enumerate() {
        let v = f(input[j].widen());
        if PROVEN {
            ht.add_proven(off, first + i, v);
        } else {
            ht.add(off, first + i, v);
        }
    }
}

/// `inputs`, each cut to the `n` lanes of the tile (so the lane loop's
/// index is visibly in range of all of them).
#[inline(always)]
pub(crate) fn tile_inputs<V, const N: usize>(inputs: [&[V]; N], n: usize) -> [&[V]; N] {
    inputs.map(|v| {
        assert_eq!(v.len(), n);
        v
    })
}

/// [`groupby_gather`] over an aggregate list: the rows `idx` selects upsert
/// their key and add `inputs[i]` to aggregate slot `first + i`.
#[inline]
pub fn groupby_gather_n<K: AsI64, V: AsI64, const N: usize, const PROVEN: bool>(
    keys: &[K],
    inputs: [&[V]; N],
    idx: &[u32],
    first: usize,
    ht: &mut impl GroupTable,
) {
    let inputs = tile_inputs(inputs, keys.len());
    ht.note_probes(idx.len());
    for &j in idx {
        let j = j as usize;
        let off = ht.entry(keys[j].widen());
        add_lane::<V, N, PROVEN>(ht, off, first, &inputs, j, |v| v);
        ht.set_valid(off);
    }
}

/// [`groupby_value_masked`] over an aggregate list: every lane upserts its
/// real key and adds `inputs[i] * cmp` to aggregate slot `first + i` —
/// `count(*)` is the input of ones, which the mask turns into itself.
#[inline]
pub fn groupby_value_masked_n<K: AsI64, V: AsI64, const N: usize, const PROVEN: bool>(
    keys: &[K],
    inputs: [&[V]; N],
    cmp: &[u8],
    first: usize,
    ht: &mut impl GroupTable,
) {
    assert_eq!(keys.len(), cmp.len());
    let inputs = tile_inputs(inputs, keys.len());
    ht.note_probes(keys.len());
    for (j, (key, &c)) in keys.iter().zip(cmp).enumerate() {
        let off = ht.entry(key.widen());
        // c is 0/1, so the product cannot overflow.
        add_lane::<V, N, PROVEN>(ht, off, first, &inputs, j, |v| v * c as i64);
        ht.or_valid(off, c);
    }
}

/// [`groupby_key_masked`] over an aggregate list: every lane upserts its
/// masked key and adds the unmasked `inputs[i]` to aggregate slot
/// `first + i` (the throwaway entry collects the filtered lanes').
#[inline]
pub fn groupby_key_masked_n<V: AsI64, const N: usize, const PROVEN: bool>(
    masked_keys: &[i64],
    inputs: [&[V]; N],
    first: usize,
    ht: &mut impl GroupTable,
) {
    let inputs = tile_inputs(inputs, masked_keys.len());
    ht.note_probes(masked_keys.len());
    for (j, &key) in masked_keys.iter().enumerate() {
        let off = ht.entry(key);
        add_lane::<V, N, PROVEN>(ht, off, first, &inputs, j, |v| v);
        ht.set_valid(off);
    }
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
    use crate::agg::Mul;
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

    /// Every aggregate-list kernel at arity `N`, checked and proven, into
    /// aggregate slots `first..first + N` of `new()`'s table, against
    /// `groupby_datacentric` run once per aggregate.
    fn list_kernels_match_datacentric<T: GroupTable, const N: usize>(
        seed: u64,
        key_card: i32,
        first: usize,
        new: impl Fn() -> T,
    ) {
        use crate::join::eager_aggregate_n;
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..3 * TILE);
        let lit = [0, 1, 50, 99, 100][rng.gen_range(0..5usize)];
        let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..key_card) as u32).collect();
        let x: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let ones = vec![1i32; n];
        // `count(*)` is an input like any other: a column of ones.
        let cols: Vec<Vec<i32>> = (0..N)
            .map(|i| match (i + seed as usize) % 3 {
                0 => ones.clone(),
                _ => (0..n).map(|_| rng.gen_range(-1000..1000)).collect(),
            })
            .collect();
        let reference = |pred: &dyn Fn(usize) -> bool| {
            let mut want: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            for (i, col) in cols.iter().enumerate() {
                let mut ht = AggTable::with_capacity(1, 64);
                groupby_datacentric::<_, _, _, Mul>(&keys, col, &ones, pred, &mut ht);
                for (k, sum) in collect_groups(&ht) {
                    let width = first + N;
                    want.entry(k).or_insert_with(|| vec![0; width])[first + i] = sum;
                }
            }
            want.into_iter().collect::<Vec<_>>()
        };
        let filtered = reference(&|j| x[j] < lit);
        let every_row = reference(&|_| true);
        let tile =
            |s: usize, l: usize| -> [&[i32]; N] { std::array::from_fn(|i| &cols[i][s..s + l]) };
        let (mut cmp, mut idx, mut mk) = ([0u8; TILE], [0u32; TILE], [0i64; TILE]);
        macro_rules! check {
            ($proven:literal) => {{
                let (mut hy, mut vm, mut km, mut ea) = (new(), new(), new(), new());
                for (s, l) in tiles(n) {
                    predicate::cmp_lt(&x[s..s + l], lit, &mut cmp[..l]);
                    // Tile-local offsets: the inputs are the tile's slices.
                    let k = selvec::fill_nobranch(&cmp[..l], 0, &mut idx[..l]);
                    let (ks, ins, c) = (&keys[s..s + l], tile(s, l), &cmp[..l]);
                    groupby_gather_n::<_, _, N, $proven>(ks, ins, &idx[..k], first, &mut hy);
                    groupby_value_masked_n::<_, _, N, $proven>(ks, ins, c, first, &mut vm);
                    mask_keys(ks, c, &mut mk[..l]);
                    groupby_key_masked_n::<_, N, $proven>(&mk[..l], ins, first, &mut km);
                    eager_aggregate_n::<_, _, N, $proven>(ks, ins, first, &mut ea);
                }
                let label = format!("seed {seed} N={N} proven={}", $proven);
                assert_eq!(collect_states(&hy), filtered, "gather, {label}");
                assert_eq!(collect_states(&vm), filtered, "value masked, {label}");
                assert_eq!(collect_states(&km), filtered, "key masked, {label}");
                assert_eq!(collect_states(&ea), every_row, "eager, {label}");
                for ht in [&hy, &vm, &km, &ea] {
                    assert!(!ht.overflow_detected(), "{label}");
                }
                // One probe per upsert, whoever does the counting.
                let qualifying = x.iter().filter(|&&v| v < lit).count() as u64;
                let probes = [&hy, &vm, &km, &ea].map(|ht| ht.counters().probes);
                assert_eq!(
                    probes,
                    [qualifying, n as u64, n as u64, n as u64],
                    "{label}"
                );
            }};
        }
        check!(false);
        check!(true);
    }

    #[test]
    fn aggregate_list_kernels_match_datacentric_per_aggregate() {
        let cases = if cfg!(miri) { 2 } else { 12 };
        for seed in 0..cases {
            let card = [3, 64, 1000][seed as usize % 3];
            let dense = |n_aggs| move || DenseAggTable::new(n_aggs, 0, card as i64 - 1);
            let hash = |n_aggs| move || AggTable::with_capacity(n_aggs, 8);
            list_kernels_match_datacentric::<_, 1>(seed, card, 0, dense(1));
            list_kernels_match_datacentric::<_, 2>(seed, card, 0, dense(2));
            list_kernels_match_datacentric::<_, 3>(seed, card, 0, hash(3));
            list_kernels_match_datacentric::<_, 4>(seed, card, 0, dense(4));
            list_kernels_match_datacentric::<_, 4>(seed, card, 0, hash(4));
            // A later pass of a longer list: slots 4.. of a 5- and a 6-wide
            // entry.
            list_kernels_match_datacentric::<_, 1>(seed, card, 4, dense(5));
            list_kernels_match_datacentric::<_, 2>(seed, card, 4, hash(6));
        }
    }

    /// The checked form raises the table's flag where a sum leaves `i64`;
    /// the proven form wraps to the same state without it.
    #[test]
    fn checked_lists_detect_overflow_and_proven_lists_wrap() {
        let (keys, big) = ([0u32, 0], [i64::MAX, 1]);
        let mut checked = DenseAggTable::new(1, 0, 0);
        let mut proven = checked.clone();
        groupby_value_masked_n::<_, _, 1, false>(&keys, [&big], &[1, 1], 0, &mut checked);
        groupby_value_masked_n::<_, _, 1, true>(&keys, [&big], &[1, 1], 0, &mut proven);
        assert!(checked.overflow_detected() && !proven.overflow_detected());
        assert_eq!(collect_groups(&checked), vec![(0, i64::MIN)]);
        assert_eq!(collect_groups(&proven), vec![(0, i64::MIN)]);
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
