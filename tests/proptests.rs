//! Randomized model tests on the core data structures and kernels: every
//! structure is checked against a trivially-correct model.
//!
//! Formerly written with `proptest`; the offline build replaces it with
//! seeded `SmallRng` case generation, so inputs are random-shaped but fully
//! deterministic run-to-run (no shrinking, but failures print the seed).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use swole::bitmap::{CompressedBitmap, PositionalBitmap};
use swole::ht::{AggTable, KeySet, NULL_KEY};
use swole::kernels::{predicate, selvec};
use swole::storage::{like_match, ColumnData, DataType, Date, Table};

const CASES: u64 = 48;

fn bool_vec(rng: &mut SmallRng, len: usize) -> Vec<bool> {
    (0..len).map(|_| rng.gen_bool(0.5)).collect()
}

// ---------------------------------------------------------------------
// Bitmaps vs Vec<bool>
// ---------------------------------------------------------------------

#[test]
fn bitmap_matches_bool_vec() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x10 + seed);
        let len = rng.gen_range(0usize..5000);
        let bits = bool_vec(&mut rng, len);
        let mut bm = PositionalBitmap::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            bm.assign(i, b as u64);
        }
        assert_eq!(bm.count_ones(), bits.iter().filter(|&&b| b).count());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(bm.get(i), b, "seed={seed} i={i}");
            assert_eq!(bm.get_bit(i), b as u64);
        }
        let ones: Vec<usize> = bm.iter_ones().collect();
        let expected: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(ones, expected, "seed={seed}");
    }
}

#[test]
fn bitmap_set_algebra_matches_model() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x20 + seed);
        let len = rng.gen_range(1usize..2000);
        let a = bool_vec(&mut rng, len);
        let b = bool_vec(&mut rng, len);
        let bm_a = {
            let bytes: Vec<u8> = a.iter().map(|&x| x as u8).collect();
            PositionalBitmap::from_predicate_bytes(&bytes)
        };
        let bm_b = {
            let bytes: Vec<u8> = b.iter().map(|&x| x as u8).collect();
            PositionalBitmap::from_predicate_bytes(&bytes)
        };
        let mut union = bm_a.clone();
        union.union_with(&bm_b);
        let mut inter = bm_a.clone();
        inter.intersect_with(&bm_b);
        let mut neg = bm_a.clone();
        neg.negate();
        for i in 0..len {
            assert_eq!(union.get(i), a[i] | b[i], "seed={seed} i={i}");
            assert_eq!(inter.get(i), a[i] & b[i], "seed={seed} i={i}");
            assert_eq!(neg.get(i), !a[i], "seed={seed} i={i}");
        }
    }
}

#[test]
fn compressed_bitmap_roundtrips() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x30 + seed);
        // Mix densities so both run-heavy and noise-heavy blocks occur.
        let len = rng.gen_range(0usize..20_000);
        let density = [0.01, 0.5, 0.99][seed as usize % 3];
        let bits: Vec<bool> = (0..len).map(|_| rng.gen_bool(density)).collect();
        let mut dense = PositionalBitmap::new(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                dense.set(i);
            }
        }
        let compressed = CompressedBitmap::compress(&dense);
        assert_eq!(compressed.count_ones(), dense.count_ones(), "seed={seed}");
        assert_eq!(&compressed.decompress(), &dense, "seed={seed}");
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(compressed.get(i), b, "seed={seed} i={i}");
        }
    }
}

// ---------------------------------------------------------------------
// Hash structures vs std collections
// ---------------------------------------------------------------------

#[test]
fn agg_table_matches_hashmap() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x40 + seed);
        let mut table = AggTable::with_capacity(1, 4);
        let mut model: HashMap<i64, i64> = HashMap::new();
        let mut null_acc = 0i64;
        for _ in 0..rng.gen_range(0usize..400) {
            match rng.gen_range(0u32..3) {
                0 => {
                    let k = rng.gen_range(i16::MIN..=i16::MAX) as i64;
                    let v = rng.gen_range(i32::MIN..=i32::MAX) as i64;
                    let off = table.entry(k);
                    table.add(off, 0, v);
                    table.set_valid(off);
                    *model.entry(k).or_insert(0) += v;
                }
                1 => {
                    let k = rng.gen_range(i16::MIN..=i16::MAX) as i64;
                    let was = table.delete(k);
                    assert_eq!(was, model.remove(&k).is_some(), "seed={seed}");
                }
                _ => {
                    let v = rng.gen_range(i32::MIN..=i32::MAX) as i64;
                    let off = table.entry(NULL_KEY);
                    table.add(off, 0, v);
                    null_acc += v;
                }
            }
        }
        assert_eq!(table.len(), model.len(), "seed={seed}");
        let got: HashMap<i64, i64> = table.iter().map(|(k, s, _)| (k, s[0])).collect();
        assert_eq!(got, model, "seed={seed}");
        assert_eq!(table.null_state()[0], null_acc, "seed={seed}");
    }
}

#[test]
fn key_set_matches_hashset() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x50 + seed);
        // Narrow domain so duplicate inserts actually happen.
        let keys: Vec<i64> = (0..rng.gen_range(0usize..500))
            .map(|_| rng.gen_range(-300i64..300))
            .collect();
        let mut set = KeySet::with_capacity(4);
        let mut model = std::collections::HashSet::new();
        for &k in &keys {
            assert_eq!(set.insert(k), model.insert(k), "seed={seed} k={k}");
        }
        assert_eq!(set.len(), model.len(), "seed={seed}");
        for &k in &keys {
            assert!(set.contains(k), "seed={seed} k={k}");
        }
        assert_eq!(set.contains(i64::MAX), model.contains(&i64::MAX));
    }
}

// ---------------------------------------------------------------------
// Kernels vs scalar references
// ---------------------------------------------------------------------

#[test]
fn selvec_variants_match_filter() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x70 + seed);
        let mask: Vec<u8> = (0..rng.gen_range(0usize..3000))
            .map(|_| rng.gen_bool(0.5) as u8)
            .collect();
        let mut a = vec![0u32; mask.len()];
        let mut b = vec![0u32; mask.len()];
        let ka = selvec::fill_nobranch(&mask, 100, &mut a);
        let kb = selvec::fill_branch(&mask, 100, &mut b);
        let expected: Vec<u32> = mask
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != 0)
            .map(|(i, _)| 100 + i as u32)
            .collect();
        assert_eq!(&a[..ka], expected.as_slice(), "seed={seed}");
        assert_eq!(&b[..kb], expected.as_slice(), "seed={seed}");
    }
}

#[test]
fn predicate_kernels_match_scalar() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x80 + seed);
        let data: Vec<i32> = (0..rng.gen_range(1usize..2000))
            .map(|_| rng.gen_range(i32::MIN..=i32::MAX))
            .collect();
        let lit = rng.gen_range(i32::MIN..=i32::MAX);
        let mut out = vec![0u8; data.len()];
        predicate::cmp_lt(&data, lit, &mut out);
        for (j, &d) in data.iter().enumerate() {
            assert_eq!(out[j], (d < lit) as u8, "seed={seed} j={j}");
        }
        predicate::cmp_between(&data, lit.saturating_sub(10), lit, &mut out);
        for (j, &d) in data.iter().enumerate() {
            assert_eq!(
                out[j],
                (d >= lit.saturating_sub(10) && d <= lit) as u8,
                "seed={seed} j={j}"
            );
        }
    }
}

#[test]
fn masked_sum_equals_filtered_sum() {
    use swole::kernels::agg::{sum_op_datacentric, sum_op_masked, Mul};
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x90 + seed);
        let n = rng.gen_range(0usize..2000);
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(1i32..100)).collect();
        let b: Vec<i32> = (0..n).map(|_| rng.gen_range(1i32..100)).collect();
        let cmp: Vec<u8> = (0..n).map(|_| rng.gen_bool(0.5) as u8).collect();
        let masked = sum_op_masked::<_, _, Mul>(&a, &b, &cmp);
        let branch = sum_op_datacentric::<_, _, Mul>(&a, &b, |j| cmp[j] != 0);
        assert_eq!(masked, branch, "seed={seed}");
    }
}

// ---------------------------------------------------------------------
// Storage primitives
// ---------------------------------------------------------------------

/// Reference LIKE implementation: simple recursion (exponential worst
/// case, fine at test sizes).
fn like_reference(pat: &[u8], val: &[u8]) -> bool {
    match (pat.first(), val.first()) {
        (None, None) => true,
        (Some(b'%'), _) => {
            like_reference(&pat[1..], val) || (!val.is_empty() && like_reference(pat, &val[1..]))
        }
        (Some(b'_'), Some(_)) => like_reference(&pat[1..], &val[1..]),
        (Some(&p), Some(&v)) if p == v => like_reference(&pat[1..], &val[1..]),
        _ => false,
    }
}

#[test]
fn like_match_agrees_with_reference() {
    let pat_alphabet = [b'a', b'b', b'%', b'_'];
    let val_alphabet = [b'a', b'b'];
    for seed in 0..CASES * 8 {
        let mut rng = SmallRng::seed_from_u64(0xA0 + seed);
        let pattern: String = (0..rng.gen_range(0usize..=8))
            .map(|_| pat_alphabet[rng.gen_range(0usize..4)] as char)
            .collect();
        let value: String = (0..rng.gen_range(0usize..=10))
            .map(|_| val_alphabet[rng.gen_range(0usize..2)] as char)
            .collect();
        assert_eq!(
            like_match(&pattern, &value),
            like_reference(pattern.as_bytes(), value.as_bytes()),
            "pattern={pattern} value={value}"
        );
    }
}

#[test]
fn date_roundtrip() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xB0 + seed);
        let d = Date(rng.gen_range(-200_000i32..200_000));
        let (y, m, dd) = d.to_ymd();
        assert_eq!(Date::from_ymd(y, m, dd), d);
    }
}

#[test]
fn date_ordering_matches_days() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC0 + seed);
        let a = rng.gen_range(-50_000i32..50_000);
        let b = rng.gen_range(-50_000i32..50_000);
        assert_eq!(Date(a) < Date(b), a < b);
    }
}

/// A column enters a table at the narrowest signed width that holds it,
/// and reads back the values it was built from.
#[test]
fn column_compression_roundtrips() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD0 + seed);
        // An arithmetic shift spreads the cases over every stored width.
        let shift = rng.gen_range(0u32..64);
        let values: Vec<i64> = (0..rng.gen_range(0usize..500))
            .map(|_| rng.gen_range(i64::MIN..=i64::MAX) >> shift)
            .collect();
        let t = Table::new("t").with_column("c", ColumnData::I64(values.clone()));
        let col = t.column_at(0);
        assert_eq!(col.to_i64_vec(), values, "seed={seed}");
        let half = 4 * col.data_type().width() as u32;
        let fits_half = |v: &i64| (-(1i64 << (half - 1))..1i64 << (half - 1)).contains(v);
        assert!(
            col.data_type() == DataType::I8 || !values.iter().all(fits_half),
            "seed={seed}: {:?} is not the narrowest",
            col.data_type()
        );
    }
}

#[test]
fn narrow_values_compress_narrow() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xE0 + seed);
        let values: Vec<i32> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen_range(-100i32..100))
            .collect();
        let t = Table::new("t").with_column("c", ColumnData::I32(values.clone()));
        assert_eq!(t.size_bytes(), values.len()); // one byte each
    }
}

// ---------------------------------------------------------------------
// AggTable::merge_from vs sequential insertion
// ---------------------------------------------------------------------

/// Partitioning a random insertion stream across k thread-local tables and
/// merging them must equal inserting the whole stream into one table —
/// the invariant the morsel-parallel group-by executor rests on. Inserts
/// mix real keys, NULL_KEY (key-masked) traffic, and masked rows that
/// touch an entry without validating it.
#[test]
fn merge_from_equals_sequential_insertion_randomized() {
    use swole::ht::MergeOp;

    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xF0 + seed);
        let n_aggs = rng.gen_range(1usize..4);
        let ops: Vec<MergeOp> = (0..n_aggs)
            .map(|_| match rng.gen_range(0u32..3) {
                0 => MergeOp::Add,
                1 => MergeOp::Min,
                _ => MergeOp::Max,
            })
            .collect();
        let n_parts = rng.gen_range(1usize..6);
        let n_rows = rng.gen_range(1usize..2000);
        let rows: Vec<(i64, Vec<i64>, bool)> = (0..n_rows)
            .map(|_| {
                let key = if rng.gen_bool(0.1) {
                    NULL_KEY
                } else {
                    rng.gen_range(-40i64..40)
                };
                let vals: Vec<i64> = (0..n_aggs).map(|_| rng.gen_range(-100i64..100)).collect();
                // NULL_KEY rows model key masking: always add-merged, and
                // their valid flag is never consulted.
                let valid = key == NULL_KEY || rng.gen_bool(0.8);
                (key, vals, valid)
            })
            .collect();

        let insert = |table: &mut AggTable, (key, vals, valid): &(i64, Vec<i64>, bool)| {
            let off = table.entry(*key);
            let fresh = !table.is_valid(off);
            for (i, (&v, op)) in vals.iter().zip(&ops).enumerate() {
                let s = &mut table.states_mut()[off + i];
                match op {
                    MergeOp::Add => *s += v,
                    // Min/max states only carry meaning on valid entries,
                    // matching the hybrid executor's fresh-entry handling.
                    MergeOp::Min => {
                        if *valid {
                            *s = if fresh { v } else { (*s).min(v) }
                        }
                    }
                    MergeOp::Max => {
                        if *valid {
                            *s = if fresh { v } else { (*s).max(v) }
                        }
                    }
                }
            }
            table.or_valid(off, *valid as u8);
        };

        // Sequential reference: one table sees the whole stream.
        let mut sequential = AggTable::with_capacity(n_aggs, 16);
        // Min/max mixing with masked (invalid) rows only round-trips when
        // invalid rows never carry min/max state; filter them the way the
        // planner does (min/max always run on the hybrid, valid-only path).
        let has_minmax = ops.iter().any(|o| !matches!(o, MergeOp::Add));
        let rows: Vec<_> = rows
            .into_iter()
            .filter(|r| !has_minmax || r.2 || r.0 == NULL_KEY)
            .collect();
        for row in &rows {
            insert(&mut sequential, row);
        }

        // Partitioned: round-robin rows across k tables, then merge.
        let mut parts: Vec<AggTable> = (0..n_parts)
            .map(|_| AggTable::with_capacity(n_aggs, 16))
            .collect();
        for (i, row) in rows.iter().enumerate() {
            insert(&mut parts[i % n_parts], row);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge_from(p, &ops);
        }

        let collect = |t: &AggTable| {
            let mut v: Vec<(i64, Vec<i64>, bool)> = t
                .iter()
                .map(|(k, s, valid)| (k, s.to_vec(), valid))
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            collect(&merged),
            collect(&sequential),
            "seed={seed} ops={ops:?} parts={n_parts}"
        );
    }
}
