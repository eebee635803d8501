//! Direct timed calls into the layers below the planner — `kernels`, `ht`,
//! `bitmap` — on the workload's own micro columns, tile-looped the way the
//! hand-coded pipelines call them. Each value is the median of `REPS`
//! calls divided by the rows of `R`.
//!
//! The probes explain `scan_micro` and `hash_micro`; the driver's format makes
//! the other two workloads report them as well. `tpch_sql` has no micro
//! columns (its types differ), so there the caller passes a small micro
//! table and the numbers are the layers' cache-resident speed, no more.

// Indexed loops mirror the hand-coded kernels being timed.
#![allow(clippy::needless_range_loop)]

use std::hint::black_box;

use swole::bitmap::PositionalBitmap;
use swole::ht::{AggTable, MergeOp};
use swole::kernels::agg::{self, Mul};
use swole::kernels::{groupby, join, predicate, selvec, tiles, TILE};

use crate::stats::time_ns;
use crate::workload::{Micro, C2_CARDINALITY, C_CARDINALITY};

/// Calls per probe.
const REPS: usize = 15;

/// The 0/1 mask of `r_x < sel` over all of `R`, and the row ids it selects.
type Selection = (Vec<u8>, Vec<u32>);

fn selection(m: &Micro, sel: i8) -> Selection {
    let mut mask = vec![0u8; m.db.r.len()];
    predicate::cmp_lt(&m.db.r.x, sel, &mut mask);
    let idx = (0..mask.len() as u32)
        .filter(|&j| mask[j as usize] != 0)
        .collect();
    (mask, idx)
}

/// Time `work` over a fresh `setup()` per call; nanoseconds per row of `R`.
fn per_row_on<S, R>(m: &Micro, setup: impl FnMut() -> S, work: impl FnMut(S) -> R) -> f64 {
    time_ns(REPS, setup, work) / m.db.r.len() as f64
}

fn per_row<R>(m: &Micro, mut work: impl FnMut() -> R) -> f64 {
    per_row_on(m, || (), |()| work())
}

pub fn probe(m: &Micro) -> Vec<(String, f64)> {
    let r = &m.db.r;
    let n = r.len();
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));
    let selections: Vec<(&str, Selection)> = [("s01", 1), ("s50", 50), ("s99", 99)]
        .into_iter()
        .map(|(tag, sel)| (tag, selection(m, sel)))
        .collect();
    let (mask50, idx50) = &selections[1].1;

    put(
        "kernels.predicate.cmp_lt_ns_row",
        per_row(m, || {
            let mut cmp = [0u8; TILE];
            for (s, l) in tiles(n) {
                predicate::cmp_lt(&r.x[s..s + l], 50, &mut cmp[..l]);
                black_box(&cmp);
            }
        }),
    );
    for (tag, (mask, idx)) in &selections {
        put(
            &format!("kernels.selvec.fill_nobranch_ns_row.{tag}"),
            per_row(m, || {
                let mut sel = [0u32; TILE];
                let mut k = 0;
                for (s, l) in tiles(n) {
                    k += selvec::fill_nobranch(&mask[s..s + l], s as u32, &mut sel[..l]);
                    black_box(&sel);
                }
                k
            }),
        );
        put(
            &format!("kernels.agg.sum_op_gather_ns_row.{tag}"),
            per_row(m, || {
                idx.chunks(TILE)
                    .map(|ids| agg::sum_op_gather::<_, _, Mul>(&r.a, &r.b, ids))
                    .sum::<i64>()
            }),
        );
    }
    put(
        "kernels.selvec.fill_branch_ns_row.s50",
        per_row(m, || {
            let mut sel = [0u32; TILE];
            let mut k = 0;
            for (s, l) in tiles(n) {
                k += selvec::fill_branch(&mask50[s..s + l], s as u32, &mut sel[..l]);
                black_box(&sel);
            }
            k
        }),
    );
    put(
        "kernels.agg.sum_op_masked_ns_row",
        per_row(m, || {
            tiles(n)
                .map(|(s, l)| {
                    agg::sum_op_masked::<_, _, Mul>(
                        &r.a[s..s + l],
                        &r.b[s..s + l],
                        &mask50[s..s + l],
                    )
                })
                .sum::<i64>()
        }),
    );
    put(
        "kernels.agg.sum_op_datacentric_ns_row.s50",
        per_row(m, || {
            agg::sum_op_datacentric::<_, _, Mul>(&r.a, &r.b, |j| r.x[j] < 50)
        }),
    );

    for (tag, keys, card) in [
        ("g1k", &r.c, C_CARDINALITY),
        ("g256k", &m.c2, C2_CARDINALITY),
    ] {
        let table = || AggTable::with_capacity(1, card);
        put(
            &format!("kernels.groupby.key_masked_ns_row.{tag}"),
            per_row_on(m, table, |mut ht| {
                let mut masked = [0i64; TILE];
                for (s, l) in tiles(n) {
                    groupby::mask_keys(&keys[s..s + l], &mask50[s..s + l], &mut masked[..l]);
                    groupby::groupby_key_masked::<_, _, Mul>(
                        &masked[..l],
                        &r.a[s..s + l],
                        &r.b[s..s + l],
                        &mut ht,
                    );
                }
                ht
            }),
        );
        let mut steps_per_probe = 0.0;
        put(
            &format!("ht.agg_table.entry_ns_op.{tag}"),
            per_row_on(m, table, |mut ht| {
                for &k in keys.iter() {
                    let off = ht.entry(k as i64);
                    ht.add(off, 0, 1);
                }
                let c = ht.counters();
                steps_per_probe = c.probe_steps as f64 / c.probes as f64;
                ht
            }),
        );
        if tag == "g256k" {
            put("ht.agg_table.steps_per_probe", steps_per_probe);
        }
    }
    let table_1k = || AggTable::with_capacity(1, C_CARDINALITY);
    put(
        "kernels.groupby.value_masked_ns_row.g1k",
        per_row_on(m, table_1k, |mut ht| {
            for (s, l) in tiles(n) {
                groupby::groupby_value_masked::<_, _, _, Mul>(
                    &r.c[s..s + l],
                    &r.a[s..s + l],
                    &r.b[s..s + l],
                    &mask50[s..s + l],
                    &mut ht,
                );
            }
            ht
        }),
    );
    put(
        "kernels.groupby.gather_ns_row.g1k",
        per_row_on(m, table_1k, |mut ht| {
            for ids in idx50.chunks(TILE) {
                groupby::groupby_gather::<_, _, _, Mul>(&r.c, &r.a, &r.b, ids, &mut ht);
            }
            ht
        }),
    );

    // Two partial tables over the halves of `c2`, as two workers would
    // hand them to the merge.
    let partial = |keys: &[i32]| {
        let mut ht = AggTable::with_capacity(1, C2_CARDINALITY);
        for &k in keys {
            let off = ht.entry(k as i64);
            ht.add(off, 0, 1);
            ht.set_valid(off);
        }
        ht
    };
    let (left, right) = (partial(&m.c2[..n / 2]), partial(&m.c2[n / 2..]));
    put(
        "ht.agg_table.merge_from_ms",
        time_ns(
            REPS,
            || left.clone(),
            |mut into| {
                into.merge_from(&right, &[MergeOp::Add]);
                into
            },
        ) / 1e6,
    );

    // The S-side predicate `s_x < 50` as the bitmap Q4 probes and the
    // groupjoin table Q5 probes.
    let s = &m.db.s;
    let mut s_mask = vec![0u8; s.len()];
    predicate::cmp_lt(&s.x, 50, &mut s_mask);
    let bitmap = PositionalBitmap::from_predicate_bytes(&s_mask);
    put(
        "bitmap.dense.from_predicate_bytes_ns_row",
        per_row(m, || PositionalBitmap::from_predicate_bytes(mask50)),
    );
    put(
        "bitmap.dense.get_bit_ns_op",
        per_row(m, || {
            r.fk.iter()
                .map(|&p| bitmap.get_bit(p as usize))
                .sum::<u64>()
        }),
    );
    put(
        "kernels.join.semijoin_bitmap_masked_ns_row",
        per_row(m, || {
            tiles(n)
                .map(|(s, l)| {
                    join::semijoin_sum_bitmap_masked::<_, _, Mul>(
                        &r.fk[s..s + l],
                        &r.a[s..s + l],
                        &r.b[s..s + l],
                        &mask50[s..s + l],
                        &bitmap,
                    )
                })
                .sum::<i64>()
        }),
    );
    put(
        "kernels.join.semijoin_bitmap_gather_ns_row",
        per_row(m, || {
            idx50
                .chunks(TILE)
                .map(|ids| {
                    join::semijoin_sum_bitmap_gather::<_, _, Mul>(&r.fk, &r.a, &r.b, ids, &bitmap)
                })
                .sum::<i64>()
        }),
    );
    put(
        "kernels.join.eager_aggregate_ns_row",
        per_row_on(
            m,
            || AggTable::with_capacity(1, s.len()),
            |mut ht| {
                join::eager_aggregate::<_, _, _, Mul>(&r.fk, &r.a, &r.b, &mut ht);
                ht
            },
        ),
    );
    let mut qualifying = AggTable::with_capacity(1, s.len() / 2 + 4);
    for pk in 0..s.len() {
        if s_mask[pk] != 0 {
            qualifying.entry(pk as i64);
        }
    }
    put(
        "kernels.join.groupjoin_probe_ns_row",
        per_row_on(
            m,
            || qualifying.clone(),
            |mut ht| {
                join::groupjoin_probe::<_, _, _, Mul>(&r.fk, &r.a, &r.b, &mut ht);
                ht
            },
        ),
    );
    out
}
