//! Hand-coded references: the single-threaded pipelines the paper's figures
//! measure, returning rows in the engine's result layout so the two can be
//! compared for equality and timed against each other.

// Indexed loops mirror the hand-coded kernels they are compared with.
#![allow(clippy::needless_range_loop)]

use swole::bitmap::PositionalBitmap;
use swole::ht::AggTable;
use swole::kernels::agg::{Div, Mul};
use swole::kernels::groupby::{collect_groups, mask_keys};
use swole::kernels::{predicate, tiles, TILE};
use swole::CostParams;
use swole_micro::{q1, q2, q3, q4, q5, RTable};
use swole_tpch::TpchDb;

use crate::workload::Micro;

pub type Rows = Vec<Vec<i64>>;
pub type Pair = Box<dyn Fn() -> Rows + Send + Sync>;

fn scalar(v: i64) -> Rows {
    vec![vec![v]]
}

/// `(key, sum)` groups sorted by key, as the engine returns a group-by.
fn groups(ht: &AggTable) -> Rows {
    collect_groups(ht)
        .into_iter()
        .map(|(k, s)| vec![k, s])
        .collect()
}

pub fn micro_q1_mul(m: &Micro, sel: i8) -> Rows {
    scalar(q1::swole::<Mul>(&m.db.r, sel, &CostParams::default()).0)
}

pub fn micro_q1_div(m: &Micro) -> Rows {
    scalar(q1::swole::<Div>(&m.db.r, 50, &CostParams::default()).0)
}

pub fn micro_q3(m: &Micro) -> Rows {
    scalar(q3::swole(&m.db.r, q3::Q3Col::A, 50, &CostParams::default()))
}

pub fn micro_q2(r: &RTable, sel: i8, key_cardinality: usize) -> Rows {
    groups(&q2::swole(r, sel, key_cardinality, &CostParams::default()).0)
}

/// Q4 with the S-side selectivity fixed at 50 %.
pub fn micro_q4(m: &Micro, sel: i8) -> Rows {
    scalar(q4::swole(&m.db, sel, 50, &CostParams::default()).0)
}

pub fn micro_q5(m: &Micro) -> Rows {
    groups(&q5::swole(&m.db.r, &m.db.s, 50, &CostParams::default()).0)
}

/// The conformance corpus's Q1 rendition (`sum(l_quantity)`, `count(*)` by
/// `l_returnflag` below the ship-date cutoff) is not `swole_tpch`'s Q1, so
/// the bench composes it: predicate prepass, key masking onto the throwaway
/// entry, unconditional aggregation.
pub fn tpch_q1_lite(db: &TpchDb) -> Rows {
    let l = &db.lineitem;
    let cutoff = swole_tpch::q1_ship_cutoff().days();
    let flags = l.return_flag.codes();
    let mut ht = AggTable::with_capacity(2, l.return_flag.cardinality());
    let mut cmp = [0u8; TILE];
    let mut keys = [0i64; TILE];
    for (start, len) in tiles(l.len()) {
        predicate::cmp_le(&l.ship_date[start..start + len], cutoff, &mut cmp[..len]);
        mask_keys(&flags[start..start + len], &cmp[..len], &mut keys[..len]);
        let qty = &l.quantity[start..start + len];
        for j in 0..len {
            let off = ht.entry(keys[j]);
            ht.add(off, 0, qty[j] as i64);
            ht.add(off, 1, 1);
            ht.set_valid(off);
        }
    }
    let mut rows: Rows = ht
        .iter()
        .filter(|(_, _, valid)| *valid)
        .map(|(k, state, _)| vec![k, state[0], state[1]])
        .collect();
    rows.sort();
    rows
}

/// The corpus's Q4 rendition: lineitem semijoined to the orders of one
/// quarter through the positional FK index, as a bitmap build and a fully
/// masked probe.
pub fn tpch_q4_semijoin(db: &TpchDb) -> Rows {
    let (l, o) = (&db.lineitem, &db.orders);
    let (lo, hi) = (
        swole_tpch::q4_date_lo().days(),
        swole_tpch::q4_date_hi().days(),
    );
    let mut cmp = vec![0u8; o.len()];
    predicate::cmp_between(&o.order_date, lo, hi - 1, &mut cmp);
    let bitmap = PositionalBitmap::from_predicate_bytes(&cmp);
    let (mut sum, mut n) = (0i64, 0i64);
    for j in 0..l.len() {
        let bit = bitmap.get_bit(l.order_key[j] as usize) as i64;
        sum += l.extended_price[j] * bit;
        n += bit;
    }
    vec![vec![sum, n]]
}
