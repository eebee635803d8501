//! The declarative engine must reproduce the hand-coded strategy
//! implementations' results when given the same data as a catalog — the
//! engine is the library face, the hand-coded kernels are the measured
//! face, and they must never diverge.

use swole::prelude::*;
use swole_kernels::groupby::collect_groups;
use swole_micro::{generate, MicroDb, MicroParams};

/// Register the microbenchmark tables in a `Database`.
fn as_database(db: &MicroDb) -> Database {
    let mut out = Database::new();
    out.add_table(
        Table::new("R")
            .with_column("a", ColumnData::I32(db.r.a.clone()))
            .with_column("b", ColumnData::I32(db.r.b.clone()))
            .with_column("c", ColumnData::I32(db.r.c.clone()))
            .with_column("x", ColumnData::I8(db.r.x.clone()))
            .with_column("y", ColumnData::I8(db.r.y.clone()))
            .with_column("fk", ColumnData::U32(db.r.fk.clone())),
    );
    out.add_table(Table::new("S").with_column("x", ColumnData::I8(db.s.x.clone())));
    out.add_fk("R", "fk", "S").expect("valid FK");
    out
}

fn micro() -> MicroDb {
    generate(MicroParams {
        r_rows: 25_000,
        s_rows: 256,
        r_c_cardinality: 64,
        seed: 1234,
    })
}

fn q_filter(sel: i8) -> Expr {
    Expr::col("x")
        .cmp(CmpOp::Lt, Expr::lit(sel as i64))
        .and(Expr::col("y").cmp(CmpOp::Eq, Expr::lit(1)))
}

#[test]
fn engine_matches_handcoded_q1() {
    let db = micro();
    let engine = Engine::builder(as_database(&db)).threads(2).build();
    for sel in [0i8, 30, 70, 100] {
        let plan = QueryBuilder::scan("R").filter(q_filter(sel)).aggregate(
            None,
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        );
        let got = engine.query(&plan).expect("engine runs");
        let expected = swole_micro::q1::value_masking::<swole_kernels::agg::Mul>(&db.r, sel);
        assert_eq!(got.rows[0][0], expected, "sel={sel}");
    }
}

#[test]
fn engine_matches_handcoded_q2() {
    let db = micro();
    let engine = Engine::builder(as_database(&db)).threads(2).build();
    for sel in [10i8, 50, 90] {
        let plan = QueryBuilder::scan("R").filter(q_filter(sel)).aggregate(
            Some("c"),
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        );
        let got = engine.query(&plan).expect("engine runs");
        let expected = collect_groups(&swole_micro::q2::key_masking(&db.r, sel));
        let got_pairs: Vec<(i64, i64)> = got.rows.iter().map(|r| (r[0], r[1])).collect();
        assert_eq!(got_pairs, expected, "sel={sel}");
    }
}

#[test]
fn engine_matches_handcoded_q4() {
    let db = micro();
    let engine = Engine::builder(as_database(&db)).threads(2).build();
    let cost = CostParams::default();
    for (sel1, sel2) in [(10i8, 90i8), (90, 10), (50, 50)] {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel1 as i64)))
            .semijoin(
                QueryBuilder::scan("S")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel2 as i64))),
                "fk",
            )
            .aggregate(
                None,
                vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
            );
        // The engine must pick the positional bitmap (FK index registered).
        let physical = engine.plan(&plan).expect("plans");
        assert!(matches!(
            physical.semijoin_strategy(),
            Some(SemiJoinStrategy::PositionalBitmap(_))
        ));
        let got = engine.execute(&physical).expect("executes");
        let (expected, _) = swole_micro::q4::swole(&db, sel1, sel2, &cost);
        assert_eq!(got.rows[0][0], expected, "sel1={sel1} sel2={sel2}");
    }
}

/// The planner's own plan, then eager aggregation pinned over each build
/// side the edge can have — the key set, the byte map (a parent within the
/// modelled L1) and the bitmap (one above it) — at 1, 2 and 8 threads. The
/// engine keeps the groups whose `S` row qualifies as it emits the merged
/// table; the hand-coded pipeline deletes the others and then iterates.
#[test]
fn engine_matches_handcoded_q5() {
    let eager = |semijoin| StrategyOverrides {
        semijoin: Some(semijoin),
        groupjoin: Some(GroupJoinStrategy::EagerAggregation),
        ..StrategyOverrides::default()
    };
    let positional = SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional);
    let small = micro();
    let large = generate(MicroParams {
        r_rows: 25_000,
        s_rows: 40_000,
        r_c_cardinality: 64,
        seed: 99,
    });
    let cases = [
        (&small, StrategyOverrides::default(), None),
        (&small, eager(SemiJoinStrategy::Hash), Some("[hash]")),
        (&small, eager(positional), Some("[positional-bytes]")),
        (&large, eager(positional), Some("[positional-bitmap]")),
    ];
    for (db, strategies, side) in cases {
        for threads in [1usize, 2, 8] {
            let e = Engine::builder(as_database(db))
                .threads(threads)
                .tile_rows(2 * swole_kernels::TILE)
                .strategies(strategies.clone())
                .build();
            for sel in [0i8, 10, 50, 90, 100] {
                let q5 = QueryBuilder::scan("R")
                    .semijoin(
                        QueryBuilder::scan("S")
                            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel as i64))),
                        "fk",
                    )
                    .aggregate(
                        Some("fk"),
                        vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
                    );
                let at = format!("{side:?} sel={sel} x{threads}");
                if let Some(side) = side {
                    let shape = e.explain(&q5).expect("plans").shape;
                    assert!(shape.contains(side), "{at}: {shape}");
                    assert!(shape.contains("[eager-aggregation]"), "{at}: {shape}");
                }
                let got = e.query(&q5).expect("q5");
                let got: Vec<(i64, i64)> = got.rows.iter().map(|r| (r[0], r[1])).collect();
                let deleted = swole_micro::q5::eager_aggregation(&db.r, &db.s, sel);
                assert_eq!(got, collect_groups(&deleted), "{at}");
            }
        }
    }
}

#[test]
fn engine_explain_names_pullup_techniques() {
    let db = micro();
    let engine = Engine::builder(as_database(&db)).threads(2).build();
    let plan = QueryBuilder::scan("R").filter(q_filter(60)).aggregate(
        Some("c"),
        vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
    );
    let text = engine.explain(&plan).expect("plans").to_string();
    assert!(text.contains("masking"), "{text}");
}

/// The third differential leg: besides the interpreter oracle and the
/// cross-strategy/cross-thread checks, every engine strategy must reproduce
/// the hand-coded SWOLE entry point of the same query — the pipelines the
/// paper's figures measure — at every thread count. Small tiles-per-morsel
/// so even these inputs split across workers.
#[test]
fn engine_matches_handcoded_swole_for_every_pinned_strategy_and_thread_count() {
    use swole_kernels::agg::{Div, Mul};
    use swole_micro::q3::Q3Col;

    let db = micro();
    let cost = CostParams::default();
    let tpch = swole_tpch::generate(0.004, 7);
    let sum = |a: &str, op: fn(Expr, Expr) -> Expr, b: &str| {
        vec![AggSpec::sum(op(Expr::col(a), Expr::col(b)), "s")]
    };
    let div = |a: Expr, b: Expr| Expr::Div(Box::new(a), Box::new(b));
    let scalar = |sel: i8, aggs: Vec<AggSpec>| {
        QueryBuilder::scan("R")
            .filter(q_filter(sel))
            .aggregate(None, aggs)
    };
    let s_side = |sel: i8| {
        QueryBuilder::scan("S").filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel as i64)))
    };
    let pairs =
        |res: &QueryResult| -> Vec<(i64, i64)> { res.rows.iter().map(|r| (r[0], r[1])).collect() };
    let agg_pins = [
        AggStrategy::ValueMasking,
        AggStrategy::Hybrid,
        AggStrategy::KeyMasking,
    ];
    for threads in [1usize, 2, 8] {
        let engine_with = |pins: StrategyOverrides| {
            Engine::builder(as_database(&db))
                .threads(threads)
                .tile_rows(2 * swole_kernels::TILE)
                .strategies(pins)
                .build()
        };
        for pin in agg_pins {
            let e = engine_with(StrategyOverrides::pin_agg(pin));
            let at = format!("{pin:?} x{threads}");
            for sel in [1i8, 50, 99] {
                let q1 = |aggs| e.query(&scalar(sel, aggs)).expect("q1").rows[0][0];
                assert_eq!(
                    q1(sum("a", Expr::mul, "b")),
                    swole_micro::q1::swole::<Mul>(&db.r, sel, &cost).0,
                    "q1 mul sel={sel} {at}"
                );
                assert_eq!(
                    q1(sum("a", div, "b")),
                    swole_micro::q1::swole::<Div>(&db.r, sel, &cost).0,
                    "q1 div sel={sel} {at}"
                );
                for (other, col) in [("a", Q3Col::A), ("x", Q3Col::X)] {
                    assert_eq!(
                        q1(sum("x", Expr::mul, other)),
                        swole_micro::q3::swole(&db.r, col, sel, &cost),
                        "q3 {col:?} sel={sel} {at}"
                    );
                }
                let q2 = QueryBuilder::scan("R")
                    .filter(q_filter(sel))
                    .aggregate(Some("c"), sum("a", Expr::mul, "b"));
                assert_eq!(
                    pairs(&e.query(&q2).expect("q2")),
                    collect_groups(&swole_micro::q2::swole(&db.r, sel, 64, &cost).0),
                    "q2 sel={sel} {at}"
                );
            }
            // TPC-H Q6 through the same pins.
            let e = Engine::builder(swole_tpch::catalog::to_database(&tpch))
                .threads(threads)
                .tile_rows(2 * swole_kernels::TILE)
                .strategies(StrategyOverrides::pin_agg(pin))
                .build();
            let q6 = swole::plan::parse_sql(&format!(
                "select sum(l_extendedprice * l_discount) as revenue from lineitem \
                 where l_shipdate >= {} and l_shipdate < {} \
                 and l_discount between 5 and 7 and l_quantity < 24",
                swole_tpch::q6_date_lo().days(),
                swole_tpch::q6_date_hi().days()
            ))
            .expect("q6 parses")
            .plan;
            assert_eq!(
                e.query(&q6).expect("q6").rows[0][0],
                swole_tpch::queries::q6::swole(&tpch),
                "tpch q6 {at}"
            );
        }
        for pin in [
            SemiJoinStrategy::Hash,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
        ] {
            let e = engine_with(StrategyOverrides::pin_semijoin(pin));
            // Probe selectivities on both sides of the masked-probe threshold.
            for (sel1, sel2) in [(5i8, 90i8), (90, 10), (50, 50)] {
                let q4 = QueryBuilder::scan("R")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel1 as i64)))
                    .semijoin(s_side(sel2), "fk")
                    .aggregate(None, sum("a", Expr::mul, "b"));
                assert_eq!(
                    e.query(&q4).expect("q4").rows[0][0],
                    swole_micro::q4::swole(&db, sel1, sel2, &cost).0,
                    "q4 ({sel1},{sel2}) {pin:?} x{threads}"
                );
            }
        }
        for pin in [
            GroupJoinStrategy::GroupJoin,
            GroupJoinStrategy::EagerAggregation,
        ] {
            let e = engine_with(StrategyOverrides::pin_groupjoin(pin));
            for sel in [10i8, 50, 90] {
                let q5 = QueryBuilder::scan("R")
                    .semijoin(s_side(sel), "fk")
                    .aggregate(Some("fk"), sum("a", Expr::mul, "b"));
                assert_eq!(
                    pairs(&e.query(&q5).expect("q5")),
                    collect_groups(&swole_micro::q5::swole(&db.r, &db.s, sel, &cost).0),
                    "q5 sel={sel} {pin:?} x{threads}"
                );
            }
        }
    }
}

/// Micro Q4 as the engine plans it: a lone `sum(a * b)` over R's rows
/// whose FK's S row passes.
fn q4(sel1: i8, sel2: i8) -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel1 as i64)))
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel2 as i64))),
            "fk",
        )
        .aggregate(
            None,
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        )
}

/// `~ last run:` names the masked-probe loop the executor dispatched, and
/// that is `strategy:`'s: the sink's name does not depend on the statistics
/// or on whether the run counts — a plain run, `EXPLAIN ANALYZE` (which
/// counts the edge's survivors) and a run without statistics.
#[test]
fn the_run_report_names_the_probe_that_ran() {
    let db = micro();
    let plan = q4(50, 50);
    for (stats, analyze) in [
        (StatsMode::OnLoad, false),
        (StatsMode::OnLoad, true),
        (StatsMode::Off, false),
    ] {
        let e = Engine::builder(as_database(&db))
            .threads(1)
            .stats(stats)
            .build();
        let report = match analyze {
            true => e.explain_analyze(&plan),
            false => e.query(&plan).and_then(|_| e.explain(&plan)),
        };
        let report = report.expect("runs");
        let ran = report.runtime.last().expect("the run is recorded");
        let strategy = ran.rsplit_once(": ok").map(|(s, _)| s);
        assert_eq!(strategy, Some(&report.strategy[..]), "{stats:?} {analyze}");
    }
}

/// The masked probe of a lone sum is one fold either way: the scalar fold
/// with the edge's byte map (the 256-row `S` is within the byte-map budget)
/// as its membership, one wrapping add per lane, counting the lanes it
/// keeps when counters are wanted. All four combinations of statistics and
/// counters must return the hand-coded bitmap pipeline's answer.
#[test]
fn masked_probe_answers_the_same_proven_or_checked() {
    let db = micro();
    for threads in [1usize, 2, 8] {
        for stats in [StatsMode::OnLoad, StatsMode::Off] {
            for metrics in [MetricsLevel::Off, MetricsLevel::Counters] {
                let e = Engine::builder(as_database(&db))
                    .threads(threads)
                    .tile_rows(2 * swole_kernels::TILE)
                    .stats(stats)
                    .metrics(metrics)
                    .build();
                for (sel1, sel2) in [(50i8, 50i8), (90, 10), (100, 100), (20, 0)] {
                    let plan = q4(sel1, sel2);
                    let explain = e.explain(&plan).expect("plans");
                    assert!(
                        explain.strategy.ends_with(&masked_probe(db.s.len(), 1)),
                        "{}",
                        explain.strategy
                    );
                    let expected =
                        swole_micro::q4::bitmap_masked(&db, sel1, sel2, BitmapBuild::Unconditional);
                    assert_eq!(
                        e.query(&plan).expect("q4").rows[0][0],
                        expected,
                        "({sel1},{sel2}) x{threads} {stats:?} {metrics:?}"
                    );
                }
            }
        }
    }
}

/// `perf`'s `pairs::tpch_q1_lite`, line for line: predicate prepass, key
/// masking onto the throwaway entry, unconditional aggregation of both
/// states into an `AggTable`.
fn tpch_q1_lite(db: &swole_tpch::TpchDb) -> Vec<Vec<i64>> {
    use swole_kernels::groupby::mask_keys;
    use swole_kernels::{predicate, tiles, TILE};
    let l = &db.lineitem;
    let cutoff = swole_tpch::q1_ship_cutoff().days();
    let flags = l.return_flag.codes();
    let mut ht = swole_ht::AggTable::with_capacity(2, l.return_flag.cardinality());
    let (mut cmp, mut keys) = ([0u8; TILE], [0i64; TILE]);
    for (start, len) in tiles(l.len()) {
        predicate::cmp_le(&l.ship_date[start..start + len], cutoff, &mut cmp[..len]);
        mask_keys(&flags[start..start + len], &cmp[..len], &mut keys[..len]);
        for (&key, &qty) in keys[..len].iter().zip(&l.quantity[start..start + len]) {
            let off = ht.entry(key);
            ht.add(off, 0, qty as i64);
            ht.add(off, 1, 1);
            ht.set_valid(off);
        }
    }
    let mut rows: Vec<Vec<i64>> = ht
        .iter()
        .filter(|(_, _, valid)| *valid)
        .map(|(k, state, _)| vec![k, state[0], state[1]])
        .collect();
    rows.sort();
    rows
}

/// `perf`'s `pairs::tpch_q4_semijoin`: bitmap build over one quarter's
/// orders, fully masked probe through the positional FK.
fn tpch_q4_semijoin(db: &swole_tpch::TpchDb) -> Vec<Vec<i64>> {
    let (l, o) = (&db.lineitem, &db.orders);
    let (lo, hi) = (
        swole_tpch::q4_date_lo().days(),
        swole_tpch::q4_date_hi().days(),
    );
    let mut cmp = vec![0u8; o.len()];
    swole_kernels::predicate::cmp_between(&o.order_date, lo, hi - 1, &mut cmp);
    let bitmap = swole_bitmap::PositionalBitmap::from_predicate_bytes(&cmp);
    let (mut sum, mut n) = (0i64, 0i64);
    for (&key, &price) in l.order_key.iter().zip(&l.extended_price) {
        let bit = bitmap.get_bit(key as usize) as i64;
        sum += price * bit;
        n += bit;
    }
    vec![vec![sum, n]]
}

/// `perf`'s unpaired TPC-H Q3 rendition as a hand-coded pipeline: the
/// orders placed before the Q3 date as a positional bitmap, then per tile
/// the `l_shipdate` prepass and one fully masked pass over the lineitems
/// that sums `l_extendedprice` and counts.
fn tpch_q3_masked_probe(db: &swole_tpch::TpchDb) -> Vec<Vec<i64>> {
    use swole_kernels::{predicate, tiles, TILE};
    let (l, o) = (&db.lineitem, &db.orders);
    let date = swole_tpch::q3_date().days();
    let mut parent = vec![0u8; o.len()];
    predicate::cmp_lt(&o.order_date, date, &mut parent);
    let bitmap = swole_bitmap::PositionalBitmap::from_predicate_bytes(&parent);
    let (mut sum, mut n, mut cmp) = (0i64, 0i64, [0u8; TILE]);
    for (start, len) in tiles(l.len()) {
        let rows = start..start + len;
        predicate::cmp_gt(&l.ship_date[rows.clone()], date, &mut cmp[..len]);
        let lanes = cmp[..len].iter().zip(&l.order_key[rows.clone()]);
        for ((&c, &key), &price) in lanes.zip(&l.extended_price[rows]) {
            let bit = c as i64 & bitmap.get_bit(key as usize) as i64;
            sum += price * bit;
            n += bit;
        }
    }
    vec![vec![sum, n]]
}

/// The statements `perf` submits for the pipelines above.
fn tpch_q1_sql() -> LogicalPlan {
    let sql = format!(
        "select l_returnflag, sum(l_quantity) as sum_qty, count(*) as n from lineitem \
         where l_shipdate <= {} group by l_returnflag",
        swole_tpch::q1_ship_cutoff().days()
    );
    swole::plan::parse_sql(&sql).expect("q1 parses").plan
}

fn tpch_q3_sql() -> LogicalPlan {
    let sql = format!(
        "select sum(lineitem.l_extendedprice) as revenue, count(*) as n \
         from lineitem, orders where lineitem.l_orderkey = orders.rowid \
         and lineitem.l_shipdate > {q3} and orders.o_orderdate < {q3}",
        q3 = swole_tpch::q3_date().days()
    );
    swole::plan::parse_sql(&sql).expect("q3 parses").plan
}

fn tpch_q4_sql() -> LogicalPlan {
    let sql = format!(
        "select sum(lineitem.l_extendedprice) as s, count(*) as n \
         from lineitem, orders where lineitem.l_orderkey = orders.rowid \
         and orders.o_orderdate >= {} and orders.o_orderdate < {}",
        swole_tpch::q4_date_lo().days(),
        swole_tpch::q4_date_hi().days()
    );
    swole::plan::parse_sql(&sql).expect("q4 parses").plan
}

/// Engines over `tpch` as the planner configures itself — no pins — at
/// 1/2/8 threads, with (proven accumulators) and without (checked)
/// statistics.
fn tpch_engines(tpch: &swole_tpch::TpchDb) -> Vec<(String, Engine)> {
    let mut out = Vec::new();
    for stats in [StatsMode::OnLoad, StatsMode::Off] {
        for threads in [1, 2, 8] {
            let engine = Engine::builder(swole_tpch::catalog::to_database(tpch))
                .tile_rows(2 * swole_kernels::TILE)
                .stats(stats)
                .threads(threads)
                .build();
            out.push((format!("x{threads} {stats:?}"), engine));
        }
    }
    out
}

/// The benchmark's TPC-H Q1 rendition, as planned: key masking over the
/// dense 3-code dictionary domain, both aggregates in one compiled pass —
/// bit-identical with the yardstick `perf` divides it by.
#[test]
fn engine_matches_handcoded_tpch_q1_lite() {
    let tpch = swole_tpch::generate(0.01, 11);
    let (plan, expected) = (tpch_q1_sql(), tpch_q1_lite(&tpch));
    assert_eq!(expected.len(), 3, "three return flags");
    for (at, e) in tpch_engines(&tpch) {
        let explain = e.explain(&plan).expect("q1 plans");
        assert!(
            explain.strategy.ends_with("<2>"),
            "{at}: sum and count are one compiled list: {}",
            explain.strategy
        );
        let dense = "group table: dense [0..2]";
        assert!(
            explain.decisions.iter().any(|d| d.starts_with(dense)),
            "{at}: {explain}"
        );
        assert_eq!(e.query(&plan).expect("q1").rows, expected, "tpch q1 {at}");
    }
}

/// The masked probe of `n` aggregates over a parent of `parent_rows`, as
/// `EXPLAIN` names it: over a byte map when the parent's byte per row fits
/// the modelled L1, else over the bitmap.
fn masked_probe(parent_rows: usize, n: usize) -> String {
    let fits = parent_rows <= CostParams::default().cache_bytes[0];
    let member = if fits { "bytes" } else { "bitmap" };
    format!("masked probe, sink: fold_masked_{member}<{n}>)")
}

/// The benchmark's TPC-H Q4 rendition: a positional build (at SF 0.01 a
/// byte map) and a fully masked probe with two aggregates, one pass.
#[test]
fn engine_matches_handcoded_tpch_q4_semijoin() {
    let tpch = swole_tpch::generate(0.01, 11);
    let (plan, expected) = (tpch_q4_sql(), tpch_q4_semijoin(&tpch));
    for (at, e) in tpch_engines(&tpch) {
        let explain = e.explain(&plan).expect("q4 plans");
        let orders = tpch.orders.len();
        assert!(
            explain.strategy.ends_with(&masked_probe(orders, 2)),
            "{at}: {explain}"
        );
        assert_eq!(e.query(&plan).expect("q4").rows, expected, "tpch q4 {at}");
    }
}

/// The benchmark's TPC-H Q3 rendition, which it runs unpaired: a sum and a
/// count over a masked probe behind a probe-side `l_shipdate` filter, one
/// pass — proven with statistics, checked without.
#[test]
fn engine_matches_handcoded_tpch_q3_masked_probe() {
    let tpch = swole_tpch::generate(0.01, 11);
    let (plan, expected) = (tpch_q3_sql(), tpch_q3_masked_probe(&tpch));
    assert!(expected[0][1] > 0, "some lineitems qualify");
    for (at, e) in tpch_engines(&tpch) {
        let explain = e.explain(&plan).expect("q3 plans");
        let orders = tpch.orders.len();
        assert!(
            explain.strategy.ends_with(&masked_probe(orders, 2)),
            "{at}: {explain}"
        );
        assert_eq!(e.query(&plan).expect("q3").rows, expected, "tpch q3 {at}");
    }
}

/// The grouped and masked-probe sinks against the pipelines `perf` times
/// them against, bit for bit, at 1/2/8 threads under every scan-aggregation
/// pin: micro Q2 on a second key whose 256 K-value domain is wide enough to
/// miss the cache (and, with statistics, dense), and the benchmark's TPC-H
/// Q1-lite (sum and count: a compiled list) and Q4 (sum and count: the
/// one-pass masked probe).
#[test]
fn grouped_and_probe_sinks_match_the_benchmarks_hand_coded_pipelines() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const C2_CARDINALITY: usize = 256 << 10;
    let db = generate(MicroParams {
        r_rows: 200_000,
        s_rows: 256,
        r_c_cardinality: 64,
        seed: 77,
    });
    let mut rng = SmallRng::seed_from_u64(0xC2C2);
    let c2: Vec<i32> = (0..db.r.len())
        .map(|_| rng.gen_range(0..C2_CARDINALITY as i32))
        .collect();
    let r_c2 = swole_micro::RTable {
        c: c2.clone(),
        ..db.r.clone()
    };
    let catalog = || {
        let mut out = Database::new();
        out.add_table(
            Table::new("R")
                .with_column("a", ColumnData::I32(db.r.a.clone()))
                .with_column("b", ColumnData::I32(db.r.b.clone()))
                .with_column("c2", ColumnData::I32(c2.clone()))
                .with_column("x", ColumnData::I8(db.r.x.clone()))
                .with_column("y", ColumnData::I8(db.r.y.clone())),
        );
        out
    };
    let q2 = QueryBuilder::scan("R").filter(q_filter(50)).aggregate(
        Some("c2"),
        vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
    );
    let q2_expected = collect_groups(
        &swole_micro::q2::swole(&r_c2, 50, C2_CARDINALITY, &CostParams::default()).0,
    );

    let tpch = swole_tpch::generate(0.004, 7);
    let (q1, q1_expected) = (tpch_q1_sql(), tpch_q1_lite(&tpch));
    let (q4, q4_expected) = (tpch_q4_sql(), tpch_q4_semijoin(&tpch));

    for threads in [1usize, 2, 8] {
        for stats in [StatsMode::OnLoad, StatsMode::Off] {
            for pin in [
                AggStrategy::Hybrid,
                AggStrategy::ValueMasking,
                AggStrategy::KeyMasking,
            ] {
                let at = format!("{pin:?} x{threads} {stats:?}");
                let micro = Engine::builder(catalog())
                    .threads(threads)
                    .tile_rows(8 * swole_kernels::TILE)
                    .stats(stats)
                    .strategies(StrategyOverrides::pin_agg(pin))
                    .build();
                let dense = micro
                    .explain(&q2)
                    .expect("q2 plans")
                    .decisions
                    .iter()
                    .any(|d| d.starts_with("group table: dense [0..262143]"));
                assert_eq!(dense, stats == StatsMode::OnLoad, "{at}");
                let got = micro.query(&q2).expect("q2 on c2");
                let got: Vec<(i64, i64)> = got.rows.iter().map(|r| (r[0], r[1])).collect();
                assert_eq!(got, q2_expected, "q2 on c2 {at}");

                let e = Engine::builder(swole_tpch::catalog::to_database(&tpch))
                    .threads(threads)
                    .tile_rows(2 * swole_kernels::TILE)
                    .stats(stats)
                    .strategies(StrategyOverrides::pin_agg(pin))
                    .build();
                assert_eq!(e.query(&q1).expect("q1").rows, q1_expected, "tpch q1 {at}");
                assert_eq!(e.query(&q4).expect("q4").rows, q4_expected, "tpch q4 {at}");
            }
        }
    }
}
