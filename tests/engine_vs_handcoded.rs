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

#[test]
fn engine_matches_handcoded_q5() {
    let db = micro();
    let engine = Engine::builder(as_database(&db)).threads(2).build();
    for sel in [10i8, 50, 90] {
        let plan = QueryBuilder::scan("R")
            .semijoin(
                QueryBuilder::scan("S")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel as i64))),
                "fk",
            )
            .aggregate(
                Some("fk"),
                vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
            );
        let got = engine.query(&plan).expect("engine runs");
        let expected = collect_groups(&swole_micro::q5::eager_aggregation(&db.r, &db.s, sel));
        let got_pairs: Vec<(i64, i64)> = got.rows.iter().map(|r| (r[0], r[1])).collect();
        assert_eq!(got_pairs, expected, "sel={sel}");
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
