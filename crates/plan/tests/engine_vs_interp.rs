//! Cross-check: the access-aware engine must produce byte-identical
//! results to the naive reference interpreter on every supported plan
//! shape, whatever strategies the cost model picks.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole_cost::GroupJoinStrategy;
use swole_plan::{
    interp, AggFunc, AggSpec, CmpOp, Database, Engine, Expr, LogicalPlan, PlanError, QueryBuilder,
    StrategyOverrides,
};
use swole_storage::{ColumnData, DictColumn, Table};

fn test_db(seed: u64, n_r: usize, n_s: usize) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();
    let modes = ["AIR", "RAIL", "SHIP", "MAIL"];
    db.add_table(
        Table::new("R")
            .with_column(
                "x",
                ColumnData::I8((0..n_r).map(|_| rng.gen_range(0..100)).collect()),
            )
            .with_column(
                "a",
                ColumnData::I32((0..n_r).map(|_| rng.gen_range(1..50)).collect()),
            )
            .with_column(
                "b",
                ColumnData::I32((0..n_r).map(|_| rng.gen_range(1..50)).collect()),
            )
            .with_column(
                "c",
                ColumnData::I16((0..n_r).map(|_| rng.gen_range(0..16)).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32((0..n_r).map(|_| rng.gen_range(0..n_s as u32)).collect()),
            )
            .with_column(
                "mode",
                ColumnData::Dict(DictColumn::encode(
                    &(0..n_r)
                        .map(|_| modes[rng.gen_range(0..modes.len())])
                        .collect::<Vec<_>>(),
                )),
            ),
    );
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..n_s).map(|_| rng.gen_range(0..100)).collect()),
    ));
    db.add_fk("R", "fk", "S").unwrap();
    db
}

fn check(db: Database, plan: &LogicalPlan) {
    let expected = interp::run(&db, plan).expect("interp");
    // Two morsel workers: the same merge-based execution path a parallel
    // session uses, cross-checked against the row-at-a-time reference.
    let engine = Engine::builder(db).threads(2).tile_rows(4096).build();
    let explain = engine.explain(plan).expect("explain");
    let got = engine.query(plan).expect("engine");
    assert_eq!(got, expected, "plan: {explain}");
}

#[test]
fn scalar_agg_across_selectivities() {
    for sel in [0i64, 7, 50, 93, 100] {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel)))
            .aggregate(
                None,
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        check(test_db(sel as u64, 10_000, 64), &plan);
    }
}

#[test]
fn scalar_agg_no_filter() {
    let plan = QueryBuilder::scan("R").aggregate(
        None,
        vec![AggSpec::sum(Expr::col("a"), "s"), AggSpec::count("n")],
    );
    check(test_db(1, 5_000, 16), &plan);
}

#[test]
fn min_max_force_hybrid_and_match() {
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Ge, Expr::lit(40)))
        .aggregate(
            None,
            vec![
                AggSpec::min(Expr::col("a"), "lo"),
                AggSpec::max(Expr::col("a").mul(Expr::col("b")), "hi"),
                AggSpec::count("n"),
            ],
        );
    let db = test_db(2, 8_000, 16);
    let physical = Engine::builder(test_db(2, 8_000, 16))
        .build()
        .plan(&plan)
        .unwrap();
    assert_eq!(
        physical.agg_strategy(),
        Some(swole_cost::AggStrategy::Hybrid)
    );
    check(db, &plan);
}

#[test]
fn empty_selection_yields_zeros() {
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(-5)))
        .aggregate(
            None,
            vec![
                AggSpec::sum(Expr::col("a"), "s"),
                AggSpec::min(Expr::col("a"), "m"),
            ],
        );
    let db = test_db(3, 2_000, 16);
    let expected = interp::run(&db, &plan).unwrap();
    assert_eq!(expected.rows, vec![vec![0, 0]]);
    check(db, &plan);
}

#[test]
fn groupby_agg_across_selectivities() {
    for sel in [0i64, 13, 60, 100] {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel)))
            .aggregate(
                Some("c"),
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        check(test_db(100 + sel as u64, 12_000, 32), &plan);
    }
}

#[test]
fn groupby_min_max_hybrid() {
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(70)))
        .aggregate(
            Some("c"),
            vec![
                AggSpec::min(Expr::col("a"), "lo"),
                AggSpec::max(Expr::col("a"), "hi"),
            ],
        );
    check(test_db(5, 6_000, 16), &plan);
}

#[test]
fn dictionary_predicates() {
    let plan = QueryBuilder::scan("R")
        .filter(Expr::InList {
            col: "mode".into(),
            values: vec!["AIR".into(), "MAIL".into()],
        })
        .aggregate(Some("c"), vec![AggSpec::sum(Expr::col("a"), "s")]);
    check(test_db(6, 7_000, 16), &plan);

    let like = QueryBuilder::scan("R")
        .filter(Expr::Like {
            col: "mode".into(),
            pattern: "%AI%".into(),
        })
        .aggregate(None, vec![AggSpec::count("n")]);
    check(test_db(7, 7_000, 16), &like);
}

#[test]
fn case_expression_masked_evaluation() {
    let plan = QueryBuilder::scan("R").aggregate(
        None,
        vec![AggSpec::sum(
            Expr::Case {
                when: Box::new(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(30))),
                then: Box::new(Expr::col("a").mul(Expr::lit(2))),
                otherwise: Box::new(Expr::col("b")),
            },
            "s",
        )],
    );
    check(test_db(8, 9_000, 16), &plan);
}

#[test]
fn semijoin_agg_all_quadrants() {
    for (sel_r, sel_s) in [(10, 90), (90, 10), (50, 50), (100, 100), (0, 50)] {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel_r)))
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(sel_s))),
                "fk",
            )
            .aggregate(
                None,
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        check(test_db(200 + sel_r as u64, 10_000, 256), &plan);
    }
}

#[test]
fn semijoin_unfiltered_probe() {
    let plan = QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(40))),
            "fk",
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    check(test_db(9, 10_000, 128), &plan);
}

#[test]
fn groupjoin_both_strategies_match() {
    // Small S → eager aggregation; verify against interp either way.
    for (n_s, sel) in [(32usize, 50i64), (4096, 5), (4096, 95)] {
        let plan = QueryBuilder::scan("R")
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(sel))),
                "fk",
            )
            .aggregate(
                Some("fk"),
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        check(test_db(300 + n_s as u64 + sel as u64, 20_000, n_s), &plan);
    }
}

#[test]
fn explain_mentions_chosen_technique() {
    let db = test_db(10, 50_000, 64);
    let engine = Engine::builder(db).threads(4).build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
        .aggregate(
            Some("c"),
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        );
    let report = engine.explain(&plan).unwrap();
    assert_eq!(report.threads, 4);
    assert!(!report.cost_terms.is_empty(), "cost evidence recorded");
    let text = report.to_string();
    assert!(
        text.contains("masking") || text.contains("hybrid"),
        "{text}"
    );
    assert!(text.contains("Scan R"), "{text}");
    assert!(text.contains("4 thread(s)"), "{text}");
}

#[test]
fn unsupported_shapes_error_cleanly() {
    let db = test_db(11, 100, 16);
    let engine = Engine::builder(db).build();
    // No aggregation on top.
    let bare = QueryBuilder::scan("R").build();
    assert!(matches!(engine.plan(&bare), Err(PlanError::Unsupported(_))));
    // Unknown table / column.
    let bad_table = QueryBuilder::scan("ZZZ").aggregate(None, vec![AggSpec::count("n")]);
    assert!(matches!(
        engine.plan(&bad_table),
        Err(PlanError::UnknownTable(_))
    ));
    let bad_col = QueryBuilder::scan("R")
        .filter(Expr::col("nope").cmp(CmpOp::Lt, Expr::lit(1)))
        .aggregate(None, vec![AggSpec::count("n")]);
    assert!(matches!(
        engine.plan(&bad_col),
        Err(PlanError::UnknownColumn { .. })
    ));
    // Group-by over a semijoin on a non-FK column.
    let bad_group = QueryBuilder::scan("R")
        .semijoin(QueryBuilder::scan("S"), "fk")
        .aggregate(Some("c"), vec![AggSpec::count("n")]);
    assert!(matches!(
        engine.plan(&bad_group),
        Err(PlanError::Unsupported(_))
    ));
    // Eager aggregation pinned on a groupjoin only the selection-vector
    // body answers: min/max, or a probe-side filter.
    let eager = Engine::builder(test_db(11, 100, 16))
        .strategies(StrategyOverrides::pin_groupjoin(
            GroupJoinStrategy::EagerAggregation,
        ))
        .build();
    let joined = || QueryBuilder::scan("R").semijoin(QueryBuilder::scan("S"), "fk");
    for plan in [
        joined().aggregate(Some("fk"), vec![AggSpec::min(Expr::col("a"), "lo")]),
        joined()
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
            .aggregate(Some("fk"), vec![AggSpec::count("n")]),
    ] {
        assert!(matches!(eager.plan(&plan), Err(PlanError::Unsupported(_))));
        check(test_db(11, 100, 16), &plan);
    }
}

#[test]
fn filter_above_semijoin_is_probe_filter() {
    let plan = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(
                QueryBuilder::scan("R")
                    .semijoin(
                        QueryBuilder::scan("S")
                            .filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
                        "fk",
                    )
                    .build(),
            ),
            predicate: Expr::col("x").cmp(CmpOp::Lt, Expr::lit(30)),
        }),
        group_by: None,
        aggs: vec![AggSpec::sum(Expr::col("a"), "s")],
    };
    check(test_db(12, 8_000, 64), &plan);
}

// ---------------------------------------------------------------------------
// Compiled aggregate lists
// ---------------------------------------------------------------------------

/// `R` with a 3-code dictionary key, a 1 024-key integer key and an FK into
/// `S`; `indexed` registers the FK index (without it a grouped join has no
/// validated key domain and takes the hash table).
fn lists_db(indexed: bool) -> Database {
    let (n_r, n_s) = (20_000usize, 512usize);
    let mut rng = SmallRng::seed_from_u64(0x115);
    let flags = ["A", "N", "R"];
    let mut col = |f: &mut dyn FnMut(&mut SmallRng) -> i64| -> Vec<i64> {
        (0..n_r).map(|_| f(&mut rng)).collect()
    };
    let x = col(&mut |r| r.gen_range(0..100));
    let a = col(&mut |r| r.gen_range(1..50));
    let b = col(&mut |r| r.gen_range(-20..50));
    let q = col(&mut |r| r.gen_range(1..=50));
    let p = col(&mut |r| r.gen_range(-(1i64 << 40)..1 << 40));
    let k = col(&mut |r| r.gen_range(0..1024));
    let fk = col(&mut |r| r.gen_range(0..n_s as i64));
    let flag = col(&mut |r| r.gen_range(0..3));
    let y = (0..n_s).map(|_| rng.gen_range(0..100)).collect();
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column("x", ColumnData::I8(x.iter().map(|&v| v as i8).collect()))
            .with_column("a", ColumnData::I32(a.iter().map(|&v| v as i32).collect()))
            .with_column("b", ColumnData::I32(b.iter().map(|&v| v as i32).collect()))
            .with_column("q", ColumnData::I8(q.iter().map(|&v| v as i8).collect()))
            .with_column("p", ColumnData::I64(p))
            .with_column("k", ColumnData::I32(k.iter().map(|&v| v as i32).collect()))
            .with_column(
                "fk",
                ColumnData::U32(fk.iter().map(|&v| v as u32).collect()),
            )
            .with_column(
                "flag",
                ColumnData::Dict(DictColumn::encode(
                    &flag.iter().map(|&f| flags[f as usize]).collect::<Vec<_>>(),
                )),
            ),
    );
    db.add_table(Table::new("S").with_column("y", ColumnData::I8(y)));
    if indexed {
        db.add_fk("R", "fk", "S").unwrap();
    }
    db
}

/// `sum` / `count` lists of one to five aggregates: count-only, the TPC-H
/// Q1 shape, a product beside bare columns, duplicates, and five — one
/// pass of four and one of one.
fn agg_lists() -> Vec<Vec<AggSpec>> {
    let (product, q, p) = (
        Expr::col("a").mul(Expr::col("b")),
        Expr::col("q"),
        Expr::col("p"),
    );
    vec![
        vec![AggSpec::count("n")],
        vec![AggSpec::sum(q.clone(), "sq"), AggSpec::count("n")],
        vec![
            AggSpec::sum(product.clone(), "sab"),
            AggSpec::sum(q.clone(), "sq"),
            AggSpec::count("n"),
        ],
        vec![
            AggSpec::sum(q.clone(), "sq"),
            AggSpec::sum(q.clone(), "sq2"),
            AggSpec::count("n"),
            AggSpec::count("n2"),
        ],
        vec![
            AggSpec::sum(product.clone(), "sab"),
            AggSpec::sum(p.clone(), "sp"),
            AggSpec::sum(q.clone(), "sq"),
            AggSpec::count("n"),
            AggSpec::sum(Expr::col("a"), "sa"),
        ],
        vec![AggSpec::sum(product.clone(), "sab")],
        vec![
            AggSpec::min(q, "lo"),
            AggSpec::sum(p, "sp"),
            AggSpec::max(product, "hi"),
            AggSpec::count("n"),
        ],
    ]
}

/// Every grouped upsert instance against the interpreter, bit for bit:
/// lists of 1–5 aggregates, a lone fused `sum(a * b)` and a `min` / `max`
/// list × key domain {3-code dictionary, 1 024-key integer, the
/// hash table a planner without statistics or FK index falls back to} ×
/// {hybrid, value masking, key masking, groupjoin, eager aggregation} ×
/// threads {1, 2, 8}.
#[test]
fn compiled_aggregate_lists_match_the_interpreter() {
    use swole_cost::AggStrategy;
    use swole_plan::StatsMode;
    let scan = |key: &'static str| {
        move |aggs: Vec<AggSpec>| {
            QueryBuilder::scan("R")
                .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(70)))
                .aggregate(Some(key), aggs)
        }
    };
    let join = |aggs: Vec<AggSpec>| {
        QueryBuilder::scan("R")
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(40))),
                "fk",
            )
            .aggregate(Some("fk"), aggs)
    };
    type Shape<'a> = (
        &'a dyn Fn(Vec<AggSpec>) -> LogicalPlan,
        StatsMode,
        bool,
        &'a str,
    );
    let (dict, int) = (scan("flag"), scan("k"));
    let scans: [Shape<'_>; 3] = [
        (&dict, StatsMode::OnLoad, true, "group table: dense [0..2]"),
        (
            &int,
            StatsMode::OnLoad,
            true,
            "group table: dense [0..1023]",
        ),
        (&int, StatsMode::Off, true, "group table: hash ("),
    ];
    let joins: [Shape<'_>; 2] = [
        (
            &join,
            StatsMode::OnLoad,
            true,
            "group table: dense [0..511]",
        ),
        (&join, StatsMode::OnLoad, false, "group table: hash ("),
    ];
    let agg_pins = [
        (AggStrategy::Hybrid, "groupby_gather"),
        (AggStrategy::ValueMasking, "groupby_value_masked"),
        (AggStrategy::KeyMasking, "groupby_key_masked"),
    ]
    .map(|(s, kernel)| (StrategyOverrides::pin_agg(s), kernel));
    let join_pins = [
        (GroupJoinStrategy::GroupJoin, "groupby_gather"),
        (GroupJoinStrategy::EagerAggregation, "eager_aggregate"),
    ]
    .map(|(s, kernel)| (StrategyOverrides::pin_groupjoin(s), kernel));
    let cases = scans
        .iter()
        .flat_map(|shape| agg_pins.iter().map(move |pin| (shape, pin)))
        .chain(
            joins
                .iter()
                .flat_map(|shape| join_pins.iter().map(move |pin| (shape, pin))),
        );
    for (&(plan_of, stats, indexed, table), (pins, kernel)) in cases {
        let engines = [1, 2, 8].map(|threads| {
            Engine::builder(lists_db(indexed))
                .tile_rows(2048)
                .stats(stats)
                .strategies(pins.clone())
                .threads(threads)
                .build()
        });
        for aggs in agg_lists() {
            // A list with min / max folds in one pass, behind the selection
            // vector only: the other pins refuse it.
            let min_max = aggs
                .iter()
                .any(|a| matches!(a.func, AggFunc::Min | AggFunc::Max));
            let sink = match aggs.len() {
                n if min_max => format!("sink: {kernel}<fold {n}>"),
                5 => format!("sink: {kernel}<4+1>"),
                n => format!("sink: {kernel}<{n}>"),
            };
            let plan = plan_of(aggs);
            let expected = interp::run(&lists_db(indexed), &plan).expect("interp");
            for engine in &engines {
                let explain = engine.explain(&plan);
                if min_max && *kernel != "groupby_gather" {
                    assert!(matches!(explain, Err(PlanError::Unsupported(_))));
                    continue;
                }
                let explain = explain.expect("explain");
                assert!(explain.strategy.contains(&sink), "{explain}\nwants {sink}");
                assert!(
                    explain.decisions.iter().any(|d| d.starts_with(table)),
                    "{explain}\nwants {table}"
                );
                assert_eq!(engine.query(&plan).expect("engine"), expected, "{explain}");
            }
        }
    }
}

/// Unpinned grouped scans over a dense group table, as the planner prices
/// them: σ ∈ {5, 40, 60, 95} % × G ∈ {3 (dictionary), 1 024 (integer)} ×
/// {`sum(a*b)`, `sum(a), count(*)`} × threads {1, 2, 8}.
/// Each picks what `swole-cost`'s measured grid (`dense_table_decisions`)
/// expects there — never key masking — and answers as the interpreter
/// does, bit for bit.
#[test]
fn unpinned_dense_group_tables_pick_the_measured_strategy_and_match() {
    use swole_cost::AggStrategy::{Hybrid, ValueMasking};
    let (a, b) = (Expr::col("a"), Expr::col("b"));
    let lists = [
        vec![AggSpec::sum(a.clone().mul(b), "sab")],
        vec![AggSpec::sum(a, "sa"), AggSpec::count("n")],
    ];
    let engines = [1, 2, 8].map(|threads| {
        Engine::builder(lists_db(true))
            .tile_rows(2048)
            .threads(threads)
            .build()
    });
    let oracle = lists_db(true);
    for (key, domain) in [("flag", "dense [0..2]"), ("k", "dense [0..1023]")] {
        for aggs in &lists {
            for (sel, want) in [(5, Hybrid), (40, Hybrid), (60, Hybrid), (95, ValueMasking)] {
                let plan = QueryBuilder::scan("R")
                    .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(sel)))
                    .aggregate(Some(key), aggs.clone());
                let expected = interp::run(&oracle, &plan).expect("interp");
                for engine in &engines {
                    let explain = engine.explain(&plan).expect("explain");
                    let table = format!("group table: {domain}");
                    assert!(
                        explain.decisions.iter().any(|d| d.starts_with(&table)),
                        "{explain}\nwants {table}"
                    );
                    let physical = engine.plan(&plan).expect("plans");
                    assert_eq!(physical.agg_strategy(), Some(want), "{explain}");
                    assert_eq!(engine.query(&plan).expect("engine"), expected, "{explain}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-pass masked probes
// ---------------------------------------------------------------------------

/// Every masked-probe list of at most one sum runs as one pass, with
/// counters on or off, and answers as the interpreter does, bit for bit:
/// lists `[sum]`, `[sum, count]`, `[count, sum]`, `[count]`, `[count,
/// count]` and `[sum, sum]` (one pass per sum) × with and without a
/// probe-side filter × `*` and `/` over narrow (`i32` / `i8`) and wide
/// (`i64`) operands × statistics on and off × threads {1, 2, 8} ×
/// `MetricsLevel` Off and Counters. Under
/// counters every list over the same probe reports the same edge and
/// aggregation counters as the fold does.
#[test]
fn masked_probe_lists_run_in_one_pass_and_match_the_interpreter() {
    use swole_plan::{MetricsLevel, StatsMode};
    let div = |a: Expr, b: Expr| Expr::Div(Box::new(a), Box::new(b));
    let sums = [
        Expr::col("a").mul(Expr::col("b")),
        div(Expr::col("a"), Expr::col("q")),
        Expr::col("p").mul(Expr::col("q")),
        div(Expr::col("p"), Expr::col("q")),
    ];
    let lists = |e: &Expr| {
        let s = |name: &str| AggSpec::sum(e.clone(), name);
        let n = |name: &str| AggSpec::count(name);
        let (one, two) = (
            "sink: fold_masked_bitmap<1>)",
            "sink: fold_masked_bitmap<2>)",
        );
        [
            (vec![s("s")], one),
            (vec![s("s"), n("n")], two),
            (vec![n("n"), s("s")], two),
            (vec![n("n")], one),
            (vec![n("n"), n("n2")], two),
            (vec![s("s"), s("s2")], two),
        ]
    };
    let probe = |filtered: bool, aggs: Vec<AggSpec>| {
        let fact = QueryBuilder::scan("R");
        let fact = match filtered {
            true => fact.filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(70))),
            false => fact,
        };
        let parent = QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(40)));
        fact.semijoin(parent, "fk").aggregate(None, aggs)
    };
    let oracle = lists_db(true);
    for stats in [StatsMode::OnLoad, StatsMode::Off] {
        for metrics in [MetricsLevel::Off, MetricsLevel::Counters] {
            let engines = [1, 2, 8].map(|threads| {
                Engine::builder(lists_db(true))
                    .tile_rows(2048)
                    .stats(stats)
                    .metrics(metrics)
                    .threads(threads)
                    .build()
            });
            for filtered in [false, true] {
                for sum in &sums {
                    let mut counters = None;
                    for (aggs, sink) in lists(sum) {
                        let plan = probe(filtered, aggs);
                        let expected = interp::run(&oracle, &plan).expect("interp");
                        for engine in &engines {
                            let explain = engine.explain(&plan).expect("explain");
                            assert!(explain.strategy.ends_with(sink), "{explain}\nwants {sink}");
                            let got = engine.query(&plan).expect("engine");
                            assert_eq!(got.rows, expected.rows, "{explain}");
                            let Some(m) = got.metrics() else { continue };
                            let op = |name: &str| m.op(name).expect(name).access;
                            let seen = (op("multijoin-probe(S)"), op("multijoin-agg(R)"));
                            assert_eq!(*counters.get_or_insert(seen), seen, "{explain}");
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sums in i32 lanes
// ---------------------------------------------------------------------------

/// Value-masking plans whose sums the certificate proves into `i32` tiles —
/// a product, a quotient, access merging over the filter's `x` (a shared
/// product and a square) — answer as the interpreter does, bit for bit, at
/// threads {1, 2, 8}. A list mixing one of them with an `i64` column is
/// proven `I64` only and runs every sum in `i64` lanes.
#[test]
fn i32_tile_sums_match_the_interpreter() {
    use swole_cost::AggStrategy;
    use swole_plan::OverflowProof::{I32Tile, I64};
    let [x, a, b, q] = ["x", "a", "b", "q"].map(Expr::col);
    let div = Expr::Div(Box::new(a.clone()), Box::new(q));
    let lists = [
        (vec![AggSpec::sum(a.clone().mul(b), "sab")], I32Tile),
        (vec![AggSpec::sum(div, "saq"), AggSpec::count("n")], I32Tile),
        (
            vec![
                AggSpec::sum(x.clone().mul(a.clone()), "sxa"),
                AggSpec::sum(x.clone().mul(x.clone()), "sxx"),
            ],
            I32Tile,
        ),
        (
            vec![
                AggSpec::sum(x.mul(a), "sxa"),
                AggSpec::sum(Expr::col("p"), "sp"),
            ],
            I64,
        ),
    ];
    let engines = [1, 2, 8].map(|threads| {
        Engine::builder(lists_db(true))
            .tile_rows(2048)
            .strategies(StrategyOverrides::pin_agg(AggStrategy::ValueMasking))
            .threads(threads)
            .build()
    });
    let oracle = lists_db(true);
    for (aggs, proof) in lists {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(70)))
            .aggregate(None, aggs);
        let expected = interp::run(&oracle, &plan).expect("interp");
        for engine in &engines {
            let explain = engine.explain(&plan).expect("explain");
            let cert = engine.certificate(&plan).expect("certifies");
            assert_eq!(cert.overflow_proof, proof, "{explain}");
            let named = cert
                .lines
                .iter()
                .any(|l| l.contains(", i32 tile (|input| <= "));
            assert_eq!(named, proof == I32Tile, "{:?}", cert.lines);
            assert_eq!(engine.query(&plan).expect("engine"), expected, "{explain}");
        }
    }
}

/// `R → S → T`: an FK chain whose middle table spans three 2 Ki-row morsels,
/// the last ending mid-word.
fn chain_db() -> Database {
    let (n_r, n_s, n_t) = (20_000usize, 2 * 2048 + 37, 500usize);
    let mut rng = SmallRng::seed_from_u64(0xC4A1);
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "x",
                ColumnData::I8((0..n_r).map(|_| rng.gen_range(0..100)).collect()),
            )
            .with_column(
                "a",
                ColumnData::I32((0..n_r).map(|_| rng.gen_range(1..50)).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32((0..n_r).map(|_| rng.gen_range(0..n_s as u32)).collect()),
            ),
    );
    db.add_table(
        Table::new("S")
            .with_column(
                "y",
                ColumnData::I8((0..n_s).map(|_| rng.gen_range(0..100)).collect()),
            )
            .with_column(
                "tk",
                ColumnData::U32((0..n_s).map(|_| rng.gen_range(0..n_t as u32)).collect()),
            ),
    );
    db.add_table(Table::new("T").with_column(
        "z",
        ColumnData::I8((0..n_t).map(|_| rng.gen_range(0..100)).collect()),
    ));
    db.add_fk("R", "fk", "S").unwrap();
    db.add_fk("S", "tk", "T").unwrap();
    db
}

/// Build sides written from the tile loop: a one-edge join and a chain
/// (`R → S → T`), sparse and dense, under the planner's build and each one
/// pinned — both bitmap variants and the key set — scalar, and grouped by
/// the FK over the one edge, match the interpreter at threads {1, 2, 8}.
#[test]
fn chain_and_hash_builds_match_the_interpreter() {
    use swole_cost::{BitmapBuild, SemiJoinStrategy};
    let oracle = chain_db();
    let pins = [
        None,
        Some(SemiJoinStrategy::PositionalBitmap(
            BitmapBuild::Unconditional,
        )),
        Some(SemiJoinStrategy::PositionalBitmap(
            BitmapBuild::SelectionVector,
        )),
        Some(SemiJoinStrategy::Hash),
    ];
    let lt = |c: &str, v: i64| Expr::col(c).cmp(CmpOp::Lt, Expr::lit(v));
    for pin in pins {
        let engines = [1, 2, 8].map(|threads| {
            let b = Engine::builder(chain_db()).tile_rows(2048).threads(threads);
            match pin {
                Some(s) => b.strategies(StrategyOverrides::pin_semijoin(s)).build(),
                None => b.build(),
            }
        });
        for (s_lt, chained) in [(3, false), (3, true), (60, false), (60, true)] {
            let parent = QueryBuilder::scan("S").filter(lt("y", s_lt));
            let parent = match chained {
                true => parent.semijoin(QueryBuilder::scan("T").filter(lt("z", 50)), "tk"),
                false => parent,
            };
            let aggs = vec![AggSpec::sum(Expr::col("a"), "s"), AggSpec::count("n")];
            // Neither side groups over a multi-way join.
            let groups: &[Option<&str>] = if chained {
                &[None]
            } else {
                &[None, Some("fk")]
            };
            for &group in groups {
                let plan = QueryBuilder::scan("R")
                    .filter(lt("x", 70))
                    .semijoin(parent.clone(), "fk")
                    .aggregate(group, aggs.clone());
                let expected = interp::run(&oracle, &plan).expect("interp");
                for engine in &engines {
                    let explain = engine.explain(&plan).expect("explain");
                    let got = engine.query(&plan).expect("engine");
                    assert_eq!(got, expected, "{explain}");
                }
            }
        }
    }
}
