//! Morsel-parallel equivalence: every access strategy must produce
//! **bit-identical** results at every thread count — the merge phase
//! (commutative scalar folds, `AggTable::merge_from`, sorted group-by
//! output) makes the thread count invisible in the result.
//!
//! Strategies are pinned through the `EngineBuilder` so each loop body is
//! exercised explicitly rather than at the cost model's whim, and every
//! result is also cross-checked against the naive interpreter.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::interp;
use swole::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic database: R(x, a, b, c, fk) → S(y). Large enough that
/// small morsels split it across many claims.
fn make_db(seed: u64, n_r: usize, n_s: usize) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "x",
                ColumnData::I8((0..n_r).map(|_| rng.gen_range(0i8..100)).collect()),
            )
            .with_column(
                "a",
                ColumnData::I32((0..n_r).map(|_| rng.gen_range(1i32..50)).collect()),
            )
            .with_column(
                "b",
                ColumnData::I32((0..n_r).map(|_| rng.gen_range(1i32..50)).collect()),
            )
            .with_column(
                "c",
                ColumnData::I16((0..n_r).map(|_| rng.gen_range(0i16..32)).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32((0..n_r).map(|_| rng.gen_range(0u32..n_s as u32)).collect()),
            ),
    );
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..n_s).map(|_| rng.gen_range(0i8..100)).collect()),
    ));
    db.add_fk("R", "fk", "S").expect("valid by construction");
    db
}

/// Run `plan` under every thread count with the given builder tweak,
/// asserting all results are bit-identical to each other and to the
/// interpreter.
fn assert_equivalent(
    plan: &LogicalPlan,
    label: &str,
    configure: impl Fn(EngineBuilder) -> EngineBuilder,
) {
    let reference = interp::run(&make_db(42, 50_000, 512), plan).expect("interp");
    for threads in THREADS {
        // Small morsels so multi-thread runs split into many claims.
        let engine = configure(Engine::builder(make_db(42, 50_000, 512)))
            .threads(threads)
            .tile_rows(2048)
            .build();
        let got = engine.query(plan).expect("engine runs");
        assert_eq!(got, reference, "{label}, threads={threads}");
    }
}

fn scalar_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
        .aggregate(
            None,
            vec![
                AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                AggSpec::count("n"),
            ],
        )
}

fn groupby_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
        .aggregate(
            Some("c"),
            vec![
                AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                AggSpec::count("n"),
            ],
        )
}

#[test]
fn scalar_agg_all_strategies_all_thread_counts() {
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        assert_equivalent(&scalar_plan(), strategy.name(), |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        });
    }
}

#[test]
fn groupby_agg_all_strategies_all_thread_counts() {
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        assert_equivalent(&groupby_plan(), strategy.name(), |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        });
    }
}

#[test]
fn groupby_min_max_hybrid_all_thread_counts() {
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(45)))
        .aggregate(
            Some("c"),
            vec![
                AggSpec::min(Expr::col("a"), "lo"),
                AggSpec::max(Expr::col("a").mul(Expr::col("b")), "hi"),
                AggSpec::count("n"),
            ],
        );
    // Min/max force hybrid; the merge path must respect valid flags.
    assert_equivalent(&plan, "hybrid min/max", |b| b);
}

#[test]
fn semijoin_all_strategies_all_thread_counts() {
    // Wide probe filter → masked probe; narrow → selection-vector probe.
    for probe_sel in [80i64, 5] {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(probe_sel)))
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
                "fk",
            )
            .aggregate(
                None,
                vec![
                    AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                    AggSpec::count("n"),
                ],
            );
        for strategy in [
            SemiJoinStrategy::Hash,
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
        ] {
            assert_equivalent(
                &plan,
                &format!("semijoin {strategy:?}, probe_sel={probe_sel}"),
                |b| b.strategies(StrategyOverrides::pin_semijoin(strategy)),
            );
            assert_one_edge_matches_zero_edge(probe_sel, strategy);
        }
    }
}

/// A scan and a semijoin run the same executor at arities zero and one:
/// with no build filter every parent qualifies, so the join restricts
/// nothing and must match the scan under the same probe filter — result
/// and probe-side counters — on the masked path (value masking ≡ masked
/// probe) and the selection-vector path (hybrid ≡ narrowed selection).
fn assert_one_edge_matches_zero_edge(probe_sel: i64, strategy: SemiJoinStrategy) {
    let probe =
        || QueryBuilder::scan("R").filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(probe_sel)));
    let aggs = || {
        vec![
            AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
            AggSpec::count("n"),
        ]
    };
    let zero_edge = probe().aggregate(None, aggs());
    let one_edge = probe()
        .semijoin(QueryBuilder::scan("S"), "fk")
        .aggregate(None, aggs());
    let masked = probe_sel >= 13 && matches!(strategy, SemiJoinStrategy::PositionalBitmap(_));
    let pins = StrategyOverrides {
        agg: Some(if masked {
            AggStrategy::ValueMasking
        } else {
            AggStrategy::Hybrid
        }),
        semijoin: Some(strategy),
        ..StrategyOverrides::default()
    };
    for threads in THREADS {
        let label = format!("{strategy:?}, probe_sel={probe_sel}, threads={threads}");
        let engine = Engine::builder(make_db(42, 50_000, 512))
            .threads(threads)
            .tile_rows(2048)
            .metrics(MetricsLevel::Counters)
            .strategies(pins.clone())
            .build();
        let explain = engine.explain(&one_edge).expect("plans");
        assert_eq!(explain.strategy.contains("masked probe"), masked, "{label}");
        let zero = engine.query(&zero_edge).expect("scan runs");
        let one = engine.query(&one_edge).expect("join runs");
        assert_eq!(zero, one, "{label}");
        let last_op = |r: &QueryResult| {
            let ops = &r.metrics().expect("counters recorded").operators;
            ops.last().expect("an operator ran").clone()
        };
        let (z, o) = (last_op(&zero), last_op(&one));
        assert_eq!(
            (z.name.as_str(), o.name.as_str()),
            ("agg(R)", "multijoin-agg(R)")
        );
        let body = |op: &swole::OpMetrics| {
            let a = &op.access;
            (
                a.rows_in,
                a.rows_out,
                a.predicate_evals,
                a.wasted_lanes,
                a.morsels,
            )
        };
        assert_eq!(body(&z), body(&o), "{label}");
        // The edge adds only its probes: every lane when masked, the
        // filter's survivors through the selection vector.
        let probed = if masked {
            o.access.rows_in
        } else {
            o.access.rows_out
        };
        assert_eq!(
            (z.access.ht_probes, o.access.ht_probes),
            (0, probed),
            "{label}"
        );
    }
}

#[test]
fn groupjoin_both_strategies_all_thread_counts() {
    let plan = QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
            "fk",
        )
        .aggregate(
            Some("fk"),
            vec![
                AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
                AggSpec::count("n"),
            ],
        );
    for strategy in [
        GroupJoinStrategy::GroupJoin,
        GroupJoinStrategy::EagerAggregation,
    ] {
        assert_equivalent(&plan, &format!("groupjoin {strategy:?}"), |b| {
            b.strategies(StrategyOverrides::pin_groupjoin(strategy))
        });
        assert_grouped_one_edge_matches_zero_edge(strategy);
    }
}

/// A group-by and a groupjoin run the same executor at arities zero and
/// one: with no build filter every parent qualifies, so neither groupjoin
/// strategy drops a row or a key and both must match `group by fk` over the
/// bare scan (every lane selected, upserted unmasked) — result and
/// probe-side counters — on scoped workers and on the pool.
fn assert_grouped_one_edge_matches_zero_edge(strategy: GroupJoinStrategy) {
    let aggs = || {
        vec![
            AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
            AggSpec::count("n"),
        ]
    };
    let zero_edge = QueryBuilder::scan("R").aggregate(Some("fk"), aggs());
    let one_edge = QueryBuilder::scan("R")
        .semijoin(QueryBuilder::scan("S"), "fk")
        .aggregate(Some("fk"), aggs());
    let pins = StrategyOverrides {
        agg: Some(AggStrategy::Hybrid),
        groupjoin: Some(strategy),
        ..StrategyOverrides::default()
    };
    for threads in THREADS {
        for pool in [false, true] {
            let label = format!("{strategy:?}, threads={threads}, pool={pool}");
            let builder = Engine::builder(make_db(42, 50_000, 512))
                .tile_rows(2048)
                .metrics(MetricsLevel::Counters)
                .strategies(pins.clone());
            let engine = if pool {
                builder.worker_pool(threads).build()
            } else {
                builder.threads(threads).build()
            };
            let planned = engine.plan(&one_edge).expect("plans");
            assert_eq!(planned.groupjoin_strategy(), Some(strategy), "{label}");
            let zero = engine.query(&zero_edge).expect("group-by runs");
            let one = engine.query(&one_edge).expect("groupjoin runs");
            assert_eq!(zero, one, "{label}");
            let last_op = |r: &QueryResult| {
                let ops = &r.metrics().expect("counters recorded").operators;
                ops.last().expect("an operator ran").clone()
            };
            let (z, o) = (last_op(&zero), last_op(&one));
            assert_eq!(
                (z.name.as_str(), o.name.as_str()),
                ("groupby-agg(R)", "multijoin-agg(R)")
            );
            assert_eq!(z.access, o.access, "{label}");
            assert_eq!(z.ht.inserts, o.ht.inserts, "{label}");
        }
    }
}

#[test]
fn empty_selection_identical_across_threads() {
    // Zero qualifying rows: min/max identities must flatten to the
    // documented all-zero row at every thread count.
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(-1)))
        .aggregate(
            None,
            vec![
                AggSpec::sum(Expr::col("a"), "s"),
                AggSpec::min(Expr::col("a"), "lo"),
            ],
        );
    assert_equivalent(&plan, "empty selection", |b| b);
}

#[test]
fn oversubscribed_and_zero_threads() {
    // threads(0) = all hardware threads; 16 >> cores oversubscribes. Both
    // must still be exact.
    let plan = groupby_plan();
    let reference = interp::run(&make_db(42, 50_000, 512), &plan).expect("interp");
    for threads in [0usize, 16] {
        let engine = Engine::builder(make_db(42, 50_000, 512))
            .threads(threads)
            .tile_rows(1024)
            .build();
        assert!(engine.threads() >= 1);
        let got = engine.query(&plan).expect("engine runs");
        assert_eq!(got, reference, "threads param = {threads}");
    }
}

#[test]
fn pinned_strategy_shows_up_in_explain() {
    let engine = Engine::builder(make_db(7, 4_000, 64))
        .threads(2)
        .strategies(StrategyOverrides::pin_agg(AggStrategy::ValueMasking))
        .build();
    let report = engine.explain(&groupby_plan()).expect("plans");
    assert_eq!(report.strategy, "value-masking");
    assert_eq!(report.threads, 2);
    assert!(
        report.decisions.iter().any(|d| d.contains("pinned")),
        "{report}"
    );
}
