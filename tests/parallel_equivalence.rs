//! Morsel-parallel equivalence: every access strategy must produce
//! **bit-identical** results at every thread count — the merge phase
//! (commutative scalar folds, `AggTable::merge_from`, sorted group-by
//! output) makes the thread count invisible in the result.
//!
//! Strategies are pinned through the `EngineBuilder` so each loop body is
//! exercised explicitly rather than at the cost model's whim, and every
//! result is also cross-checked against the naive interpreter.
//!
//! The group-table representation is the one thing no pin selects: it
//! follows the catalog. `StatsMode::Off` leaves integer keys on the hash
//! table and `OnLoad` moves them to the dense array, so the two modes are
//! the differential between representations; FK and dictionary keys are
//! dense either way and are held to the parent commit's counters instead.

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
/// probe-side counters — at every thread count.
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
        let label = format!("{strategy:?}, threads={threads}");
        let engine = Engine::builder(make_db(42, 50_000, 512))
            .tile_rows(2048)
            .metrics(MetricsLevel::Counters)
            .strategies(pins.clone())
            .threads(threads)
            .build();
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
    assert_eq!(
        report.strategy,
        "value-masking, sink: groupby_value_masked<2>"
    );
    assert_eq!(report.threads, 2);
    assert!(
        report.decisions.iter().any(|d| d.contains("pinned")),
        "{report}"
    );
}

/// `make_db` plus a dictionary column derived from `c` (no extra random
/// draws, so every other column is what the tests above see).
fn make_db_with_tags() -> Database {
    let db = make_db(42, 50_000, 512);
    let r = db.table("R").expect("R");
    let tags: Vec<String> = r
        .column_required("c")
        .to_i64_vec()
        .iter()
        .map(|c| format!("tag{}", c % 7))
        .collect();
    let mut with_tags = Table::new("R");
    for name in r.column_names() {
        with_tags.add_column(name, r.column_required(name).clone());
    }
    with_tags.add_column("tag", ColumnData::Dict(DictColumn::encode(&tags)));
    let mut out = Database::new();
    out.add_table(with_tags);
    out.add_table(
        Table::new("S").with_column("y", db.table("S").expect("S").column_required("y").clone()),
    );
    out.add_fk("R", "fk", "S").expect("valid by construction");
    out
}

fn filtered() -> QueryBuilder {
    QueryBuilder::scan("R").filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
}

fn one_sum() -> Vec<AggSpec> {
    vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")]
}

fn sum_and_count() -> Vec<AggSpec> {
    vec![
        AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s"),
        AggSpec::count("n"),
    ]
}

/// What a grouped operator reports that must not depend on the table
/// behind it: the access counters and the merged key count.
fn grouped_counters(res: &QueryResult) -> (swole::kernels::AccessCounters, u64, bool) {
    let ops = &res.metrics().expect("counters recorded").operators;
    let op = ops.last().expect("an operator ran");
    (op.access, op.ht.inserts, op.ht_dense)
}

fn engines(db: fn() -> Database, pins: &StrategyOverrides, stats: StatsMode) -> Vec<Engine> {
    THREADS
        .iter()
        .map(|&threads| {
            Engine::builder(db())
                .tile_rows(2048)
                .metrics(MetricsLevel::Counters)
                .stats(stats)
                .strategies(pins.clone())
                .threads(threads)
                .build()
        })
        .collect()
}

/// Hash ≡ dense: every integer-keyed grouped shape, under every strategy
/// it can be pinned to, at 1/2/8 threads, answers and counts the same
/// whether its workers fill hash tables (`StatsMode::Off`: no key domain)
/// or dense arrays (`OnLoad`: exact min/max) — through the single-sum
/// kernels, the compiled lists (sum and count) and the register loop
/// (min/max) alike.
#[test]
fn dense_and_hash_group_tables_agree_on_results_and_counters() {
    let min_max = vec![
        AggSpec::min(Expr::col("a"), "lo"),
        AggSpec::max(Expr::col("a").mul(Expr::col("b")), "hi"),
        AggSpec::count("n"),
    ];
    let all = [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ];
    let shapes: Vec<(&str, LogicalPlan, &[AggStrategy])> = vec![
        ("one sum", filtered().aggregate(Some("c"), one_sum()), &all),
        (
            "sum+count",
            filtered().aggregate(Some("c"), sum_and_count()),
            &all,
        ),
        (
            "unfiltered sum",
            QueryBuilder::scan("R").aggregate(Some("c"), one_sum()),
            &all,
        ),
        (
            "min/max",
            filtered().aggregate(Some("c"), min_max),
            &all[..1],
        ),
        // An unsigned key that is no FK of this query.
        ("u32 key", filtered().aggregate(Some("fk"), one_sum()), &all),
    ];
    for (name, plan, strategies) in &shapes {
        let reference = interp::run(&make_db_with_tags(), plan).expect("interp");
        for &strategy in *strategies {
            let pins = StrategyOverrides::pin_agg(strategy);
            let hash = engines(make_db_with_tags, &pins, StatsMode::Off);
            let dense = engines(make_db_with_tags, &pins, StatsMode::OnLoad);
            let mut counters = None;
            for (i, (h, d)) in hash.iter().zip(&dense).enumerate() {
                let label = format!("{name}, {strategy:?}, engine #{i}");
                let table_line = |e: &Engine| {
                    let decisions = e.explain(plan).expect("plans").decisions;
                    let line = decisions.iter().find(|d| d.starts_with("group table: "));
                    line.unwrap_or_else(|| panic!("{label}: no table decision"))
                        .clone()
                };
                assert!(table_line(h).starts_with("group table: hash ("), "{label}");
                assert!(table_line(d).starts_with("group table: dense ["), "{label}");
                let (on_hash, on_dense) =
                    (h.query(plan).expect("hash"), d.query(plan).expect("dense"));
                assert_eq!(on_hash, reference, "{label}");
                assert_eq!(on_dense, reference, "{label}");
                let (h_access, h_keys, h_dense) = grouped_counters(&on_hash);
                let (d_access, d_keys, d_dense) = grouped_counters(&on_dense);
                assert_eq!((h_dense, d_dense), (false, true), "{label}");
                assert_eq!((h_access, h_keys), (d_access, d_keys), "{label}");
                // ... and the same at every thread count.
                let first = *counters.get_or_insert((d_access, d_keys));
                assert_eq!((d_access, d_keys), first, "{label}");
            }
        }
    }
}

/// FK- and dictionary-keyed shapes take the dense table with or without
/// statistics (the parent's rows, the dictionary's size, give the domain),
/// so their differential is the interpreter for the rows and, for the
/// counters, what the commit before the dense table recorded for the same
/// statements on its hash tables: `(rows_in, rows_out, predicate_evals,
/// wasted_lanes, ht_probes, morsels, merged keys)`.
#[test]
fn fk_and_dictionary_keys_go_dense_with_the_parents_counters() {
    type Golden = (u64, u64, u64, u64, u64, u64, u64);
    let groupjoin = |aggs| {
        QueryBuilder::scan("R")
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
                "fk",
            )
            .aggregate(Some("fk"), aggs)
    };
    let by_tag = |aggs| filtered().aggregate(Some("tag"), aggs);
    let gj = StrategyOverrides::pin_groupjoin;
    let agg = StrategyOverrides::pin_agg;
    let cases: Vec<(&str, LogicalPlan, StrategyOverrides, Golden)> = vec![
        (
            "groupjoin, one sum",
            groupjoin(one_sum()),
            gj(GroupJoinStrategy::GroupJoin),
            GOLDEN[0],
        ),
        (
            "groupjoin, sum+count",
            groupjoin(sum_and_count()),
            gj(GroupJoinStrategy::GroupJoin),
            GOLDEN[1],
        ),
        (
            "eager, one sum",
            groupjoin(one_sum()),
            gj(GroupJoinStrategy::EagerAggregation),
            GOLDEN[2],
        ),
        (
            "eager, sum+count",
            groupjoin(sum_and_count()),
            gj(GroupJoinStrategy::EagerAggregation),
            GOLDEN[3],
        ),
        (
            "tag, hybrid",
            by_tag(one_sum()),
            agg(AggStrategy::Hybrid),
            GOLDEN[4],
        ),
        (
            "tag, value masking",
            by_tag(one_sum()),
            agg(AggStrategy::ValueMasking),
            GOLDEN[5],
        ),
        (
            "tag, key masking",
            by_tag(sum_and_count()),
            agg(AggStrategy::KeyMasking),
            GOLDEN[6],
        ),
    ];
    for (name, plan, pins, golden) in &cases {
        let reference = interp::run(&make_db_with_tags(), plan).expect("interp");
        for stats in [StatsMode::Off, StatsMode::OnLoad] {
            for (i, e) in engines(make_db_with_tags, pins, stats).iter().enumerate() {
                let label = format!("{name}, {stats:?}, engine #{i}");
                let got = e.query(plan).expect("runs");
                assert_eq!(got, reference, "{label}");
                let (a, keys, dense) = grouped_counters(&got);
                assert!(dense, "{label}: dense with or without statistics");
                let counters = (
                    a.rows_in,
                    a.rows_out,
                    a.predicate_evals,
                    a.wasted_lanes,
                    a.ht_probes,
                    a.morsels,
                    keys,
                );
                assert_eq!(counters, *golden, "{label}");
            }
        }
    }
}

/// Recorded at the parent commit (hash tables throughout), one row per
/// case of the test above.
const GOLDEN: [(u64, u64, u64, u64, u64, u64, u64); 7] = [
    (50000, 25599, 0, 0, 25599, 25, 262),
    (50000, 25599, 0, 0, 25599, 25, 262),
    (50000, 25599, 0, 24401, 50000, 25, 262),
    (50000, 25599, 0, 24401, 50000, 25, 262),
    (50000, 30078, 50000, 0, 30078, 25, 7),
    (50000, 30078, 50000, 19922, 50000, 25, 7),
    (50000, 30078, 50000, 19922, 50000, 25, 7),
];
