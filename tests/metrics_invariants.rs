//! EXPLAIN ANALYZE counter invariants.
//!
//! 1. The deterministic access counters (`rows_in`, `rows_out`,
//!    `predicate_evals`, `wasted_lanes`, `ht_probes`, `morsels`, merged
//!    `ht.inserts`, bitmap sizes) are **bit-identical across thread
//!    counts** — tiles partition the input the same way regardless of
//!    which worker claims which morsel.
//! 2. Strategies are interchangeable in *semantics*: data-centric (the
//!    interpreter) and every SWOLE strategy agree on `rows_out`; they
//!    differ only in access pattern — `wasted_lanes > 0` exactly when a
//!    predicate pullup ran.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::{interp, OpMetrics};
use swole::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Deterministic database: R(x, a, b, c, fk) → S(y).
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
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        )
}

fn semijoin_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(80)))
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
            "fk",
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")])
}

fn groupjoin_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
            "fk",
        )
        .aggregate(
            Some("fk"),
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        )
}

/// The deterministic projection of one operator's counters: everything
/// except hash-table internals (`probe_steps`, `resizes`,
/// `bytes_allocated`, per-worker `probes`) and wall time, which depend on
/// the morsel partition.
fn deterministic_view(op: &OpMetrics) -> (String, [u64; 10]) {
    (
        op.name.clone(),
        [
            op.access.rows_in,
            op.access.rows_out,
            op.access.predicate_evals,
            op.access.wasted_lanes,
            op.access.ht_probes,
            op.access.morsels,
            op.ht.inserts,
            op.bitmap_bits_set,
            op.bitmap_words,
            op.byte_map_bytes,
        ],
    )
}

fn run_counters(
    plan: &LogicalPlan,
    threads: usize,
    configure: impl Fn(EngineBuilder) -> EngineBuilder,
) -> QueryMetrics {
    run_counters_on(make_db(42, 50_000, 512), plan, threads, configure)
}

/// [`run_counters`] over `db`.
fn run_counters_on(
    db: Database,
    plan: &LogicalPlan,
    threads: usize,
    configure: impl Fn(EngineBuilder) -> EngineBuilder,
) -> QueryMetrics {
    let engine = configure(Engine::builder(db))
        .threads(threads)
        .tile_rows(2048)
        .metrics(MetricsLevel::Counters)
        .build();
    let res = engine.query(plan).expect("engine runs");
    res.metrics().expect("counters recorded").clone()
}

fn assert_counters_thread_invariant(
    plan: &LogicalPlan,
    label: &str,
    configure: impl Fn(EngineBuilder) -> EngineBuilder,
) {
    let reference: Vec<_> = run_counters(plan, THREADS[0], &configure)
        .operators
        .iter()
        .map(deterministic_view)
        .collect();
    assert!(!reference.is_empty(), "{label}: no operators recorded");
    for threads in &THREADS[1..] {
        let got: Vec<_> = run_counters(plan, *threads, &configure)
            .operators
            .iter()
            .map(deterministic_view)
            .collect();
        assert_eq!(got, reference, "{label}, threads={threads}");
    }
}

#[test]
fn scalar_agg_counters_thread_invariant() {
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        assert_counters_thread_invariant(&scalar_plan(), strategy.name(), |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        });
    }
}

#[test]
fn groupby_agg_counters_thread_invariant() {
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        assert_counters_thread_invariant(&groupby_plan(), strategy.name(), |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        });
    }
}

#[test]
fn semijoin_counters_thread_invariant() {
    for strategy in [
        SemiJoinStrategy::Hash,
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
    ] {
        assert_counters_thread_invariant(&semijoin_plan(), &format!("{strategy:?}"), |b| {
            b.strategies(StrategyOverrides::pin_semijoin(strategy))
        });
    }
}

#[test]
fn groupjoin_counters_thread_invariant() {
    for strategy in [
        GroupJoinStrategy::GroupJoin,
        GroupJoinStrategy::EagerAggregation,
    ] {
        let pin = |b: EngineBuilder| b.strategies(StrategyOverrides::pin_groupjoin(strategy));
        assert_counters_thread_invariant(&groupjoin_plan(), &format!("{strategy:?}"), pin);
        // A grouped join reports like any one-edge join: the edge's build,
        // its probe cardinalities, then the probe-side aggregation, whose
        // key count is the surviving groups'.
        let m = run_counters(&groupjoin_plan(), 2, pin);
        let names: Vec<&str> = m.operators.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "multijoin-build(S)",
                "multijoin-probe(S)",
                "multijoin-agg(R)"
            ],
            "{strategy:?}"
        );
        let (build, probe, agg) = (&m.operators[0], &m.operators[1], &m.operators[2]);
        assert_eq!(probe.access.rows_out, agg.access.rows_out, "{strategy:?}");
        assert_eq!(agg.access.rows_in, 50_000, "{strategy:?}");
        assert!(agg.ht.inserts > 0 && agg.ht.inserts <= build.access.rows_out);
        // Only eager aggregation touches rows whose parent fails the edge.
        assert_eq!(
            agg.access.wasted_lanes > 0,
            strategy == GroupJoinStrategy::EagerAggregation,
            "{strategy:?}"
        );
    }
}

#[test]
fn scalar_and_grouped_joins_report_the_same_edge() {
    // One driver narrows the selection vector for both sinks: over the same
    // fact table, filter and edge, what reached and survived the edge — and
    // how often its membership structure was asked — cannot depend on what
    // the survivors are folded into.
    let join = || {
        QueryBuilder::scan("R")
            .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(80)))
            .semijoin(
                QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
                "fk",
            )
    };
    let sum = || AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s");
    let scalar = join().aggregate(None, vec![sum()]);
    let grouped = join().aggregate(Some("fk"), vec![sum()]);
    // A key-set edge is probed through the selection vector, never masked.
    let pins = StrategyOverrides {
        semijoin: Some(SemiJoinStrategy::Hash),
        groupjoin: Some(GroupJoinStrategy::GroupJoin),
        ..StrategyOverrides::default()
    };
    for threads in THREADS {
        let edge = |plan: &LogicalPlan| {
            let m = run_counters(plan, threads, |b| b.strategies(pins.clone()));
            let probe = m.op("multijoin-probe(S)").expect("edge probe op present");
            (probe.access.rows_in, probe.access.rows_out, probe.ht.probes)
        };
        let (rows_in, rows_out, probes) = edge(&scalar);
        assert!(rows_in < 50_000 && rows_out > 0 && rows_out < rows_in);
        assert_eq!(probes, rows_in);
        assert_eq!(
            edge(&grouped),
            (rows_in, rows_out, probes),
            "threads={threads}"
        );
    }
}

#[test]
fn strategies_agree_on_rows_out() {
    // Data-centric (interpreter) and every engine strategy must report the
    // same qualifying-row count; they differ only in how they got there.
    let plan = groupby_plan();
    let (_, interp_op) = interp::run_metered(&make_db(42, 50_000, 512), &plan).expect("interp");
    let reference = interp_op.access.rows_out;
    assert!(reference > 0, "plan must select something");
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        let m = run_counters(&plan, 2, |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        });
        let total = m.total();
        assert_eq!(
            total.rows_out,
            reference,
            "{} disagrees with data-centric on rows_out",
            strategy.name()
        );
        // Every strategy scanned the full table and evaluated the
        // predicate on every row — pushdown vs pullup changes *where*
        // filtering lands, not how often the predicate runs.
        assert_eq!(total.rows_in, 50_000, "{}", strategy.name());
        assert_eq!(total.predicate_evals, 50_000, "{}", strategy.name());
    }
}

/// The interpreter's counters on a filter + semijoin plan, against a count
/// made straight from the columns: every row of each table reaches its
/// filter once, every row of R that passes `x < 80` probes S once.
#[test]
fn interpreter_counts_evaluations_and_probes() {
    let (n_r, n_s) = (50_000, 512);
    let db = make_db(42, n_r, n_s);
    let (_, op) = interp::run_metered(&db, &semijoin_plan()).expect("interp");
    let col = |t: &str, c: &str| db.table(t).unwrap().column(c).unwrap();
    let x = col("R", "x").as_i8().unwrap();
    let fk = col("R", "fk").as_u32().unwrap();
    let y = col("S", "y").as_i8().unwrap();
    let probes = x.iter().filter(|&&v| v < 80).count() as u64;
    let rows_out = (0..n_r)
        .filter(|&i| x[i] < 80 && y[fk[i] as usize] < 50)
        .count() as u64;
    assert!(0 < rows_out && rows_out < probes && probes < n_r as u64);
    let a = &op.access;
    assert_eq!(a.rows_in, (n_r + n_s) as u64);
    assert_eq!(a.predicate_evals, (n_r + n_s) as u64);
    assert_eq!(a.ht_probes, probes);
    assert_eq!(a.rows_out, rows_out);
    assert_eq!(a.wasted_lanes, 0);
}

#[test]
fn wasted_lanes_iff_pullup() {
    // Hybrid filters before aggregating: no lane ever carries a
    // non-qualifying tuple. The masking pullups aggregate everything and
    // cancel the non-qualifiers — exactly rows_in - rows_out wasted lanes.
    let plan = groupby_plan();
    let hybrid = run_counters(&plan, 2, |b| {
        b.strategies(StrategyOverrides::pin_agg(AggStrategy::Hybrid))
    })
    .total();
    assert_eq!(hybrid.wasted_lanes, 0, "hybrid never wastes a lane");
    for strategy in [AggStrategy::ValueMasking, AggStrategy::KeyMasking] {
        let t = run_counters(&plan, 2, |b| {
            b.strategies(StrategyOverrides::pin_agg(strategy))
        })
        .total();
        assert!(t.wasted_lanes > 0, "{} is a pullup", strategy.name());
        assert_eq!(
            t.wasted_lanes,
            t.rows_in - t.rows_out,
            "{}: wasted = non-qualifying",
            strategy.name()
        );
    }
    // The interpreter reads attributes conditionally row-at-a-time: zero
    // wasted lanes by construction.
    let (_, interp_op) = interp::run_metered(&make_db(42, 50_000, 512), &plan).expect("interp");
    assert_eq!(interp_op.access.wasted_lanes, 0);
}

#[test]
fn groupby_ht_inserts_is_group_count() {
    // The merged table's key count is the number of result groups — the
    // throwaway NULL_KEY entry (key masking's trash can) is excluded.
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        let engine = Engine::builder(make_db(42, 50_000, 512))
            .threads(4)
            .tile_rows(2048)
            .strategies(StrategyOverrides::pin_agg(strategy))
            .metrics(MetricsLevel::Counters)
            .build();
        let res = engine.query(&groupby_plan()).expect("runs");
        let m = res.metrics().expect("counters").clone();
        assert_eq!(
            m.operators[0].ht.inserts,
            res.rows.len() as u64,
            "{}",
            strategy.name()
        );
    }
}

#[test]
fn metrics_levels_gate_collection() {
    let plan = scalar_plan();
    // Off: no metrics on the result at all.
    let off = Engine::builder(make_db(42, 50_000, 512)).build();
    assert!(off.query(&plan).expect("runs").metrics().is_none());
    // Counters: counters but no clocks.
    let m = run_counters(&plan, 2, |b| b);
    assert_eq!(m.level, MetricsLevel::Counters);
    assert_eq!(m.elapsed_nanos, 0);
    assert!(m.operators.iter().all(|o| o.wall_nanos == 0));
    assert!(m.total().rows_in > 0);
    // Timings: clocks too.
    let engine = Engine::builder(make_db(42, 50_000, 512))
        .metrics(MetricsLevel::Timings)
        .build();
    let res = engine.query(&plan).expect("runs");
    let m = res.metrics().expect("timings recorded");
    assert_eq!(m.level, MetricsLevel::Timings);
    assert!(m.elapsed_nanos > 0);
    assert!(m.operators.iter().all(|o| o.wall_nanos > 0));
}

/// The build, the edge's probe and the aggregation report apart, over a
/// parent within the byte-map budget (512 rows: its byte map's bytes) and
/// above it (40 Ki rows: its bitmap's words).
#[test]
fn semijoin_build_and_probe_reported_separately() {
    for n_s in [512, 40 << 10] {
        let db = make_db(42, 50_000, n_s);
        let m = run_counters_on(db, &semijoin_plan(), 2, |b| {
            b.strategies(StrategyOverrides::pin_semijoin(
                SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
            ))
        });
        semijoin_reported_separately(&m, n_s);
    }
}

fn semijoin_reported_separately(m: &QueryMetrics, n_s: usize) {
    let build = m.op("multijoin-build(S)").expect("build op present");
    let probe = m.op("multijoin-probe(S)").expect("edge probe op present");
    let agg = m.op("multijoin-agg(R)").expect("probe-side agg op present");
    assert_eq!(build.access.rows_in, n_s as u64);
    match n_s {
        512 => assert_eq!(
            build.byte_map_bytes, 512,
            "a byte-map build reports its bytes"
        ),
        _ => assert!(build.bitmap_words > 0, "bitmap build reports its words"),
    }
    assert_eq!(build.bitmap_bits_set, build.access.rows_out);
    assert_eq!(agg.access.rows_in, 50_000);
    assert!(agg.access.ht_probes > 0);
    // The masked probe tests every lane, but the edge's cardinalities are
    // the filter-qualifying rows, and its survivors the aggregated ones.
    assert_eq!(agg.access.ht_probes, 50_000);
    assert!(probe.access.rows_in < 50_000 && probe.access.rows_in > probe.access.rows_out);
    assert_eq!(probe.access.rows_out, agg.access.rows_out);
}

#[test]
fn json_round_trips_counter_values() {
    let m = run_counters(&groupby_plan(), 2, |b| b);
    let j = m.to_json();
    let t = m.total();
    assert!(j.contains(&format!("\"rows_in\":{}", m.operators[0].access.rows_in)));
    assert!(j.contains(&format!("\"rows_out\":{}", t.rows_out)));
    assert!(j.contains("\"level\":\"counters\""));
}
