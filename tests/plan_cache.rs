//! The session plan cache observed through the public engine API: hits and
//! misses, LRU eviction under a byte budget, generation-counter
//! invalidation on reload, drift-triggered re-planning, EXPLAIN's
//! cached/fresh verdict, and logical-plan normalization.

use swole::prelude::*;

const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

fn simple_db() -> Database {
    let n = 10_000usize;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n).map(|i| (i % 50) as i32).collect()),
            )
            .with_column(
                "r_x",
                ColumnData::I8((0..n).map(|i| (i * 13 % 100) as i8).collect()),
            ),
    );
    db
}

fn sum_where_x_lt(cutoff: i64) -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("r_x").cmp(CmpOp::Lt, Expr::lit(cutoff)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")])
}

#[test]
fn repeat_queries_hit_and_distinct_queries_miss() {
    let engine = Engine::builder(simple_db()).build();
    let plan = sum_where_x_lt(30);
    let first = engine.query(&plan).expect("runs");
    let second = engine.query(&plan).expect("runs");
    assert_eq!(first, second);
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);

    engine.query(&sum_where_x_lt(60)).expect("runs");
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.entries, 2);
}

#[test]
fn lru_eviction_under_a_tiny_byte_budget() {
    // Measure one entry's footprint, then budget for one-and-a-half.
    let probe = Engine::builder(simple_db()).build();
    probe.query(&sum_where_x_lt(10)).expect("runs");
    let one_entry = probe.plan_cache_stats().bytes;
    assert!(one_entry > 0);

    let budget = one_entry + one_entry / 2;
    let engine = Engine::builder(simple_db())
        .plan_cache_bytes(budget)
        .build();
    engine.query(&sum_where_x_lt(10)).expect("runs");
    engine.query(&sum_where_x_lt(20)).expect("runs");
    engine.query(&sum_where_x_lt(30)).expect("runs");
    let stats = engine.plan_cache_stats();
    assert!(
        stats.evictions >= 2,
        "three same-sized plans under a 1.5-entry budget must evict: {stats:?}"
    );
    assert!(stats.bytes <= budget, "budget respected: {stats:?}");

    // The most recent plan survived; the older ones were evicted.
    let hits_before = engine.plan_cache_stats().hits;
    engine.query(&sum_where_x_lt(30)).expect("runs");
    assert_eq!(engine.plan_cache_stats().hits, hits_before + 1);
}

#[test]
fn zero_budget_disables_caching() {
    let engine = Engine::builder(simple_db()).plan_cache_bytes(0).build();
    let plan = sum_where_x_lt(30);
    engine.query(&plan).expect("runs");
    engine.query(&plan).expect("runs");
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.entries, 0);
    let report = engine.explain(&plan).expect("plans");
    assert_eq!(report.plan_source.as_deref(), Some("fresh"));
}

#[test]
fn reload_bumps_generation_and_invalidates() {
    let engine = Engine::builder(simple_db()).build();
    let plan = sum_where_x_lt(30);
    let before = engine.query(&plan).expect("runs");
    assert_eq!(engine.plan_cache_stats().entries, 1);

    // Reload R with doubled values: the generation counter bumps, and the
    // cached plan (whose sampled statistics described the old data) dies.
    let n = 10_000usize;
    let gen = engine.load_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n).map(|i| (2 * (i % 50)) as i32).collect()),
            )
            .with_column(
                "r_x",
                ColumnData::I8((0..n).map(|i| (i * 13 % 100) as i8).collect()),
            ),
    );
    assert!(gen >= 1);

    let after = engine.query(&plan).expect("runs");
    assert_eq!(
        after.try_scalar("s").unwrap(),
        2 * before.try_scalar("s").unwrap(),
        "the reloaded data must actually be used"
    );
    let stats = engine.plan_cache_stats();
    assert!(
        stats.invalidations >= 1,
        "reload must invalidate the cached plan: {stats:?}"
    );
}

/// Adversarial filter column over `n` rows: every row the
/// Fibonacci-strided sampler visits is 0, everything else 100, so
/// `col < 50` is estimated at σ≈1.0 and observed at σ≈0.04.
fn sampler_fooling_column(n: usize) -> ColumnData {
    let sampled: std::collections::HashSet<usize> = (0..2048u64)
        .map(|k| (k.wrapping_mul(FIB) % n as u64) as usize)
        .collect();
    ColumnData::I32(
        (0..n)
            .map(|i| if sampled.contains(&i) { 0 } else { 100 })
            .collect(),
    )
}

/// The first execution of `plan` must observe a selectivity far past the
/// drift thresholds from the planner's estimate, marking the cached entry
/// stale; the second re-plans with the observed selectivity; the third
/// hits the re-planned entry, which reports the σ it was priced with.
fn assert_drift_replans_once(engine: &Engine, plan: &LogicalPlan) {
    let first = engine.query(plan).expect("runs");
    let est = first
        .metrics()
        .and_then(|m| m.estimated_selectivity)
        .expect("estimate recorded");
    assert!(est > 0.9, "sampler must be fooled, est={est}");

    // The first execution observed the true selectivity and marked the
    // entry stale; this run misses, re-plans with the measurement, and
    // re-caches.
    let second = engine.query(plan).expect("runs");
    assert_eq!(first, second, "same data, same answer");
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.invalidations, 1, "{stats:?}");
    assert_eq!(stats.misses, 2, "{stats:?}");

    // The re-planned entry is stable: the observed selectivity matches
    // what the hint predicted, so no further churn.
    let third = engine.query(plan).expect("runs");
    assert_eq!(first, third);
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.invalidations, 1, "no thrash: {stats:?}");
    assert!(stats.hits >= 1, "{stats:?}");
    let est = third
        .metrics()
        .and_then(|m| m.estimated_selectivity)
        .expect("estimate recorded");
    assert!(est < 0.1, "the re-plan's σ is the observed one, est={est}");
}

#[test]
fn drift_between_sample_and_reality_triggers_replan() {
    let n = 50_000usize;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n).map(|i| (i % 10) as i32).collect()),
            )
            .with_column("r_x", sampler_fooling_column(n)),
    );
    let engine = Engine::builder(db).metrics(MetricsLevel::Counters).build();
    assert_drift_replans_once(&engine, &sum_where_x_lt(50));
}

/// The same feedback through a two-table semijoin: the drifted filter is
/// the build side's, observed by the edge's build operator, and the re-plan
/// overrides that edge's σ.
#[test]
fn drifted_semijoin_build_filter_triggers_replan() {
    let (n_r, n_s) = (20_000usize, 50_000usize);
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n_r).map(|i| (i % 10) as i32).collect()),
            )
            .with_column(
                "r_fk",
                ColumnData::U32((0..n_r).map(|i| (i * 7 % n_s) as u32).collect()),
            ),
    );
    db.add_table(Table::new("S").with_column("s_x", sampler_fooling_column(n_s)));
    db.add_fk("R", "r_fk", "S").expect("valid by construction");
    let engine = Engine::builder(db).metrics(MetricsLevel::Counters).build();
    let plan = QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("s_x").cmp(CmpOp::Lt, Expr::lit(50))),
            "r_fk",
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")]);
    assert_drift_replans_once(&engine, &plan);
}

#[test]
fn explain_reports_cached_then_fresh_after_invalidation() {
    let engine = Engine::builder(simple_db()).build();
    let plan = sum_where_x_lt(30);
    assert_eq!(
        engine.explain(&plan).expect("plans").plan_source.as_deref(),
        Some("fresh")
    );
    engine.query(&plan).expect("runs");
    assert_eq!(
        engine.explain(&plan).expect("plans").plan_source.as_deref(),
        Some("cached")
    );
}

#[test]
fn filter_chains_normalize_to_one_cache_entry() {
    let engine = Engine::builder(simple_db()).build();
    let chained = QueryBuilder::scan("R")
        .filter(Expr::col("r_x").cmp(CmpOp::Lt, Expr::lit(40)))
        .filter(Expr::col("r_a").cmp(CmpOp::Ge, Expr::lit(5)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")]);
    let merged = QueryBuilder::scan("R")
        .filter(
            Expr::col("r_a")
                .cmp(CmpOp::Ge, Expr::lit(5))
                .and(Expr::col("r_x").cmp(CmpOp::Lt, Expr::lit(40))),
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")]);

    let a = engine.query(&chained).expect("runs");
    let b = engine.query(&merged).expect("runs");
    assert_eq!(a, b);
    let stats = engine.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (1, 1, 1),
        "both spellings share one normalized entry: {stats:?}"
    );
}

#[test]
fn cache_is_keyed_on_thread_count() {
    // Same logical plan, different sessions: each session keys on its own
    // parallelism (the groupjoin chooser is thread-aware), so stats are
    // per-engine and never alias.
    for threads in [1usize, 4] {
        let engine = Engine::builder(simple_db()).threads(threads).build();
        let plan = sum_where_x_lt(30);
        engine.query(&plan).expect("runs");
        engine.query(&plan).expect("runs");
        let stats = engine.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "threads={threads}");
    }
}
