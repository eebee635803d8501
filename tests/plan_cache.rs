//! The session plan cache observed through the public engine API: hits and
//! misses, LRU eviction under a byte budget, generation-counter
//! invalidation on reload, drift-triggered re-planning, EXPLAIN's
//! cached/fresh verdict, and logical-plan normalization.

use swole::prelude::*;
use swole::storage::DataType;

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

/// `T(k, v)`: 6 000 rows, keys cycling through `lo..=hi`.
fn keyed(lo: i32, hi: i32) -> Table {
    let span = (hi - lo + 1) as usize;
    Table::new("T")
        .with_column(
            "k",
            ColumnData::I32((0..6_000).map(|i| lo + (i * 7 % span) as i32).collect()),
        )
        .with_column(
            "v",
            ColumnData::I32((0..6_000).map(|i| i % 31 - 9).collect()),
        )
}

fn sum_by_k() -> LogicalPlan {
    QueryBuilder::scan("T").aggregate(Some("k"), vec![AggSpec::sum(Expr::col("v"), "s")])
}

fn group_table_line(engine: &Engine, plan: &LogicalPlan) -> String {
    let decisions = engine.explain(plan).expect("plans").decisions;
    let line = decisions.iter().find(|d| d.starts_with("group table: "));
    line.expect("a grouped plan records its table").clone()
}

/// A dense key domain is a fact about one generation of the table. A
/// physical plan held across a reload — wider, negative, shifted keys —
/// must still answer correctly when executed directly: the executor sees
/// the generation moved and fills hash tables instead of indexing a stale
/// array out of range.
#[test]
fn a_plan_held_across_a_reload_does_not_trust_its_stale_key_domain() {
    for threads in [1usize, 4] {
        let mut db = Database::new();
        db.add_table(keyed(10, 20));
        let engine = Engine::builder(db).threads(threads).tile_rows(1024).build();
        let plan = sum_by_k();
        assert!(
            group_table_line(&engine, &plan).starts_with("group table: dense [10..20]"),
            "{}",
            group_table_line(&engine, &plan)
        );
        let held = engine.plan(&plan).expect("plans");
        let counted = QueryOptions::new().metrics(MetricsLevel::Counters);
        let fresh = engine.execute_with(&held, &counted).expect("runs");
        assert_eq!(fresh.rows.len(), 11);
        let ops = &fresh.metrics().expect("counters requested").operators;
        assert!(ops.last().expect("the grouped operator").ht_dense);
        for (lo, hi) in [(0, 40), (-5, 5), (100, 110), (10, 20)] {
            engine.load_table(keyed(lo, hi));
            let reference =
                swole::plan::interp::run(&engine.database(), &plan).expect("interpreter");
            let got = engine
                .execute_with(&held, &counted)
                .expect("a stale plan still executes");
            assert_eq!(got, reference, "keys {lo}..={hi}, threads={threads}");
            // The certificate is derived for the table that ran, not the
            // one the plan was made for.
            let m = got.metrics().expect("counters requested");
            let op = m.operators.last().expect("the grouped operator");
            assert!(
                !op.ht_dense,
                "{lo}..={hi}: even the same range is a new generation"
            );
            assert!(
                m.bytes_charged <= m.bytes_bound.expect("certified"),
                "keys {lo}..={hi}: {} B charged over the bound {:?}",
                m.bytes_charged,
                m.bytes_bound
            );
        }
    }
}

/// The same for a grouped join, whose domain is the parent's rows: a plan
/// held while the parent grows (and the child starts referencing the new
/// rows) falls back rather than upsert past the old parent's end.
#[test]
fn a_groupjoin_plan_held_across_a_parent_reload_falls_back() {
    let child = |parents: u32| {
        Table::new("C")
            .with_column(
                "fk",
                ColumnData::U32((0..5_000u32).map(|i| i * 13 % parents).collect()),
            )
            .with_column("v", ColumnData::I32((0..5_000).map(|i| i % 17).collect()))
    };
    let parent = |rows: i32| Table::new("P").with_column("y", ColumnData::I32((0..rows).collect()));
    let plan = QueryBuilder::scan("C")
        .semijoin(
            QueryBuilder::scan("P").filter(Expr::col("y").cmp(CmpOp::Ge, Expr::lit(8))),
            "fk",
        )
        .aggregate(Some("fk"), vec![AggSpec::sum(Expr::col("v"), "s")]);
    for strategy in [
        GroupJoinStrategy::GroupJoin,
        GroupJoinStrategy::EagerAggregation,
    ] {
        let engine = Engine::builder({
            let mut db = Database::new();
            db.add_table(child(64));
            db.add_table(parent(64));
            db.add_fk("C", "fk", "P").expect("valid FK");
            db
        })
        .threads(2)
        .tile_rows(1024)
        .strategies(StrategyOverrides::pin_groupjoin(strategy))
        .build();
        assert!(
            group_table_line(&engine, &plan).starts_with("group table: dense [0..63]"),
            "{}",
            group_table_line(&engine, &plan)
        );
        let held = engine.plan(&plan).expect("plans");
        engine.load_table(parent(300));
        engine.load_table(child(300));
        engine
            .register_fk("C", "fk", "P")
            .expect("still a valid FK");
        let reference = swole::plan::interp::run(&engine.database(), &plan).expect("interpreter");
        assert_eq!(reference.rows.len(), 292);
        let got = engine.execute(&held).expect("a stale plan still executes");
        assert_eq!(got, reference, "{strategy:?}");
        assert!(
            group_table_line(&engine, &plan).starts_with("group table: dense [0..299]"),
            "a fresh plan sees the new parent"
        );
    }
}

/// Through the cache the same reload is a generation bump: the entry dies,
/// the statement re-plans, and the new plan's domain line shows the new
/// range.
#[test]
fn a_reload_replans_with_the_new_key_domain() {
    let mut db = Database::new();
    db.add_table(keyed(10, 20));
    let engine = Engine::builder(db).build();
    let plan = sum_by_k();
    engine.query(&plan).expect("runs");
    engine.query(&plan).expect("runs");
    assert_eq!(engine.plan_cache_stats().hits, 1);
    engine.load_table(keyed(-5, 40));
    let reference = swole::plan::interp::run(&engine.database(), &plan).expect("interpreter");
    assert_eq!(engine.query(&plan).expect("runs"), reference);
    assert_eq!(reference.rows.len(), 46);
    let stats = engine.plan_cache_stats();
    assert!(stats.invalidations >= 1, "{stats:?}");
    let line = group_table_line(&engine, &plan);
    assert!(line.starts_with("group table: dense [-5..40]"), "{line}");
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

/// After the drift re-plan a statement still has one plan: `EXPLAIN ANALYZE`
/// reports the plan its run executed — strategy, the decision that σ was
/// overridden, and that σ as the estimate the observed one is set against —
/// and plain `EXPLAIN`, which says `cached`, shows that same cached plan.
fn assert_explain_describes_the_replanned_run(engine: &Engine, plan: &LogicalPlan) {
    let ex = engine.explain_analyze(plan).expect("runs");
    let ran = ex.runtime.last().expect("the run is recorded");
    assert!(
        ran.starts_with(&format!("{}: ok", ex.strategy)),
        "EXPLAIN ANALYZE shows `{}` over a run of `{ran}`",
        ex.strategy
    );
    let overridden = ex
        .decisions
        .iter()
        .find(|d| d.contains(" overridden to ") && d.ends_with("(observed after drift)"))
        .unwrap_or_else(|| panic!("no drift override among {:?}", ex.decisions));
    let est = ex
        .analyze
        .as_ref()
        .and_then(|m| m.estimated_selectivity)
        .expect("estimate recorded");
    assert!(
        overridden.contains(&format!(" overridden to {est:.4} ")),
        "analyze estimates σ={est:.4} under `{overridden}`"
    );
    assert_eq!(ex.plan_source.as_deref(), Some("cached"));
    // Up to the analyze block (and the observed cardinalities it fills into
    // the join tree), the two reports are the same text.
    let mut head = ex.clone();
    head.analyze = None;
    for edge in &mut head.join_tree {
        edge.observed_rows = None;
    }
    let plain = engine.explain(plan).expect("plans");
    assert_eq!(plain.to_string(), head.to_string());
    // EXPLAIN VERIFY checks and shows that same plan, not a fresh one.
    let verified = engine.explain_verify(plan).expect("verifies");
    assert_eq!(verified.strategy, plain.strategy);
    assert_eq!(verified.plan_source.as_deref(), Some("cached"));
}

/// A table whose filter fools the sampler, and a scalar sum over it.
fn scalar_drift() -> (Database, LogicalPlan) {
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
    (db, sum_where_x_lt(50))
}

/// A fact table semijoined with a build side whose filter fools the
/// sampler, and a sum over the fact rows that survive.
fn semijoin_drift() -> (Database, LogicalPlan) {
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
    let plan = QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("s_x").cmp(CmpOp::Lt, Expr::lit(50))),
            "r_fk",
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("r_a"), "s")]);
    (db, plan)
}

#[test]
fn drift_between_sample_and_reality_triggers_replan() {
    let (db, plan) = scalar_drift();
    let engine = Engine::builder(db).metrics(MetricsLevel::Counters).build();
    assert_drift_replans_once(&engine, &plan);
    assert_explain_describes_the_replanned_run(&engine, &plan);
    assert_eq!(
        engine.explain(&plan).expect("plans").strategy,
        "hybrid",
        "at the observed σ the scan is hybrid, not the sample's value masking"
    );
}

/// The same feedback through a two-table semijoin: the drifted filter is
/// the build side's, observed by the edge's build operator, and the re-plan
/// overrides that edge's σ.
#[test]
fn drifted_semijoin_build_filter_triggers_replan() {
    let (db, plan) = semijoin_drift();
    let engine = Engine::builder(db).metrics(MetricsLevel::Counters).build();
    assert_drift_replans_once(&engine, &plan);
    assert_explain_describes_the_replanned_run(&engine, &plan);
}

/// Between the run that marks an entry stale and the run that re-plans it,
/// every EXPLAIN shows the plan that next run executes: the re-plan with
/// the observed selectivity, not the sampler's estimate — and without
/// counting a lookup or dropping the stale entry.
#[test]
fn explain_between_a_drift_mark_and_the_replan_shows_the_next_run() {
    for (db, plan) in [scalar_drift(), semijoin_drift()] {
        let engine = Engine::builder(db).metrics(MetricsLevel::Counters).build();
        engine.query(&plan).expect("runs and marks the entry stale");
        let stats = engine.plan_cache_stats();
        let next = engine.explain(&plan).expect("plans");
        assert_eq!(next.plan_source.as_deref(), Some("fresh"));
        for other in [
            engine.explain_verify(&plan).expect("verifies"),
            engine.explain_code(&plan).expect("renders"),
        ] {
            assert_eq!(other.strategy, next.strategy);
            assert_eq!(other.decisions, next.decisions);
        }
        assert_eq!(engine.plan_cache_stats(), stats, "EXPLAIN counts nothing");
        let ran = engine.explain_analyze(&plan).expect("runs");
        assert_eq!(
            next.strategy, ran.strategy,
            "EXPLAIN showed `{}`, the next run executed `{}`",
            next.strategy, ran.strategy
        );
        assert_eq!(next.decisions, ran.decisions);
        assert!(
            next.decisions
                .iter()
                .any(|d| d.ends_with("(observed after drift)")),
            "EXPLAIN re-plans with the drift hint: {:?}",
            next.decisions
        );
        assert_eq!(engine.plan_cache_stats().invalidations, 1);
    }
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

/// The builder cannot spell a chain, but the enum can: a literal
/// `Filter { Filter { Scan } }` is not in the normal form the key assumes,
/// so it pays with a cache entry of its own — and with nothing else. It
/// plans, under an aggregation and under a window alike, and answers what
/// the interpreter and the merged spelling answer.
#[test]
fn a_hand_built_filter_chain_answers_the_same_under_its_own_key() {
    let (inner, outer) = (
        Expr::col("r_x").cmp(CmpOp::Lt, Expr::lit(40)),
        Expr::col("r_a").cmp(CmpOp::Ge, Expr::lit(5)),
    );
    let chain = || LogicalPlan::Filter {
        input: Box::new(LogicalPlan::Filter {
            input: Box::new(QueryBuilder::scan("R").build()),
            predicate: inner.clone(),
        }),
        predicate: outer.clone(),
    };
    let merged = || {
        QueryBuilder::scan("R")
            .filter(inner.clone())
            .filter(outer.clone())
    };
    let aggs = || vec![AggSpec::sum(Expr::col("r_a"), "s"), AggSpec::count("n")];
    let window = |input: LogicalPlan| LogicalPlan::Window {
        input: Box::new(input),
        partition_by: None,
        order_by: vec![SortKey::asc("r_x"), SortKey::asc("r_a")],
        frame: FrameSpec::UnboundedPreceding,
        funcs: vec![WindowFnSpec::sum(Expr::col("r_a"), "running")],
        select: vec!["r_x".into(), "r_a".into()],
    };
    for (raw, built) in [
        (
            LogicalPlan::Aggregate {
                input: Box::new(chain()),
                group_by: None,
                aggs: aggs(),
            },
            merged().aggregate(None, aggs()),
        ),
        (window(chain()), window(merged().build())),
    ] {
        let engine = Engine::builder(simple_db()).build();
        let reference = swole::plan::interp::run(&engine.database(), &raw).expect("interpreter");
        assert_eq!(engine.query(&raw).expect("the chain plans"), reference);
        assert_eq!(engine.query(&built).expect("runs"), reference);
        let stats = engine.plan_cache_stats();
        assert_eq!(
            (stats.misses, stats.hits, stats.entries),
            (2, 0, 2),
            "the chain is its own entry: {stats:?}"
        );
    }
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

/// An ad-hoc text is looked up once per statement; the explicit prepare
/// door plans a placeholder-free template at once, so it and its first
/// `execute` are a lookup each.
#[test]
fn an_ad_hoc_text_is_one_lookup_and_an_explicit_prepare_plans_at_once() {
    let engine = Engine::builder(simple_db()).build();
    let session = engine.session();
    let lookups = || {
        let stats = engine.plan_cache_stats();
        stats.hits + stats.misses
    };
    let sql = "select sum(r_a) as s from R where r_x < 30";
    let cold = session.query_sql(sql, &Params::new()).expect("runs");
    let before = lookups();
    let warm = session.query_sql(sql, &Params::new()).expect("runs");
    assert_eq!(cold, warm);
    assert_eq!(lookups(), before + 1, "a warm ad-hoc text is one lookup");

    let stmt = session.prepare_sql(sql).expect("prepares");
    assert_eq!(stmt.param_count(), 0);
    assert_eq!(lookups(), before + 2, "prepare of a zero-param text plans");
    assert_eq!(stmt.execute().expect("runs"), warm);
    assert_eq!(lookups(), before + 3, "and its execute is one lookup more");
    assert_eq!(
        engine.plan_cache_stats().misses,
        1,
        "all of it on one entry"
    );
}

/// The engine keeps one run report, so `EXPLAIN` shows it only for the
/// statement it is about: interleaved EXPLAINs of two statements each print
/// their own `last run`, or none once the other statement has run since.
#[test]
fn last_run_is_reported_for_the_statement_that_ran_only() {
    let engine = Engine::builder(simple_db()).build();
    let scalar = sum_where_x_lt(30);
    let grouped = QueryBuilder::scan("R").aggregate(
        Some("r_a"),
        vec![AggSpec::sum(Expr::col("r_x"), "s"), AggSpec::count("n")],
    );
    let last_run = |plan: &LogicalPlan| engine.explain(plan).expect("explains").runtime;
    assert!(last_run(&scalar).is_empty(), "nothing ran yet");

    engine.query(&scalar).expect("runs");
    let own = last_run(&scalar);
    assert!(own.last().is_some_and(|l| l.contains(": ok (")), "{own:?}");
    assert!(
        last_run(&grouped).is_empty(),
        "the scalar statement's run is not the grouped statement's"
    );
    assert_eq!(last_run(&scalar), own, "explaining another changes nothing");

    engine.query(&grouped).expect("runs");
    let grouped_run = last_run(&grouped);
    let strategy = engine.explain(&grouped).expect("explains").strategy;
    assert!(
        grouped_run
            .last()
            .is_some_and(|l| l.starts_with(&format!("{strategy}: ok"))),
        "{grouped_run:?} under {strategy}"
    );
    assert!(
        last_run(&scalar).is_empty(),
        "superseded by the grouped run"
    );
    // EXPLAIN ANALYZE runs the statement, so it always has its own report,
    // and EXPLAIN VERIFY renders the same one.
    let analyzed = engine.explain_analyze(&scalar).expect("runs");
    assert_eq!(analyzed.runtime, own);
    assert_eq!(engine.explain_verify(&scalar).expect("ok").runtime, own);
    assert!(engine
        .explain_verify(&grouped)
        .expect("ok")
        .runtime
        .is_empty());
}

/// `W(a, b, x)`: 10 000 rows, `a` and `b` in `1..=50` times `scale`.
fn scaled(scale: i32) -> Table {
    let n = 10_000usize;
    let col = |f: fn(usize) -> i32| ColumnData::I32((0..n).map(|i| f(i) * scale).collect());
    Table::new("W")
        .with_column("a", col(|i| (i % 50) as i32 + 1))
        .with_column("b", col(|i| (i * 7 % 50) as i32 + 1))
        .with_column(
            "x",
            ColumnData::I8((0..n).map(|i| (i * 13 % 100) as i8).collect()),
        )
}

/// A cached statement whose sums the certificate proved into `i32` tiles,
/// after a reload whose products overflow an `i32` tile (5 000² · 1 024):
/// the next run re-certifies, runs `i64` lanes and answers as the
/// interpreter does — through `query_sql` and through `prepare_sql` +
/// execute, on the worker pool.
#[test]
fn a_reload_past_the_i32_tile_proof_recertifies() {
    let sql = "select sum(a * b) as s, sum(x * a) as m, count(*) as n from W where x < 60";
    let plan = swole::plan::parse_sql(sql).expect("parses").plan;
    let mut db = Database::new();
    db.add_table(scaled(1));
    let engine = Engine::builder(db)
        .strategies(StrategyOverrides::pin_agg(AggStrategy::ValueMasking))
        .threads(2)
        .build();
    let prepared = engine.prepare_sql(sql).expect("prepares");
    for (scale, proof) in [(1, OverflowProof::I32Tile), (100, OverflowProof::I64)] {
        if scale != 1 {
            engine.load_table(scaled(scale));
        }
        let want = swole::plan::interp::run(&engine.database(), &plan).expect("interpreter");
        let cert = engine.certificate(&plan).expect("certifies");
        assert_eq!(cert.overflow_proof, proof, "scale {scale}");
        let got = engine
            .session()
            .query_sql(sql, &Params::new())
            .expect("runs");
        assert_eq!(got.rows, want.rows, "query_sql, scale {scale}");
        let got = prepared.bind(&Params::new()).and_then(|b| b.execute());
        assert_eq!(
            got.expect("runs").rows,
            want.rows,
            "prepared, scale {scale}"
        );
    }
}

/// `G(v, x, g)`, every `v` times `scale`: a table stores `v` at the
/// narrowest width that holds it, `i8` at 1, `i16` at 100, `i32` at 100 000.
fn widening(scale: i32) -> Table {
    let n = 6_000usize;
    Table::new("G")
        .with_column(
            "v",
            ColumnData::I32((0..n).map(|i| scale * (i % 50) as i32).collect()),
        )
        .with_column(
            "x",
            ColumnData::I32((0..n).map(|i| (i * 13 % 100) as i32).collect()),
        )
        .with_column(
            "g",
            ColumnData::I32((0..n).map(|i| (i % 7) as i32).collect()),
        )
}

/// A reload that changes a column's stored width (`i8` → `i16` → `i32`,
/// then back to `i8`) answers as the interpreter: through the plan cache,
/// through a statement prepared before the first reload and through every
/// `PhysicalPlan` held from an earlier width — the one held at `i16` or
/// `i32` compares `v` with a literal the `i8` column cannot hold.
#[test]
fn a_reload_that_changes_a_stored_width_answers_as_the_interpreter() {
    let texts = [
        "select sum(v * x) as s, sum(v) as t, count(*) as n from G where v < 5000 and x < 60",
        "select g, sum(v * x) as s, count(*) as n from G where v < 5000 and x < 60 group by g",
    ];
    for sql in texts {
        let plan = swole::plan::parse_sql(sql).expect("parses").plan;
        let mut db = Database::new();
        db.add_table(widening(1));
        let engine = Engine::builder(db).threads(2).build();
        let prepared = engine.prepare_sql(sql).expect("prepares");
        let mut held = Vec::new();
        for (scale, width) in [
            (1, DataType::I8),
            (100, DataType::I16),
            (100_000, DataType::I32),
            (1, DataType::I8),
        ] {
            engine.load_table(widening(scale));
            let stored = engine.database().table("G").unwrap().column("v").cloned();
            assert_eq!(stored.unwrap().data_type(), width, "scale {scale}");
            let want = swole::plan::interp::run(&engine.database(), &plan).expect("interpreter");
            let at = format!("{sql} at scale {scale}");
            assert_eq!(engine.query(&plan).expect("runs"), want, "cache: {at}");
            let got = prepared.bind(&Params::new()).and_then(|b| b.execute());
            assert_eq!(got.expect("runs").rows, want.rows, "prepared: {at}");
            held.push(engine.plan(&plan).expect("plans"));
            for (i, physical) in held.iter().enumerate() {
                let got = engine.execute(physical).expect("a held plan runs");
                assert_eq!(got, want, "plan held from step {i}: {at}");
            }
        }
    }
}

/// `R(r_a, r_x)` as [`simple_db`] builds it, every `r_a` times `scale`.
fn simple_r(scale: i32) -> Table {
    let n = 10_000usize;
    Table::new("R")
        .with_column(
            "r_a",
            ColumnData::I32((0..n).map(|i| scale * (i % 50) as i32).collect()),
        )
        .with_column(
            "r_x",
            ColumnData::I8((0..n).map(|i| (i * 13 % 100) as i8).collect()),
        )
}

/// A warm text is found by its bytes, but still only while its entry is
/// valid: after a reload it re-plans, and answers from the new rows.
#[test]
fn a_warm_text_replans_after_a_reload_and_reads_the_new_rows() {
    let engine = Engine::builder(simple_db()).build();
    let session = engine.session();
    let sql = "select sum(r_a) as s from R where r_x < 30";
    let run = || session.query_sql(sql, &Params::new()).expect("runs");
    let before = run();
    assert_eq!(run(), before);
    engine.load_table(simple_r(2));
    let after = run();
    assert_eq!(
        after.try_scalar("s").unwrap(),
        2 * before.try_scalar("s").unwrap()
    );
    assert_eq!(run(), after);
    let stats = engine.plan_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.invalidations, stats.entries),
        (2, 2, 1, 1),
        "{stats:?}"
    );
}

/// Texts that bind to one plan share its entry: the second spelling is
/// parsed once, hits, and is then warm by its own bytes.
#[test]
fn texts_that_bind_to_one_plan_share_one_entry() {
    let engine = Engine::builder(simple_db()).build();
    let session = engine.session();
    let texts = [
        "select sum(r_a) as s from R where r_x < 30",
        "select  sum(R.r_a) as s\n  from R where R.r_x < 30",
        "select sum(r_a) as s from R where R.r_x < 30",
    ];
    let first = session.query_sql(texts[0], &Params::new()).expect("runs");
    for sql in texts.iter().cycle().take(9) {
        assert_eq!(session.query_sql(sql, &Params::new()).expect("runs"), first);
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.entries),
        (1, 9, 1),
        "{stats:?}"
    );
}

/// A text that does not parse is never cached: every call parses it again,
/// fails at the same position, and leaves the cache as it found it.
#[test]
fn an_unparseable_text_fails_alike_every_time_and_caches_nothing() {
    let engine = Engine::builder(simple_db()).build();
    let session = engine.session();
    session
        .query_sql("select sum(r_a) as s from R where r_x < 30", &Params::new())
        .expect("runs");
    let stats = engine.plan_cache_stats();
    let bad = "select sum(r_a) as s from R wher r_x < 30";
    let position = |_| match session.query_sql(bad, &Params::new()) {
        Err(PlanError::Sql { position, .. }) => position,
        other => panic!("expected a syntax error, got {other:?}"),
    };
    let positions: Vec<usize> = (0..3).map(position).collect();
    assert_eq!(positions, vec![positions[0]; 3]);
    assert_eq!(engine.plan_cache_stats(), stats);
}

/// `R ⋈ S` over `R.r_fk`, with no FK index registered yet.
fn join_db() -> Database {
    let (n_r, n_s) = (20_000usize, 1_000usize);
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n_r).map(|i| (i % 10) as i32).collect()),
            )
            .with_column(
                "r_x",
                ColumnData::I8((0..n_r).map(|i| (i * 13 % 100) as i8).collect()),
            )
            .with_column(
                "r_fk",
                ColumnData::U32((0..n_r).map(|i| (i * 7 % n_s) as u32).collect()),
            ),
    );
    db.add_table(Table::new("S").with_column(
        "s_x",
        ColumnData::I8((0..n_s).map(|i| (i % 100) as i8).collect()),
    ));
    db
}

/// Registering an FK index changes which build sides the planner may
/// pick, so it invalidates every cached plan with a join edge, and only
/// those: the join re-plans onto a positional byte map, the scan still
/// hits.
#[test]
fn registering_an_fk_replans_cached_joins_only() {
    let engine = Engine::builder(join_db()).build();
    let session = engine.session();
    let join = "select sum(R.r_a) as s from R, S where R.r_fk = S.rowid and S.s_x < 50";
    let scan = "select sum(r_a) as s from R where r_x < 30";
    let plan = swole::plan::parse_sql(join).expect("parses").plan;
    let shape = || {
        let ex = engine.explain(&plan).expect("plans");
        (ex.plan_source.unwrap(), ex.shape)
    };
    let joined = session.query_sql(join, &Params::new()).expect("runs");
    session.query_sql(scan, &Params::new()).expect("runs");
    let (source, hashed) = shape();
    assert_eq!(source, "cached");
    assert!(hashed.contains("S[hash]"), "{hashed}");

    engine.register_fk("R", "r_fk", "S").expect("registers");
    let (source, fresh) = shape();
    assert_eq!(source, "fresh", "the cached hash build is stale");
    assert!(fresh.contains("S[positional-bytes]"), "{fresh}");
    assert_eq!(
        session.query_sql(join, &Params::new()).expect("runs"),
        joined
    );
    session.query_sql(scan, &Params::new()).expect("runs");
    assert_eq!(shape(), ("cached".to_string(), fresh));
    let stats = engine.plan_cache_stats();
    assert_eq!(
        (stats.misses, stats.hits, stats.invalidations),
        (3, 1, 1),
        "{stats:?}"
    );
}
