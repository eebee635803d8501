//! Soundness harness for the abstract-interpretation bounds pass: every
//! plan the engine admits carries a [`PlanCertificate`], and the observed
//! [`MemGauge`](swole::plan::MemGauge) peak must never exceed the
//! certificate's statically proven bound — the query's reservation — at
//! any thread count, on the worker pool, on every conformance-corpus query.
//!
//! Also pins the admission-time payoff (an infeasible plan is rejected
//! with `BudgetInfeasible` before any worker starts), the stale-statistics
//! edge (a table reload recomputes the cached certificate), and the
//! value-range analysis (`i32` tile proofs hold where statistics bound the
//! data, and are correctly withheld where they do not — where a sum wraps
//! as the interpreter's does, with no retry).

use swole::plan::parse_sql;
use swole::prelude::*;
use swole_conform::{corpus_files, fixture_db, parse_script, RecordKind};
use swole_storage::ColumnData;
use swole_tpch::catalog::to_database;

/// Documented tightness factor for the TPC-H renditions: the certificate's
/// peak bound — the larger of the primary bound (scratch + hash tables +
/// artifacts) and the fallback reserve, and what admission reserves — may
/// exceed the observed peak by at most this factor. The slack comes from
/// worst-case hash-table growth (the bound assumes every possible key
/// materializes) and from per-worker scratch that a short scan never fully
/// touches.
const TPCH_TIGHTNESS_FACTOR: u64 = 4;

fn corpus_sql() -> Vec<String> {
    let mut out = Vec::new();
    for file in corpus_files() {
        let text = std::fs::read_to_string(&file).expect("corpus file readable");
        let records = parse_script(&text).expect("corpus file parses");
        for rec in records {
            match rec.kind {
                RecordKind::Query { sql, .. } | RecordKind::Statement { sql, .. } => out.push(sql),
                RecordKind::Control { .. } => {}
            }
        }
    }
    assert!(out.len() >= 100, "corpus shrank to {} queries", out.len());
    out
}

/// Run every conformance-corpus query on one engine and check the
/// soundness invariant `bytes_charged <= bytes_bound`. Returns how many
/// queries were actually checked (erroring queries — budget rejections,
/// statement-error records — are skipped).
fn check_corpus(engine: &Engine, config: &str) -> usize {
    let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
    let mut checked = 0;
    for sql in corpus_sql() {
        let Ok(parsed) = parse_sql(&sql) else {
            continue;
        };
        let Ok(res) = engine.query_with(&parsed.plan, &opts) else {
            continue;
        };
        let m = res.metrics().cloned().expect("counters requested");
        let bound = m
            .bytes_bound
            .unwrap_or_else(|| panic!("{config}: no certificate for {sql:?}"));
        assert!(
            m.bytes_charged <= bound,
            "{config}: observed peak {} B exceeds certified bound {bound} B for {sql:?}",
            m.bytes_charged
        );
        checked += 1;
    }
    checked
}

/// At 1, 2 and 8 threads. The certificate counts every accumulator a stage
/// can hold at once: one inline, and on the pool one per worker plus the
/// querying thread's.
#[test]
fn corpus_peaks_never_exceed_bounds_at_1_2_8_threads() {
    let plan = parse_sql("select r_c, sum(r_a * r_b) as s from R group by r_c")
        .expect("parses")
        .plan;
    for threads in [1usize, 2, 8] {
        let engine = Engine::builder(fixture_db()).threads(threads).build();
        let partials = if threads == 1 { 1 } else { threads + 1 };
        let cert = engine.certificate(&plan).expect("certifies");
        assert_eq!(cert.workers, partials as u64, "threads={threads}");
        let checked = check_corpus(&engine, &format!("threads={threads}"));
        assert!(checked >= 100, "threads={threads}: only {checked} checked");
    }
}

#[test]
fn corpus_peaks_never_exceed_bounds_worker_pool() {
    let engine = Engine::builder(fixture_db()).threads(4).build();
    let checked = check_corpus(&engine, "threads=4");
    assert!(checked >= 100, "threads=4: only {checked} checked");
}

/// TPC-H renditions: bounds are sound *and* within the documented
/// tightness factor of the observed peak.
#[test]
fn tpch_bounds_sound_and_tight() {
    let db = to_database(&swole_tpch::generate(0.004, 99));
    let engine = Engine::builder(db).threads(2).build();
    let q1 = swole_tpch::q1_ship_cutoff().days();
    let (q6_lo, q6_hi) = (
        swole_tpch::q6_date_lo().days(),
        swole_tpch::q6_date_hi().days(),
    );
    let queries = [
        format!(
            "select sum(l_extendedprice * l_discount) as revenue from lineitem \
             where l_shipdate >= {q6_lo} and l_shipdate < {q6_hi} \
               and l_discount between 5 and 7 and l_quantity < 24"
        ),
        format!(
            "select l_returnflag, sum(l_quantity) as sq, count(*) as n \
             from lineitem where l_shipdate <= {q1} group by l_returnflag"
        ),
        "select sum(lineitem.l_extendedprice) as revenue, count(*) as n \
         from lineitem, orders \
         where lineitem.l_orderkey = orders.rowid \
           and lineitem.l_shipdate > 9000 and orders.o_orderdate < 9000"
            .to_string(),
        "select orders.o_custkey, count(*) as n \
         from orders, customer \
         where orders.o_custkey = customer.rowid \
           and customer.c_mktsegment in ('BUILDING') \
         group by orders.o_custkey"
            .to_string(),
    ];
    let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
    for sql in &queries {
        let plan = parse_sql(sql).expect("parses").plan;
        let cert = engine.certificate(&plan).expect("certifies");
        assert!(cert.is_bounded(), "unbounded verdict for {sql:?}");
        let m = engine
            .query_with(&plan, &opts)
            .expect("runs")
            .metrics()
            .cloned()
            .expect("counters requested");
        assert_eq!(m.bytes_bound, Some(cert.peak_bytes_bound), "{sql:?}");
        assert!(
            m.bytes_charged <= cert.peak_bytes_bound,
            "observed {} B exceeds bound {} B for {sql:?}",
            m.bytes_charged,
            cert.peak_bytes_bound
        );
        // Tightness: the reservation stays within the documented factor
        // of what really got charged.
        assert!(
            cert.peak_bytes_bound <= m.bytes_charged.max(1) * TPCH_TIGHTNESS_FACTOR,
            "peak bound {} B looser than {TPCH_TIGHTNESS_FACTOR}x observed {} B for {sql:?}",
            cert.peak_bytes_bound,
            m.bytes_charged
        );
    }
}

/// The admission-time payoff: a plan whose certified bound cannot fit the
/// budget is rejected with `BudgetInfeasible` *before* any worker starts —
/// the global pool's peak stays at zero bytes across every attempt.
#[test]
fn infeasible_plan_rejected_before_any_worker_starts() {
    let engine = Engine::builder(fixture_db())
        .threads(4)
        .global_memory_budget(2048)
        .build();
    let plan = parse_sql("select r_c, sum(r_a * r_b) as s from R group by r_c")
        .expect("parses")
        .plan;
    for attempt in 0..3 {
        match engine.query(&plan) {
            Err(PlanError::Admission(AdmissionError::BudgetInfeasible { bound, budget })) => {
                assert_eq!(budget, 2048, "attempt {attempt}");
                assert!(bound > budget, "attempt {attempt}: bound {bound}");
            }
            other => panic!("attempt {attempt}: expected BudgetInfeasible, got {other:?}"),
        }
        let stats = engine.global_memory_stats().expect("pool configured");
        assert_eq!(
            stats.peak, 0,
            "attempt {attempt}: a worker charged memory before rejection: {stats:?}"
        );
        assert_eq!(stats.used, 0, "attempt {attempt}: {stats:?}");
    }
    assert_eq!(engine.queries_in_flight(), 0);
}

/// Per-query budgets go through the same certificate check — no global
/// pool required.
#[test]
fn per_query_budget_uses_certificate() {
    let engine = Engine::builder(fixture_db()).threads(2).build();
    let plan = parse_sql("select sum(r_a) as s from R")
        .expect("parses")
        .plan;
    let tiny = QueryOptions::new().memory_budget(64);
    match engine.query_with(&plan, &tiny) {
        Err(PlanError::Admission(AdmissionError::BudgetInfeasible { bound, budget })) => {
            assert_eq!(budget, 64);
            assert!(bound > 64);
        }
        other => panic!("expected BudgetInfeasible, got {other:?}"),
    }
    // A budget above the certified bound admits and runs.
    let cert = engine.certificate(&plan).expect("certifies");
    let roomy = QueryOptions::new().memory_budget(cert.peak_bytes_bound as usize + 1);
    engine.query_with(&plan, &roomy).expect("fits and runs");
}

/// Stale-statistics edge: reloading a table bumps its generation, which
/// invalidates the cached plan *and its certificate* together. The next
/// query must re-certify against fresh statistics, not reuse the bound
/// derived from the old table.
#[test]
fn table_reload_recomputes_cached_certificate() {
    let small: Vec<i32> = (0..100).map(|i| i % 4).collect();
    let mut db = Database::new();
    db.add_table(
        Table::new("t")
            .with_column("g", ColumnData::I32(small.clone()))
            .with_column("v", ColumnData::I32(small)),
    );
    let engine = Engine::builder(db).threads(1).build();
    let plan = parse_sql("select g, sum(v) as s from t group by g")
        .expect("parses")
        .plan;
    let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
    let bound_small = engine
        .query_with(&plan, &opts)
        .expect("runs")
        .metrics()
        .and_then(|m| m.bytes_bound)
        .expect("certified");
    // Same cached plan, same certificate on a straight re-run.
    let bound_again = engine
        .query_with(&plan, &opts)
        .expect("runs")
        .metrics()
        .and_then(|m| m.bytes_bound)
        .expect("certified");
    assert_eq!(bound_small, bound_again, "cache hit must reuse the bound");
    // Reload `t` 100x larger with 64x more groups: the generation bump
    // must invalidate the cached certificate along with the plan.
    let big: Vec<i32> = (0..10_000).map(|i| i % 256).collect();
    engine.load_table(
        Table::new("t")
            .with_column("g", ColumnData::I32(big.clone()))
            .with_column("v", ColumnData::I32(big)),
    );
    let bound_big = engine
        .query_with(&plan, &opts)
        .expect("runs")
        .metrics()
        .and_then(|m| m.bytes_bound)
        .expect("certified");
    assert!(
        bound_big > bound_small,
        "certificate not recomputed after reload: {bound_big} <= {bound_small}"
    );
}

/// Value-range analysis: a statistics-bounded column proves its sum into
/// `i32` tiles; near-i64 data correctly withholds the proof (the `big`
/// fixture's sum wraps deterministically), and its sum then wraps on the
/// compiled path exactly as the interpreter's does, with no retry.
#[test]
fn overflow_proofs_follow_the_data() {
    let engine = Engine::builder(fixture_db()).threads(2).build();
    // T.v is small and T has exact statistics: a tile's SUM(v) fits i32.
    let safe = parse_sql("select sum(v) as s from T").expect("parses").plan;
    let cert = engine.certificate(&safe).expect("certifies");
    assert_eq!(
        cert.overflow_proof,
        OverflowProof::I32Tile,
        "{:?}",
        cert.lines
    );
    // big.m sits near i64::MAX/64 — the analysis must NOT claim i32 tiles.
    let wide = parse_sql("select sum(m) as s from big")
        .expect("parses")
        .plan;
    let cert = engine.certificate(&wide).expect("certifies");
    assert_eq!(cert.overflow_proof, OverflowProof::I64, "{:?}", cert.lines);
    // The sum wraps in the engine's wrapping adds as in the interpreter's,
    // on the first attempt and through a direct execute alike.
    let truth = swole::plan::interp::run(&engine.database(), &wide)
        .expect("interp runs")
        .rows;
    assert_eq!(truth, vec![vec![-9_223_372_036_854_773_856]]);
    let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
    let got = engine.query_with(&wide, &opts).expect("wraps");
    assert_eq!(got.rows, truth);
    let m = got.metrics().cloned().expect("counters requested");
    assert_eq!(m.retries, 0, "a wrapping sum needs no retry");
    let direct = engine.execute(&engine.plan(&wide).expect("plans"));
    assert_eq!(direct.expect("executes").rows, truth);
}

/// Without statistics a column is its storage type's range, not ⊤: a
/// product of two `i8` columns is proven into `i32` tiles, while a sum over
/// an `i64` column stays in `i64`.
#[test]
fn without_statistics_a_column_is_its_types_range() {
    let n = 5_000usize;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_x",
                ColumnData::I8((0..n).map(|i| (i % 100) as i8).collect()),
            )
            .with_column(
                "r_y",
                ColumnData::I8((0..n).map(|i| (i % 7) as i8).collect()),
            )
            .with_column("r_w", ColumnData::I64((0..n).map(|i| i as i64).collect())),
    );
    let engine = Engine::builder(db).stats(StatsMode::Off).build();
    let cert = |sql: &str| engine.certificate(&parse_sql(sql).expect("parses").plan);
    let narrow = cert("select sum(r_x * r_y) as s from R").expect("certifies");
    assert_eq!(
        narrow.overflow_proof,
        OverflowProof::I32Tile,
        "{:?}",
        narrow.lines
    );
    let wide = cert("select sum(r_w) as s from R").expect("certifies");
    assert_eq!(wide.overflow_proof, OverflowProof::I64);
}

/// The `i32` tile proof at its boundary, end to end: a table whose largest
/// `|a·b|` is the largest a tile of 1 024 can sum within `i32`
/// (`⌊i32::MAX / 1 024⌋ = 49 · 42 799`) gets it; one whose largest product
/// is one more (`2 048 · 1 024`) does not. Either way every value-masking
/// run, at one and four threads, answers as the interpreter does.
#[test]
fn the_i32_tile_proof_holds_up_to_its_bound() {
    for (a, b, proof) in [
        (49, 42_799, OverflowProof::I32Tile),
        (2_048, 1_024, OverflowProof::I64),
    ] {
        assert_eq!(a * b <= i32::MAX / 1024, proof == OverflowProof::I32Tile);
        let n = 8_192usize;
        // Every lane holds the extreme product, so a whole tile sums it.
        let db = || {
            let mut db = Database::new();
            db.add_table(
                Table::new("E")
                    .with_column("a", ColumnData::I32(vec![a; n]))
                    .with_column(
                        "b",
                        ColumnData::I32((0..n).map(|i| [b, -b][i % 2]).collect()),
                    )
                    .with_column(
                        "x",
                        ColumnData::I8((0..n).map(|i| (i % 100) as i8).collect()),
                    ),
            );
            db
        };
        let plan = parse_sql("select sum(a * b) as s, sum(a * a) as q from E where x < 99")
            .expect("parses")
            .plan;
        let want = swole::plan::interp::run(&db(), &plan).expect("interpreter");
        for threads in [1, 4] {
            let engine = Engine::builder(db())
                .threads(threads)
                .strategies(StrategyOverrides::pin_agg(AggStrategy::ValueMasking))
                .build();
            let cert = engine.certificate(&plan).expect("certifies");
            assert_eq!(cert.overflow_proof, proof, "{a} x {b}: {:?}", cert.lines);
            assert_eq!(
                engine.query(&plan).expect("runs").rows,
                want.rows,
                "{a} x {b}"
            );
        }
    }
}

/// The certificate is derived at every verification level — including
/// `Off` — so admission enforcement does not depend on the session's
/// verify setting (release builds default to `Off`).
#[test]
fn certificates_exist_at_every_verify_level() {
    for level in [VerifyLevel::Off, VerifyLevel::Structural, VerifyLevel::Full] {
        let engine = Engine::builder(fixture_db())
            .threads(1)
            .verify(level)
            .build();
        let plan = parse_sql("select sum(r_a) as s from R where r_x < 50")
            .expect("parses")
            .plan;
        let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
        let m = engine
            .query_with(&plan, &opts)
            .expect("runs")
            .metrics()
            .cloned()
            .expect("counters requested");
        assert!(
            m.bytes_bound.is_some(),
            "verify={level:?}: query ran without a certificate"
        );
    }
}
