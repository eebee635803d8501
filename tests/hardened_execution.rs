//! Deadlines, memory budgets, cancellation, and overflow degradation —
//! the hardened-execution acceptance suite.
//!
//! A 0ms deadline or a 1-byte budget must produce the corresponding typed
//! error deterministically at any thread count; cancellation via
//! [`ExecHandle`] must stop queries from another thread and be reversible
//! with [`ExecHandle::reset`]; detected `i64` overflow under a masked
//! strategy must degrade to the data-centric interpreter with the fallback
//! recorded in EXPLAIN.

use std::time::Duration;
use swole::plan::interp;
use swole::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];
const MORSEL: usize = 1024;
const N_ROWS: usize = 4 * MORSEL;

fn make_db() -> Database {
    let mut state = 0xdead_11eeu64;
    let mut next = move |m: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "x",
                ColumnData::I8((0..N_ROWS).map(|_| next(100) as i8).collect()),
            )
            .with_column(
                "a",
                ColumnData::I32((0..N_ROWS).map(|_| next(50) as i32 + 1).collect()),
            )
            .with_column(
                "c",
                ColumnData::I16((0..N_ROWS).map(|_| next(8) as i16).collect()),
            ),
    );
    db
}

fn groupby_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
        .aggregate(Some("c"), vec![AggSpec::sum(Expr::col("a"), "s")])
}

fn scalar_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(30)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")])
}

#[test]
fn zero_deadline_is_deterministic_at_any_thread_count() {
    for threads in THREADS {
        let e = Engine::builder(make_db())
            .threads(threads)
            .tile_rows(MORSEL)
            .deadline(Duration::ZERO)
            .build();
        for plan in [groupby_plan(), scalar_plan()] {
            match e.query(&plan) {
                Err(PlanError::DeadlineExceeded {
                    morsels_done,
                    morsels_total,
                }) => assert!(morsels_done <= morsels_total, "threads={threads}"),
                other => panic!("threads={threads}: expected DeadlineExceeded, got {other:?}"),
            }
            let report = e.explain(&plan).expect("explains").runtime;
            assert!(
                report.iter().any(|l| l.contains("deadline exceeded")),
                "outcome recorded: {report:?}"
            );
        }
    }
}

#[test]
fn one_byte_budget_is_deterministic_at_any_thread_count() {
    // The certificate proves no plan fits one byte, so rejection happens
    // at admission — same typed error at every thread count, and no
    // execution attempt (primary or fallback) ever starts.
    for threads in THREADS {
        let e = Engine::builder(make_db())
            .threads(threads)
            .tile_rows(MORSEL)
            .memory_budget(1)
            .build();
        for plan in [groupby_plan(), scalar_plan()] {
            match e.query(&plan) {
                Err(PlanError::Admission(AdmissionError::BudgetInfeasible { bound, budget })) => {
                    assert_eq!(budget, 1, "threads={threads}");
                    assert!(bound > 1, "threads={threads}: bound {bound}");
                }
                other => panic!("threads={threads}: expected BudgetInfeasible, got {other:?}"),
            }
        }
    }
}

#[test]
fn generous_limits_do_not_interfere() {
    let e = Engine::builder(make_db())
        .threads(2)
        .tile_rows(MORSEL)
        .deadline(Duration::from_secs(3600))
        .memory_budget(1 << 30)
        .build();
    let plan = groupby_plan();
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    assert_eq!(e.query(&plan).expect("runs").rows, truth.rows);
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report
            .iter()
            .any(|l| l.contains(": ok") && l.contains("B charged")),
        "clean run records charged bytes: {report:?}"
    );
}

#[test]
fn cancel_from_another_thread_and_reset() {
    let e = Engine::builder(make_db())
        .threads(2)
        .tile_rows(MORSEL)
        .build();
    let plan = groupby_plan();

    // Cancel from a different thread: the token is Clone + Send.
    let handle = e.handle();
    std::thread::spawn(move || handle.cancel())
        .join()
        .expect("cancel thread");
    assert!(e.handle().is_cancelled());
    match e.query(&plan) {
        Err(PlanError::Cancelled {
            morsels_done,
            morsels_total,
        }) => assert!(morsels_done <= morsels_total),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report.iter().any(|l| l.contains("cancelled")),
        "cancellation recorded: {report:?}"
    );

    // The flag is sticky until reset; afterwards the session works again.
    assert!(matches!(e.query(&plan), Err(PlanError::Cancelled { .. })));
    e.handle().reset();
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    assert_eq!(e.query(&plan).expect("runs after reset").rows, truth.rows);
}

#[test]
fn execute_propagates_plan_errors_without_panicking() {
    // Satellite: `expect("planned table")` is gone — a physical plan
    // executed against an engine whose catalog lacks the table must return
    // a typed error, not panic.
    let e = Engine::builder(make_db()).threads(2).build();
    let physical = e.plan(&groupby_plan()).expect("plans");
    let empty = Engine::builder(Database::new()).build();
    assert!(matches!(
        empty.execute(&physical),
        Err(PlanError::UnknownTable(_))
    ));
}

#[test]
fn key_masking_overflow_degrades_to_data_centric() {
    // Key masking aggregates *every* tuple — filtered rows land on the
    // throwaway entry with unmasked values. Huge values on filtered rows
    // wrap the throwaway accumulator (wasted work), the sticky overflow
    // flag trips, and the engine must re-run data-centric where the true
    // (qualifying-only) sum is exact.
    let huge = i64::MAX / 2;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column("x", ColumnData::I8(vec![0, 99, 99, 99]))
            .with_column("a", ColumnData::I64(vec![5, huge, huge, huge]))
            .with_column("c", ColumnData::I16(vec![0, 0, 0, 0])),
    );
    let e = Engine::builder(db)
        .threads(1)
        .strategies(StrategyOverrides::pin_agg(AggStrategy::KeyMasking))
        .build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(10)))
        .aggregate(Some("c"), vec![AggSpec::sum(Expr::col("a"), "s")]);
    let got = e.query(&plan).expect("recovers via data-centric retry");
    assert_eq!(got.rows, vec![vec![0, 5]]);
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report.iter().any(|l| l.contains("overflow")),
        "overflow recorded: {report:?}"
    );
    assert!(
        report
            .iter()
            .any(|l| l.contains("fell back to data-centric interpreter: ok")),
        "fallback recorded: {report:?}"
    );
}

#[test]
fn genuine_overflow_wraps_identically_to_interpreter() {
    // When the *true* sum wraps, the masked strategy detects it, retries
    // data-centric, and the interpreter's wrapping accumulation returns the
    // same wrapped value — bit-identical, never a process abort (which is
    // what debug builds would do with unchecked `+`).
    let huge = i64::MAX / 2 + 1;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column("x", ColumnData::I8(vec![0, 0, 0]))
            .with_column("a", ColumnData::I64(vec![huge, huge, 2])),
    );
    let e = Engine::builder(db).threads(1).build();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(10)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    let got = e.query(&plan).expect("recovers via data-centric retry");
    assert_eq!(got.rows, truth.rows);
    assert_eq!(
        got.try_scalar("s").unwrap(),
        huge.wrapping_add(huge).wrapping_add(2)
    );
}

/// A compiled `sum` / `count` list whose accumulators the certificate
/// cannot prove (values near `i64::MAX / rows`) runs the checked adds: a
/// wrap — spurious, on key masking's throwaway entry, or genuine — surfaces
/// as `PlanError::Overflow` and the statement answers through the
/// interpreter; the same list over small values is proven and runs once.
#[test]
fn unproven_list_accumulators_still_detect_overflow_and_fall_back() {
    let h = i64::MAX / 2 + 1;
    let db = |a: Vec<i64>| {
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("x", ColumnData::I8(vec![0, 99, 99, 99, 99, 0]))
                .with_column("a", ColumnData::I64(a))
                .with_column("c", ColumnData::I16(vec![0, 1, 0, 1, 0, 1])),
        );
        db
    };
    let list = vec![AggSpec::sum(Expr::col("a"), "s"), AggSpec::count("n")];
    let filtered = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(10)))
        .aggregate(Some("c"), list.clone());
    let every_row = QueryBuilder::scan("R").aggregate(Some("c"), list);
    let fell_back = |e: &Engine, plan: &LogicalPlan| {
        let report = e.explain(plan).expect("explains").runtime;
        let overflowed = report.iter().any(|l| l.contains("overflow"));
        let ok = "fell back to data-centric interpreter: ok";
        assert_eq!(
            overflowed,
            report.iter().any(|l| l.contains(ok)),
            "{report:?}"
        );
        overflowed
    };
    for strategy in [
        AggStrategy::Hybrid,
        AggStrategy::ValueMasking,
        AggStrategy::KeyMasking,
    ] {
        let engine = |a: Vec<i64>| {
            Engine::builder(db(a))
                .threads(1)
                .metrics(MetricsLevel::Counters)
                .strategies(StrategyOverrides::pin_agg(strategy))
                .build()
        };
        // Huge values on the filtered rows only: the qualifying sums are
        // small, but `|a| * rows` is past `i64` — unproven. Only key masking
        // adds them (to the throwaway entry), so only it wraps.
        let e = engine(vec![5, h, h, h, h, 7]);
        let sink = e.explain(&filtered).expect("plans").strategy;
        assert!(sink.ends_with("<2>"), "a compiled list: {sink}");
        assert!(!e
            .certificate(&filtered)
            .expect("certifies")
            .all_sites_overflow_safe());
        let got = e.query(&filtered).expect("answers either way");
        assert_eq!(got.rows, vec![vec![0, 5, 1], vec![1, 7, 1]], "{strategy:?}");
        let spurious = strategy == AggStrategy::KeyMasking;
        assert_eq!(fell_back(&e, &filtered), spurious, "{strategy:?}");
        assert_eq!(got.metrics().expect("metered").retries, spurious as u32);
        let direct = e.execute(&e.plan(&filtered).expect("plans"));
        assert_eq!(
            matches!(direct, Err(PlanError::Overflow(_))),
            spurious,
            "{direct:?}"
        );

        // Genuine: group 0's own sum (5 + h + h) leaves `i64` under every
        // strategy; the interpreter wraps to the same value.
        let truth = interp::run(&e.database(), &every_row).expect("interp runs");
        assert_eq!(truth.rows[0][1], h.wrapping_mul(2).wrapping_add(5));
        assert_eq!(e.query(&every_row).expect("recovers").rows, truth.rows);
        assert!(fell_back(&e, &every_row), "{strategy:?}");
        let direct = e.execute(&e.plan(&every_row).expect("plans"));
        assert!(matches!(direct, Err(PlanError::Overflow(_))), "{direct:?}");

        // Small values: every site proven, the wrapping adds run, no retry.
        let e = engine(vec![5, 9, 9, 9, 9, 7]);
        assert!(e
            .certificate(&filtered)
            .expect("certifies")
            .all_sites_overflow_safe());
        let got = e.query(&filtered).expect("runs");
        assert_eq!(got.rows, vec![vec![0, 5, 1], vec![1, 7, 1]]);
        assert!(!fell_back(&e, &filtered));
        assert_eq!(got.metrics().expect("metered").retries, 0);
    }
}

/// A masked probe of a sum and a count whose accumulator the certificate
/// cannot prove runs the checked one-pass loop. A wrap on qualifying lanes
/// surfaces as `PlanError::Overflow` and the statement answers through the
/// interpreter; a product that wraps only on lanes the predicate or the
/// parent's bit masks out is wasted work, ignored — the contract of
/// `agg::fold`'s checked mode, whether the mask or the bit dropped the
/// lane — and the engine answers on its first attempt.
#[test]
fn unproven_probe_sum_count_detects_overflow_on_qualifying_lanes_only() {
    let h = i64::MAX / 2 + 1;
    // Rows 0, 3 and 5 qualify; row 1 fails the predicate, row 2 the
    // parent's filter, row 4 both.
    let db = |a: Vec<i64>, m: Vec<i64>| {
        let mut db = Database::new();
        db.add_table(
            Table::new("R")
                .with_column("x", ColumnData::I8(vec![0, 99, 0, 0, 99, 0]))
                .with_column("a", ColumnData::I64(a))
                .with_column("m", ColumnData::I64(m))
                .with_column("fk", ColumnData::U32(vec![0, 0, 1, 0, 1, 0])),
        );
        db.add_table(Table::new("S").with_column("y", ColumnData::I8(vec![0, 99])));
        db.add_fk("R", "fk", "S").expect("valid FK");
        db
    };
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(10)))
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(10))),
            "fk",
        )
        .aggregate(
            None,
            vec![
                AggSpec::sum(Expr::col("a").mul(Expr::col("m")), "s"),
                AggSpec::count("n"),
            ],
        );
    let bitmap = SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional);
    for threads in THREADS {
        let engine = |a, m| {
            let e = Engine::builder(db(a, m))
                .threads(threads)
                .metrics(MetricsLevel::Counters)
                .strategies(StrategyOverrides::pin_semijoin(bitmap))
                .build();
            let sink = e.explain(&plan).expect("plans").strategy;
            assert!(
                sink.ends_with("masked probe, sink: fold_masked_bitmap<2>)"),
                "{sink}"
            );
            let cert = e.certificate(&plan).expect("certifies");
            assert!(!cert.all_sites_overflow_safe(), "x{threads}");
            e
        };

        // Spurious: `h * 2` wraps on the three masked-out rows only.
        let e = engine(vec![5, h, h, 7, h, 9], vec![1, 2, 2, 1, 2, 1]);
        let direct = e.execute(&e.plan(&plan).expect("plans"));
        assert_eq!(direct.expect("no overflow").rows, vec![vec![21, 3]]);
        let got = e.query(&plan).expect("runs");
        assert_eq!(got.rows, vec![vec![21, 3]], "x{threads}");
        assert_eq!(got.metrics().expect("metered").retries, 0, "x{threads}");

        // Genuine: the qualifying sum `h + h + 2` leaves `i64`; the
        // interpreter wraps to the same value.
        let e = engine(vec![h, 1, 1, h, 1, 2], vec![1; 6]);
        let direct = e.execute(&e.plan(&plan).expect("plans"));
        assert!(matches!(direct, Err(PlanError::Overflow(_))), "{direct:?}");
        let truth = interp::run(&e.database(), &plan).expect("interp runs");
        assert_eq!(truth.rows, vec![vec![h.wrapping_mul(2).wrapping_add(2), 3]]);
        let got = e.query(&plan).expect("recovers");
        assert_eq!(got.rows, truth.rows, "x{threads}");
        assert_eq!(got.metrics().expect("metered").retries, 1, "x{threads}");
        let report = e.explain(&plan).expect("explains").runtime;
        let ok = "fell back to data-centric interpreter: ok";
        assert!(report.iter().any(|l| l.contains(ok)), "{report:?}");
    }
}
