//! Deadlines, memory budgets, cancellation, and wrapping sums — the
//! hardened-execution acceptance suite.
//!
//! A 0ms deadline or a 1-byte budget must produce the corresponding typed
//! error deterministically at any thread count; cancellation via
//! [`ExecHandle`] must stop queries from another thread and be reversible
//! with [`ExecHandle::reset`]; a sum that leaves `i64` — on lanes a masked
//! strategy drops, or in the result itself — must answer the interpreter's
//! wrapped rows on the engine's first attempt.

use std::time::Duration;
use swole::plan::{interp, Rows};
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

/// The physical door takes the statement's own gate and admission: its
/// plan's certificate, with no fallback reserve since nothing retries a
/// physical plan, is what a budget must fit; a cancelled session's scope
/// stops it; and a shut-down engine refuses it.
#[test]
fn execute_shares_the_statement_gate_and_admission() {
    let e = Engine::builder(make_db())
        .threads(2)
        .tile_rows(MORSEL)
        .build();
    let plan = groupby_plan();
    let physical = e.plan(&plan).expect("plans");
    let cert = e.certificate(&plan).expect("certifies");
    let bound = cert.primary_bytes_bound;
    let budget = |bytes: u64| QueryOptions::new().memory_budget(bytes as usize);
    match e.execute_with(&physical, &budget(bound - 1)) {
        Err(PlanError::Admission(AdmissionError::BudgetInfeasible {
            bound: refused,
            budget,
        })) => assert_eq!((refused, budget), (bound, bound - 1)),
        other => panic!("expected BudgetInfeasible at {bound} B, got {other:?}"),
    }
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    let ran = e.execute_with(&physical, &budget(bound));
    assert_eq!(ran.expect("the bound fits").rows, truth.rows);

    let session = e.session();
    session.handle().cancel();
    match session.execute(&physical) {
        Err(PlanError::Cancelled { .. }) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    e.shutdown(None);
    match e.execute(&physical) {
        Err(PlanError::Admission(AdmissionError::Shutdown)) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
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

/// What a wrapping sum must leave alone: the statement answers
/// `interp::run`'s wrapped rows, on its first attempt (no retry), and a
/// direct [`Engine::execute`] of its plan — which never retries — answers
/// the same. Returns those rows.
fn wraps_like_the_interpreter(e: &Engine, plan: &LogicalPlan, label: &str) -> Rows {
    let truth = interp::run(&e.database(), plan).expect("interp runs").rows;
    let opts = QueryOptions::new().metrics(MetricsLevel::Counters);
    let got = e.query_with(plan, &opts).expect("runs");
    assert_eq!(got.rows, truth, "{label}");
    assert_eq!(got.metrics().expect("metered").retries, 0, "{label}");
    let direct = e.execute(&e.plan(plan).expect("plans")).expect("executes");
    assert_eq!(direct.rows, truth, "{label}");
    truth
}

/// Key masking aggregates *every* tuple — filtered rows land on the
/// throwaway entry with unmasked values. Huge values on filtered rows wrap
/// the throwaway accumulator (wasted work), which is never emitted: the
/// qualifying group's sum is exact on the first attempt.
#[test]
fn key_masking_wraps_only_the_throwaway_entry() {
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
    let rows = wraps_like_the_interpreter(&e, &plan, "key masking");
    assert_eq!(rows, vec![vec![0, 5]]);
}

#[test]
fn genuine_overflow_wraps_identically_to_interpreter() {
    // When the *true* sum wraps, the engine's wrapping adds return the
    // interpreter's wrapped value — bit-identical, never a process abort
    // (which is what debug builds would do with unchecked `+`).
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
    let rows = wraps_like_the_interpreter(&e, &plan, "scalar");
    assert_eq!(rows, vec![vec![huge.wrapping_add(huge).wrapping_add(2)]]);
}

/// A compiled `sum` / `count` list over values near `i64::MAX / rows`, under
/// each grouped strategy: a wrap — spurious, on key masking's throwaway
/// entry, or genuine, in a group's own sum — answers the interpreter's
/// wrapped rows on the first attempt, as the same list over small values
/// does.
#[test]
fn wide_list_accumulators_wrap_like_the_interpreter() {
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
        let label = format!("{strategy:?}");
        // Huge values on the filtered rows only: the qualifying sums are
        // small. Only key masking adds them (to the throwaway entry), so
        // only it wraps.
        let e = engine(vec![5, h, h, h, h, 7]);
        let sink = e.explain(&filtered).expect("plans").strategy;
        assert!(sink.ends_with("<2>"), "a compiled list: {sink}");
        let rows = wraps_like_the_interpreter(&e, &filtered, &label);
        assert_eq!(rows, vec![vec![0, 5, 1], vec![1, 7, 1]], "{label}");

        // Genuine: group 0's own sum (5 + h + h) leaves `i64` under every
        // strategy.
        let rows = wraps_like_the_interpreter(&e, &every_row, &label);
        assert_eq!(rows[0][1], h.wrapping_mul(2).wrapping_add(5), "{label}");

        // Small values: nothing wraps.
        let e = engine(vec![5, 9, 9, 9, 9, 7]);
        let rows = wraps_like_the_interpreter(&e, &filtered, &label);
        assert_eq!(rows, vec![vec![0, 5, 1], vec![1, 7, 1]], "{label}");
    }
}

/// A masked probe of a sum and a count over values near `i64::MAX / 2`,
/// in the one-pass loop: a product that wraps only on lanes the predicate
/// or the parent's bit masks out is wasted work that adds `v · 0`, and a
/// qualifying sum that leaves `i64` wraps as the interpreter's does —
/// either way on the first attempt, whether the mask or the parent's byte
/// (a byte map: `S` has two rows) dropped the lane.
#[test]
fn wide_probe_sum_count_wraps_like_the_interpreter() {
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
                sink.ends_with("masked probe, sink: fold_masked_bytes<2>)"),
                "{sink}"
            );
            e
        };
        let label = format!("x{threads}");

        // Spurious: `h * 2` wraps on the three masked-out rows only.
        let e = engine(vec![5, h, h, 7, h, 9], vec![1, 2, 2, 1, 2, 1]);
        let rows = wraps_like_the_interpreter(&e, &plan, &label);
        assert_eq!(rows, vec![vec![21, 3]], "{label}");

        // Genuine: the qualifying sum `h + h + 2` leaves `i64`.
        let e = engine(vec![h, 1, 1, h, 1, 2], vec![1; 6]);
        let rows = wraps_like_the_interpreter(&e, &plan, &label);
        assert_eq!(rows, vec![vec![h.wrapping_mul(2).wrapping_add(2), 3]]);
    }
}
