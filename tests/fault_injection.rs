//! Fault-injection suite: the engine must never abort the process.
//!
//! Every test arms a `swole::plan::faults::FaultPlan` on its own engine —
//! a worker panic at a chosen morsel, an allocation failure at a chosen
//! memory charge, or deadline-clock skew — and asserts that the query
//! either completes (possibly via the recorded data-centric fallback,
//! bit-identical to the interpreter ground truth) or returns a typed
//! [`PlanError`].
//!
//! A plan fires only on the engine it is armed on, once per event, and is
//! disarmed when its guard drops, so these tests run in parallel.

use std::time::Duration;
use swole::plan::faults::FaultPlan;
use swole::plan::interp;
use swole::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Rows per morsel (pinned via `tile_rows`) and total rows: 8 morsels.
const MORSEL: usize = 1024;
const N_ROWS: usize = 8 * MORSEL;

/// Deterministic R(x, a, b, c, fk, w) → S(y) database, sized for 8 morsels.
fn make_db(n_s: usize) -> Database {
    let mut state = 0x0005_001e_5eed_u64;
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
                "b",
                ColumnData::I32((0..N_ROWS).map(|_| next(50) as i32 + 1).collect()),
            )
            .with_column(
                "c",
                ColumnData::I16((0..N_ROWS).map(|_| next(16) as i16).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32((0..N_ROWS).map(|_| next(n_s as u64) as u32).collect()),
            )
            .with_column(
                "w",
                ColumnData::I64(
                    (0..N_ROWS as i64)
                        .map(|i| (i % 4096) * 1_000_003 - 2_000_000_000)
                        .collect(),
                ),
            ),
    );
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..n_s).map(|_| next(100) as i8).collect()),
    ));
    db
}

fn engine(threads: usize) -> Engine {
    Engine::builder(make_db(512))
        .threads(threads)
        .tile_rows(MORSEL)
        .build()
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

/// A group-by over the 4 Ki sparse keys of `w`, which the first four
/// morsels bring in 1 Ki at a time: its hash table grows at more than one
/// morsel boundary, each growth a gauge charge of its own, so even one
/// thread makes at least three.
fn wide_groupby_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(90)))
        .aggregate(
            Some("w"),
            vec![AggSpec::sum(Expr::col("a"), "s"), AggSpec::count("n")],
        )
}

fn scalar_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(30)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")])
}

fn semijoin_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
            "fk",
        )
        .aggregate(
            None,
            vec![AggSpec::sum(Expr::col("a"), "s"), AggSpec::count("n")],
        )
}

#[test]
fn worker_panic_falls_back_bit_identical() {
    for threads in THREADS {
        let e = engine(threads);
        for plan in [groupby_plan(), scalar_plan(), semijoin_plan()] {
            let truth = interp::run(&e.database(), &plan).expect("interp runs");
            let guard = e.inject_faults(FaultPlan::panic_at_morsel(3));
            let got = e.query(&plan).expect("query recovers via fallback");
            drop(guard);
            assert_eq!(got.rows, truth.rows, "threads={threads}");
            let report = e.explain(&plan).expect("explains").runtime;
            assert!(
                report.iter().any(|l| l.contains("injected fault")),
                "primary failure recorded: {report:?}"
            );
            assert!(
                report
                    .iter()
                    .any(|l| l.contains("fell back to data-centric interpreter: ok")),
                "fallback recorded: {report:?}"
            );
        }
    }
}

#[test]
fn panic_at_every_morsel_never_aborts() {
    let e = engine(4);
    let plan = groupby_plan();
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    for morsel in 0..(N_ROWS / MORSEL) {
        let guard = e.inject_faults(FaultPlan::panic_at_morsel(morsel));
        let got = e.query(&plan).expect("query recovers via fallback");
        drop(guard);
        assert_eq!(got.rows, truth.rows, "morsel={morsel}");
    }
}

#[test]
fn alloc_failure_falls_back_bit_identical() {
    for threads in THREADS {
        for nth in [0usize, 1, 2] {
            let e = Engine::builder(make_db(512))
                .threads(threads)
                .tile_rows(MORSEL)
                .metrics(MetricsLevel::Counters)
                .build();
            for plan in [wide_groupby_plan(), semijoin_plan()] {
                let at = format!("threads={threads} nth={nth}");
                let truth = interp::run(&e.database(), &plan).expect("interp runs");
                let guard = e.inject_faults(FaultPlan::alloc_failure_at_charge(nth));
                let got = e.query(&plan).expect("query recovers via fallback");
                drop(guard);
                assert_eq!(got.rows, truth.rows, "{at}");
                // Every case reaches its failing charge, so the rows above
                // are the data-centric retry's.
                let m = got.metrics().expect("counters requested");
                assert_eq!(m.retries, 1, "{at}");
            }
        }
    }
}

/// A failed primary's charges are dropped before the data-centric retry,
/// so the retry runs inside the query's one reservation: under a global
/// budget the pool holds exactly the certified peak while the query runs,
/// the rows stay bit-identical, and the metrics report the larger of the
/// two attempts' peaks — on one thread, where the failure falls on the
/// same charge every run, exactly the larger of what the primary charged
/// before it (read off a direct `execute`, which does not retry) and the
/// retry's reserve.
#[test]
fn the_retry_runs_inside_the_reservation_of_the_failed_attempt() {
    for threads in THREADS {
        for nth in [0usize, 1, 2] {
            for (name, plan) in [
                ("groupby", wide_groupby_plan()),
                ("semijoin", semijoin_plan()),
            ] {
                let e = Engine::builder(make_db(512))
                    .threads(threads)
                    .tile_rows(MORSEL)
                    .global_memory_budget(64 << 20)
                    .metrics(MetricsLevel::Counters)
                    .build();
                let at = format!("{name} threads={threads} nth={nth}");
                let truth = interp::run(&e.database(), &plan).expect("interp runs");
                let cert = e.certificate(&plan).expect("certifies");
                let physical = e.plan(&plan).expect("plans");
                let guard = e.inject_faults(FaultPlan::alloc_failure_at_charge(nth));
                let primary = match e.execute(&physical) {
                    Err(PlanError::BudgetExceeded { used, .. }) => used as u64,
                    other => panic!("{at}: the injected failure, got {other:?}"),
                };
                drop(guard);
                let guard = e.inject_faults(FaultPlan::alloc_failure_at_charge(nth));
                let got = e.query(&plan).expect("query recovers via fallback");
                drop(guard);
                assert_eq!(got.rows, truth.rows, "{at}");
                let m = got.metrics().expect("counters requested");
                assert_eq!(m.bytes_bound, Some(cert.peak_bytes_bound), "{at}");
                let pool = e.global_memory_stats().expect("global pool configured");
                assert_eq!(pool.peak as u64, cert.peak_bytes_bound, "{at}: {pool:?}");
                assert_eq!((pool.used, pool.active), (0, 0), "{at}: {pool:?}");
                assert!(m.bytes_charged <= cert.peak_bytes_bound, "{at}");
                // Both plans make at least three charges at every thread
                // count, so the failure always falls and the query retries.
                assert_eq!(m.retries, 1, "{at}");
                let larger = primary.max(cert.fallback_bytes);
                assert!(m.bytes_charged >= cert.fallback_bytes, "{at}");
                if threads == 1 {
                    assert_eq!(m.bytes_charged, larger, "{at}: primary {primary} B");
                }
            }
        }
    }
}

#[test]
fn clock_skew_expires_deadline_without_retry() {
    let e = Engine::builder(make_db(512))
        .threads(2)
        .tile_rows(MORSEL)
        .deadline(Duration::from_secs(3600))
        .build();
    let plan = groupby_plan();
    let guard = e.inject_faults(FaultPlan::clock_skew(Duration::from_secs(7200)));
    let err = e
        .query(&plan)
        .expect_err("skewed clock expires the deadline");
    drop(guard);
    assert!(
        matches!(err, PlanError::DeadlineExceeded { .. }),
        "got {err:?}"
    );
    // Deadline expiry is not a runtime fault — no fallback attempt.
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        !report.iter().any(|l| l.contains("fell back")),
        "deadline must not trigger fallback: {report:?}"
    );
    // With the skew gone the same session (deadlines are per-query) works.
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    assert_eq!(e.query(&plan).expect("runs clean").rows, truth.rows);
}

#[test]
fn fallback_reports_complete_metrics() {
    // A fallback run must still produce a full EXPLAIN ANALYZE story: one
    // retry, the interpreter's counters *replacing* the failed attempt's
    // (rows are never double-counted), and the same result rows.
    for threads in THREADS {
        let e = Engine::builder(make_db(512))
            .threads(threads)
            .tile_rows(MORSEL)
            .metrics(MetricsLevel::Counters)
            .build();
        // Semijoin scans the 512-row build side too; the others only R.
        let scans = [N_ROWS as u64, N_ROWS as u64, (N_ROWS + 512) as u64];
        for (plan, scanned) in [groupby_plan(), scalar_plan(), semijoin_plan()]
            .into_iter()
            .zip(scans)
        {
            let (truth, truth_op) = interp::run_metered(&e.database(), &plan).expect("interp runs");
            let guard = e.inject_faults(FaultPlan::panic_at_morsel(3));
            let got = e.query(&plan).expect("query recovers via fallback");
            drop(guard);
            assert_eq!(got.rows, truth.rows, "threads={threads}");
            let m = got.metrics().expect("fallback still reports metrics");
            assert_eq!(m.retries, 1, "threads={threads}");
            assert_eq!(
                m.operators.len(),
                1,
                "interpreter counters replace the failed attempt's: {:?}",
                m.operators.iter().map(|o| &o.name).collect::<Vec<_>>()
            );
            let op = &m.operators[0];
            assert_eq!(op.name, "data-centric interpreter");
            // Identical to a direct interpreter run — nothing from the
            // aborted SWOLE attempt leaks into the counters.
            assert_eq!(op.access, truth_op.access, "threads={threads}");
            assert_eq!(
                op.access.rows_in, scanned,
                "each scanned row counted exactly once"
            );
        }
    }
}

#[test]
fn clean_run_reports_zero_retries() {
    let e = Engine::builder(make_db(512))
        .threads(2)
        .tile_rows(MORSEL)
        .metrics(MetricsLevel::Counters)
        .build();
    let m = e
        .query(&groupby_plan())
        .expect("runs")
        .metrics()
        .expect("counters recorded")
        .clone();
    assert_eq!(m.retries, 0);
    assert_eq!(m.total().rows_in, N_ROWS as u64);
    assert_eq!(m.total().morsels, (N_ROWS / MORSEL) as u64);
}

#[test]
fn disarmed_hooks_are_free_of_side_effects() {
    let e = engine(2);
    let plan = scalar_plan();
    let truth = interp::run(&e.database(), &plan).expect("interp runs");
    let got = e.query(&plan).expect("runs");
    assert_eq!(got.rows, truth.rows);
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report
            .iter()
            .any(|l| l.contains(": ok") && l.contains("B charged")),
        "clean run recorded: {report:?}"
    );
}

/// A plan armed on engine A fires on A only: engine B, over the same
/// database and running the same plan meanwhile, takes no fault and no
/// retry.
#[test]
fn faults_stay_on_their_engine() {
    let a = engine(2);
    let b = Engine::builder(make_db(512))
        .threads(2)
        .tile_rows(MORSEL)
        .metrics(MetricsLevel::Counters)
        .build();
    let plan = groupby_plan();
    let guard = a.inject_faults(FaultPlan::panic_at_morsel(0));
    let got = b.query(&plan).expect("B runs");
    let report = b.explain(&plan).expect("explains").runtime;
    assert!(
        !report.iter().any(|l| l.contains("injected fault")),
        "a fault armed on A fired on B: {report:?}"
    );
    assert_eq!(got.metrics().expect("counters recorded").retries, 0);
    a.query(&plan).expect("A recovers via fallback");
    drop(guard);
    let report = a.explain(&plan).expect("explains").runtime;
    assert!(
        report.iter().any(|l| l.contains("injected fault")),
        "primary failure recorded on A: {report:?}"
    );
    assert!(
        report
            .iter()
            .any(|l| l.contains("fell back to data-centric interpreter: ok")),
        "fallback recorded on A: {report:?}"
    );
}
