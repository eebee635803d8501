//! The chaos soak's workload and matrix, shared by `tests/chaos_soak.rs`
//! (which asserts its contract) and `tests/pool_threads.rs` (which scans
//! for OS threads it leaves behind).

use std::time::Duration;
use swole::plan::faults::FaultPlan;
use swole::plan::interp;
use swole::prelude::*;

/// Seeds per thread count. The fixed CI matrix runs exactly these; the
/// nightly job layers random seeds on top.
pub const SEEDS: u64 = 32;
pub const THREADS: [usize; 3] = [1, 2, 8];

/// Rows per morsel (pinned via `tile_rows`) and total rows: 8 morsels.
pub const MORSEL: usize = 1024;
pub const N_ROWS: usize = 8 * MORSEL;

/// Deterministic R(x, a, b, c, fk) → S(y) database, sized for 8 morsels.
pub fn make_db(n_s: usize) -> Database {
    let mut state = 0x0007_c4a0_5eed_u64;
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
            ),
    );
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..n_s).map(|_| next(100) as i8).collect()),
    ));
    db
}

pub fn groupby_plan() -> LogicalPlan {
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

pub fn scalar_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(30)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")])
}

pub fn semijoin_plan() -> LogicalPlan {
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

/// `true` for the error variants a chaos schedule is allowed to surface:
/// runtime failures of the query's own execution. Planner errors (unknown
/// table, unsupported shape, verification) would mean the fault harness
/// corrupted state it must not touch.
pub fn is_typed_runtime_error(err: &PlanError) -> bool {
    matches!(
        err,
        PlanError::ExecutionFailed(_)
            | PlanError::BudgetExceeded { .. }
            | PlanError::Stalled { .. }
            | PlanError::Shutdown { .. }
            | PlanError::DeadlineExceeded { .. }
            | PlanError::Cancelled { .. }
            | PlanError::Admission(_)
    )
}

/// One engine per thread count of the soak matrix. Admission and a global
/// memory budget are always on so the leak assertions have gauges to read;
/// the stall window is generous enough that only injected clock skew can
/// trip it.
pub fn soak_engine(threads: usize) -> Engine {
    Engine::builder(make_db(512))
        .tile_rows(MORSEL)
        .admission(AdmissionConfig::new(2))
        .global_memory_budget(64 << 20)
        .stall_window(Duration::from_secs(10))
        .threads(threads)
        .build()
}

/// The seeded soak: every seed × every thread count of [`THREADS`], the
/// three plans per cell on a fresh engine with the seed's plan armed,
/// asserting the contract of `tests/chaos_soak.rs` (rows bit-identical to
/// the interpreter or a typed error, no leaked permit, charge or slot, a
/// clean shutdown).
pub fn run_seeded_soak() {
    let plans = [groupby_plan(), scalar_plan(), semijoin_plan()];
    let db = make_db(512);
    let truths: Vec<QueryResult> = plans
        .iter()
        .map(|p| interp::run(&db, p).expect("interpreter ground truth"))
        .collect();
    drop(db);

    // Seeds can also arrive from the environment (the nightly CI job sets
    // CHAOS_SEED to a random value and prints it for replay).
    let extra_seed: Option<u64> = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    let seeds: Vec<u64> = (0..SEEDS).chain(extra_seed).collect();

    for &threads in &THREADS {
        for &seed in &seeds {
            let schedule = FaultPlan::from_seed(seed);
            let tag = format!("seed={seed} threads={threads} events={:?}", schedule.events);
            let e = soak_engine(threads);
            let guard = e.inject_faults(schedule);
            for (plan, truth) in plans.iter().zip(&truths) {
                match e.query(plan) {
                    Ok(got) => assert_eq!(got.rows, truth.rows, "wrong rows under {tag}"),
                    Err(err) => assert!(
                        is_typed_runtime_error(&err),
                        "untyped error {err:?} under {tag}"
                    ),
                }
            }
            drop(guard);

            // Leak audit: every permit, gauge charge, and lifecycle
            // slot must be back by the time the queries returned.
            assert_eq!(e.queries_in_flight(), 0, "lifecycle slot leaked: {tag}");
            assert_eq!(
                e.admission_in_flight(),
                Some((0, 0)),
                "admission permit leaked: {tag}"
            );
            let mem = e.global_memory_stats().expect("global pool configured");
            assert_eq!(
                (mem.used, mem.active),
                (0, 0),
                "memory charge leaked: {tag} ({mem:?})"
            );

            let report = e.shutdown(Some(Duration::from_secs(10)));
            assert!(
                report.clean && report.aborted == 0,
                "shutdown not clean: {report:?} under {tag}"
            );
            assert_eq!(e.live_pool_workers(), 0, "pool thread survived: {tag}");
        }
    }
}
