//! Server lifecycle: graceful drain, deadline abort, watchdog, shedding,
//! and the interpreter-fallback circuit breaker, end to end.
//!
//! These tests exercise [`Engine::shutdown`] and its satellites the way an
//! operator would hit them: clients hammering a shared engine while it
//! drains, a wedged query hard-aborted past the drain deadline, a stalled
//! query cancelled by the progress watchdog, overload shed with a
//! structured retry hint, and a persistently failing plan class
//! short-circuited past its doomed primary strategy.
//!
//! Faults are armed on each test's own engine, so these tests run in
//! parallel. The scan of `/proc` for leftover pool threads lives in
//! `tests/pool_threads.rs`, a binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use swole::plan::faults::{FaultEvent, FaultPlan};
use swole::plan::interp;
use swole::prelude::*;

/// Rows per morsel (pinned via `tile_rows`) and total rows: 8 morsels.
const MORSEL: usize = 1024;
const N_ROWS: usize = 8 * MORSEL;

/// Deterministic R(x, a, b, c, fk) → S(y) database with `n_rows` rows of R.
fn make_db(n_rows: usize, n_s: usize) -> Database {
    let mut state = 0x0007_11fe_5eed_u64;
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
                ColumnData::I8((0..n_rows).map(|_| next(100) as i8).collect()),
            )
            .with_column(
                "a",
                ColumnData::I32((0..n_rows).map(|_| next(50) as i32 + 1).collect()),
            )
            .with_column(
                "b",
                ColumnData::I32((0..n_rows).map(|_| next(50) as i32 + 1).collect()),
            )
            .with_column(
                "c",
                ColumnData::I16((0..n_rows).map(|_| next(16) as i16).collect()),
            )
            .with_column(
                "fk",
                ColumnData::U32((0..n_rows).map(|_| next(n_s as u64) as u32).collect()),
            ),
    );
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..n_s).map(|_| next(100) as i8).collect()),
    ));
    db
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
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn graceful_shutdown_drains_hammering_clients() {
    const CLIENTS: usize = 8;
    let e = Engine::builder(make_db(N_ROWS, 512))
        .threads(4)
        .tile_rows(MORSEL)
        .admission(AdmissionConfig::new(2))
        .global_memory_budget(64 << 20)
        .build();
    // A multi-thread engine owns its pool workers from the moment it is
    // built.
    assert_eq!(e.live_pool_workers(), 4);
    let plan = groupby_plan();
    let truth = interp::run(&e.database(), &plan).expect("interpreter ground truth");

    let start = Arc::new(Barrier::new(CLIENTS + 1));
    let ok_runs = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let e = e.clone();
            let plan = plan.clone();
            let truth_rows = truth.rows.clone();
            let start = start.clone();
            let ok_runs = ok_runs.clone();
            std::thread::spawn(move || {
                start.wait();
                // Hammer until the engine turns us away, then report how
                // the rejection was typed.
                loop {
                    match e.query(&plan) {
                        Ok(got) => {
                            assert_eq!(got.rows, truth_rows, "wrong rows under drain");
                            ok_runs.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(err) => return err,
                    }
                }
            })
        })
        .collect();

    start.wait();
    // Let the herd build up real in-flight state before pulling the plug.
    while ok_runs.load(Ordering::Relaxed) < CLIENTS {
        std::thread::yield_now();
    }
    let report = e.shutdown(Some(Duration::from_secs(30)));
    assert!(
        report.clean && report.aborted == 0,
        "in-flight queries finish well inside the deadline: {report:?}"
    );
    assert!(report.wait <= Duration::from_secs(30));

    for h in handles {
        let err = h.join().expect("client thread");
        assert!(
            matches!(err, PlanError::Admission(AdmissionError::Shutdown)),
            "drain rejection must be typed: {err:?}"
        );
    }
    assert!(ok_runs.load(Ordering::Relaxed) >= CLIENTS);

    // Fully quiesced: no lifecycle slots, no permits, no charges, no
    // threads — and later shutdowns are no-ops.
    assert_eq!(e.queries_in_flight(), 0);
    assert_eq!(e.admission_in_flight(), Some((0, 0)));
    let mem = e.global_memory_stats().expect("global pool configured");
    assert_eq!((mem.used, mem.active), (0, 0), "{mem:?}");
    assert_eq!(e.live_pool_workers(), 0);
    let again = e.shutdown(Some(Duration::from_secs(1)));
    assert!(again.clean && again.drained == 0 && again.aborted == 0);

    // A clone shares the stopped state: the front door stays shut.
    let err = e.clone().query(&plan).expect_err("stopped engine rejects");
    assert!(matches!(
        err,
        PlanError::Admission(AdmissionError::Shutdown)
    ));
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads")]
fn shutdown_deadline_hard_aborts_inflight_query() {
    // The worker that claims morsel 1 of the 8 is held until its query is
    // aborted, so the zero-length drain deadline always finds the query
    // mid-flight: whether it is aborted or drained is chosen, not raced.
    let e = Engine::builder(make_db(N_ROWS, 512))
        .threads(1)
        .tile_rows(MORSEL)
        .global_memory_budget(64 << 20)
        .build();
    let _hold = e.inject_faults(FaultPlan {
        seed: 0,
        events: vec![FaultEvent::Hold { morsel: 1 }],
    });
    let worker = {
        let e = e.clone();
        std::thread::spawn(move || e.query(&groupby_plan()))
    };
    // Wait for admission: the statement's reservation shows on the pool
    // once its ExecCtx is attached. The stage registers its morsels only
    // after that, and an abort in between finds no morsel (0/0); the hold
    // parks the statement at morsel 1 for up to 10 s, so a pause here only
    // lets it get there and cannot let it finish.
    let charged = || {
        e.global_memory_stats()
            .expect("global pool configured")
            .used
    };
    while charged() == 0 && !worker.is_finished() {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(200));
    let report = e.shutdown(Some(Duration::ZERO));
    let result = worker.join().expect("client thread");
    assert_eq!(e.queries_in_flight(), 0);
    let mem = e.global_memory_stats().expect("global pool configured");
    assert_eq!(
        (mem.used, mem.active),
        (0, 0),
        "abort leaked memory charges: {mem:?}"
    );
    assert_eq!(report.aborted, 1, "{report:?}");
    assert!(!report.clean, "an abort is never a clean shutdown");
    assert_eq!(report.drained, 0);
    match result {
        Err(PlanError::Shutdown {
            morsels_done,
            morsels_total,
        }) => {
            assert!(
                morsels_done < morsels_total,
                "abort must interrupt, not trail, the query \
                 ({morsels_done}/{morsels_total})"
            );
        }
        other => panic!("aborted query must surface PlanError::Shutdown: {other:?}"),
    }
}

/// A one-morsel statement on the pool runs on its client's thread and never
/// enters the pool's stage registry, so a deadline shutdown has to reach it
/// through the `ExecCtx` the lifecycle registry holds. Clients hammering
/// such statements across a zero-deadline shutdown see exact rows or the
/// typed shutdown error, nothing else, and the engine quiesces.
#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn deadline_shutdown_reaches_inline_one_morsel_statements() {
    const CLIENTS: usize = 4;
    // The default morsel (64 tiles) holds all of R.
    let e = Engine::builder(make_db(N_ROWS, 512))
        .threads(2)
        .global_memory_budget(64 << 20)
        .build();
    assert!(N_ROWS <= e.morsel_rows());
    let scalar = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(60)))
        .aggregate(
            None,
            vec![AggSpec::sum(Expr::col("a").mul(Expr::col("b")), "s")],
        );
    let plans = [scalar, groupby_plan()];
    let truth: Vec<_> = plans
        .iter()
        .map(|p| interp::run(&e.database(), p).expect("interpreter ground truth"))
        .collect();

    let start = Barrier::new(CLIENTS + 1);
    let ok_runs = AtomicUsize::new(0);
    let report = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (e, plans, truth, start, ok_runs) = (&e, &plans, &truth, &start, &ok_runs);
                s.spawn(move || {
                    start.wait();
                    for i in (0..plans.len()).cycle().skip(c) {
                        match e.query(&plans[i]) {
                            Ok(got) => {
                                assert_eq!(got, truth[i], "wrong rows across shutdown");
                                ok_runs.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(err) => return err,
                        }
                    }
                    unreachable!("the cycle is endless")
                })
            })
            .collect();
        start.wait();
        while ok_runs.load(Ordering::Relaxed) < CLIENTS {
            std::thread::yield_now();
        }
        let report = e.shutdown(Some(Duration::ZERO));
        for client in clients {
            let err = client.join().expect("client thread");
            assert!(
                matches!(
                    err,
                    PlanError::Shutdown { .. } | PlanError::Admission(AdmissionError::Shutdown)
                ),
                "a statement cut short by shutdown must say so: {err:?}"
            );
        }
        report
    });
    assert_eq!(report.clean, report.aborted == 0, "{report:?}");
    assert_eq!(e.queries_in_flight(), 0);
    let mem = e.global_memory_stats().expect("global pool configured");
    assert_eq!((mem.used, mem.active), (0, 0), "{mem:?}");
    assert_eq!(e.live_pool_workers(), 0);
}

#[test]
#[cfg_attr(miri, ignore = "relies on wall-clock progress timing")]
fn watchdog_cancels_stalled_query_with_typed_error() {
    for threads in [1, 2] {
        let e = Engine::builder(make_db(N_ROWS, 512))
            .threads(threads)
            .tile_rows(MORSEL)
            .stall_window(Duration::from_secs(30))
            .build();
        let plan = groupby_plan();
        let truth = interp::run(&e.database(), &plan).expect("interpreter ground truth");

        // Morsel-progress heartbeats are recorded *before* the armed plan
        // counts the morsel, and the worker that completes the third morsel
        // judges the clock-skew jump it triggers against that heartbeat: a
        // 10-minute gap against a 30-second window stalls the query, however
        // many other workers complete a morsel on the skewed clock first.
        let guard = e.inject_faults(FaultPlan {
            seed: 0,
            events: vec![FaultEvent::ClockSkew {
                after_morsels: Some(2),
                ms: 600_000,
            }],
        });
        let err = e.query(&plan).expect_err("skewed clock trips the watchdog");
        drop(guard);
        match err {
            PlanError::Stalled {
                morsels_done,
                morsels_total,
                window_ms,
            } => {
                assert_eq!(window_ms, 30_000);
                assert!(
                    morsels_done >= 1 && morsels_done < morsels_total,
                    "threads={threads}: stall interrupts mid-query: \
                     {morsels_done}/{morsels_total}"
                );
            }
            other => panic!("threads={threads}: expected PlanError::Stalled, got {other:?}"),
        }

        // A stalled plan would stall again: no fallback attempt, and the
        // outcome is on the EXPLAIN ANALYZE record.
        let report = e.explain(&plan).expect("explains").runtime;
        assert!(
            report.iter().any(|l| l.contains("stalled")),
            "threads={threads}: stall recorded: {report:?}"
        );
        assert!(
            !report.iter().any(|l| l.contains("fell back")),
            "threads={threads}: stall must not trigger fallback: {report:?}"
        );

        // The engine survives its wedged query; the same session runs clean.
        assert_eq!(e.query(&plan).expect("clean rerun").rows, truth.rows);
        assert_eq!(e.queries_in_flight(), 0);
    }
}

#[test]
#[cfg_attr(miri, ignore = "spawns OS threads and measures wall-clock time")]
fn overload_sheds_with_structured_retry_hint() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 32;
    // One execution slot and a zero-tolerance shed threshold: once the
    // controller has service times, any arrival that would have to queue
    // is shed instead.
    let e = Engine::builder(make_db(N_ROWS, 512))
        .threads(2)
        .tile_rows(MORSEL)
        .admission(
            AdmissionConfig::new(1)
                .queue_depth(8)
                .shed_after(Duration::ZERO),
        )
        .build();
    let plan = groupby_plan();
    // Warm the P99 service-time ring — a cold controller never sheds.
    for _ in 0..4 {
        e.query(&plan).expect("warmup");
    }
    // `true` for a shed, `false` for rows, a panic for anything else.
    let shed = |r: Result<QueryResult, PlanError>| match r {
        Ok(_) => false,
        Err(PlanError::Admission(AdmissionError::Overloaded { retry_after_ms, .. })) => {
            // The structured backoff contract: clients always get a usable
            // (≥ 1 ms) retry hint, even for sub-millisecond service times.
            assert!(retry_after_ms >= 1);
            true
        }
        Err(other) => panic!("unexpected error under overload: {other:?}"),
    };

    // A query whose worker is held at morsel 1 keeps the slot busy until
    // its session cancels it: every arrival meanwhile must be shed, by
    // construction rather than by a race.
    let hold = e.inject_faults(FaultPlan {
        seed: 0,
        events: vec![FaultEvent::Hold { morsel: 1 }],
    });
    let holder = e.session();
    let held = {
        let (session, plan) = (holder.clone(), plan.clone());
        std::thread::spawn(move || session.query(&plan))
    };
    while e.admission_in_flight() != Some((1, 0)) {
        std::thread::yield_now();
    }
    for _ in 0..CLIENTS {
        assert!(
            shed(e.query(&plan)),
            "an arrival at a busy slot with a zero shed threshold is shed"
        );
    }
    holder.handle().cancel();
    let held = held.join().expect("holder thread");
    assert!(matches!(held, Err(PlanError::Cancelled { .. })), "{held:?}");
    drop(hold);

    // Then real contention: clients see rows or a structured shed.
    let start = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let e = e.clone();
            let plan = plan.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..ROUNDS {
                    shed(e.query(&plan));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    assert_eq!(e.admission_in_flight(), Some((0, 0)));
}

#[test]
#[cfg_attr(miri, ignore = "relies on wall-clock progress timing")]
fn breaker_short_circuits_persistently_failing_plan() {
    let e = Engine::builder(make_db(N_ROWS, 512))
        .threads(2)
        .tile_rows(MORSEL)
        .build();
    let plan = groupby_plan();
    let truth = interp::run(&e.database(), &plan).expect("interpreter ground truth");

    // Three consecutive primary failures (fresh injected panic each run,
    // every one recovered through the interpreter) open the circuit.
    for i in 0..3 {
        let guard = e.inject_faults(FaultPlan::panic_at_morsel(0));
        let got = e.query(&plan).expect("fallback recovers");
        drop(guard);
        assert_eq!(got.rows, truth.rows, "fallback run {i}");
    }
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report
            .iter()
            .any(|l| l.contains("fallback circuit opened for this plan")),
        "third strike announces the open circuit: {report:?}"
    );
    let stats = e.fallback_breaker_stats();
    assert_eq!(stats.open_circuits, 1);

    // Faults disarmed, but the open circuit routes execution straight to
    // the interpreter — no doubled execution cost on a doomed primary.
    let got = e.query(&plan).expect("short-circuited run");
    assert_eq!(got.rows, truth.rows);
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        report
            .iter()
            .any(|l| l.contains("skipped, fallback circuit open")),
        "short-circuit recorded: {report:?}"
    );
    assert!(
        e.fallback_breaker_stats().short_circuits >= 1,
        "{:?}",
        e.fallback_breaker_stats()
    );

    // Half-open probing: every 8th arrival at the open circuit retries
    // the primary; with the fault gone, the probe succeeds and closes it.
    for _ in 0..8 {
        let got = e.query(&plan).expect("runs while circuit decays");
        assert_eq!(got.rows, truth.rows);
    }
    assert_eq!(
        e.fallback_breaker_stats().open_circuits,
        0,
        "successful probe closes the circuit"
    );
    // Closed circuit: the primary runs again, cleanly.
    e.query(&plan).expect("clean primary run");
    let report = e.explain(&plan).expect("explains").runtime;
    assert!(
        !report.iter().any(|l| l.contains("circuit")),
        "closed circuit leaves no breaker trace: {report:?}"
    );
}
