//! Concurrent sessions sharing one `Engine`: N clients hammering the
//! shared worker pool and plan cache must see **bit-identical** results to
//! a solo run; a sticky cancel on one session must never leak into sibling
//! sessions or queries admitted afterwards; admission control must reject
//! with a typed error and fully drain; and the global memory budget must
//! never be exceeded and must return to zero when the storm passes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::interp;
use swole::prelude::*;

/// Deterministic database: R(x, a, b, c, fk) → S(y), same shape as the
/// parallel-equivalence suite.
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

const SEED: u64 = 42;
const N_R: usize = 20_000;
const N_S: usize = 256;

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

fn semijoin_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(40)))
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
        )
}

fn groupjoin_plan() -> LogicalPlan {
    QueryBuilder::scan("R")
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
        )
}

/// The mixed workload each client cycles through — one plan per access
/// strategy family so the shared plan cache holds several entries at once.
fn workload() -> Vec<LogicalPlan> {
    vec![
        scalar_plan(),
        groupby_plan(),
        semijoin_plan(),
        groupjoin_plan(),
    ]
}

/// Interpreter ground truth for the workload.
fn references() -> Vec<QueryResult> {
    let db = make_db(SEED, N_R, N_S);
    workload()
        .iter()
        .map(|p| interp::run(&db, p).expect("interp runs"))
        .collect()
}

/// `clients` sessions share `engine`; each prepares the whole workload and
/// executes `rounds` statements (staggered so different plans overlap),
/// asserting every result is bit-identical to the interpreter reference.
fn hammer(engine: &Engine, clients: usize, rounds: usize, refs: &[QueryResult]) {
    let plans = workload();
    let barrier = Barrier::new(clients);
    thread::scope(|s| {
        for c in 0..clients {
            let (engine, plans, barrier) = (&engine, &plans, &barrier);
            s.spawn(move || {
                let session = engine.session();
                let stmts: Vec<PreparedStatement> = plans
                    .iter()
                    .map(|p| session.prepare(p).expect("prepares"))
                    .collect();
                barrier.wait();
                for r in 0..rounds {
                    let i = (c + r) % stmts.len();
                    let got = stmts[i].execute().expect("executes");
                    assert_eq!(got, refs[i], "client {c} round {r} plan {i}");
                }
            });
        }
    });
}

#[test]
fn hammer_shared_pool_bit_identical_and_cache_consistent() {
    let refs = references();
    let n_plans = workload().len() as u64;
    for (clients, rounds) in [(8usize, 12usize), (64, 3)] {
        let engine = Engine::builder(make_db(SEED, N_R, N_S))
            .threads(2)
            .tile_rows(2048)
            .build();
        assert_eq!(engine.live_pool_workers(), 2);
        hammer(&engine, clients, rounds, &refs);
        // Cache-stat conservation under concurrency: every lookup (one per
        // zero-param prepare, one per execute) lands as exactly one hit or
        // miss — lost updates would break the identity.
        let stats = engine.plan_cache_stats();
        let lookups = clients as u64 * (n_plans + rounds as u64);
        assert_eq!(
            stats.hits + stats.misses,
            lookups,
            "clients={clients}: {stats:?}"
        );
        assert!(stats.misses >= n_plans, "clients={clients}: {stats:?}");
        assert!(stats.hits > 0, "clients={clients}: {stats:?}");
    }
}

#[test]
fn cancel_is_isolated_per_session() {
    let engine = Engine::builder(make_db(7, 4_000, 64)).threads(2).build();
    let plan = scalar_plan();
    let a = engine.session();
    let b = engine.session();
    let a_stmt = a.prepare(&plan).expect("prepares");
    assert!(a.query(&plan).is_ok());

    // Cancel is sticky on session A: immediate queries and statements
    // prepared through A both observe it...
    a.handle().cancel();
    assert!(matches!(a.query(&plan), Err(PlanError::Cancelled { .. })));
    assert!(matches!(a_stmt.execute(), Err(PlanError::Cancelled { .. })));
    // ...but it never leaks: the sibling session, the engine-wide scope,
    // and sessions opened *after* the cancel all run normally.
    assert!(b.query(&plan).is_ok());
    assert!(engine.query(&plan).is_ok());
    assert!(engine.session().query(&plan).is_ok());

    // reset() re-arms exactly the cancelled session.
    a.handle().reset();
    assert!(a.query(&plan).is_ok());
    assert!(a_stmt.execute().is_ok());

    // The engine-wide scope is its own session: cancelling it stops
    // engine-level queries without touching existing sessions.
    engine.handle().cancel();
    assert!(matches!(
        engine.query(&plan),
        Err(PlanError::Cancelled { .. })
    ));
    assert!(b.query(&plan).is_ok());
    engine.handle().reset();
    assert!(engine.query(&plan).is_ok());
}

/// On the pool a one-morsel statement runs on its client's thread and is
/// never registered as a stage; a cancel issued mid-hammer reaches it
/// through the session's cancel scope all the same. The cancelled session
/// sees exact rows and then the typed error, its siblings exact rows only.
#[test]
fn cancel_reaches_one_morsel_statements_on_the_pool() {
    let refs = references();
    let plans = workload();
    // The default morsel (64 tiles) holds all of R, and all of S.
    let engine = Engine::builder(make_db(SEED, N_R, N_S)).threads(2).build();
    assert!(N_R <= engine.morsel_rows());
    let victim = engine.session();
    let handle = victim.handle();
    let warmed = AtomicUsize::new(0);
    thread::scope(|s| {
        let (victim, engine, plans, refs, warmed) = (&victim, &engine, &plans, &refs, &warmed);
        let cancelled = s.spawn(move || {
            for i in (0..plans.len()).cycle() {
                match victim.query(&plans[i]) {
                    Ok(got) => {
                        assert_eq!(got, refs[i], "victim, plan {i}");
                        warmed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(PlanError::Cancelled { .. }) => return,
                    Err(other) => panic!("a cancelled statement must say so: {other:?}"),
                }
            }
        });
        for c in 0..3 {
            s.spawn(move || {
                let session = engine.session();
                for r in 0..24 {
                    let i = (c + r) % plans.len();
                    let got = session.query(&plans[i]).expect("siblings never see it");
                    assert_eq!(got, refs[i], "client {c} round {r} plan {i}");
                }
            });
        }
        while warmed.load(Ordering::Relaxed) < plans.len() {
            thread::yield_now();
        }
        handle.cancel();
        cancelled.join().expect("victim thread");
    });
    // Sticky on the victim, invisible to everyone else.
    assert!(matches!(
        victim.query(&plans[0]),
        Err(PlanError::Cancelled { .. })
    ));
    assert_eq!(engine.query(&plans[0]).expect("engine scope"), refs[0]);
    let report = engine.shutdown(Some(Duration::from_secs(30)));
    assert!(report.clean, "{report:?}");
    assert_eq!(engine.live_pool_workers(), 0);
}

#[test]
fn admission_rejects_typed_and_drains() {
    // One execution slot, no wait queue: whenever two queries genuinely
    // overlap, the loser gets a typed QueueFull rejection. Repeat the
    // paired race until an overlap happens (single round on any normal
    // machine; bounded retries keep it deterministic on loaded CI). The
    // table is large enough that one query outlasts the skew between two
    // threads leaving a barrier even at the optimized scan rate.
    let engine = Engine::builder(make_db(11, 1 << 20, 256))
        .threads(1)
        .tile_rows(2048)
        .admission(AdmissionConfig::new(1).queue_depth(0))
        .build();
    let plan = groupby_plan();
    let solo = engine.query(&plan).expect("solo run admits");

    let mut saw_rejection = false;
    for _round in 0..20 {
        if saw_rejection {
            break;
        }
        let barrier = Barrier::new(2);
        let results: Vec<Result<QueryResult, PlanError>> = thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (engine, plan, barrier) = (&engine, &plan, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        engine.query(plan)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            match r {
                Ok(res) => assert_eq!(res, solo, "admitted queries stay exact"),
                Err(PlanError::Admission(AdmissionError::QueueFull {
                    max_concurrent,
                    queue_depth,
                })) => {
                    assert_eq!((max_concurrent, queue_depth), (1, 0));
                    saw_rejection = true;
                }
                Err(e) => panic!("only QueueFull is acceptable here, got {e:?}"),
            }
        }
    }
    assert!(
        saw_rejection,
        "20 paired races never overlapped on one execution slot"
    );
    // Rejections and completions both release their slots.
    assert_eq!(engine.admission_in_flight(), Some((0, 0)));
    assert_eq!(
        engine.query(&plan).expect("engine usable after rejections"),
        solo
    );
}

#[test]
fn global_budget_never_exceeded_and_drains() {
    let budget = 32 << 20;
    let refs = references();
    for policy in [MemoryPolicy::Greedy, MemoryPolicy::FairShare] {
        let engine = Engine::builder(make_db(SEED, N_R, N_S))
            .threads(2)
            .tile_rows(2048)
            .global_memory_budget(budget)
            .memory_policy(policy)
            .build();
        hammer(&engine, 8, 8, &refs);
        let stats = engine
            .global_memory_stats()
            .expect("global pool configured");
        assert_eq!(stats.policy, policy);
        assert!(
            stats.peak <= budget,
            "{policy:?}: peak {} exceeded budget {budget}",
            stats.peak
        );
        assert!(stats.peak > 0, "{policy:?}: queries charged nothing");
        assert_eq!(stats.used, 0, "{policy:?}: charges must drain: {stats:?}");
        assert_eq!(stats.active, 0, "{policy:?}: gauges must unregister");
    }
}

#[test]
fn global_budget_exhaustion_is_typed_and_recovers() {
    // A 1 KiB server budget cannot fit any strategy's scratch, nor the
    // data-centric fallback's. The plan certificate proves that bound
    // statically, so the query is rejected at admission — before any
    // worker starts or a single byte is charged — and nothing can leak.
    let engine = Engine::builder(make_db(5, 30_000, 128))
        .threads(2)
        .tile_rows(2048)
        .global_memory_budget(1024)
        .build();
    let plan = groupby_plan();
    for attempt in 0..3 {
        let err = engine.query(&plan).expect_err("budget cannot fit scratch");
        match err {
            PlanError::Admission(AdmissionError::BudgetInfeasible { bound, budget }) => {
                assert_eq!(budget, 1024, "attempt {attempt}");
                assert!(bound > budget, "attempt {attempt}: bound {bound}");
            }
            other => panic!("attempt {attempt}: expected BudgetInfeasible, got {other:?}"),
        }
        let stats = engine
            .global_memory_stats()
            .expect("global pool configured");
        assert_eq!(
            stats.used, 0,
            "attempt {attempt}: charges leaked: {stats:?}"
        );
        assert_eq!(
            stats.active, 0,
            "attempt {attempt}: gauge leaked: {stats:?}"
        );
    }
}
