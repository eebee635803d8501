//! A morsel body allocates nothing: the number of heap allocations one
//! `Engine::execute` performs must not depend on how many tiles the table
//! has. Everything a worker needs per tile — masks, widened values, the
//! selection vector, dictionary match tables — is allocated once per query
//! (register file in the morsel `init`, match tables at bind time), so a
//! 400-tile table costs exactly the allocations a 4-tile table does.
//!
//! The reference interpreter streams too: the bytes it allocates for a
//! filtered sum, with or without an FK semijoin, do not grow with the rows
//! it scans. And the reserve a certificate keeps for it is sound: the bytes
//! it holds live at once never exceed its `fallback_bytes`.
//!
//! And per-statement overhead does not creep: one warm, one-morsel
//! statement of each hot kind allocates no more than the counts recorded in
//! [`HOT_STATEMENTS`], no more as an ad-hoc text than as a logical plan, and
//! no more when it is submitted to a worker pool than on a sequential
//! engine.
//!
//! This is the one file in the repository with `unsafe`: counting needs a
//! `GlobalAlloc`, and implementing that trait is an `unsafe impl`. It only
//! forwards to [`System`]. The counter is gated per thread for the harness's
//! own threads, and the two tests take turns ([`COUNTER`]) so that neither
//! allocates while the other counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::Mutex;

use swole::plan::physical::PhysicalPlan;
use swole::prelude::*;
use swole_kernels::TILE;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated and not yet freed on counting threads, and their
/// high-water mark (frees of bytes allocated before counting began can take
/// `LIVE` below zero, so both are signed).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static LIVE_PEAK: AtomicIsize = AtomicIsize::new(0);

/// Held by the test that is counting.
static COUNTER: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

/// Whether the running thread is being counted.
fn counting() -> bool {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the flag is gone and nothing is being measured.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

fn note(bytes: usize) {
    if counting() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Move the live bytes by `delta` on a counting thread.
fn live(delta: isize) {
    if counting() {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        LIVE_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's contract; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    counted_during(&ALLOCATIONS, f)
}

/// Bytes requested by allocations and reallocations while `f` runs.
fn bytes_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    counted_during(&BYTES, f)
}

/// The most bytes `f` holds allocated at once, what it returns included.
fn live_peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    LIVE.store(0, Ordering::Relaxed);
    LIVE_PEAK.store(0, Ordering::Relaxed);
    let (_, out) = counted_during(&ALLOCATIONS, f);
    (LIVE_PEAK.load(Ordering::Relaxed) as usize, out)
}

fn counted_during<T>(counter: &AtomicUsize, f: impl FnOnce() -> T) -> (usize, T) {
    let before = counter.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (counter.load(Ordering::Relaxed) - before, out)
}

/// R(x, y, a, b, g, d) with `tiles` full tiles; every column cycles
/// with a short period so both sizes hold the same value domains (16 group
/// keys, 4 dictionary words — no hash-table growth to tell them apart).
fn database(tiles: usize) -> Database {
    let mut db = Database::new();
    db.add_table(r_table(tiles));
    db
}

fn r_table(tiles: usize) -> Table {
    let n = tiles * TILE;
    let words = ["PROMO A", "STD", "PROMO B", "ECO"];
    Table::new("R")
        .with_column(
            "x",
            ColumnData::I8((0..n).map(|i| (i % 100) as i8).collect()),
        )
        .with_column("y", ColumnData::I8(vec![1; n]))
        .with_column(
            "a",
            ColumnData::I32((0..n).map(|i| (i % 50) as i32 + 1).collect()),
        )
        .with_column(
            "b",
            ColumnData::I32((0..n).map(|i| (i % 47) as i32 + 1).collect()),
        )
        .with_column(
            "g",
            ColumnData::I16((0..n).map(|i| (i % 16) as i16).collect()),
        )
        .with_column(
            "d",
            ColumnData::Dict(swole_storage::DictColumn::encode(
                &(0..n).map(|i| words[i % 4]).collect::<Vec<_>>(),
            )),
        )
}

const QUERIES: [(&str, &str); 4] = [
    (
        "fused scalar sum",
        "select sum(a * b) as s, count(*) as n from R where x < 50 and y = 1",
    ),
    (
        "generic scalar path (CASE, nested arithmetic)",
        "select sum(case when x < 30 then a * b + 1 else a - b end) as s, min(a) as lo \
         from R where x < 90",
    ),
    (
        "dictionary predicates",
        "select sum(a) as s from R where d like 'PROMO%' or d in ('STD', 'nothing')",
    ),
    (
        "group-by",
        "select g, sum(a * b) as s, count(*) as n from R where x < 50 group by g",
    ),
];

fn count(engine: &Engine, physical: &PhysicalPlan) -> usize {
    // One untimed run first: lazily initialized process state (thread-local
    // buffers, the first use of a lock) is not per-query cost.
    engine.execute(physical).expect("warm-up run");
    let (n, res) = allocations_during(|| engine.execute(physical));
    res.expect("counted run");
    n
}

#[test]
fn execute_allocations_do_not_scale_with_table_size() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for strategy in [AggStrategy::ValueMasking, AggStrategy::Hybrid] {
        let build = |tiles| {
            Engine::builder(database(tiles))
                .threads(1)
                .strategies(StrategyOverrides::pin_agg(strategy))
                .build()
        };
        let (small, large) = (build(4), build(400));
        for (name, sql) in QUERIES {
            if name.starts_with("generic") && strategy == AggStrategy::ValueMasking {
                continue; // min/max require hybrid
            }
            let plan = swole::plan::parse_sql(sql).expect("parses").plan;
            let on = |e: &Engine| count(e, &e.plan(&plan).expect("plans"));
            let (few, many) = (on(&small), on(&large));
            assert!(few > 0, "{name}: the counter is live");
            assert_eq!(
                few, many,
                "{name} under {strategy:?}: 4 tiles took {few} allocations, 400 tiles {many}"
            );
        }
    }
}

/// The interpreter streams scan → filter → semijoin rows into the
/// aggregate: over 1 Mi rows it allocates the bytes it does over 64 Ki, no
/// vector of row ids (8 MiB at 1 Mi rows) and no copy of the FK column.
#[test]
fn interpreter_bytes_do_not_scale_with_table_size() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let filtered = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let semijoin = QueryBuilder::scan("R")
        .filter(Expr::col("x").cmp(CmpOp::Lt, Expr::lit(50)))
        .semijoin(
            QueryBuilder::scan("S").filter(Expr::col("y").cmp(CmpOp::Lt, Expr::lit(50))),
            "fk",
        )
        .aggregate(None, vec![AggSpec::sum(Expr::col("a"), "s")]);
    let (small, large) = (fk_database(64), fk_database(1024));
    for (name, plan) in [("filtered sum", &filtered), ("semijoin sum", &semijoin)] {
        let bytes = |db: &Database| {
            let (n, res) = bytes_during(|| swole::plan::interp::run(db, plan));
            assert!(
                res.expect("interprets").rows[0][0] > 0,
                "{name}: rows qualify"
            );
            n
        };
        let (few, many) = (bytes(&small), bytes(&large));
        assert!(few > 0, "{name}: the counter is live");
        assert_eq!(
            few, many,
            "{name}: 64 Ki rows took {few} bytes, 1 Mi rows {many}"
        );
    }
}

/// The certificate's reserve for a data-centric retry covers what the
/// interpreter really holds, by plan kind — a constant for a scalar
/// aggregate, the group table for a grouped one, the per-row vectors for a
/// window — over 64 Ki rows, and for 64 Ki groups it is not loose.
#[test]
fn the_fallback_reserve_covers_what_the_interpreter_holds() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::builder(distinct_database(64)).threads(1).build();
    for (name, sql) in [
        (
            "filtered scalar sum",
            "select sum(a) as s from R where x < 50",
        ),
        (
            "16-group group by",
            "select g, sum(a * b) as s, count(*) as n from R where x < 50 group by g",
        ),
        (
            "64 Ki-group group by",
            "select k, sum(a) as s, min(b) as lo from R group by k",
        ),
        (
            "partitioned window",
            "select a, sum(b) over (partition by g order by b) as s from R where x < 50",
        ),
    ] {
        let plan = swole::plan::parse_sql(sql).expect("parses").plan;
        let reserve = engine.certificate(&plan).expect("certifies").fallback_bytes;
        let db = engine.database();
        let (held, res) = live_peak_during(|| swole::plan::interp::run(&db, &plan));
        assert!(!res.expect("interprets").rows.is_empty(), "{name}");
        assert!(held > 0, "{name}: the counter is live");
        println!("{name}: {held} B held, {reserve} B reserved");
        assert!(
            held as u64 <= reserve,
            "{name}: the interpreter held {held} B, the certificate reserved {reserve} B"
        );
        // Where the group table is the whole retry, its price stays within
        // twice what it holds.
        if name.starts_with("64 Ki") {
            assert!(
                reserve <= 2 * held as u64,
                "{name}: the certificate reserved {reserve} B for {held} B held"
            );
        }
    }
}

/// `R` of [`r_table`] with a column `k` that is distinct on every row.
fn distinct_database(tiles: usize) -> Database {
    let n = tiles * TILE;
    let mut db = Database::new();
    db.add_table(r_table(tiles).with_column("k", ColumnData::I32((0..n as i32).collect())));
    db
}

/// `ORDER BY … LIMIT n` over a window assembles the `n` rows it returns, not
/// one row vector per window row to sort and drop: the post-operators run on
/// the window's columns. Tens of thousands of small frees left in the
/// allocator's bins are also what made the *next* statement pay for this
/// one's cleanup (DESIGN § 13).
#[test]
fn a_window_top_n_allocates_for_the_rows_it_returns() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::builder(database(64)).threads(1).build();
    let sql = "select a, row_number() over (partition by g order by b) as rn, \
               sum(b) over (partition by g order by b) as s \
               from R where x < 50 order by a, rn limit 5";
    let plan = swole::plan::parse_sql(sql).expect("parses").plan;
    let physical = engine.plan(&plan).expect("plans");
    let rows = engine.execute(&physical).expect("runs").rows;
    assert_eq!(rows.len(), 5);
    let n = count(&engine, &physical);
    let window_rows = 64 * TILE / 2;
    assert!(
        n < 200,
        "{n} allocations to return 5 of {window_rows} window rows"
    );
}

/// A result is one buffer, not a vector per row: one grouped statement
/// takes as many allocations over 4 096 groups as over 64 on the engine,
/// whose dense group table is sized once from the key domain. The
/// interpreter's group table grows by doubling — its hash index, key
/// vector and accumulator array — so there the two counts may differ by
/// those doublings (at most three per doubling of the groups), never by a
/// row.
#[test]
fn grouped_results_allocate_once() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let sql = "select k, sum(a) as s, count(*) as n from R group by k";
    let plan = swole::plan::parse_sql(sql).expect("parses").plan;
    let (few, many) = (64usize, 4096usize);
    let db = |groups: usize| {
        let n = 8 * TILE;
        let k = (0..n).map(|i| (i % groups) as i32).collect();
        let mut db = Database::new();
        db.add_table(r_table(8).with_column("k", ColumnData::I32(k)));
        db
    };
    let mut engine_counts = Vec::new();
    let mut interp_counts = Vec::new();
    for groups in [few, many] {
        let engine = Engine::builder(db(groups)).threads(1).build();
        let physical = engine.plan(&plan).expect("plans");
        assert_eq!(engine.execute(&physical).expect("runs").rows.len(), groups);
        engine_counts.push(count(&engine, &physical));
        let db = engine.database();
        let (n, res) = allocations_during(|| swole::plan::interp::run(&db, &plan));
        assert_eq!(res.expect("interprets").rows.len(), groups);
        interp_counts.push(n);
    }
    // Compared across commits with `-- --nocapture`.
    println!("grouped result, {few} / {many} groups: engine {engine_counts:?}, interpreter {interp_counts:?}");
    assert_eq!(
        engine_counts[0], engine_counts[1],
        "engine: {few} groups took {} allocations, {many} groups {}",
        engine_counts[0], engine_counts[1]
    );
    let doublings = (many / few).ilog2() as usize;
    assert!(
        interp_counts[1] <= interp_counts[0] + 3 * doublings,
        "interpreter: {few} groups took {} allocations, {many} groups {}",
        interp_counts[0],
        interp_counts[1]
    );
}

/// The hot statement kinds of a served workload, each with what marks its
/// plan shape and the allocations one warm execution of it takes — through
/// `Engine::query` (plan-cache hit included), and as the `sessions_mixed`
/// benchmark workload issues it, a warm `Session::query_sql` with no
/// parameters. The change that recorded them keyed the cache on a 64-bit
/// fingerprint and let a warm text skip the parse (10 to 13 allocations a
/// `query`, 55 to 119 a `query_sql`); a scalar run now also borrows its
/// sink list from the cached plan instead of collecting a fresh one, and a
/// result is one buffer rather than a vector per row (the 16-group group-by
/// fell from 33 to 17, the 64-group groupjoin from 78 to 28). Each is the
/// count itself. A one-morsel statement is all overhead, which makes this the guard for
/// that workload: the counts may fall, never rise.
const HOT_STATEMENTS: [(&str, &str, &str, usize, usize); 4] = [
    (
        "scalar scan",
        "(1 aggs) <- Filter <- Scan R",
        "select sum(a * b) as s from R where x < 50",
        12,
        12,
    ),
    (
        "group-by",
        "group by g) <- Filter <- Scan R",
        "select g, sum(a * b) as s from R where x < 50 group by g",
        17,
        17,
    ),
    (
        "masked one-edge probe",
        "S[positional-bytes]] (probe: masked)",
        "select sum(R.a * R.b) as s from R, S where R.fk = S.rowid and R.x < 50 and S.y < 50",
        23,
        23,
    ),
    (
        "groupjoin",
        "(group by fk) <- MultiJoin",
        "select R.fk, sum(R.a * R.b) as s from R, S where R.fk = S.rowid and S.y < 50 \
         group by R.fk",
        28,
        28,
    ),
];

/// R ⋈ S with four tiles of R: every stage of every hot statement is one
/// morsel.
fn one_morsel_database() -> Database {
    fk_database(4)
}

/// R, with `tiles` full tiles, ⋈ S(y) of 64 rows through `R.fk`.
fn fk_database(tiles: usize) -> Database {
    let n = tiles * TILE;
    let mut db = Database::new();
    db.add_table(r_table(tiles).with_column(
        "fk",
        ColumnData::U32((0..n).map(|i| (i % 64) as u32).collect()),
    ));
    db.add_table(Table::new("S").with_column(
        "y",
        ColumnData::I8((0..64).map(|i| (i % 100) as i8).collect()),
    ));
    db.add_fk("R", "fk", "S").expect("FK registers");
    db
}

/// Allocations of one warm `Engine::query`: plan and cache, warm up once,
/// count the third run.
fn warm(engine: &Engine, kind: &str, marker: &str, plan: &LogicalPlan) -> usize {
    let explain = engine.explain(plan).expect("plans");
    assert!(explain.shape.contains(marker), "{kind}: {}", explain.shape);
    engine.query(plan).expect("cold run");
    engine.query(plan).expect("warm-up run");
    let (now, res) = allocations_during(|| engine.query(plan));
    res.expect("counted run");
    now
}

#[test]
fn hot_statements_allocate_no_more_than_at_the_parent_commit() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::builder(one_morsel_database()).threads(1).build();
    let pooled = Engine::builder(one_morsel_database())
        .worker_pool(2)
        .build();
    let session = engine.session();
    for (kind, marker, sql, bound, bound_sql) in HOT_STATEMENTS {
        let plan = swole::plan::parse_sql(sql).expect("parses").plan;
        let now = warm(&engine, kind, marker, &plan);
        assert!(
            now <= bound,
            "{kind}: one warm statement took {now} allocations, bound {bound}"
        );
        session.query_sql(sql, &Params::new()).expect("warm-up run");
        let (now_sql, res) = allocations_during(|| session.query_sql(sql, &Params::new()));
        res.expect("counted run");
        assert!(
            now_sql <= bound_sql,
            "{kind}: one warm query_sql took {now_sql} allocations, bound {bound_sql}"
        );
        // A warm text is found by its bytes: it pays for no parse and no
        // copy of the plan, so it costs what its plan costs.
        assert!(
            now_sql <= now,
            "{kind}: a warm query_sql took {now_sql} allocations, a warm query {now}"
        );
        // The counter is per thread, so on the pool it sees the submitting
        // thread alone: a one-morsel statement runs there and builds what
        // the sequential engine builds — no stage, no type-erased task, no
        // free list of accumulators.
        let on_pool = warm(&pooled, kind, marker, &plan);
        // Compared across commits with `-- --nocapture`.
        println!("{kind}: {now} allocations (query), {now_sql} (query_sql), {on_pool} (pool)");
        assert!(
            on_pool <= now,
            "{kind}: {on_pool} allocations submitting to a pool, {now} on one thread"
        );
    }
}
