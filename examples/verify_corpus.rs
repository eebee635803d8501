//! Run the static plan verifier over the full plan corpus: SQL renditions
//! of the paper's eight TPC-H queries plus the five microbenchmark queries,
//! verified at [`VerifyLevel::Full`] for every thread count in {1, 2, 8}
//! under three strategy regimes (cost-model default, pullups pinned,
//! baselines pinned).
//!
//! Every plan is additionally run through the bounds regime: the
//! abstract-interpretation pass must produce a [`PlanCertificate`] with a
//! finite (non-`unbounded`) peak-memory verdict for all of them, and the
//! plan is run, its observed gauge peak never above that bound, on its
//! first attempt: nothing injects a fault here, so a plan the engine
//! retries on the data-centric interpreter (`retries` in the report) fails
//! the corpus. The
//! per-plan bounds, with what was observed beside them, land in a diffable
//! `bounds-report.json` (path overridable via `BOUNDS_REPORT`), which CI
//! uploads as an artifact so a planner or verifier change that loosens any
//! bound shows up as a diff.
//!
//! The certificate's reserve for a data-centric retry is checked too: once
//! per distinct plan the reference interpreter runs it under a counting
//! global allocator, and the most bytes it holds at once land in the report
//! as `fallback_observed_bytes`, never above the plan's `fallback_bytes`.
//!
//! ```text
//! cargo run --release --example verify_corpus
//! ```
//!
//! Every plan is also rendered through `EXPLAIN CODE`, which must print a
//! non-empty loop for each.
//!
//! Exits non-zero if any plan fails verification, certification, its run
//! (an error, a retry, or an observed peak above its bound), its interpreter run
//! (an error, or a peak above its reserve) or rendering —
//! `scripts/verify_corpus.sh` wires this into CI as the corpus gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicIsize, Ordering};

use swole::plan::{interp, parse_sql};
use swole::prelude::*;
use swole_micro::{generate as micro_generate, MicroParams};
use swole_tpch::catalog::to_database;

/// Bytes allocated and not yet freed by the counting thread, and their
/// high-water mark (a free of bytes allocated before counting began takes
/// `LIVE` below zero, so both are signed).
static LIVE: AtomicIsize = AtomicIsize::new(0);
static LIVE_PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Set on the thread whose allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Move the live bytes by `delta` on the counting thread.
fn live(delta: isize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the flag is gone and nothing is being measured.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        LIVE_PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

/// The global allocator, counting the live bytes of one thread.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore this type's contract; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        live(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        live(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

/// The most bytes `f` holds allocated at once on this thread, what it
/// returns included.
fn live_peak_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    LIVE.store(0, Ordering::Relaxed);
    LIVE_PEAK.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (LIVE_PEAK.load(Ordering::Relaxed) as u64, out)
}

/// A strategy regime: which techniques (if any) are pinned on the builder.
struct Regime {
    name: &'static str,
    agg: Option<AggStrategy>,
    semijoin: Option<SemiJoinStrategy>,
    groupjoin: Option<GroupJoinStrategy>,
    window: Option<WindowStrategy>,
}

impl Regime {
    fn overrides(&self) -> StrategyOverrides {
        StrategyOverrides {
            agg: self.agg,
            semijoin: self.semijoin,
            groupjoin: self.groupjoin,
            window: self.window,
            ..StrategyOverrides::default()
        }
    }
}

const REGIMES: [Regime; 3] = [
    // Let the Fig. 2 cost models choose.
    Regime {
        name: "cost-model",
        agg: None,
        semijoin: None,
        groupjoin: None,
        window: None,
    },
    // Every pullup technique pinned on.
    Regime {
        name: "pullup",
        agg: Some(AggStrategy::ValueMasking),
        semijoin: Some(SemiJoinStrategy::PositionalBitmap(
            BitmapBuild::Unconditional,
        )),
        groupjoin: Some(GroupJoinStrategy::GroupJoin),
        window: Some(WindowStrategy::SequentialFrameScan),
    },
    // Every baseline pinned on.
    Regime {
        name: "baseline",
        agg: Some(AggStrategy::Hybrid),
        semijoin: Some(SemiJoinStrategy::Hash),
        groupjoin: Some(GroupJoinStrategy::EagerAggregation),
        window: Some(WindowStrategy::ConditionalReeval),
    },
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// The Fig. 7a microbenchmark catalog (same schema as `examples/sql.rs`).
fn micro_db() -> Database {
    let micro = micro_generate(MicroParams {
        r_rows: 100_000,
        s_rows: 1 << 10,
        r_c_cardinality: 1 << 10,
        seed: 3,
    });
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column("r_a", ColumnData::I32(micro.r.a.clone()))
            .with_column("r_b", ColumnData::I32(micro.r.b.clone()))
            .with_column("r_c", ColumnData::I32(micro.r.c.clone()))
            .with_column("r_x", ColumnData::I8(micro.r.x.clone()))
            .with_column("r_y", ColumnData::I8(micro.r.y.clone()))
            .with_column("r_fk", ColumnData::U32(micro.r.fk.clone())),
    );
    db.add_table(Table::new("S").with_column("s_x", ColumnData::I8(micro.s.x)));
    db.add_fk("R", "r_fk", "S").expect("FK registers");
    db
}

/// The paper's microbenchmark queries (Fig. 7b Q1 at two selectivities,
/// Q2 group-by, Q4 semijoin, Q5 groupjoin).
fn micro_queries() -> Vec<(String, String)> {
    [
        (
            "micro-q1-low",
            "select sum(r_a * r_b) as s from R where r_x < 5 and r_y = 1",
        ),
        (
            "micro-q1-high",
            "select sum(r_a * r_b) as s from R where r_x < 75 and r_y = 1",
        ),
        (
            "micro-q2",
            "select r_c, sum(r_a * r_b) as s from R where r_x < 60 and r_y = 1 group by r_c",
        ),
        (
            "micro-q4",
            "select sum(R.r_a * R.r_b) as s from R, S \
             where R.r_fk = S.rowid and R.r_x < 50 and S.s_x < 50",
        ),
        (
            "micro-q5",
            "select R.r_fk, sum(R.r_a * R.r_b) as s from R, S \
             where R.r_fk = S.rowid and S.s_x < 50 group by R.r_fk",
        ),
        // Window functions and ORDER BY/LIMIT post-operators.
        (
            "micro-w1",
            "select r_c, row_number() over (partition by r_c order by r_a desc) as rn, \
             sum(r_a) over (partition by r_c order by r_a desc) as running \
             from R where r_x < 50 order by r_c, rn limit 100",
        ),
        (
            "micro-w2",
            "select r_c, sum(r_b) over (partition by r_c order by r_a rows 5 preceding) as s \
             from R where r_y = 1",
        ),
        (
            "micro-topn",
            "select r_c, sum(r_a * r_b) as s from R where r_y = 1 group by r_c \
             order by s desc limit 10",
        ),
    ]
    .into_iter()
    .map(|(n, q)| (n.to_string(), q.to_string()))
    .collect()
}

/// The TPC-H catalog at a small scale factor (plan shapes do not depend on
/// the row counts, only on the schema and registered FK indexes).
fn tpch_db() -> Database {
    to_database(&swole_tpch::generate(0.004, 99))
}

/// Engine-shape renditions of the paper's eight TPC-H queries
/// (Q1, Q3, Q4, Q5, Q6, Q13, Q14, Q19).
fn tpch_queries() -> Vec<(String, String)> {
    let q1 = swole_tpch::q1_ship_cutoff().days();
    let q3 = swole_tpch::q3_date().days();
    let (q4_lo, q4_hi) = (
        swole_tpch::q4_date_lo().days(),
        swole_tpch::q4_date_hi().days(),
    );
    let (q5_lo, q5_hi) = (
        swole_tpch::q5_date_lo().days(),
        swole_tpch::q5_date_hi().days(),
    );
    let (q6_lo, q6_hi) = (
        swole_tpch::q6_date_lo().days(),
        swole_tpch::q6_date_hi().days(),
    );
    let (q14_lo, q14_hi) = (
        swole_tpch::q14_date_lo().days(),
        swole_tpch::q14_date_hi().days(),
    );
    vec![
        (
            "tpch-q1".to_string(),
            format!(
                "select l_returnflag, sum(l_quantity) as sum_qty, count(*) as n \
                 from lineitem where l_shipdate <= {q1} group by l_returnflag"
            ),
        ),
        (
            "tpch-q3".to_string(),
            format!(
                "select sum(lineitem.l_extendedprice) as revenue, count(*) as n \
                 from lineitem, orders \
                 where lineitem.l_orderkey = orders.rowid \
                   and lineitem.l_shipdate > {q3} and orders.o_orderdate < {q3}"
            ),
        ),
        (
            "tpch-q4".to_string(),
            format!(
                "select sum(lineitem.l_extendedprice) as s, count(*) as n \
                 from lineitem, orders \
                 where lineitem.l_orderkey = orders.rowid \
                   and orders.o_orderdate >= {q4_lo} and orders.o_orderdate < {q4_hi}"
            ),
        ),
        (
            "tpch-q5".to_string(),
            format!(
                "select sum(lineitem.l_extendedprice) as revenue \
                 from lineitem, supplier \
                 where lineitem.l_suppkey = supplier.rowid \
                   and lineitem.l_shipdate >= {q5_lo} and lineitem.l_shipdate < {q5_hi} \
                   and supplier.s_nationkey < 5"
            ),
        ),
        (
            "tpch-q6".to_string(),
            format!(
                "select sum(l_extendedprice * l_discount) as revenue from lineitem \
                 where l_shipdate >= {q6_lo} and l_shipdate < {q6_hi} \
                   and l_discount between 5 and 7 and l_quantity < 24"
            ),
        ),
        (
            "tpch-q13".to_string(),
            "select orders.o_custkey, count(*) as n \
             from orders, customer \
             where orders.o_custkey = customer.rowid \
               and customer.c_mktsegment in ('BUILDING') \
             group by orders.o_custkey"
                .to_string(),
        ),
        (
            "tpch-q14".to_string(),
            format!(
                "select sum(case when l_discount > 5 then l_extendedprice else 0 end) as promo, \
                        sum(l_extendedprice) as total \
                 from lineitem \
                 where l_shipdate >= {q14_lo} and l_shipdate < {q14_hi}"
            ),
        ),
        (
            "tpch-q19".to_string(),
            "select sum(lineitem.l_extendedprice) as revenue \
             from lineitem, part \
             where lineitem.l_partkey = part.rowid \
               and part.p_container in ('SM CASE', 'SM BOX') \
               and lineitem.l_quantity < 11"
                .to_string(),
        ),
    ]
}

/// Multi-way join queries over the TPC-H graph: 3/4/5-relation stars and
/// chains through `orders -> customer`, with per-table filters.
fn multijoin_queries() -> Vec<(String, String)> {
    [
        (
            "mj-star3",
            "select sum(lineitem.l_extendedprice) as revenue, count(*) as n \
             from lineitem, orders, supplier \
             where lineitem.l_orderkey = orders.rowid \
               and lineitem.l_suppkey = supplier.rowid \
               and orders.o_orderdate < 9000 and supplier.s_nationkey < 12",
        ),
        (
            "mj-star4",
            "select sum(lineitem.l_extendedprice) as revenue \
             from lineitem, orders, supplier, part \
             where lineitem.l_orderkey = orders.rowid \
               and lineitem.l_suppkey = supplier.rowid \
               and lineitem.l_partkey = part.rowid \
               and lineitem.l_quantity < 30 and orders.o_orderdate < 9000 \
               and supplier.s_nationkey < 12 and part.p_size < 25",
        ),
        (
            "mj-chain3",
            "select sum(lineitem.l_extendedprice) as revenue, min(lineitem.l_quantity) as q \
             from lineitem, orders, customer \
             where lineitem.l_orderkey = orders.rowid \
               and orders.o_custkey = customer.rowid \
               and customer.c_nationkey < 10",
        ),
        (
            "mj-mixed5",
            "select sum(lineitem.l_extendedprice) as revenue, count(*) as n, \
                    max(lineitem.l_discount) as d \
             from lineitem, orders, supplier, part, customer \
             where lineitem.l_orderkey = orders.rowid \
               and lineitem.l_suppkey = supplier.rowid \
               and lineitem.l_partkey = part.rowid \
               and orders.o_custkey = customer.rowid \
               and lineitem.l_shipdate < 9500 and orders.o_orderdate < 9200 \
               and supplier.s_nationkey < 15 and part.p_size < 30 \
               and customer.c_nationkey < 18",
        ),
        (
            "mj-star4-empty-build",
            "select sum(lineitem.l_extendedprice) as revenue \
             from lineitem, orders, supplier, part \
             where lineitem.l_orderkey = orders.rowid \
               and lineitem.l_suppkey = supplier.rowid \
               and lineitem.l_partkey = part.rowid \
               and supplier.s_nationkey < 0",
        ),
    ]
    .into_iter()
    .map(|(n, q)| (n.to_string(), q.to_string()))
    .collect()
}

/// The direct fact edges shared by every 4+-relation query above, used by
/// the pinned join-order regimes (`customer` hangs off `orders`, so it is
/// not a direct edge and never appears in an order pin).
const STAR4_ORDERS: [(&str, [&str; 3]); 2] = [
    ("pin-ops", ["orders", "part", "supplier"]),
    ("pin-spo", ["supplier", "part", "orders"]),
];

/// One certified plan's bounds, as a line of the diffable report.
struct BoundsRow {
    corpus: String,
    query: String,
    threads: usize,
    regime: String,
    ops: usize,
    peak_bytes_bound: u64,
    /// The gauge peak of one run of the plan.
    observed_bytes: u64,
    primary_bytes_bound: u64,
    fallback_bytes: u64,
    /// The most bytes the reference interpreter holds at once running the
    /// plan: what the data-centric retry that `fallback_bytes` reserves
    /// for holds.
    fallback_observed_bytes: u64,
    /// The metered run's data-centric retries.
    retries: u32,
}

impl BoundsRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"corpus\":\"{}\",\"query\":\"{}\",\"threads\":{},\"regime\":\"{}\",\
             \"ops\":{},\"peak_bytes_bound\":{},\"observed_bytes\":{},\
             \"primary_bytes_bound\":{},\"fallback_bytes\":{},\
             \"fallback_observed_bytes\":{},\"retries\":{}}}",
            self.corpus,
            self.query,
            self.threads,
            self.regime,
            self.ops,
            self.peak_bytes_bound,
            self.observed_bytes,
            self.primary_bytes_bound,
            self.fallback_bytes,
            self.fallback_observed_bytes,
            self.retries,
        )
    }
}

/// What the runs of every corpus add up to.
#[derive(Default)]
struct Report {
    /// One per certified plan.
    bounds: Vec<BoundsRow>,
    /// The interpreter's peak bytes per `corpus/query`: a plan's retry is
    /// the same whatever the thread count or regime, so it runs once.
    interp_peaks: HashMap<String, u64>,
}

/// Verify and certify every query of one corpus under one engine
/// configuration. Returns the number of failures and appends one
/// [`BoundsRow`] per certified plan.
fn verify_corpus(
    corpus: &str,
    db: Database,
    queries: &[(String, String)],
    threads: usize,
    regime_name: &str,
    overrides: StrategyOverrides,
    report: &mut Report,
) -> usize {
    let engine = Engine::builder(db)
        .threads(threads)
        .verify(VerifyLevel::Full)
        .strategies(overrides)
        .build();

    let metered = QueryOptions::new().metrics(MetricsLevel::Counters);
    let mut failures = 0;
    for (name, sql) in queries {
        let plan = match parse_sql(sql) {
            Ok(parsed) => parsed.plan,
            Err(e) => {
                println!("FAIL {corpus}/{name} t={threads} {regime_name}: parse error: {e}");
                failures += 1;
                continue;
            }
        };
        match engine.verify_plan(&plan) {
            // Every operator of an engine plan commits a strategy, so pass 3
            // checks each one's dispatched loop against the strategy priced.
            Ok(report) if report.signatures != report.ops => {
                println!(
                    "FAIL {corpus}/{name} t={threads} regime={regime_name}: pass 3 checked {} of {} ops",
                    report.signatures, report.ops,
                );
                failures += 1;
                continue;
            }
            Ok(report) => {
                assert_eq!(report.level, VerifyLevel::Full);
                println!(
                    "ok   {corpus}/{name} t={threads} regime={regime_name} ({} ops, {} passes)",
                    report.ops,
                    report.lines.len(),
                );
            }
            Err(e) => {
                println!("FAIL {corpus}/{name} t={threads} regime={regime_name}: {e}");
                failures += 1;
                continue;
            }
        }
        // Bounds regime: every verified plan must also certify with a
        // finite peak bound — an `unbounded` verdict is a corpus failure —
        // and a run of it must charge no more than that bound.
        match engine.certificate(&plan) {
            Ok(cert) if cert.is_bounded() => {
                let run = engine.query_with(&plan, &metered);
                let metrics = run.as_ref().ok().and_then(|r| r.metrics());
                let observed = metrics.map_or(0, |m| m.bytes_charged);
                let retries = metrics.map_or(0, |m| m.retries);
                match run {
                    Err(e) => {
                        println!("FAIL {corpus}/{name} t={threads} regime={regime_name}: run: {e}");
                        failures += 1;
                    }
                    Ok(_) if retries > 0 => {
                        println!(
                            "FAIL {corpus}/{name} t={threads} regime={regime_name}: \
                             retried {retries} time(s) with no fault injected"
                        );
                        failures += 1;
                    }
                    Ok(_) if observed > cert.peak_bytes_bound => {
                        println!(
                            "FAIL {corpus}/{name} t={threads} regime={regime_name}: \
                             observed {observed} B above the bound {} B",
                            cert.peak_bytes_bound
                        );
                        failures += 1;
                    }
                    Ok(_) => {}
                }
                let key = format!("{corpus}/{name}");
                let fallback_observed = *report.interp_peaks.entry(key).or_insert_with_key(|key| {
                    let db = engine.database();
                    let (peak, run) = live_peak_during(|| interp::run(&db, &plan));
                    if let Err(e) = run {
                        println!("FAIL {key}: interpreter: {e}");
                        failures += 1;
                    }
                    peak
                });
                if fallback_observed > cert.fallback_bytes {
                    println!(
                        "FAIL {corpus}/{name} t={threads} regime={regime_name}: the interpreter \
                         held {fallback_observed} B above the reserve {} B",
                        cert.fallback_bytes
                    );
                    failures += 1;
                }
                report.bounds.push(BoundsRow {
                    corpus: corpus.to_string(),
                    query: name.clone(),
                    threads,
                    regime: regime_name.to_string(),
                    ops: cert.per_op_bounds.len(),
                    peak_bytes_bound: cert.peak_bytes_bound,
                    observed_bytes: observed,
                    primary_bytes_bound: cert.primary_bytes_bound,
                    fallback_bytes: cert.fallback_bytes,
                    fallback_observed_bytes: fallback_observed,
                    retries,
                });
            }
            Ok(_) => {
                println!(
                    "FAIL {corpus}/{name} t={threads} regime={regime_name}: unbounded verdict"
                );
                failures += 1;
            }
            Err(e) => {
                println!("FAIL {corpus}/{name} t={threads} regime={regime_name}: certify: {e}");
                failures += 1;
            }
        }
        // Every plan renders as code: a panic aborts the run, an empty
        // section fails it.
        match engine.explain_code(&plan) {
            Ok(ex) if !ex.code.is_empty() => {}
            Ok(_) => {
                println!("FAIL {corpus}/{name} t={threads} regime={regime_name}: no code");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL {corpus}/{name} t={threads} regime={regime_name}: code: {e}");
                failures += 1;
            }
        }
    }
    failures
}

fn main() {
    let micro_queries = micro_queries();
    let tpch_queries = tpch_queries();
    let multijoin_queries = multijoin_queries();
    // The 4+-relation queries, which all share the same direct edge set —
    // the domain of the pinned join-order regimes.
    let star4_queries: Vec<(String, String)> = multijoin_queries
        .iter()
        .filter(|(n, _)| n.contains("star4") || n.contains("mixed5"))
        .cloned()
        .collect();
    let mut failures = 0;
    let mut plans = 0;
    let mut report = Report::default();
    for threads in THREAD_COUNTS {
        for regime in &REGIMES {
            failures += verify_corpus(
                "micro",
                micro_db(),
                &micro_queries,
                threads,
                regime.name,
                regime.overrides(),
                &mut report,
            );
            failures += verify_corpus(
                "tpch",
                tpch_db(),
                &tpch_queries,
                threads,
                regime.name,
                regime.overrides(),
                &mut report,
            );
            failures += verify_corpus(
                "multijoin",
                tpch_db(),
                &multijoin_queries,
                threads,
                regime.name,
                regime.overrides(),
                &mut report,
            );
            plans += micro_queries.len() + tpch_queries.len() + multijoin_queries.len();
        }
        // Join-order regime dimension: pin the probe order (and one build
        // side) and confirm every pinned plan still verifies at Full.
        for (name, order) in STAR4_ORDERS {
            let overrides = StrategyOverrides::default()
                .join_order(order.iter().map(|s| s.to_string()).collect())
                .build_side("supplier", SemiJoinStrategy::Hash);
            failures += verify_corpus(
                "multijoin",
                tpch_db(),
                &star4_queries,
                threads,
                name,
                overrides,
                &mut report,
            );
            plans += star4_queries.len();
        }
    }
    println!();
    // The diffable bounds report: one JSON object per certified plan, in
    // deterministic corpus order. CI uploads it as an artifact so a
    // change that loosens (or tightens) any bound shows up as a diff.
    let report_path =
        std::env::var("BOUNDS_REPORT").unwrap_or_else(|_| "bounds-report.json".to_string());
    let mut json = String::from("[\n");
    let bounds = &report.bounds;
    for (i, row) in bounds.iter().enumerate() {
        json.push_str("  ");
        json.push_str(&row.to_json());
        json.push_str(if i + 1 < bounds.len() { ",\n" } else { "\n" });
    }
    json.push_str("]\n");
    std::fs::write(&report_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {report_path}: {e}"));
    if failures > 0 {
        println!("verify_corpus: {failures}/{plans} plans FAILED verification");
        std::process::exit(1);
    }
    assert_eq!(bounds.len(), plans, "every verified plan must certify");
    println!(
        "verify_corpus: all {plans} plans verified at {:?}, certified bounded, run within their bounds and their retry reserves, and rendered (report: {report_path}) across {} thread counts x {} strategy regimes + {} join-order regimes",
        VerifyLevel::Full,
        THREAD_COUNTS.len(),
        REGIMES.len(),
        STAR4_ORDERS.len(),
    );
}
