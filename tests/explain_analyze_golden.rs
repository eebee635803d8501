//! Golden snapshots of `EXPLAIN ANALYZE` text on TPC-H query shapes.
//!
//! Single-threaded runs with a fixed generator seed make every line of the
//! report deterministic except wall-clock times; those lines (the only
//! ones containing `ns`) are normalized to `<time>` before comparison.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test explain_analyze_golden
//! ```

use swole::plan::parse_sql;
use swole::prelude::*;
use swole_tpch::catalog::to_database;

fn engine() -> Engine {
    // threads(1): hash-table internals (probe chains, resizes) are
    // partition-dependent, so only a single worker is fully golden.
    Engine::builder(to_database(&swole_tpch::generate(0.004, 99)))
        .threads(1)
        .metrics(MetricsLevel::Timings)
        .build()
}

fn normalize(text: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    for l in text.lines() {
        if l.contains(" ns") {
            let keep = l.split(':').next().unwrap_or(l);
            out.push(format!("{keep}: <time>"));
        } else {
            out.push(l.to_string());
        }
    }
    out.join("\n") + "\n"
}

fn assert_golden(name: &str, sql: &str) {
    let plan = parse_sql(sql).expect("parses").plan;
    let report = engine().explain_analyze(&plan).expect("runs");
    let got = normalize(&report.to_string());
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR")))
            .expect("mkdir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        got, want,
        "{name}: EXPLAIN ANALYZE drifted from golden snapshot; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn q6_scalar_aggregation_golden() {
    let (lo, hi) = (
        swole_tpch::q6_date_lo().days(),
        swole_tpch::q6_date_hi().days(),
    );
    assert_golden(
        "q6_explain_analyze",
        &format!(
            "explain analyze select sum(l_extendedprice * l_discount) as revenue \
             from lineitem \
             where l_shipdate >= {lo} and l_shipdate < {hi} \
               and l_discount between 5 and 7 and l_quantity < 24"
        ),
    );
}

#[test]
fn q1_lite_groupby_golden() {
    let cutoff = swole_tpch::q1_ship_cutoff().days();
    assert_golden(
        "q1_lite_explain_analyze",
        &format!(
            "explain analyze select l_returnflag, sum(l_quantity) as sq, count(*) as n \
             from lineitem where l_shipdate <= {cutoff} group by l_returnflag"
        ),
    );
}

/// Multi-way star + chain join: the report must carry the probe order
/// with its enumeration method (`dp`), one edge line per build side with
/// estimated vs observed cardinality, and the per-edge build/probe
/// operator counters.
#[test]
fn multijoin_star_chain_golden() {
    assert_golden(
        "multijoin_explain_analyze",
        &format!("explain analyze {MULTIJOIN_SQL}"),
    );
}

const MULTIJOIN_SQL: &str = "select sum(lineitem.l_quantity) as q, count(*) as n \
     from lineitem, orders, part, supplier, customer \
     where lineitem.l_orderkey = orders.rowid and lineitem.l_partkey = part.rowid \
       and lineitem.l_suppkey = supplier.rowid and orders.o_custkey = customer.rowid \
       and orders.o_orderdate < 9204 and part.p_size < 30 \
       and supplier.s_nationkey < 15 and customer.c_nationkey < 12";

/// A chain edge builds the one kind of structure its child's build can AND
/// into its tile masks — a positional one, here a byte map, the 600-row
/// `customer` being within the byte-map budget — under every semijoin pin,
/// and EXPLAIN, the executor and the verifier all say so: the pin moves the
/// direct edges only (a positional pin over the 6 000-row `orders` builds
/// its byte map too), and the answer is the unpinned one.
#[test]
fn a_chain_edge_reports_the_bitmap_it_builds_under_every_pin() {
    let tpch = swole_tpch::generate(0.004, 99);
    let plan = parse_sql(MULTIJOIN_SQL).expect("parses").plan;
    let unpinned = engine().query(&plan).expect("runs").rows;
    for pin in [
        SemiJoinStrategy::Hash,
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::SelectionVector),
    ] {
        let engine = Engine::builder(to_database(&tpch))
            .threads(1)
            .metrics(MetricsLevel::Timings)
            .strategies(StrategyOverrides::pin_semijoin(pin))
            .build();
        let report = engine.explain_analyze(&plan).expect("runs").to_string();
        let direct = match pin {
            SemiJoinStrategy::Hash => "hash",
            SemiJoinStrategy::PositionalBitmap(_) => "positional-bytes",
        };
        for chain in [
            format!("orders[{direct}](o_custkey -> customer[positional-bytes])"),
            "edge o_custkey -> customer [positional-bytes]".to_string(),
        ] {
            assert!(
                report.contains(&chain),
                "{pin:?}: no `{chain}` in\n{report}"
            );
        }
        assert_eq!(engine.query(&plan).expect("runs").rows, unpinned, "{pin:?}");
        let verified = engine.verify_plan(&plan).expect("verifies");
        assert_eq!(verified.signatures, verified.ops, "{pin:?}");
    }
}

/// Two-table semijoin (micro Q4 shape): a one-edge join reports like any
/// other — `multijoin-build` / `-probe` / `-agg` operators, the edge's
/// estimated vs observed cardinality and a re-scored `join.order` cost —
/// plus the masked-probe decision only a single bitmap edge takes.
#[test]
fn semijoin_one_edge_golden() {
    assert_golden(
        "semijoin_explain_analyze",
        &format!("explain analyze {SEMIJOIN_SQL}"),
    );
}

const SEMIJOIN_SQL: &str = "select sum(lineitem.l_extendedprice * lineitem.l_discount) as s \
     from lineitem, orders \
     where lineitem.l_orderkey = orders.rowid \
       and lineitem.l_quantity < 25 and orders.o_orderdate < 9204";

/// FK groupjoin (micro Q5 shape): a grouped one-edge join reports the same
/// `multijoin-build` / `-probe` / `-agg` operators and the edge's estimated
/// vs observed cardinality as the scalar join above, plus the groupjoin
/// decision and its cost terms.
#[test]
fn groupjoin_one_edge_golden() {
    assert_golden(
        "groupjoin_explain_analyze",
        "explain analyze select lineitem.l_orderkey, \
           sum(lineitem.l_extendedprice * lineitem.l_discount) as s \
         from lineitem, orders \
         where lineitem.l_orderkey = orders.rowid and orders.o_orderdate < 9204 \
         group by lineitem.l_orderkey",
    );
}

const WINDOW_SQL: &str = "select l_orderkey, \
     row_number() over (partition by l_returnflag order by l_orderkey) as rn, \
     sum(l_quantity) over (partition by l_returnflag order by l_orderkey) as rq \
     from lineitem where l_shipdate < 9000 order by l_orderkey, rn limit 12";

/// Window + ORDER BY + LIMIT pipeline: the report must carry one counter
/// line per physical stage (window, sort, limit) plus the window strategy's
/// cost terms.
#[test]
fn window_topn_golden() {
    assert_golden(
        "window_topn_explain_analyze",
        &format!("explain analyze {WINDOW_SQL}"),
    );
}

/// The window pipeline's row counters are thread-invariant: `rows_in`,
/// `rows_out`, and `predicate_evals` per stage match exactly at 1, 2, and
/// 8 threads (morsel claims and wall times may differ — those describe the
/// schedule, not the data).
#[test]
fn window_counters_are_thread_invariant() {
    let tpch = swole_tpch::generate(0.004, 99);
    let plan = parse_sql(&format!("explain analyze {WINDOW_SQL}"))
        .expect("parses")
        .plan;
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::builder(to_database(&tpch))
            .threads(threads)
            .metrics(MetricsLevel::Counters)
            .build();
        let report = engine.explain_analyze(&plan).expect("runs");
        let metrics = report.analyze.as_ref().expect("analyze carries metrics");
        let counters: Vec<(String, u64, u64, u64)> = metrics
            .operators
            .iter()
            .map(|op| {
                (
                    op.name.clone(),
                    op.access.rows_in,
                    op.access.rows_out,
                    op.access.predicate_evals,
                )
            })
            .collect();
        assert!(
            counters.iter().any(|(n, ..)| n.starts_with("window")),
            "window stage must report counters at {threads} thread(s): {counters:?}"
        );
        assert!(
            counters.iter().any(|(n, ..)| n == "limit"),
            "limit stage must report counters at {threads} thread(s): {counters:?}"
        );
        per_thread.push((threads, counters));
    }
    let (_, baseline) = &per_thread[0];
    for (threads, counters) in &per_thread[1..] {
        assert_eq!(
            counters, baseline,
            "stage counters drifted between 1 and {threads} thread(s)"
        );
    }
}

/// A statement's operator walls are disjoint, so they add up to at most its
/// elapsed time: a join's probes report theirs inside the aggregation's,
/// and a chain edge's build is not inside its parent's. A scan, a one-edge
/// join, a chain and a window, at 1 and 2 threads.
#[test]
fn operator_walls_add_up_to_at_most_the_elapsed_time() {
    let tpch = swole_tpch::generate(0.004, 99);
    let scan = "select sum(l_quantity) as q from lineitem where l_quantity < 25";
    for threads in [1usize, 2] {
        let engine = Engine::builder(to_database(&tpch))
            .threads(threads)
            .metrics(MetricsLevel::Timings)
            .build();
        for sql in [scan, SEMIJOIN_SQL, MULTIJOIN_SQL, WINDOW_SQL] {
            let plan = parse_sql(sql).expect("parses").plan;
            let res = engine.query(&plan).expect("runs");
            let m = res.metrics().expect("timed");
            let walls: u64 = m.operators.iter().map(|o| o.wall_nanos).sum();
            assert!(walls > 0, "{sql}: no operator wall at {threads} thread(s)");
            assert!(
                walls <= m.elapsed_nanos,
                "{sql}: operator walls {walls} ns > elapsed {} ns at {threads} thread(s)",
                m.elapsed_nanos
            );
        }
    }
}
