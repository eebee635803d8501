//! Prepared-statement layer: placeholders end to end, typed binding,
//! bind-mismatch errors, thread-safety of a shared statement, and
//! prepared-vs-ad-hoc equivalence on TPC-H Q6 at several thread counts.

use std::thread;

use swole::prelude::*;
use swole_tpch::catalog::to_database;

fn micro_db() -> Database {
    let n = 10_000usize;
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column(
                "r_a",
                ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
            )
            .with_column(
                "r_x",
                ColumnData::I8((0..n).map(|i| (i * 7 % 100) as i8).collect()),
            )
            .with_column(
                "r_mode",
                ColumnData::Dict(DictColumn::encode(
                    &(0..n)
                        .map(|i| ["AIR", "RAIL", "SHIP"][i % 3])
                        .collect::<Vec<_>>(),
                )),
            )
            .with_column(
                "r_date",
                ColumnData::I32((0..n).map(|i| 8000 + (i % 400) as i32).collect()),
            )
            .with_column(
                "r_price",
                ColumnData::I32((0..n).map(|i| (100 + i % 5000) as i32).collect()),
            ),
    );
    db
}

#[test]
fn placeholders_bind_like_literals() {
    let engine = Engine::builder(micro_db()).threads(2).build();
    let stmt = engine
        .prepare_sql("select sum(r_a) as s, count(*) as n from R where r_x < ?")
        .expect("prepares");
    assert_eq!(stmt.param_count(), 1);
    for cutoff in [0i64, 13, 50, 100] {
        let got = stmt
            .bind(&Params::new().int(cutoff))
            .expect("binds")
            .execute()
            .expect("executes");
        let adhoc = engine
            .query(
                &swole::plan::parse_sql(&format!(
                    "select sum(r_a) as s, count(*) as n from R where r_x < {cutoff}"
                ))
                .expect("parses")
                .plan,
            )
            .expect("runs");
        assert_eq!(got, adhoc, "cutoff {cutoff}");
    }
}

#[test]
fn typed_params_decimal_date_and_str() {
    let engine = Engine::builder(micro_db()).build();

    // Date binding: the raw day-number encoding is invisible to the caller.
    let stmt = engine
        .prepare_sql("select count(*) as n from R where r_date < $1")
        .expect("prepares");
    let d = Date(8200);
    let got = stmt
        .bind(&Params::new().date(d))
        .expect("binds")
        .execute()
        .expect("executes");
    let adhoc = engine
        .query(
            &swole::plan::parse_sql(&format!(
                "select count(*) as n from R where r_date < {}",
                d.days()
            ))
            .expect("parses")
            .plan,
        )
        .expect("runs");
    assert_eq!(got, adhoc);

    // Decimal binding: scale-100 raw units.
    let stmt = engine
        .prepare_sql("select count(*) as n from R where r_price < ?")
        .expect("prepares");
    let price = Decimal::new(30, 0); // raw 3000
    let got = stmt
        .bind(&Params::new().decimal(price))
        .expect("binds")
        .execute()
        .expect("executes");
    let adhoc = engine
        .query(
            &swole::plan::parse_sql(&format!(
                "select count(*) as n from R where r_price < {}",
                price.raw()
            ))
            .expect("parses")
            .plan,
        )
        .expect("runs");
    assert_eq!(got, adhoc);

    // String binding rewrites to a dictionary IN-list.
    let stmt = engine
        .prepare_sql("select count(*) as n from R where r_mode = ?")
        .expect("prepares");
    let got = stmt
        .bind(&Params::new().str("RAIL"))
        .expect("binds")
        .execute()
        .expect("executes");
    let adhoc = engine
        .query(
            &swole::plan::parse_sql("select count(*) as n from R where r_mode in ('RAIL')")
                .expect("parses")
                .plan,
        )
        .expect("runs");
    assert_eq!(got, adhoc);
    assert!(got.try_scalar("n").unwrap() > 0);
}

#[test]
fn bind_mismatches_are_typed_errors() {
    let engine = Engine::builder(micro_db()).build();
    let stmt = engine
        .prepare_sql("select sum(r_a) as s from R where r_x < ? and r_a < ?")
        .expect("prepares");
    assert_eq!(stmt.param_count(), 2);
    // Too few, too many.
    assert!(matches!(
        stmt.bind(&Params::new().int(1)),
        Err(PlanError::BindMismatch(_))
    ));
    assert!(matches!(
        stmt.bind(&Params::new().int(1).int(2).int(3)),
        Err(PlanError::BindMismatch(_))
    ));
    // A string where only an ordered comparison is possible.
    assert!(matches!(
        stmt.bind(&Params::new().int(1).str("AIR")),
        Err(PlanError::BindMismatch(_))
    ));
    // EXPLAIN can be neither prepared nor run as a text, and both doors
    // say so with one message that names the four explain calls.
    let explain_err = |res: Result<_, PlanError>| match res {
        Err(PlanError::Unsupported(msg)) => msg,
        other => panic!("EXPLAIN text accepted: {other:?}"),
    };
    let prepared = explain_err(
        engine
            .prepare_sql("explain select sum(r_a) as s from R where r_x < ?")
            .map(|_| ()),
    );
    let run = explain_err(
        engine
            .session()
            .query_sql(
                "explain select sum(r_a) as s from R where r_x < 13",
                &Params::new(),
            )
            .map(|_| ()),
    );
    assert_eq!(prepared, run);
    for call in [
        "explain",
        "explain_analyze",
        "explain_verify",
        "explain_code",
    ] {
        assert!(run.contains(call), "{call} not named: {run}");
    }
    assert!(!run.contains("cannot be prepared"), "{run}");
}

#[test]
fn shared_statement_hammered_from_four_threads_is_bit_identical() {
    let engine = Engine::builder(micro_db()).threads(2).build();
    let stmt = engine
        .prepare_sql("select sum(r_a) as s, count(*) as n from R where r_x < ?")
        .expect("prepares");
    let baseline = stmt
        .bind(&Params::new().int(42))
        .expect("binds")
        .execute()
        .expect("executes");

    let results: Vec<QueryResult> = thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let stmt = stmt.clone();
                s.spawn(move || {
                    (0..10)
                        .map(|_| {
                            stmt.bind(&Params::new().int(42))
                                .expect("binds")
                                .execute()
                                .expect("executes")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("no panics"))
            .collect()
    });
    assert_eq!(results.len(), 40);
    for r in &results {
        assert_eq!(r.columns, baseline.columns);
        assert_eq!(r.rows, baseline.rows, "results must be bit-identical");
    }
    // The shared cache served the repeats without re-planning.
    let stats = engine.plan_cache_stats();
    assert!(stats.hits >= 39, "expected ≥39 cache hits, got {stats:?}");
}

#[test]
fn positional_value_access_errors_are_typed_not_panics() {
    let engine = Engine::builder(micro_db()).build();
    let grouped = engine
        .query(
            &swole::plan::parse_sql("select r_mode, count(*) as n from R group by r_mode")
                .expect("parses")
                .plan,
        )
        .expect("runs");
    assert_eq!(grouped.rows.len(), 3);

    // In-range: the dictionary key decodes as Str, aggregates as Int.
    assert!(matches!(grouped.value(0, 0), Ok(Value::Str(_))));
    assert!(matches!(grouped.value(2, 1), Ok(Value::Int(_))));

    // One past the last row: a typed row-axis error carrying the bound.
    match grouped.value(3, 0) {
        Err(PlanError::IndexOutOfRange { axis, index, len }) => {
            assert_eq!((axis, index, len), ("row", 3, 3));
        }
        other => panic!("expected a typed row error, got {other:?}"),
    }
    // One past the last column on a valid row: the column axis.
    match grouped.value(0, 2) {
        Err(PlanError::IndexOutOfRange { axis, index, len }) => {
            assert_eq!((axis, index, len), ("column", 2, 2));
        }
        other => panic!("expected a typed column error, got {other:?}"),
    }
    // Far past either edge stays an error, never a panic.
    assert!(grouped.value(usize::MAX, 0).is_err());
    assert!(grouped.value(0, usize::MAX).is_err());

    // The errors render the offending index and the bound for debugging.
    let msg = grouped.value(9, 9).unwrap_err().to_string();
    assert!(msg.contains('9'), "message names the index: {msg}");

    // An empty result errors on any row, including row 0.
    let empty = engine
        .query(
            &swole::plan::parse_sql("select r_a from R where r_a < 0 order by r_a")
                .expect("parses")
                .plan,
        )
        .expect("runs");
    assert_eq!(empty.rows.len(), 0);
    assert!(matches!(
        empty.value(0, 0),
        Err(PlanError::IndexOutOfRange { axis: "row", .. })
    ));
}

#[test]
fn q6_prepared_matches_adhoc_at_one_two_eight_threads() {
    let tpch = swole_tpch::generate(0.004, 99);
    let (lo, hi) = (swole_tpch::q6_date_lo(), swole_tpch::q6_date_hi());
    let sql_prepared = "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= $1 and l_shipdate < $2 \
           and l_discount between 5 and 7 and l_quantity < $3";
    let sql_adhoc = format!(
        "select sum(l_extendedprice * l_discount) as revenue from lineitem \
         where l_shipdate >= {} and l_shipdate < {} \
           and l_discount between 5 and 7 and l_quantity < 24",
        lo.days(),
        hi.days()
    );

    let mut results = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::builder(to_database(&tpch)).threads(threads).build();
        let adhoc = engine
            .query(&swole::plan::parse_sql(&sql_adhoc).expect("parses").plan)
            .expect("runs");
        let stmt = engine.prepare_sql(sql_prepared).expect("prepares");
        let bound = stmt
            .bind(&Params::new().date(lo).date(hi).int(24))
            .expect("binds");
        let first = bound.execute().expect("executes");
        let second = bound.execute().expect("executes");
        assert_eq!(first, adhoc, "prepared == ad-hoc at {threads} thread(s)");
        assert_eq!(second, adhoc, "repeat run identical at {threads} thread(s)");

        // The repeat skipped planning: the cache reports hits, and EXPLAIN
        // says the next run would reuse the cached plan.
        let stats = engine.plan_cache_stats();
        assert!(
            stats.hits >= 1,
            "expected a cache hit at {threads} thread(s)"
        );
        let report = bound.explain().expect("explains");
        assert_eq!(report.plan_source.as_deref(), Some("cached"));

        results.push(first.rows[0][0]);
    }
    // Bit-identical across parallelism degrees.
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
}
