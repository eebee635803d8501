//! SQL in, access-aware plan out: run the paper's microbenchmark queries
//! through the SQL frontend and show the technique the planner picks for
//! each.
//!
//! ```text
//! cargo run --release --example sql
//! ```

use swole::plan::{parse_sql, ExplainMode};
use swole::prelude::*;
use swole_micro::{generate, MicroParams};

fn main() {
    // Load the Fig. 7a microbenchmark schema into a catalog.
    let micro = generate(MicroParams {
        r_rows: 500_000,
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
    db.add_table(Table::new("S").with_column("s_x", ColumnData::I8(micro.s.x.clone())));
    db.add_fk("R", "r_fk", "S").expect("FK registers");
    let engine = Engine::builder(db).threads(2).build();

    let queries = [
        // Fig. 7b Q1 at two selectivities: watch the strategy flip.
        "select sum(r_a * r_b) as s from R where r_x < 5 and r_y = 1",
        "select sum(r_a * r_b) as s from R where r_x < 75 and r_y = 1",
        // Q2: group-by aggregation.
        "select r_c, sum(r_a * r_b) as s from R where r_x < 60 and r_y = 1 group by r_c",
        // Q4: FK semijoin.
        "select sum(R.r_a * R.r_b) as s from R, S \
         where R.r_fk = S.rowid and R.r_x < 50 and S.s_x < 50",
        // Q5: groupjoin.
        "select R.r_fk, sum(R.r_a * R.r_b) as s from R, S \
         where R.r_fk = S.rowid and S.s_x < 50 group by R.r_fk",
        // EXPLAIN ANALYZE: execute and report per-operator access counters
        // plus the cost model's predicted-vs-observed comparison.
        "explain analyze select r_c, sum(r_a * r_b) as s \
         from R where r_x < 60 and r_y = 1 group by r_c",
        // EXPLAIN VERIFY: run the static plan verifier's four passes over
        // the composed plan and report what each checked.
        "explain verify select sum(R.r_a * R.r_b) as s from R, S \
         where R.r_fk = S.rowid and R.r_x < 50 and S.s_x < 50",
        // EXPLAIN CODE: print each stage's loop as the paper's C-like code,
        // from the program, instance and join edges the executor runs.
        "explain code select sum(R.r_a * R.r_b) as s from R, S \
         where R.r_fk = S.rowid and R.r_x < 50 and S.s_x < 50",
    ];

    for sql in queries {
        println!("SQL> {sql}");
        let parsed = match parse_sql(sql) {
            Ok(p) => p,
            Err(e) => {
                println!("  parse error: {e}\n");
                continue;
            }
        };
        let plan = parsed.plan;
        match parsed.explain {
            Some(ExplainMode::Analyze) => {
                match engine.explain_analyze(&plan) {
                    Ok(report) => println!("{}\n", textwrap(&report.to_string())),
                    Err(e) => println!("  plan error: {e}\n"),
                }
                continue;
            }
            Some(ExplainMode::Verify) => {
                match engine.explain_verify(&plan) {
                    Ok(report) => println!("{}\n", textwrap(&report.to_string())),
                    Err(e) => println!("  plan error: {e}\n"),
                }
                continue;
            }
            Some(ExplainMode::Code) => {
                match engine.explain_code(&plan) {
                    Ok(report) => println!("{}\n", textwrap(&report.to_string())),
                    Err(e) => println!("  plan error: {e}\n"),
                }
                continue;
            }
            Some(ExplainMode::Plan) => {
                match engine.explain(&plan) {
                    Ok(report) => println!("{}\n", textwrap(&report.to_string())),
                    Err(e) => println!("  plan error: {e}\n"),
                }
                continue;
            }
            None => {}
        }
        match engine.explain(&plan) {
            Ok(report) => println!("{}", textwrap(&report.to_string())),
            Err(e) => {
                println!("  plan error: {e}\n");
                continue;
            }
        }
        let result = engine.query(&plan).expect("planned queries execute");
        let preview: Vec<&[i64]> = result.rows.iter().take(3).collect();
        println!(
            "  -> {} row(s); first rows: {preview:?}\n",
            result.rows.len()
        );
    }

    // Prepared statements: the same Q1 shape with the selectivity knob as
    // a placeholder. Each distinct binding is planned once (the bound
    // literal feeds predicate sampling); repeats hit the plan cache.
    let stmt = engine
        .prepare_sql("select sum(r_a * r_b) as s from R where r_x < $1 and r_y = $2")
        .expect("prepares");
    for cutoff in [5i64, 75, 5, 75] {
        let res = stmt
            .bind(&Params::new().int(cutoff).int(1))
            .expect("binds")
            .execute()
            .expect("executes");
        println!(
            "prepared r_x < {cutoff}: s = {}",
            res.try_scalar("s").unwrap()
        );
    }
    println!(
        "plan cache after prepared runs: {:?}",
        engine.plan_cache_stats()
    );
}

fn textwrap(text: &str) -> String {
    text.lines()
        .map(|l| format!("  {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}
