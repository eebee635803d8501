//! Golden snapshot of what the SQL binder produces: the `{:#?}` rendering
//! of the [`LogicalPlan`](swole::plan::LogicalPlan) each statement of a fixed
//! list binds to. The plan cache keys on that rendering, so a binder change
//! that leaves this file alone moved no cache key — and one that does not
//! reordered a conjunct, renested a join or renamed an output column.
//!
//! To regenerate after an intentional binder change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test sql_bind_golden
//! ```

use swole::plan::parse_sql;
use swole_conform::{corpus_files, parse_script, RecordKind};

/// Hand-picked texts: the hot statement kinds of `tests/alloc_invariance.rs`,
/// then FROM lists of one, two and five tables with their conjuncts in
/// shuffled order and under redundant parentheses, a grouped join, a window
/// under `ORDER BY … LIMIT`, and both placeholder styles.
const STATEMENTS: [&str; 17] = [
    "select sum(a * b) as s from R where x < 50",
    "select g, sum(a * b) as s from R where x < 50 group by g",
    "select sum(R.a * R.b) as s from R, S where R.fk = S.rowid and R.x < 50 and S.y < 50",
    "select R.fk, sum(R.a * R.b) as s from R, S where R.fk = S.rowid and S.y < 50 \
     group by R.fk",
    // One table: the WHERE binds whole, parentheses and qualifiers included.
    "select count(*) from R where (x < 50 and (y = 1 and R.a > 2)) and (b between 3 and 9)",
    "select sum(a) as s, min(b) as lo from R where not (x < 5 or y <> 1) and d like 'PROMO%'",
    "select count(*) as n from R",
    // Two tables: the join conjunct last, mirrored, and in parentheses.
    "select sum(R.a) as s from R, S where S.y < 50 and R.x < 50 and S.rowid = R.fk",
    "select sum(R.a) as s from S, R where (R.x < 50 and S.y < 50) and (R.fk = S.rowid) \
     and (R.y = 1 and (S.y > 2))",
    "select max(R.a) as hi from R, S where R.fk = S.rowid",
    "select fk, count(*) as n from R, S where R.fk = S.rowid and R.x < 50 group by fk \
     order by n desc, fk limit 3",
    // Five tables, star plus chain, edges and filters interleaved and shuffled.
    "select sum(lineitem.l_quantity) as q, count(*) as n \
     from lineitem, orders, part, supplier, customer \
     where customer.c_nationkey < 12 and orders.o_custkey = customer.rowid \
       and (supplier.s_nationkey < 15 and lineitem.l_suppkey = supplier.rowid) \
       and part.rowid = lineitem.l_partkey and orders.o_orderdate < 9204 \
       and (lineitem.l_orderkey = orders.rowid) and part.p_size < 30 \
       and lineitem.l_quantity < 24 and orders.o_orderdate > 8000",
    "select count(*) as n from customer, supplier, part, orders, lineitem \
     where lineitem.l_suppkey = supplier.rowid and lineitem.l_partkey = part.rowid \
       and lineitem.l_orderkey = orders.rowid and orders.o_custkey = customer.rowid",
    // A window under result-level ORDER BY … LIMIT.
    "select a, row_number() over (partition by g order by b desc) as rn, \
     sum(b) over (partition by g order by b desc) as s \
     from R where x < 50 and y = 1 order by a, rn desc limit 5",
    "select a, b from R where x < 50 limit 10",
    // Placeholders, anonymous and numbered, through one table and a join.
    "select sum(a) as s from R where x < ? and y >= ?",
    "select sum(R.a) as s from R, S where R.fk = S.rowid and S.y < $1 and R.x < $2 \
     and R.y <> $1",
];

/// Every `query` text of the join and TPC-H conformance scripts.
fn corpus_statements() -> Vec<String> {
    let mut out = Vec::new();
    for file in corpus_files() {
        let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !["join_", "multijoin_", "tpch_"]
            .iter()
            .any(|p| name.starts_with(p))
        {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("corpus file readable");
        for rec in parse_script(&text).expect("corpus file parses") {
            if let RecordKind::Query { sql, .. } = rec.kind {
                out.push(sql);
            }
        }
    }
    assert!(
        out.len() >= 30,
        "corpus shrank to {} join queries",
        out.len()
    );
    out
}

#[test]
fn bound_plans_match_the_golden() {
    let mut got = String::new();
    for sql in STATEMENTS
        .iter()
        .map(|s| s.to_string())
        .chain(corpus_statements())
    {
        let sql = sql.split_whitespace().collect::<Vec<_>>().join(" ");
        let parsed = parse_sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        got.push_str(&format!("-- {sql}\n{:#?}\n", parsed.plan));
        if !parsed.param_slots.is_empty() {
            got.push_str(&format!("{:?}\n", parsed.param_slots));
        }
        got.push('\n');
    }
    let path = format!("{}/tests/golden/sql_bind.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with UPDATE_GOLDEN=1"));
    assert_eq!(
        got, want,
        "the binder's output drifted from tests/golden/sql_bind.txt (cache keys moved); \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
