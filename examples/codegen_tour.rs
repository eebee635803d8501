//! Print the code the engine runs for the paper's running examples — a
//! tour of Figures 1, 3, 4, 5 and the § III-D / § III-E rewrites. Each
//! figure's SQL goes through `EXPLAIN CODE` under the strategy pin that
//! figure shows, and the loop printed is the one the executor dispatches.
//! Where the served loop differs from the figure (Fig. 5's access merging,
//! § III-E's eager aggregation), the section title says so.
//!
//! ```text
//! cargo run --release --example codegen_tour
//! ```

use swole::plan::{parse_sql, ExplainMode};
use swole::prelude::*;

/// The figures' `R(a, x, c, fk)` and `S(x)` of `s_rows` rows, `R.fk`
/// pointing into `S`.
fn db(s_rows: u32) -> Database {
    let n = 1u32 << 16;
    let col = |f: fn(u32) -> i32| ColumnData::I32((0..n).map(f).collect());
    let mut db = Database::new();
    db.add_table(
        Table::new("R")
            .with_column("a", col(|i| (i % 7) as i32))
            .with_column("x", col(|i| (i * 37 % 100) as i32))
            .with_column("c", col(|i| (i % 16) as i32))
            .with_column(
                "fk",
                ColumnData::U32((0..n).map(|i| i * 13 % s_rows).collect()),
            ),
    );
    let s = ColumnData::I32((0..s_rows as i32).map(|i| i * 59 % 100).collect());
    db.add_table(Table::new("S").with_column("x", s));
    db.add_fk("R", "fk", "S").expect("R.fk indexes S");
    db
}

/// Rows of the figures' `S`: above the byte-map budget, so its positional
/// build is the paper's bitmap.
const S_ROWS: u32 = 64 << 10;

fn section(title: &str, pins: StrategyOverrides, sql: &str) {
    section_on(title, S_ROWS, pins, sql);
}

fn section_on(title: &str, s_rows: u32, pins: StrategyOverrides, sql: &str) {
    println!(
        "----- {title} {}",
        "-".repeat(60usize.saturating_sub(title.len()))
    );
    let text = format!("explain code {sql}");
    println!("SQL> {text}");
    let parsed = parse_sql(&text).expect("the figure's SQL parses");
    assert_eq!(parsed.explain, Some(ExplainMode::Code));
    let engine = Engine::builder(db(s_rows)).strategies(pins).build();
    let report = engine.explain_code(&parsed.plan).expect("plans");
    assert!(!report.code.is_empty(), "{title}: no code");
    println!("{}\n", report.code.join("\n"));
}

fn main() {
    let agg = StrategyOverrides::pin_agg;
    let semijoin = StrategyOverrides::pin_semijoin;
    let groupjoin = StrategyOverrides::pin_groupjoin;
    let q = "select sum(a) as s from R where x < 13";

    println!("============ Fig. 1: the hybrid strategy ============\n");
    section("hybrid", agg(AggStrategy::Hybrid), q);

    println!("============ Fig. 3: SWOLE value masking ============\n");
    section("value masking", agg(AggStrategy::ValueMasking), q);

    let g = "select c, sum(a) as s from R where x < 13 group by c";
    println!("============ Fig. 4: group-by ============\n");
    section("value masking", agg(AggStrategy::ValueMasking), g);
    section("key masking", agg(AggStrategy::KeyMasking), g);

    let rep = "select sum(a * x) as s from R where x < 13";
    println!("============ Fig. 5: repeated references ============\n");
    section(
        "access merging, served as the masked fold over x",
        agg(AggStrategy::ValueMasking),
        rep,
    );

    let sj = "select sum(R.a) as s from R, S where R.fk = S.rowid and S.x < 13";
    println!("============ § III-D: semijoin rewrite ============\n");
    section(
        "hash semijoin (original)",
        semijoin(SemiJoinStrategy::Hash),
        sj,
    );
    let packed = SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional);
    section("positional bitmap (SWOLE)", semijoin(packed), sj);
    // A parent whose byte per row fits the modelled L1 is built as a byte
    // map; a filtered probe over it folds in two loops under the i32 proof.
    let masked = "select sum(R.a) as s from R, S where R.fk = S.rowid and R.x < 50 and S.x < 13";
    section_on(
        "positional byte map, S of 1 Ki rows",
        1024,
        semijoin(packed),
        masked,
    );

    let gj = "select R.fk, sum(R.a) as s from R, S \
              where R.fk = S.rowid and S.x < 13 group by R.fk";
    println!("============ § III-E: groupjoin rewrite ============\n");
    section(
        "groupjoin (original)",
        groupjoin(GroupJoinStrategy::GroupJoin),
        gj,
    );
    section(
        "eager aggregation (SWOLE), deleting after the merge",
        groupjoin(GroupJoinStrategy::EagerAggregation),
        gj,
    );
}
