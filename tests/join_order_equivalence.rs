//! Join-order equivalence: a multi-way join's result must be invariant
//! under the probe order the planner picks — every enumerated order,
//! pinned through [`StrategyOverrides::join_order`], must produce results
//! **bit-identical** to each other, at every thread count in {1, 2, 8},
//! and to the interpreter oracle. All engine runs verify at
//! [`VerifyLevel::Full`].
//!
//! The cardinality tests then check the planner's estimates against
//! `EXPLAIN ANALYZE` observations on the same catalog: uniform
//! independent dimensions must estimate within a factor of two.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swole::plan::{interp, parse_sql};
use swole::prelude::*;

const THREADS: [usize; 3] = [1, 2, 8];

/// Seeded 6-relation star-plus-chain catalog: `fact` fans out to four
/// dimensions (`d1`..`d4`) and `d4` chains into a grandparent `d5`.
/// Dimension values are uniform in 0..100, foreign keys uniform over the
/// parent, so edge selectivities are independent and predictable.
fn make_star_db(seed: u64) -> Database {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = 4000usize;
    let dims: [(&str, &str, usize); 4] = [
        ("d1", "d1_v", 8),
        ("d2", "d2_v", 64),
        ("d3", "d3_v", 16),
        ("d4", "d4_v", 128),
    ];
    let mut db = Database::new();
    let mut fact = Table::new("fact")
        .with_column(
            "f_v",
            ColumnData::I32((0..n).map(|_| rng.gen_range(0i32..100)).collect()),
        )
        .with_column(
            "f_x",
            ColumnData::I32((0..n).map(|_| rng.gen_range(0i32..100)).collect()),
        );
    for (i, (_, _, card)) in dims.iter().enumerate() {
        fact = fact.with_column(
            format!("fk{}", i + 1).as_str(),
            ColumnData::U32((0..n).map(|_| rng.gen_range(0u32..*card as u32)).collect()),
        );
    }
    db.add_table(fact);
    for (name, col, card) in dims {
        let mut t = Table::new(name).with_column(
            col,
            ColumnData::I32((0..card).map(|_| rng.gen_range(0i32..100)).collect()),
        );
        if name == "d4" {
            t = t.with_column(
                "d4_fk",
                ColumnData::U32((0..card).map(|_| rng.gen_range(0u32..32)).collect()),
            );
        }
        db.add_table(t);
    }
    db.add_table(Table::new("d5").with_column(
        "d5_v",
        ColumnData::I32((0..32).map(|_| rng.gen_range(0i32..100)).collect()),
    ));
    for (i, (name, _, _)) in dims.iter().enumerate() {
        db.add_fk("fact", &format!("fk{}", i + 1), name)
            .expect("FK values valid by construction");
    }
    db.add_fk("d4", "d4_fk", "d5")
        .expect("FK values valid by construction");
    db
}

/// The equivalence queries: SQL, plus the direct build sides whose probe
/// order the test permutes (chain grandparents are nested builds, not
/// probe passes, so they are not part of the order).
const QUERIES: [(&str, &str, &[&str]); 4] = [
    (
        "star3",
        "select sum(fact.f_v) as s, count(*) as n from fact, d1, d2 \
         where fact.fk1 = d1.rowid and fact.fk2 = d2.rowid \
         and d1.d1_v < 50 and d2.d2_v < 70",
        &["d1", "d2"],
    ),
    (
        "star4",
        "select sum(fact.f_v) as s, count(*) as n, max(fact.f_v) as mx \
         from fact, d1, d2, d3 \
         where fact.fk1 = d1.rowid and fact.fk2 = d2.rowid and fact.fk3 = d3.rowid \
         and fact.f_x < 80 and d1.d1_v < 50 and d2.d2_v < 70 and d3.d3_v < 60",
        &["d1", "d2", "d3"],
    ),
    (
        "chain3",
        "select sum(fact.f_v) as s, min(fact.f_v) as mn from fact, d4, d5 \
         where fact.fk4 = d4.rowid and d4.d4_fk = d5.rowid and d5.d5_v < 40",
        &["d4"],
    ),
    (
        "mixed6",
        "select sum(fact.f_v) as s, count(*) as n from fact, d1, d2, d3, d4, d5 \
         where fact.fk1 = d1.rowid and fact.fk2 = d2.rowid and fact.fk3 = d3.rowid \
         and fact.fk4 = d4.rowid and d4.d4_fk = d5.rowid \
         and fact.f_x < 60 and d1.d1_v < 70 and d3.d3_v < 50 and d5.d5_v < 55",
        &["d1", "d2", "d3", "d4"],
    ),
];

/// All permutations of `items`, in a deterministic order.
fn permutations(items: &[&str]) -> Vec<Vec<String>> {
    if items.len() <= 1 {
        return vec![items.iter().map(|s| s.to_string()).collect()];
    }
    let mut out = Vec::new();
    for (i, head) in items.iter().enumerate() {
        let rest: Vec<&str> = items
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, s)| *s)
            .collect();
        for mut tail in permutations(&rest) {
            tail.insert(0, head.to_string());
            out.push(tail);
        }
    }
    out
}

fn engine_with(
    order: Option<Vec<String>>,
    configure: impl Fn(EngineBuilder) -> EngineBuilder,
) -> Engine {
    let mut overrides = StrategyOverrides::default();
    if let Some(o) = order {
        overrides = overrides.join_order(o);
    }
    configure(
        Engine::builder(make_star_db(77))
            .verify(VerifyLevel::Full)
            .strategies(overrides),
    )
    .build()
}

/// Every enumerated probe order × every thread count must match the
/// interpreter oracle bit-for-bit.
#[test]
fn every_enumerated_order_is_bit_identical() {
    let oracle_db = make_star_db(77);
    for (name, sql, direct) in QUERIES {
        let plan = parse_sql(sql).expect("equivalence SQL parses").plan;
        let truth = interp::run(&oracle_db, &plan).expect("oracle executes");
        for perm in permutations(direct) {
            for t in THREADS {
                let engine = engine_with(Some(perm.clone()), |b| b.threads(t));
                let got = engine
                    .query(&plan)
                    .unwrap_or_else(|e| panic!("{name} order {perm:?} fails at {t} threads: {e}"));
                assert_eq!(
                    got.rows, truth.rows,
                    "{name} diverges from oracle at {t} threads with order {perm:?}"
                );
                let ex = engine.explain(&plan).expect("explain");
                assert_eq!(
                    ex.join_order.as_deref(),
                    Some(format!("{} (pinned)", perm.join(" -> ")).as_str()),
                    "{name}: pinned order must render in EXPLAIN"
                );
            }
        }
    }
}

/// With no pin, the enumerator uses exact DP at these edge counts and the
/// result still matches the oracle.
#[test]
fn dp_chosen_order_matches_oracle() {
    let oracle_db = make_star_db(77);
    for (name, sql, _) in QUERIES {
        let plan = parse_sql(sql).expect("equivalence SQL parses").plan;
        let truth = interp::run(&oracle_db, &plan).expect("oracle executes");
        let engine = engine_with(None, |b| b.threads(8));
        let got = engine
            .query(&plan)
            .unwrap_or_else(|e| panic!("{name} fails under DP order: {e}"));
        assert_eq!(got.rows, truth.rows, "{name} diverges under DP order");
        let ex = engine.explain(&plan).expect("explain");
        let order = ex.join_order.expect("multi-way joins report an order");
        assert!(
            order.ends_with("(dp)"),
            "{name}: expected exact DP at this edge count, got {order:?}"
        );
    }
}

/// Invalid pins fail at plan time with a typed error, not a wrong answer.
#[test]
fn bad_order_pins_are_plan_errors() {
    let plan = parse_sql(QUERIES[0].1).expect("parses").plan;
    for (pin, why) in [
        (vec!["d1".to_string()], "must name every build side"),
        (
            vec!["d1".to_string(), "d3".to_string()],
            "not a build side of this query",
        ),
        (vec!["d1".to_string(), "d1".to_string()], "names d1 twice"),
    ] {
        let engine = engine_with(Some(pin.clone()), |b| b.threads(2));
        let err = engine
            .query(&plan)
            .expect_err("invalid join-order pin must not execute");
        assert!(
            err.to_string().contains(why),
            "pin {pin:?}: error {err} should mention {why:?}"
        );
    }
}

/// Per-edge build-side pins compose with order pins and stay equivalent.
#[test]
fn build_side_pins_stay_equivalent() {
    let oracle_db = make_star_db(77);
    let (name, sql, _) = QUERIES[1];
    let plan = parse_sql(sql).expect("parses").plan;
    let truth = interp::run(&oracle_db, &plan).expect("oracle executes");
    for strat in [
        SemiJoinStrategy::Hash,
        SemiJoinStrategy::PositionalBitmap(BitmapBuild::Unconditional),
    ] {
        let overrides = StrategyOverrides::default()
            .join_order(vec!["d3".into(), "d2".into(), "d1".into()])
            .build_side("d2", strat);
        let engine = Engine::builder(make_star_db(77))
            .threads(8)
            .verify(VerifyLevel::Full)
            .strategies(overrides)
            .build();
        let got = engine
            .query(&plan)
            .unwrap_or_else(|e| panic!("{name} with {strat:?} build-side pin fails: {e}"));
        assert_eq!(
            got.rows, truth.rows,
            "{name} diverges with pinned {strat:?} build side"
        );
    }
}

/// Uniform independent dimensions: every direct edge's estimated
/// cardinality lands within a factor of two of the observed cardinality,
/// and nested chain edges report observations through their build op.
#[test]
fn cardinality_estimates_track_observations() {
    let engine = engine_with(None, |b| b.threads(2));
    for (name, sql, direct) in [QUERIES[1], QUERIES[3]] {
        let plan = parse_sql(sql).expect("parses").plan;
        let ex = engine.explain_analyze(&plan).expect("explain analyze");
        assert_eq!(
            ex.join_tree.iter().filter(|e| e.depth == 0).count(),
            direct.len(),
            "{name}: one tree entry per direct edge"
        );
        for edge in &ex.join_tree {
            let observed = edge
                .observed_rows
                .unwrap_or_else(|| panic!("{name}: edge {} has no observation", edge.parent));
            let (est, obs) = (edge.est_rows as f64, observed as f64);
            assert!(
                est <= 2.0 * obs.max(1.0) && est >= obs / 2.0,
                "{name}: edge {} estimate {est} vs observed {obs} outside 2x",
                edge.parent
            );
            assert!(
                edge.build_side == "hash" || edge.build_side == "positional-bitmap",
                "{name}: edge {} has unexpected build side {}",
                edge.parent,
                edge.build_side
            );
        }
        assert!(
            ex.join_tree.iter().any(|e| e.depth > 0) == sql.contains("d4_fk"),
            "{name}: chain edges appear iff the query chains"
        );
    }
}

/// `EXPLAIN ANALYZE` is one function behind three doors: on a two-edge
/// join the engine, a session and a bound statement report the same join
/// tree, every probe edge with its observation, and render it. (When each
/// door had its own copy of the body, only the engine's filled
/// `observed_rows`.)
#[test]
fn every_explain_analyze_door_reports_observed_join_cardinalities() {
    let engine = engine_with(None, |b| b.threads(2));
    let (name, sql, direct) = QUERIES[0];
    let plan = parse_sql(sql).expect("parses").plan;
    let bound = engine
        .prepare(&plan)
        .and_then(|stmt| stmt.bind(&Params::new()))
        .expect("binds");
    let doors = [
        ("Engine", engine.explain_analyze(&plan)),
        ("Session", engine.session().explain_analyze(&plan)),
        ("BoundStatement", bound.explain_analyze()),
    ];
    let mut trees = Vec::new();
    for (door, ex) in doors {
        let ex = ex.unwrap_or_else(|e| panic!("{name} through {door}: {e}"));
        let probes: Vec<_> = ex.join_tree.iter().filter(|e| e.depth == 0).collect();
        assert_eq!(probes.len(), direct.len(), "{name} through {door}");
        let text = ex.to_string();
        for edge in probes {
            let observed = edge
                .observed_rows
                .unwrap_or_else(|| panic!("{door}: edge {} has no observation", edge.parent));
            let line = format!(
                "edge {} -> {} [{}] est {} rows, observed {observed} rows",
                edge.fk_col, edge.parent, edge.build_side, edge.est_rows
            );
            assert!(text.contains(&line), "{door}: no `{line}` in\n{text}");
        }
        trees.push(ex.join_tree);
    }
    assert!(trees.iter().all(|t| *t == trees[0]), "{trees:#?}");
}
